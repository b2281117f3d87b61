"""Certify the SAT solver's answers over the proof corpus or a campaign.

Every UNSAT answer (an *equivalent* verdict) must pass the RUP check of
``rup.py`` and every SAT model must satisfy its CNF::

    python tests/smt/proof_audit.py corpus
    python tests/smt/proof_audit.py campaign p01 p03 p14 --interleave --chains 2

``corpus`` re-proves every entry of ``benchmarks/proof_corpus/``, checks
the recorded numbers and certifies each answer. ``campaign`` runs
``repro engine campaign`` with the given arguments in this process
(the serial executor, so every proof happens here) and certifies every
answer the solver gives. Both modes cross-check validator calls: each
query is decided a second time as symbolic execution built it, before
the word-level rewrite, and the two verdicts must agree; and each
refutation's counterexample is replayed on the reference ``Emulator``,
which must tell the two programs apart. ``corpus`` cross-checks the
validator call of every entry but mont's. Either mode exits 1 on any
failure, and also when it certified no UNSAT at all; ``corpus`` also
exits 1 when it replayed no refutation. An audit that checked nothing
fails. (``campaign`` may replay none: whether its search meets a
refutation depends on the kernels and seed it is given.)
"""

from __future__ import annotations

import importlib.util
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from rup import certify_unsat, satisfies  # noqa: E402

from repro.smt.sat import Solver  # noqa: E402
from repro.testgen.annotations import Annotations  # noqa: E402
from repro.testgen.generator import TestcaseGenerator  # noqa: E402
from repro.verifier.validator import Validator  # noqa: E402


class Tally:
    """What an audit checked, and what failed."""

    def __init__(self) -> None:
        self.unsat = 0
        self.sat = 0
        self.cross_checked = 0
        self.replayed = 0
        self.failures: list[str] = []

    def audit(self, solver: Solver, clauses, sat: bool,
              assumptions=()) -> None:
        if sat:
            self.sat += 1
            if not satisfies(clauses, solver.model):
                self.failures.append("a SAT model falsifies its CNF")
            return
        self.unsat += 1
        problem = certify_unsat(clauses, solver.learned, assumptions)
        if problem is not None:
            self.failures.append(f"uncertified UNSAT: {problem}")


@contextmanager
def certifying(tally: Tally):
    """Audit every :meth:`Solver.solve` made inside the block."""
    init, solve = Solver.__init__, Solver.solve

    def recording_init(self, cnf, **kwargs):
        init(self, cnf, **kwargs)
        self.audit_clauses = cnf.clauses

    def audited_solve(self, assumptions=None):
        sat = solve(self, assumptions)
        tally.audit(self, self.audit_clauses, sat, assumptions or ())
        return sat

    Solver.__init__, Solver.solve = recording_init, audited_solve
    try:
        yield tally
    finally:
        Solver.__init__, Solver.solve = init, solve


@contextmanager
def cross_checking(tally: Tally):
    """Check every :meth:`Validator.validate` made inside the block: the
    unrewritten query must get the same verdict, and the reference
    emulator must reproduce every refutation."""
    validate = Validator.validate

    def checked(self, target, rewrite, spec):
        result = validate(self, target, rewrite, spec)
        query = self._query(target, rewrite, spec)
        plain = self._decide(query, query.roots, time.perf_counter())
        tally.cross_checked += 1
        if plain.equivalent != result.equivalent:
            tally.failures.append(
                f"the rewritten query says equivalent={result.equivalent},"
                f" the unrewritten one {plain.equivalent}:\n{rewrite}")
        if not result.equivalent:
            tally.replayed += 1
            generator = TestcaseGenerator(target, spec, Annotations())
            if not generator.refutes(rewrite, result.counterexample):
                tally.failures.append(
                    "the reference emulator does not reproduce the "
                    f"refutation {result.counterexample}:\n{rewrite}")
        return result

    Validator.validate = checked
    try:
        yield tally
    finally:
        Validator.validate = validate


def proof_corpus():
    """The ``benchmarks/proof_corpus.py`` module."""
    path = ROOT / "benchmarks" / "proof_corpus.py"
    spec = importlib.util.spec_from_file_location("proof_corpus", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def audit_corpus(tally: Tally, *, mont: bool = True) -> None:
    corpus = proof_corpus()
    entries = [entry for entry in corpus.load_corpus()
               if mont or entry["kernel"] != "mont"]
    with certifying(tally):
        tally.failures += corpus.check(entries)
        # mont stays out of the replay: its refutations are spurious
        # models of the 64-bit multiply UF, which no program run
        # reproduces (``repro validate mont`` exits 8)
        with cross_checking(tally):
            for entry in entries:
                if entry["kernel"] != "mont":
                    Validator().validate(*corpus.load_entry(entry["name"]))


def audit_campaign(tally: Tally, args: list[str]) -> None:
    from repro.cli import main
    with certifying(tally), cross_checking(tally):
        code = main(["engine", "campaign", *args])
    if code != 0:
        tally.failures.append(f"the campaign exited {code}")


def main(argv: list[str]) -> int:
    tally = Tally()
    if argv[:1] == ["corpus"]:
        audit_corpus(tally)
    elif argv[:1] == ["campaign"]:
        audit_campaign(tally, argv[1:])
    else:
        print(__doc__)
        return 2
    for failure in tally.failures:
        print(failure)
    print(f"certified {tally.unsat} UNSAT and checked {tally.sat} SAT "
          f"answers; decided {tally.cross_checked} queries unrewritten "
          f"and replayed {tally.replayed} refutations; "
          f"{len(tally.failures)} failures")
    unreplayed = argv[:1] == ["corpus"] and not tally.replayed
    return 1 if tally.failures or not tally.unsat or unreplayed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
