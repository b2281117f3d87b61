"""Certify the SAT solver's answers over the proof corpus or a campaign.

Every UNSAT answer (an *equivalent* verdict) must pass the RUP check of
``rup.py`` and every SAT model must satisfy its CNF::

    python tests/smt/proof_audit.py corpus
    python tests/smt/proof_audit.py campaign p01 p03 p14 --interleave --chains 2

``corpus`` re-proves every entry of ``benchmarks/proof_corpus/``, checks
the recorded numbers and certifies each answer. ``campaign`` runs
``repro engine campaign`` with the given arguments in this process
(the serial executor, so every proof happens here) and certifies every
answer the solver gives. Either exits 1 on any failure, and also when
it certified no UNSAT at all: an audit that checked nothing fails.
"""

from __future__ import annotations

import importlib.util
import sys
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from rup import certify_unsat, satisfies  # noqa: E402

from repro.smt.sat import Solver  # noqa: E402


class Tally:
    """What an audit checked, and what failed."""

    def __init__(self) -> None:
        self.unsat = 0
        self.sat = 0
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


def audit_campaign(tally: Tally, args: list[str]) -> None:
    from repro.cli import main
    with certifying(tally):
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
          f"answers; {len(tally.failures)} failures")
    return 1 if tally.failures or not tally.unsat else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
