"""The pinned proof corpus: validator queries whose proofs must not move.

Each entry is one equivalence query, a target and a rewrite of a suite
kernel, stored as ``.s`` text in ``benchmarks/proof_corpus/`` with its
live spec in the header. ``corpus.json`` records what proving it gave:

* ``cnf_sha256``: the blasted CNF (variable count and clauses, in order);
* ``verdict``: ``unsat`` (equivalent) or ``sat`` (refuted);
* ``conflicts``, ``decisions`` and ``propagations`` of the SAT solver;
* ``learned_sha256``: the solver's learned clauses, in order;
* ``model_sha256``: the solver's bit model (SAT only);
* ``counterexample``: the refuting initial state's registers and a
  digest of its memory (SAT only);
* ``rewritten_verdict``, ``rewritten_cnf_sha256``,
  ``rewritten_conflicts`` and ``rewritten_learned_sha256``: the same
  for the query :meth:`Validator.validate` decides, after the
  word-level rewrite of ``repro.smt.rewrite`` (``None`` where the
  rewrite settles the query and no solver runs).

Every other number is the query as symbolic execution builds it,
before the rewrite, taken from the validator's internal query builder.
A change that only makes proofs cheaper (the SAT core, symbolic
execution) must reproduce every number::

    python benchmarks/proof_corpus.py check        # re-prove every entry
    python benchmarks/proof_corpus.py regenerate   # rebuild the corpus

``regenerate`` reruns the sessions the queries come from (the
interleaved, checkpointed p01/p03/p06/p14 sweep of 8 + 8 chains of
60 + 60 proposals at search seeds 101, 102 and 2025138564, and mont
sessions of 1 + 1 chains of 200 + 1000 proposals at seeds 42 and 48),
picks the entries and rewrites the directory. It takes about half a
minute on a 2-core x86-64 VM.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import repro.smt.solver as bv_solver  # noqa: E402
from repro.smt.sat import CNF, Solver  # noqa: E402
from repro.verifier.validator import LiveSpec, Validator  # noqa: E402
from repro.x86.parser import parse_program  # noqa: E402
from repro.x86.printer import format_program  # noqa: E402
from repro.x86.program import Program  # noqa: E402

CORPUS = Path(__file__).resolve().parent / "proof_corpus"

#: Search seeds of the sweep: two fixed ones and one drawn at random.
SWEEP_SEEDS = (101, 102, 2025138564)
SWEEP_KERNELS = ("p01", "p03", "p06", "p14")
MONT_SEEDS = (42, 48)
#: What is pinned of the rewritten query each validator call decides.
REWRITTEN_KEYS = ("verdict", "cnf_sha256", "conflicts", "learned_sha256")


@dataclass
class Proof:
    """One validator query, proved, and the solver that decided it."""

    numbers: dict
    solver: Solver | None = None


def _digest(value) -> str:
    text = json.dumps(value, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _recorded(decide) -> tuple[dict, Solver | None]:
    """Run ``decide`` (a validator call) and record the one solver it
    makes; the numbers of that proof."""
    seen: list[tuple[str, CNF, Solver]] = []

    class Recording(Solver):
        def __init__(self, cnf: CNF, **kwargs) -> None:
            cnf_sha = _digest([cnf.num_vars, cnf.clauses])
            super().__init__(cnf, **kwargs)
            seen.append((cnf_sha, cnf, self))

    original = bv_solver.Solver
    bv_solver.Solver = Recording
    try:
        result = decide()
    finally:
        bv_solver.Solver = original
    numbers = {"verdict": "unsat" if result.equivalent else "sat"}
    if not seen:
        return {**numbers, "cnf_sha256": None}, None
    (cnf_sha, cnf, solver), = seen
    numbers.update(
        cnf_sha256=cnf_sha, num_vars=cnf.num_vars,
        num_clauses=len(cnf.clauses), conflicts=solver.conflicts,
        decisions=solver.decisions, propagations=solver.propagations,
        learned_sha256=_digest(solver.learned))
    if not result.equivalent:
        cex = result.counterexample
        numbers["model_sha256"] = _digest(sorted(solver.model.items()))
        numbers["counterexample"] = {
            "registers": cex.registers,
            "memory_sha256": _digest(sorted(cex.memory.items()))}
    return numbers, solver


def prove(target: Program, rewrite: Program, spec: LiveSpec) -> Proof:
    """Prove the query as symbolic execution builds it, and as the
    validator decides it after its word-level rewrite, each with a fresh
    :class:`Validator`; the solver is the unrewritten query's."""
    validator = Validator()
    query = validator._query(target, rewrite, spec)
    numbers, solver = _recorded(lambda: validator._decide(
        query, query.roots, time.perf_counter()))
    rewritten, _ = _recorded(
        lambda: Validator().validate(target, rewrite, spec))
    for key in REWRITTEN_KEYS:
        numbers[f"rewritten_{key}"] = rewritten.get(key)
    return Proof(numbers, solver)


# -- the stored form ----------------------------------------------------------


def entry_text(entry: dict, target: Program, rewrite: Program,
               spec: LiveSpec) -> str:
    assert not spec.mem_out, "the corpus stores register specs only"
    return "\n".join([
        f"# proof corpus entry {entry['name']}: {entry['origin']}",
        f"# live_in: {' '.join(spec.live_in)}",
        f"# live_out: {' '.join(spec.live_out)}",
        "# target", format_program(target),
        "# rewrite", format_program(rewrite), ""])


def load_entry(name: str) -> tuple[Program, Program, LiveSpec]:
    """The target, rewrite and spec stored for one entry."""
    lines = (CORPUS / f"{name}.s").read_text().splitlines()
    header = {key: value.split() for key, _, value in
              (line[2:].partition(": ") for line in lines
               if line.startswith(("# live_in:", "# live_out:")))}
    split = lines.index("# rewrite")
    target = parse_program("\n".join(lines[lines.index("# target"):split]))
    rewrite = parse_program("\n".join(lines[split:]))
    return target, rewrite, LiveSpec(tuple(header["live_in"]),
                                     tuple(header["live_out"]))


def load_corpus() -> list[dict]:
    return json.loads((CORPUS / "corpus.json").read_text())["entries"]


def check(entries: list[dict]) -> list[str]:
    """Re-prove each entry; one line per number that moved."""
    problems = []
    for entry in entries:
        got = prove(*load_entry(entry["name"])).numbers
        for key, expected in entry["expected"].items():
            if got.get(key) != expected:
                problems.append(f"{entry['name']}: {key} is {got.get(key)!r},"
                                f" recorded {expected!r}")
    return problems


# -- regeneration -------------------------------------------------------------


def _sweep_queries(seed: int) -> list[tuple]:
    from repro.api import EngineOptions, SearchConfig, Session, Target
    from repro.engine.sweep import run_campaigns
    config = SearchConfig(seed=seed, synthesis_proposals=60,
                          optimization_proposals=60, synthesis_chains=8,
                          optimization_chains=8, ell=12, testcase_count=16,
                          optimization_restarts=4)
    with tempfile.TemporaryDirectory() as run_dir:
        sessions = [Session(Target.from_suite(kernel), config=config,
                            engine=EngineOptions(
                                run_dir=Path(run_dir) / kernel,
                                interleave=True))
                    for kernel in SWEEP_KERNELS]
        return _captured(lambda: run_campaigns(
            [session.campaign() for session in sessions]))


def _mont_queries(seed: int) -> list[tuple]:
    from repro.api import SearchConfig, Session, Target
    config = SearchConfig(seed=seed, synthesis_proposals=200,
                          optimization_proposals=1000, ell=12,
                          testcase_count=16, optimization_restarts=4)
    return _captured(Session(Target.from_suite("mont"), config=config).run)


def _captured(run) -> list[tuple]:
    """Every distinct (target, rewrite, spec) that ``run`` validates."""
    queries: dict[tuple, tuple] = {}
    original = Validator.validate

    def recording(self, target, rewrite, spec):
        key = (format_program(target), format_program(rewrite), spec)
        queries.setdefault(key, (target, rewrite, spec))
        return original(self, target, rewrite, spec)

    Validator.validate = recording
    try:
        run()
    finally:
        Validator.validate = original
    return list(queries.values())


def _kernel_of(target: Program) -> str:
    from repro.api import Target
    for kernel in SWEEP_KERNELS + ("mont",):
        if format_program(Target.from_suite(kernel).program) == \
                format_program(target):
            return kernel
    raise ValueError("a query whose target is no corpus kernel")


def regenerate() -> list[dict]:
    """Rerun the sessions and pick the entries:

    * p14's costliest query at each of sweep seeds 102 and 2025138564;
    * every query of the costliest count at sweep seed 101;
    * the refuted sweep query with the most conflicts;
    * every query of the mont sessions that reaches the solver.
    """
    picked: list[tuple[str, str, tuple, Proof]] = []
    refuted = []
    for seed in SWEEP_SEEDS:
        proofs = [(query, prove(*query)) for query in _sweep_queries(seed)]
        solved = [(query, proof) for query, proof in proofs
                  if proof.solver is not None]
        refuted += [(f"sweep-{seed}", query, proof)
                    for query, proof in solved
                    if proof.numbers["verdict"] == "sat"]
        if seed == 101:
            top = max(proof.solver.conflicts for _, proof in solved)
            chosen = [item for item in solved
                      if item[1].solver.conflicts == top]
        else:
            chosen = [max((item for item in solved
                           if _kernel_of(item[0][0]) == "p14"),
                          key=lambda item: item[1].solver.conflicts)]
        picked += [(f"sweep-{seed}", f"{_kernel_of(query[0])}-{seed}",
                    query, proof) for query, proof in chosen]
    origin, query, proof = max(refuted,
                               key=lambda item: item[2].solver.conflicts)
    picked.append((origin, f"sat-{_kernel_of(query[0])}", query, proof))
    for seed in MONT_SEEDS:
        for query in _mont_queries(seed):
            proof = prove(*query)
            if proof.solver is not None:
                picked.append((f"mont-{seed}", f"mont-{seed}", query, proof))
    entries = []
    names: dict[str, int] = {}
    for origin, stem, query, proof in picked:
        names[stem] = names.get(stem, 0) + 1
        name = f"{stem}-{names[stem]}"
        entry = {"name": name, "origin": origin,
                 "kernel": _kernel_of(query[0]), "expected": proof.numbers}
        text = entry_text(entry, *query)
        CORPUS.mkdir(exist_ok=True)
        (CORPUS / f"{name}.s").write_text(text)
        if prove(*load_entry(name)).numbers != proof.numbers:
            raise RuntimeError(f"{name}: the stored text poses another "
                               "query than the one proved")
        entries.append(entry)
    (CORPUS / "corpus.json").write_text(
        json.dumps({"entries": entries}, indent=1) + "\n")
    return entries


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("command", choices=("check", "regenerate"))
    args = parser.parse_args(argv)
    if args.command == "regenerate":
        for entry in regenerate():
            print(entry["name"], json.dumps(entry["expected"]))
        return 0
    entries = load_corpus()
    problems = check(entries)
    for line in problems:
        print(line)
    print(f"{len(entries)} entries, {len(problems)} numbers moved")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
