"""Inner-loop throughput: compiled vs reference candidate evaluation.

Runs the same MCMC chain (identical seeds, identical proposal streams,
identical accept/reject decisions — the two evaluators are bit-identical
by construction) under both evaluators and reports proposals/second and
testcases/proposal per kernel, the quantities behind Figure 2's
throughput claim and the ROADMAP's "as fast as the hardware allows".
Suites default to the paper's 32 testcases per target. Search
telemetry is always recorded, so its cost is inside both numbers.

Usage::

    PYTHONPATH=src python benchmarks/bench_inner_loop.py \
        --kernels p01 p14 --proposals 6000 --out BENCH_inner_loop.json

Exits nonzero if the compiled evaluator is slower than the reference on
any kernel (the CI smoke gate). The JSON artifact has one entry per
kernel plus the overall verdict.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from repro.cost.function import CostFunction, Phase
from repro.search.config import SearchConfig
from repro.search.mcmc import ChainResult, MCMCSampler
from repro.search.moves import MoveGenerator
from repro.suite.registry import benchmark as get_benchmark
from repro.testgen.generator import TestcaseGenerator

DEFAULT_KERNELS = ("p01", "p14")


def run_chain(kernel: str, evaluator: str, proposals: int, *,
              testcases: int = 32, seed: int = 11) -> ChainResult:
    """One synthesis-style chain under the given evaluator."""
    bench = get_benchmark(kernel)
    generator = TestcaseGenerator(bench.o0, bench.spec,
                                  bench.annotations, seed=0)
    suite = generator.generate(testcases)
    cost = CostFunction(suite, bench.o0, phase=Phase.SYNTHESIS,
                        evaluator=evaluator)
    config = SearchConfig(ell=10, beta=0.2)
    rng = random.Random(seed)
    moves = MoveGenerator(bench.o0, config, rng)
    sampler = MCMCSampler(cost, moves, moves.random_program(),
                          beta=config.beta, rng=rng)
    return sampler.run(proposals)


def _decision_key(chain: ChainResult) -> tuple:
    return (chain.best_cost, chain.current_cost, chain.stats.accepted)


def _row(chain: ChainResult) -> dict:
    stats = chain.stats
    return {
        "proposals": stats.proposals,
        "seconds": round(stats.seconds, 4),
        "proposals_per_second": round(stats.proposals_per_second, 1),
        "testcases_per_proposal":
            round(stats.testcases_per_proposal, 3),
    }


def measure(kernel: str, proposals: int) -> dict:
    rows = {}
    reference = run_chain(kernel, "reference", proposals)
    rows["reference"] = _row(reference)
    # warm the process-global compile caches first: the measured run
    # proposes the same instruction stream (same seed), so one
    # unmeasured pass pays every cold tier-up and the measured run
    # times the steady state
    run_chain(kernel, "compiled", proposals)
    chain = run_chain(kernel, "compiled", proposals)
    rows["compiled"] = _row(chain)
    if _decision_key(reference) != _decision_key(chain):
        raise AssertionError(
            f"{kernel}: evaluators diverged "
            f"(best cost, current cost, accepted): "
            f"{_decision_key(reference)} != {_decision_key(chain)}")
    speedup = (rows["compiled"]["proposals_per_second"] /
               rows["reference"]["proposals_per_second"])
    return {**rows, "speedup": round(speedup, 2)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kernels", nargs="+",
                        default=list(DEFAULT_KERNELS))
    parser.add_argument("--proposals", type=int, default=6_000)
    parser.add_argument("--out", default="BENCH_inner_loop.json")
    args = parser.parse_args(argv)

    report: dict = {"proposals": args.proposals, "kernels": {}}
    ok = True
    for kernel in args.kernels:
        row = measure(kernel, args.proposals)
        report["kernels"][kernel] = row
        ok = ok and row["speedup"] >= 1.0
        print(f"{kernel}: reference "
              f"{row['reference']['proposals_per_second']:>9,.0f} prop/s"
              f"  compiled "
              f"{row['compiled']['proposals_per_second']:>9,.0f} prop/s"
              f"  speedup {row['speedup']:.2f}x  "
              f"({row['compiled']['testcases_per_proposal']:.2f} "
              f"testcases/proposal)")
    report["compiled_at_least_as_fast"] = ok
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"wrote {args.out}")
    if not ok:
        print("FAIL: compiled evaluator slower than reference",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
