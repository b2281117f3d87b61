"""Figure 5: the optimized acceptance computation (Section 4.5).

The paper shows that terminating testcase evaluation as soon as the
Eq. 14 bound is exceeded cuts testcases-per-proposal as the chain's
cost falls, raising proposal throughput ~3x during synthesis. This
bench runs the same chain with early termination on and off and
reports both series.

It pins the *reference* evaluator: the figure's premise is that
per-testcase evaluation dominates proposal cost, which is true of the
paper's emulator (and our interpreter) but much less so of the
compiled fast path, whose per-testcase cost is small enough that
skipping testcases barely moves proposals/second
(see benchmarks/bench_inner_loop.py for that comparison).
"""

from __future__ import annotations

import random

from conftest import make_testcases
from repro.cost.function import CostFunction, Phase
from repro.search.config import SearchConfig
from repro.search.mcmc import MCMCSampler
from repro.search.moves import MoveGenerator
from repro.suite.registry import benchmark as get_benchmark

PROPOSALS = 6_000
#: Proposals per point of the Figure 5 time series.
WINDOW = 64


def _sampler(early: bool) -> MCMCSampler:
    bench = get_benchmark("p01")
    testcases, _gen = make_testcases(bench, count=16)
    cost = CostFunction(testcases, bench.o0, phase=Phase.SYNTHESIS,
                        evaluator="reference")
    config = SearchConfig(ell=10, beta=0.2)
    rng = random.Random(11)
    moves = MoveGenerator(bench.o0, config, rng)
    return MCMCSampler(cost, moves, moves.random_program(),
                       beta=config.beta, rng=rng,
                       early_termination=early)


def _run_chain(early: bool):
    return _sampler(early).run(PROPOSALS)


def _fig5_series(sampler: MCMCSampler) -> list[float]:
    """Testcases per proposal along one chain, one point per window.

    Points sit at steps 0, WINDOW, 2 * WINDOW, ...; each is the mean
    over the proposals since the previous point. The sampler keeps its
    state and rng between ``run`` calls, so the windows make the same
    decisions as one uninterrupted chain.
    """
    series = [sampler.run(1).stats.testcases_per_proposal]
    for _window in range((PROPOSALS - 1) // WINDOW):
        series.append(sampler.run(WINDOW).stats.testcases_per_proposal)
    return series


def test_early_termination_throughput(benchmark):
    chain = benchmark.pedantic(_run_chain, args=(True,),
                               rounds=1, iterations=1)
    with_early = chain.stats
    without = _run_chain(False).stats
    print(f"\n[fig5] early-termination ON : "
          f"{with_early.proposals_per_second:,.0f} proposals/s, "
          f"{with_early.testcases_per_proposal:.2f} testcases/proposal")
    print(f"[fig5] early-termination OFF: "
          f"{without.proposals_per_second:,.0f} proposals/s, "
          f"{without.testcases_per_proposal:.2f} testcases/proposal")
    speedup = (with_early.proposals_per_second /
               without.proposals_per_second)
    print(f"[fig5] throughput improvement: {speedup:.2f}x "
          f"(paper: ~3x at synthesis convergence)")
    assert with_early.testcases_per_proposal < \
        without.testcases_per_proposal
    assert speedup > 1.2


def test_testcases_per_proposal_falls_as_cost_falls(benchmark):
    """The Figure 5 time series: the two curves move together."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    trace = _fig5_series(_sampler(True))
    assert len(trace) > 10
    first_quarter = trace[: len(trace) // 4]
    last_quarter = trace[-len(trace) // 4:]
    early_avg = sum(first_quarter) / len(first_quarter)
    late_avg = sum(last_quarter) / len(last_quarter)
    print(f"\n[fig5] testcases/proposal: first quarter {early_avg:.2f} "
          f"-> last quarter {late_avg:.2f}")
    assert late_avg <= early_avg + 0.5
