"""MCMC sampler tests (Sections 3.2, 4.5)."""

import random

from repro.cost.function import CostFunction, Phase
from repro.search.config import SearchConfig
from repro.search.mcmc import MCMCSampler
from repro.search.moves import MoveGenerator
from repro.testgen.annotations import Annotations
from repro.testgen.generator import TestcaseGenerator
from repro.verifier.validator import LiveSpec
from repro.x86.parser import parse_program

TARGET = parse_program("""
    movq rdi, -8(rsp)
    movq -8(rsp), rax
    addq rsi, rax
""")
SPEC = LiveSpec(live_in=("rdi", "rsi"), live_out=("rax",))


def _sampler(seed=0, beta=1.0, early=True):
    generator = TestcaseGenerator(TARGET, SPEC, Annotations(), seed=seed)
    cost = CostFunction(generator.generate(8), TARGET,
                        phase=Phase.OPTIMIZATION)
    config = SearchConfig(ell=8, beta=beta)
    rng = random.Random(seed)
    moves = MoveGenerator(TARGET, config, rng)
    return MCMCSampler(cost, moves, TARGET.padded(8), beta=beta,
                       rng=rng, early_termination=early)


def test_chain_tracks_best_and_current():
    sampler = _sampler()
    result = sampler.run(2000)
    assert result.best_cost <= result.current_cost
    assert result.stats.proposals == 2000
    assert 0 < result.stats.accepted <= 2000


def test_improvements_are_always_accepted():
    """Starting from the target, the chain must find the lea rewrite
    region (strictly improving single moves exist)."""
    sampler = _sampler(seed=3)
    result = sampler.run(6000)
    assert result.best_cost < 0, "strict improvements must be kept"


def test_zero_cost_pool_collects_verified_on_tests():
    sampler = _sampler(seed=3)
    result = sampler.run(6000)
    assert result.zero_cost
    costs = [cost for cost, _prog in result.zero_cost]
    assert costs == sorted(costs)


def test_early_termination_reduces_testcase_evaluations():
    with_early = _sampler(seed=1, early=True).run(1500).stats
    without = _sampler(seed=1, early=False).run(1500).stats
    assert with_early.testcases_per_proposal < \
        without.testcases_per_proposal
    assert without.testcases_per_proposal == 8.0


def test_trace_recorded():
    result = _sampler().run(1000)
    assert result.stats.cost_trace.points
    steps = [step for step, _cost in result.stats.cost_trace.points]
    assert steps == sorted(steps)


def test_determinism_by_seed():
    a = _sampler(seed=7).run(800)
    b = _sampler(seed=7).run(800)
    assert a.best_cost == b.best_cost
    assert a.stats.accepted == b.stats.accepted


def test_telemetry_agrees_with_stats():
    result = _sampler(seed=4).run(1200)
    telemetry = result.stats
    assert telemetry.proposals == 1200
    assert telemetry.testcases_evaluated == \
        sum(value * count
            for value, count in telemetry.testcase_hist.nonzero())
    # every proposal lands in exactly one move row
    assert sum(row["proposed"]
               for _kind, row in telemetry.move_table()) == 1200
    assert sum(row["accepted"]
               for _kind, row in telemetry.move_table()) == \
        telemetry.accepted
    assert telemetry.testcase_hist.total == 1200
    # the traces are sealed with the chain's final state
    assert telemetry.cost_trace.points[-1][1] == result.current_cost
    assert telemetry.best_trace.points[-1][1] == result.best_cost
    assert telemetry.seconds == telemetry.runtime["seconds"] >= 0.0


def test_stop_at_zero():
    """Synthesis-style stop: chain ends once a zero-eq state appears
    (the start itself qualifies here)."""
    sampler = _sampler(seed=2)
    result = sampler.run(5000, stop_at_zero=True)
    assert result.stats.proposals < 5000 or result.zero_cost
