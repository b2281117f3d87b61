"""Session facade: engine equivalence, JSON results, determinism.

The two acceptance bars for the API: ``Session`` adds nothing to the
engine's :class:`Campaign` at defaults, and ``pool:n=2`` equals
``serial`` under a *non-default* cost/strategy spec (the spec must
survive the trip through worker-process serialization).
"""

import dataclasses
import json

import pytest

from repro.api.session import Session
from repro.api.targets import Target
from repro.engine.campaign import Campaign, EngineOptions
from repro.search.config import SearchConfig
from repro.suite.registry import benchmark
from repro.verifier.validator import Validator

CONFIG = SearchConfig(ell=12, beta=1.0, seed=5,
                      optimization_proposals=2000,
                      optimization_restarts=4,
                      optimization_chains=2,
                      synthesis_chains=0,
                      testcase_count=8)


def _ranking_key(stoke_result):
    return [(str(r.program), r.cost, r.cycles)
            for r in stoke_result.ranked]


def test_session_matches_campaign_at_defaults():
    """Session adds nothing at defaults: its result wraps what the
    bare engine campaign returns for the same configuration."""
    bench = benchmark("p01")
    engine = Campaign(bench.o0, bench.spec, bench.annotations,
                      config=CONFIG, validator=Validator()).run()
    result = Session(Target.from_suite("p01"), config=CONFIG).run()
    assert _ranking_key(result.stoke) == _ranking_key(engine)
    assert str(result.stoke.rewrite) == str(engine.rewrite)
    assert result.rewrite_cycles == engine.rewrite_cycles
    assert result.cost == "correctness,latency"
    assert result.strategy == "mcmc"


def test_result_is_json_serializable():
    result = Session(Target.from_suite("p01"), config=CONFIG).run()
    payload = json.loads(json.dumps(result.to_json()))
    assert payload["name"] == "p01"
    assert payload["verified"] is True
    assert payload["speedup"] > 1.0
    assert "movl" in payload["target_asm"]
    # inner-loop throughput is observable without a profiler
    assert payload["proposals_per_second"] > 0
    assert payload["testcases_per_proposal"] > 0


def test_session_takes_neither_evaluator_nor_minimize():
    """The cost spec and ``EngineOptions`` are the one place for these
    settings; the retired keywords fail loudly."""
    target = Target.from_suite("p01")
    with pytest.raises(TypeError):
        Session(target, evaluator="reference")
    with pytest.raises(TypeError):
        Session(target, minimize=True)
    session = Session(target, engine=EngineOptions(minimize=True))
    assert session.campaign().options.minimize is not None


def test_jobs2_bit_identical_with_nondefault_cost_and_strategy():
    """The cost/strategy spec must ride through worker serialization."""
    def run(executor):
        return Session(Target.from_suite("p01"), config=CONFIG,
                       cost="correctness,latency:2,size",
                       strategy="anneal",
                       engine=EngineOptions(executor=executor)).run()

    serial, pooled = run("serial"), run("pool:n=2")
    assert _ranking_key(serial.stoke) == _ranking_key(pooled.stoke)
    assert serial.rewrite_asm == pooled.rewrite_asm
    assert serial.rewrite_cycles == pooled.rewrite_cycles


def test_greedy_strategy_runs_end_to_end():
    result = Session(Target.from_suite("p01"), config=CONFIG,
                     strategy="greedy").run()
    # greedy must at least keep the target (never rank worse than it)
    assert result.rewrite_cycles <= result.target_cycles


def test_strategies_explore_differently():
    base = Session(Target.from_suite("p01"), config=CONFIG).run()
    greedy = Session(Target.from_suite("p01"), config=CONFIG,
                     strategy="greedy").run()
    mcmc_chain = base.stoke.optimization[0].chain
    greedy_chain = greedy.stoke.optimization[0].chain
    # same seeds, same proposals — a different acceptance rule must
    # show up in the accept counters or the search did not change
    assert (mcmc_chain.stats.accepted != greedy_chain.stats.accepted
            or mcmc_chain.stats.cost_trace.points
            != greedy_chain.stats.cost_trace.points)


def test_validator_none_skips_validation():
    result = Session(Target.from_suite("p01"), config=CONFIG,
                     validator=None).run()
    assert all(phase.validations == 0
               for phase in result.stoke.optimization)


def test_telemetry_testcases_per_proposal_is_the_exact_mean():
    # a suite larger than the histogram cap puts fully evaluated
    # proposals in the overflow bucket; the summary must still report
    # the exact mean, the same number as the top-level field
    config = dataclasses.replace(CONFIG, testcase_count=80,
                                 optimization_proposals=400,
                                 optimization_chains=1)
    result = Session(Target.from_suite("p01"), config=config,
                     validator=None).run()
    exact = round(result.testcases_per_proposal, 3)
    assert result.telemetry["testcases_per_proposal"] == exact
    assert result.to_json()["telemetry"]["testcases_per_proposal"] == \
        exact
