"""Budget tests: spec grammar, stopping rules, adaptive campaigns.

The acceptance bar: ``fixed`` never changes anything, and an adaptive
campaign schedules measurably fewer chains while its best verified
answer — and the decision of *when* to stop — is identical at any
worker count.
"""

import pytest

from repro.engine.budget import (BudgetSpec, FixedRule, PlateauRule,
                                 StableRule, ValidationsRule,
                                 WallclockRule, available_budgets,
                                 register_budget)
from repro.engine.campaign import Campaign, EngineOptions
from repro.errors import RegistryError
from repro.search.config import SearchConfig
from repro.suite.registry import benchmark
from repro.verifier.validator import Validator

CONFIG = SearchConfig(ell=12, beta=1.0, seed=5,
                      optimization_proposals=2500,
                      optimization_restarts=4,
                      optimization_chains=6,
                      synthesis_chains=0,
                      testcase_count=8)


def _run(options, config=CONFIG):
    bench = benchmark("p01")
    return Campaign(bench.o0, bench.spec, bench.annotations,
                    config=config, validator=Validator(),
                    options=options, name="p01").run()


# -- the spec grammar ---------------------------------------------------------

def test_default_spec_is_fixed():
    assert BudgetSpec.parse(None) == BudgetSpec()
    assert BudgetSpec().spec_string() == "fixed"
    assert isinstance(BudgetSpec().rule(), FixedRule)


def test_adaptive_spec_round_trips():
    spec = BudgetSpec.parse("adaptive:stable=3")
    assert spec.kind == "adaptive" and spec.stable == 3
    assert spec.spec_string() == "adaptive:stable=3"
    assert BudgetSpec.parse(spec.spec_string()) == spec
    assert isinstance(spec.rule(), StableRule)


def test_adaptive_defaults_stable_chains():
    assert BudgetSpec.parse("adaptive").stable == 2


def test_plateau_spec_round_trips():
    spec = BudgetSpec.parse("plateau:eps=1.5,stable=3")
    assert spec.kind == "plateau"
    assert spec.eps == 1.5 and spec.stable == 3
    assert spec.spec_string() == "plateau:eps=1.5,stable=3"
    assert BudgetSpec.parse(spec.spec_string()) == spec
    assert isinstance(spec.rule(), PlateauRule)
    # whole eps prints without a trailing .0 (canonical manifests)
    assert BudgetSpec.parse("plateau:eps=1,stable=2").spec_string() \
        == "plateau:eps=1,stable=2"


def test_spec_string_is_a_lossless_fingerprint():
    """%g alone would collapse nearby values into one manifest string,
    letting a resume under a *changed* deadline slip through."""
    close = (BudgetSpec(kind="wallclock", secs=1234567.8),
             BudgetSpec(kind="wallclock", secs=1234568.9))
    assert close[0].spec_string() != close[1].spec_string()
    for spec in close + (BudgetSpec(kind="plateau", eps=0.1 + 0.2),):
        assert BudgetSpec.parse(spec.spec_string()) == spec


def test_wallclock_spec_round_trips():
    spec = BudgetSpec.parse("wallclock:secs=90")
    assert spec.kind == "wallclock" and spec.secs == 90.0
    assert spec.spec_string() == "wallclock:secs=90"
    assert BudgetSpec.parse(spec.spec_string()) == spec
    assert isinstance(spec.rule(), WallclockRule)
    # the default deadline is the paper's 30-minute cluster budget
    assert BudgetSpec.parse("wallclock").secs == 1800.0


def test_validations_spec_round_trips():
    spec = BudgetSpec.parse("validations:n=12")
    assert spec.kind == "validations" and spec.n == 12
    assert spec.spec_string() == "validations:n=12"
    assert BudgetSpec.parse(spec.spec_string()) == spec
    assert isinstance(spec.rule(), ValidationsRule)
    assert BudgetSpec.parse("validations").n == 64


def test_parse_accepts_spec_instances():
    spec = BudgetSpec(kind="adaptive", stable=4)
    assert BudgetSpec.parse(spec) is spec


@pytest.mark.parametrize("text", [
    "turbo",                       # unknown kind
    "adaptive:stable=zero",        # non-integer parameter
    "adaptive:patience=3",         # unknown parameter
    "adaptive:stable=0",           # out of range
    "fixed:stable=3",              # fixed takes no parameters
    "adaptive:eps=1",              # eps belongs to plateau
    "plateau:eps=0,stable=2",      # eps must be positive
    "plateau:eps=oops",            # non-numeric parameter
    "plateau:secs=9",              # secs belongs to wallclock
    "wallclock:secs=0",            # deadline must be positive
    "wallclock:secs=-5",           # ... and not negative
    "wallclock:stable=2",          # stable belongs elsewhere
    "validations:n=0",             # cap must be at least one query
    "validations:n=zero",          # non-integer parameter
    "validations:secs=9",          # secs belongs to wallclock
    "adaptive:n=3",                # n belongs to validations
])
def test_bad_specs_fail_at_the_flag(text):
    with pytest.raises(RegistryError):
        BudgetSpec.parse(text)


def test_custom_budget_kinds_accept_known_parameters():
    """register_budget's factories read parameters off the parsed
    spec, so a custom kind must still parse stable/eps/secs."""
    register_budget("patience-test", lambda spec: StableRule(spec.stable))
    try:
        spec = BudgetSpec.parse("patience-test:stable=3,eps=0.5")
        assert spec.stable == 3 and spec.eps == 0.5
        assert isinstance(spec.rule(), StableRule)
        with pytest.raises(RegistryError, match="bad budget parameter"):
            BudgetSpec.parse("patience-test:warp=1")
    finally:
        from repro.engine import budget as budget_module
        del budget_module._BUDGETS["patience-test"]


def test_budget_registry_is_open():
    class EagerRule(FixedRule):
        pass

    register_budget("eager-test", lambda spec: EagerRule())
    try:
        assert "eager-test" in available_budgets()
        with pytest.raises(RegistryError, match="already registered"):
            register_budget("eager-test", lambda spec: EagerRule())
    finally:
        from repro.engine import budget as budget_module
        del budget_module._BUDGETS["eager-test"]


# -- the stopping rules -------------------------------------------------------

def test_stable_rule_counts_consecutive_unchanged_rankings():
    rule = StableRule(stable=2)
    assert rule.incremental and not rule.should_stop()
    rule.observe(("a", 5))
    assert rule.stable_chains == 0 and not rule.should_stop()
    rule.observe(("a", 5))
    assert rule.stable_chains == 1 and not rule.should_stop()
    rule.observe(("b", 4))                  # ranking changed: reset
    assert rule.stable_chains == 0
    rule.observe(("b", 4))
    rule.observe(("b", 4))
    assert rule.stable_chains == 2 and rule.should_stop()


def test_fixed_rule_never_stops():
    rule = FixedRule()
    assert not rule.incremental
    for _ in range(100):
        rule.observe(("same", 1))
    assert not rule.should_stop() and rule.stable_chains == 0


def test_plateau_rule_stops_when_improvement_falls_below_eps():
    rule = PlateauRule(eps=2.0, stable=2)
    assert rule.incremental and rule.needs_ranking
    rule.observe(("a", 20))
    assert not rule.should_stop()
    rule.observe(("b", 15))                 # -5: real progress
    assert rule.stable_chains == 0 and not rule.should_stop()
    rule.observe(("c", 14))                 # -1 < eps
    assert rule.stable_chains == 1 and not rule.should_stop()
    rule.observe(("c", 14))                 # flat
    assert rule.stable_chains == 2 and rule.should_stop()
    assert rule.grant(elapsed=0.0) is False
    assert rule.stop_reason == "plateau"


def test_plateau_rule_tolerates_ranking_churn_among_near_ties():
    """Unlike StableRule, a changed best *program* at unchanged cycles
    still counts toward the plateau."""
    plateau = PlateauRule(eps=1.0, stable=2)
    stable = StableRule(stable=2)
    for signature in (("a", 9), ("b", 9), ("c", 9)):
        plateau.observe(signature)
        stable.observe(signature)
    assert plateau.should_stop()
    assert not stable.should_stop()         # program kept changing


def test_wallclock_rule_denies_grants_past_the_deadline():
    rule = WallclockRule(secs=30.0)
    assert rule.incremental and not rule.needs_ranking
    assert rule.grant(elapsed=0.0)
    assert rule.grant(elapsed=29.9)
    assert not rule.grant(elapsed=30.0)
    assert not rule.grant(elapsed=1e9)
    # ranking feedback never changes the verdict
    rule.observe(("a", 1))
    assert not rule.should_stop() and rule.stable_chains == 0
    assert rule.stop_reason == "deadline"


def test_validations_rule_stops_at_the_cap():
    rule = ValidationsRule(n=5)
    assert rule.incremental and not rule.needs_ranking
    assert rule.needs_validations
    assert rule.grant(elapsed=0.0)
    rule.charge(3)
    assert rule.spent == 3 and not rule.should_stop()
    rule.charge(2)
    assert rule.spent == 5 and rule.should_stop()
    assert not rule.grant(elapsed=0.0)
    assert rule.stop_reason == "validations"
    # ranking feedback never changes the verdict
    rule.observe(("a", 1))
    assert rule.stable_chains == 0


# -- adaptive campaigns -------------------------------------------------------

def test_adaptive_schedules_fewer_chains_with_equal_best():
    fixed = _run(EngineOptions())
    adaptive = _run(EngineOptions(budget="adaptive:stable=2"))
    assert fixed.chains_scheduled == 6 and fixed.chains_saved == 0
    assert adaptive.chains_scheduled < fixed.chains_scheduled
    assert adaptive.chains_saved == 6 - adaptive.chains_scheduled
    # the saved chains must not cost the campaign its answer
    assert str(adaptive.rewrite) == str(fixed.rewrite)
    assert adaptive.rewrite_cycles == fixed.rewrite_cycles
    # the adaptive run's results are a plan-order prefix of fixed's
    assert len(adaptive.optimization) < len(fixed.optimization)


def test_adaptive_is_deterministic_across_worker_counts():
    serial = _run(EngineOptions(budget="adaptive:stable=2"))
    pooled = _run(EngineOptions(executor="pool:n=2", budget="adaptive:stable=2"))
    assert serial.chains_scheduled == pooled.chains_scheduled
    assert serial.chains_saved == pooled.chains_saved
    assert [(str(r.program), r.cost, r.cycles) for r in serial.ranked] \
        == [(str(r.program), r.cost, r.cycles) for r in pooled.ranked]
    assert str(serial.rewrite) == str(pooled.rewrite)


def test_adaptive_resume_stops_at_the_same_chain(tmp_path):
    run_dir = tmp_path / "run"
    options = EngineOptions(run_dir=run_dir,
                            budget="adaptive:stable=2")
    full = _run(options)
    resumed = _run(EngineOptions(run_dir=run_dir, resume=True,
                                 budget="adaptive:stable=2"))
    assert resumed.chains_scheduled == full.chains_scheduled
    assert [(str(r.program), r.cycles) for r in resumed.ranked] \
        == [(str(r.program), r.cycles) for r in full.ranked]


def test_stoke_result_reports_chain_statistics():
    result = _run(EngineOptions())
    assert result.chains_scheduled == CONFIG.optimization_chains
    assert result.chains_saved == 0


# -- validations campaigns ----------------------------------------------------

def _total_validations(result):
    return sum(r.validations
               for r in result.synthesis + result.optimization)


def test_validations_budget_stops_a_campaign_early():
    fixed = _run(EngineOptions())
    assert _total_validations(fixed) > 1      # the cap below can bind
    capped = _run(EngineOptions(budget="validations:n=1"))
    assert capped.chains_scheduled < fixed.chains_scheduled
    assert capped.chains_saved == 6 - capped.chains_scheduled
    # the cap gates grants, never a granted chain: the round that
    # crossed it still completed, so spend may overshoot but the
    # results are a plan-order prefix of the fixed run's
    assert _total_validations(capped) >= 1
    assert len(capped.optimization) < len(fixed.optimization)


def test_validations_budget_is_deterministic_across_worker_counts():
    serial = _run(EngineOptions(budget="validations:n=2"))
    pooled = _run(EngineOptions(executor="pool:n=2", budget="validations:n=2"))
    assert serial.chains_scheduled == pooled.chains_scheduled
    assert _total_validations(serial) == _total_validations(pooled)
    assert [(str(r.program), r.cost, r.cycles) for r in serial.ranked] \
        == [(str(r.program), r.cost, r.cycles) for r in pooled.ranked]
    assert str(serial.rewrite) == str(pooled.rewrite)


def test_validations_resume_stops_at_the_same_chain(tmp_path):
    """Journal-satisfied rounds must charge their validator spend
    exactly once (the delta accounting), so a resumed campaign stops
    at the same chain as the uninterrupted run."""
    run_dir = tmp_path / "run"
    options = EngineOptions(run_dir=run_dir,
                            budget="validations:n=2")
    full = _run(options)
    resumed = _run(EngineOptions(run_dir=run_dir, resume=True,
                                 budget="validations:n=2"))
    assert resumed.chains_scheduled == full.chains_scheduled
    assert _total_validations(resumed) == _total_validations(full)
    assert [(str(r.program), r.cycles) for r in resumed.ranked] \
        == [(str(r.program), r.cycles) for r in full.ranked]
