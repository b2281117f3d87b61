"""Registry round-trips: cost terms, strategies, and their specs."""

import pytest

from repro.cost.terms import (CostSpec, CostTerm, TermContext,
                              available_cost_terms, make_cost_term,
                              register_cost_term, _COST_TERMS)
from repro.cost.correctness import CostWeights
from repro.errors import RegistryError
from repro.search.strategies import (AnnealingStrategy, GreedyStrategy,
                                     MCMCStrategy, SearchStrategy,
                                     StrategySpec, available_strategies,
                                     register_strategy,
                                     _STRATEGIES)
from repro.x86.parser import parse_program

TARGET = parse_program("movq rdi, rax")


def test_builtin_cost_terms_are_registered():
    assert available_cost_terms() == ["correctness", "latency",
                                      "perfsim-cycles", "size"]


def test_builtin_strategies_are_registered():
    assert available_strategies() == ["anneal", "greedy", "mcmc"]


def test_make_cost_term_returns_fresh_instances():
    assert make_cost_term("latency") is not make_cost_term("latency")


def test_unknown_cost_term_suggests_close_matches():
    with pytest.raises(RegistryError, match="did you mean.*latency"):
        make_cost_term("latencey")


def test_unknown_strategy_suggests_close_matches():
    with pytest.raises(RegistryError, match="did you mean.*mcmc"):
        StrategySpec.parse("mcmcc")


def test_duplicate_registration_needs_replace():
    with pytest.raises(RegistryError, match="already registered"):
        register_cost_term("latency", lambda: make_cost_term("latency"))
    with pytest.raises(RegistryError, match="already registered"):
        register_strategy("mcmc", MCMCStrategy)


def test_custom_cost_term_registers_and_builds():
    class PushPenalty(CostTerm):
        name = "push-penalty"

        def program_cost(self, rewrite):
            return sum(1 for instr in rewrite.real_instructions()
                       if instr.opcode.family == "push")

    register_cost_term("push-penalty", PushPenalty)
    try:
        spec = CostSpec.parse("correctness,push-penalty:3")
        assert spec.spec_string() == "correctness,push-penalty:3"
        terms = spec.instantiate()
        assert [w for w, _ in terms] == [1.0, 3.0]
        assert isinstance(terms[1][1], PushPenalty)
    finally:
        del _COST_TERMS["push-penalty"]


def test_custom_strategy_registers_and_builds():
    class Probe(MCMCStrategy):
        name = "probe"

    register_strategy("probe", Probe)
    try:
        spec = StrategySpec.parse("probe")
        assert isinstance(spec.build(), Probe)
        assert isinstance(spec.build(), SearchStrategy)
    finally:
        del _STRATEGIES["probe"]


def test_cost_spec_parse_round_trips():
    spec = CostSpec.parse("correctness, latency:2,size:0.5")
    assert spec.terms == (("correctness", 1.0), ("latency", 2.0),
                          ("size", 0.5))
    assert spec.spec_string() == "correctness,latency:2,size:0.5"
    assert CostSpec.parse(spec.spec_string()) == spec


def test_cost_spec_defaults_to_the_papers_terms():
    assert CostSpec.parse(None).spec_string() == "correctness,latency"
    assert CostSpec().spec_string() == "correctness,latency"


def test_cost_spec_rejects_bad_input():
    with pytest.raises(RegistryError, match="at least one term"):
        CostSpec.parse("")
    with pytest.raises(RegistryError, match="duplicate"):
        CostSpec.parse("latency,latency")
    with pytest.raises(RegistryError, match="positive weight"):
        CostSpec.parse("latency:-1")
    with pytest.raises(RegistryError, match="bad weight"):
        CostSpec.parse("latency:fast")


def test_cost_spec_rejects_unknown_evaluator():
    # the evaluator is not a cost-spec setting: a token naming one is
    # an unknown term, whatever evaluator it names
    for text in ("correctness,evaluator=reference",
                 "correctness,evaluator=compiled"):
        with pytest.raises(RegistryError, match="unknown cost term"):
            CostSpec.parse(text)
    with pytest.raises(TypeError):
        CostSpec(evaluator="reference")


def test_terms_bind_against_the_target():
    context = TermContext(target=TARGET, weights=CostWeights())
    for name in available_cost_terms():
        term = make_cost_term(name)
        term.bind(context)
        if not term.per_testcase:
            # every static builtin scores the target itself as zero
            assert term.program_cost(TARGET) == 0


def test_strategy_instances_run_chains():
    for strategy in (MCMCStrategy(), GreedyStrategy(),
                     AnnealingStrategy()):
        assert isinstance(strategy, SearchStrategy)
