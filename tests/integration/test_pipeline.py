"""End-to-end integration tests of the Figure 9 pipeline."""


from repro.api.session import Session
from repro.api.targets import Target
from repro.search.config import SearchConfig
from repro.search.ranker import rerank
from repro.suite.registry import benchmark
from repro.verifier.validator import Validator
from repro.x86.latency import program_latency
from repro.x86.parser import parse_program


def _small_config(**overrides):
    defaults = dict(ell=12, beta=1.0, seed=5,
                    optimization_proposals=20_000,
                    optimization_restarts=8,
                    synthesis_chains=0,
                    testcase_count=12)
    defaults.update(overrides)
    return SearchConfig(**defaults)


def test_stoke_improves_p01_and_verifies():
    bench = benchmark("p01")
    result = Session(Target.from_suite("p01"),
                     config=_small_config()).run().stoke
    assert result.rewrite is not None
    assert result.verified
    assert result.speedup > 1.0
    assert program_latency(result.rewrite) < program_latency(bench.o0)
    # the returned rewrite must independently re-validate
    outcome = Validator().validate(bench.o0, result.rewrite, bench.spec)
    assert outcome.equivalent


def test_stoke_result_diagnostics():
    result = Session(Target.from_suite("p03"),
                     config=_small_config(seed=8)).run().stoke
    assert result.optimization
    assert result.testcases
    assert result.seconds > 0
    assert result.target_cycles > 0
    if result.rewrite is not None:
        assert result.rewrite_cycles <= result.target_cycles


def test_counterexamples_refine_testcases():
    """A rewrite that passes all initial testcases but is wrong must be
    refuted, and its counterexample added to the suite."""
    from repro.cost.function import CostFunction, Phase
    from repro.search.phases import OptimizationPhase
    from repro.testgen.annotations import Annotations, ConstantInput
    from repro.testgen.generator import TestcaseGenerator
    from repro.verifier.validator import LiveSpec

    target = parse_program("movq rdi, rax\naddq rsi, rax")
    spec = LiveSpec(live_in=("rdi", "rsi"), live_out=("rax",))
    # degenerate annotations: rsi is always zero in generated tests,
    # so "movq rdi, rax" looks correct until the validator speaks up
    annotations = Annotations({"rsi": ConstantInput(0)})
    generator = TestcaseGenerator(target, spec, annotations, seed=1)
    cost = CostFunction(generator.generate(8), target,
                        phase=Phase.OPTIMIZATION)
    wrong = parse_program("movq rdi, rax")
    assert cost.evaluate(wrong).eq_term == 0      # fooled by testcases
    phase = OptimizationPhase(target, spec, cost, generator,
                              Validator(), _small_config())
    before = len(cost.testcases)
    from repro.search.phases import PhaseResult
    phase_result = PhaseResult()
    phase.promote(phase_result, [(0, wrong.padded(12))])
    assert not phase_result.verified
    assert len(cost.testcases) == before + 1       # counterexample added
    assert cost.evaluate(wrong).eq_term > 0        # no longer fooled


def test_rerank_prefers_fewer_cycles():
    fast = parse_program("movq rdi, rax")
    slow = parse_program("""
        movq rdi, -8(rsp)
        movq -8(rsp), rax
    """)
    ranked = rerank([(0, slow), (0, fast)])
    assert ranked[0].program is fast
    assert ranked[0].cycles < ranked[1].cycles


def test_rerank_window_excludes_costly():
    fast = parse_program("movq rdi, rax")
    slow = parse_program("movq rdi, -8(rsp)\nmovq -8(rsp), rax")
    ranked = rerank([(0, fast), (1000, slow)], window=0.2)
    assert len(ranked) == 1


def test_paper_listing_round_trips_through_pipeline_components():
    """mont: generate testcases from the O0 target, check the paper's
    rewrite costs zero on them, then validate it."""
    from repro.cost.function import CostFunction, Phase
    from repro.testgen.generator import TestcaseGenerator
    bench = benchmark("mont")
    generator = TestcaseGenerator(bench.o0, bench.spec,
                                  bench.annotations, seed=2)
    testcases = generator.generate(8)
    cost = CostFunction(testcases, bench.o0, phase=Phase.SYNTHESIS)
    result = cost.evaluate(bench.paper_stoke)
    assert result.value == 0
