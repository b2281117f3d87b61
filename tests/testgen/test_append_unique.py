"""Suite dedup tests: input-keyed testcase identity everywhere.

A duplicate *input* adds per-proposal evaluation cost without
distinguishing any new candidates, so every layer that grows a suite —
``append_unique``, ``CostFunction.add_testcase``, the persistent
counterexample file — keys testcases by their inputs and drops repeats.
"""

from repro.cost.function import CostFunction, Phase
from repro.testgen.suite import append_unique, dedup_testcases, input_key
from repro.testgen.testcase import Testcase
from repro.x86.parser import parse_program


def _testcase(rdi, rax):
    return Testcase(input_regs=(("rdi", rdi),),
                    input_memory=(),
                    expected_regs=(("rax", rax),),
                    expected_memory=(),
                    valid_addresses=frozenset())


def test_input_key_ignores_expected_outputs():
    """Identity is the *inputs*: two packagings of the same model (even
    against different targets) are the same evaluation work."""
    assert input_key(_testcase(7, 1)) == input_key(_testcase(7, 2))
    assert input_key(_testcase(7, 1)) != input_key(_testcase(8, 1))


def test_dedup_testcases_preserves_first_occurrence_order():
    a, b, c = _testcase(1, 1), _testcase(2, 2), _testcase(1, 9)
    assert dedup_testcases([a, b, c, b, a]) == [a, b]


def test_append_unique_mutates_and_reports_novel():
    suite = [_testcase(1, 1)]
    appended = append_unique(suite, [_testcase(1, 5),   # dup of suite
                                     _testcase(2, 2),
                                     _testcase(2, 7)])  # dup of batch
    assert appended == [_testcase(2, 2)]
    assert suite == [_testcase(1, 1), _testcase(2, 2)]


def test_cost_function_drops_duplicate_counterexamples():
    target = parse_program("movq rdi, rax")
    base = [_testcase(3, 3), _testcase(4, 4)]
    cost_fn = CostFunction(base, target, phase=Phase.SYNTHESIS)
    assert cost_fn.add_testcase(_testcase(5, 5)) is True
    assert cost_fn.add_testcase(_testcase(5, 5)) is False
    assert cost_fn.add_testcase(_testcase(3, 9)) is False  # base dup
    assert len(cost_fn.testcases) == 3
    # the failure counters and the lane packing follow the suite
    assert len(cost_fn._fail_counts) == len(cost_fn.testcases)
    assert cost_fn._lane_suite().layout.lanes == len(cost_fn.testcases)
    # and evaluation still works over the deduped suite
    assert cost_fn.evaluate(target).correct_on_tests
