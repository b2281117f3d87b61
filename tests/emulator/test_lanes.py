"""The lane form: every testcase of a suite in one run, bit for bit.

:mod:`repro.emulator.compile` emits each instruction as code over
packed ints whose lanes hold one testcase each. These tests hold that
code to the integer algebra lane by lane: every algebra operation is
checked exhaustively at width 8 and at the 9-bit carry width, at 1, 3
and 16 lanes, so a borrow or carry that leaks into a neighbouring lane
shows up (a constant operand takes every value at width 8, and the
values around 0, the sign bit and the top at width 9). Then whole
candidates: a packed run must equal the reference emulator in every
lane, also on its first sighting and where the step tests a runtime
value for zero (a shift count in ``cl``, a divisor, whether a quotient
fits) with every lane, no lane or only some lanes zero. Each reason a
candidate falls back to one testcase at a time (an address that
differs between lanes, an address only some sandboxes allow, a zero
test that splits the lanes, a jump, a suite that grows mid-chain) gets
its own test. Last, the packed scorer must equal Eq. 15 lane by lane.
"""

from __future__ import annotations

import itertools
import random
from functools import partial

import pytest

from repro.cost.correctness import CostWeights, LaneScorer
from repro.cost.correctness import testcase_cost as eq_cost
from repro.cost.function import CostFunction, Phase
from repro.cost.terms import CostTerm, make_cost_term
from repro.emulator import compile as compile_module
from repro.emulator.compile import (COUNTERS, ONE_LANE, _SourceBuilder,
                                    compile_program, layout)
from repro.emulator.cpu import Emulator
from repro.emulator.lanes import LaneSuite
from repro.emulator.state import MachineState
from repro.suite.registry import benchmark
from repro.testgen.generator import TestcaseGenerator
from repro.testgen.testcase import Testcase
from repro.x86.algebra import INT_ALGEBRA, mask
from repro.x86.parser import parse_program

LANE_COUNTS = (1, 3, 16)
WIDTHS = (8, 9)


# ---------------------------------------------------------------------------
# the lane algebra, exhaustively
# ---------------------------------------------------------------------------

_BATCHES: dict = {}


def _batch(record, arity: int):
    """``record(builder, operands)`` in lane form, looped over cases.

    The recorded statements run unchanged inside a loop: the operands
    are read from registers, the recorded value is written to another.
    Returns ``run(lay, cases) -> results``, which binds the parameters
    for ``lay`` exactly as steps are bound.
    """
    builder = _SourceBuilder()
    names = ("rax", "rbx", "rcx")[:arity]
    operands = [builder.read_full(name) for name in names]
    builder.write_full("rdx", record(builder, operands))
    shape = builder.shape()
    if shape not in _BATCHES:
        header, _, text = shape.partition("\n")
        params = header[len("def _step(" + ", ".join(
            compile_module.STATE_ARGS)):-len("):")]
        loads = "".join(f"        regs[{name!r}] = case[{i}]\n"
                        for i, name in enumerate(names))
        body = "".join(f"        {line}\n" for line in text.split("\n"))
        source = (f"def _batch(cases, regs{params}):\n"
                  "    out = []\n"
                  "    for case in cases:\n"
                  f"{loads}{body}"
                  "        out.append(regs['rdx'])\n"
                  "    return out\n")
        namespace = dict(compile_module._STEP_GLOBALS)
        exec(compile(source, "<lane-batch>", "exec"), namespace)
        _BATCHES[shape] = (namespace["_batch"],
                           compile_module._compile_shape(shape))
    batch, code = _BATCHES[shape]
    step = compile_module._bind(code, builder.values)

    def run(lay, cases):
        bound = step if lay is ONE_LANE else compile_module._rebind(step, lay)
        return batch(cases, {}, *bound.__defaults__)
    return run


_PACKED: dict = {}


def _packed_cases(cases: list, lanes: int) -> list:
    """``cases`` dealt into lanes, ``lanes`` cases per packed tuple."""
    key = (id(cases), lanes)
    if key not in _PACKED:
        lay = layout(lanes)
        padded = cases + [cases[0]] * (-len(cases) % lanes)
        _PACKED[key] = [tuple(lay.pack(case[i] for case in padded[start:
                                                                  start + lanes])
                              for i in range(len(cases[0])))
                        for start in range(0, len(padded), lanes)]
    return _PACKED[key]


_CASES: dict = {}


def _all_cases(width: int, arity: int) -> list:
    key = (width, arity)
    if key not in _CASES:
        _CASES[key] = list(itertools.product(range(1 << width),
                                             repeat=arity))
    return _CASES[key]


def _check(record, reference, width, arity=2):
    """``record`` agrees with ``reference`` on every operand tuple of
    ``width``-bit values, at each lane count."""
    cases = _all_cases(width, arity)
    want = list(itertools.starmap(reference, cases))
    run = _batch(record, arity)
    for lanes in LANE_COUNTS:
        lay = layout(lanes)
        got = run(lay, cases if lanes == 1 else _packed_cases(cases, lanes))
        if lanes > 1:
            got = [lay.lane(packed, index) for packed in got
                   for index in range(lanes)]
        if got[:len(want)] != want:
            bad = next(i for i, value in enumerate(want) if got[i] != value)
            pytest.fail(f"{cases[bad]}: lane {bad % lanes} of {lanes} gave "
                        f"{got[bad]}, want {want[bad]}")


BINARY = ("add", "sub", "mul", "and_", "or_", "xor", "eq", "ult", "slt")


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("op", BINARY)
def test_binary_ops_match_int_algebra(op, width):
    _check(lambda b, v: getattr(b, op)(width, v[0], v[1]),
           partial(getattr(INT_ALGEBRA, op), width), width)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("op", ("udiv", "urem", "sdiv", "srem"))
def test_division_ops_match_int_algebra(op, width):
    # callers guarantee a nonzero divisor (see the Algebra protocol)
    divide = getattr(INT_ALGEBRA, op)

    def reference(x, y):
        return divide(width, x, y or 1)

    def record(builder, v):
        return getattr(builder, op)(width, v[0], builder.or_(
            width, v[1], builder.ite(width, builder.eq(
                width, v[1], builder.const(width, 0)),
                builder.const(width, 1), builder.const(width, 0))))
    _check(record, reference, width)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("op", ("add", "sub", "mul", "and_", "xor", "eq",
                                "ult", "slt"))
def test_ops_with_a_constant_operand_match_int_algebra(op, width):
    """A constant operand is replicated into every lane (or, for
    ``mul``, kept scalar), in both operand orders: every constant at
    width 8, and at width 9 the constants around 0, the sign bit and
    the top."""
    apply = getattr(INT_ALGEBRA, op)
    top = 1 << width
    constants = range(top) if width == 8 else sorted(
        {c % top for edge in (0, top // 2, top) for c in range(edge - 3,
                                                               edge + 3)})
    for constant in constants:
        _check(lambda b, v: getattr(b, op)(
            width, v[0], b.const(width, constant)),
            lambda x: apply(width, x, constant), width, arity=1)
        _check(lambda b, v: getattr(b, op)(
            width, b.const(width, constant), v[0]),
            lambda x: apply(width, constant, x), width, arity=1)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("op", ("shl", "lshr", "ashr"))
def test_shifts_match_int_algebra(op, width):
    """Constant counts 0-9 stay scalar; a runtime count goes lane by
    lane."""
    for count in range(10):
        _check(lambda b, v: getattr(b, op)(
            width, v[0], b.const(width, count)),
            lambda x: getattr(INT_ALGEBRA, op)(width, x, count),
            width, arity=1)
    _check(lambda b, v: getattr(b, op)(width, v[0], v[1]),
           partial(getattr(INT_ALGEBRA, op), width), width)


@pytest.mark.parametrize("width", WIDTHS)
def test_unary_ops_match_int_algebra(width):
    for op in ("neg", "not_", "popcount"):
        _check(lambda b, v: getattr(b, op)(width, v[0]),
               lambda x: getattr(INT_ALGEBRA, op)(width, x),
               width, arity=1)
    for to_width in (width, width + 3, 64, 128):
        _check(lambda b, v: b.sext(width, to_width, v[0]),
               lambda x: INT_ALGEBRA.sext(width, to_width, x),
               width, arity=1)
        _check(lambda b, v: b.zext(width, to_width, v[0]),
               lambda x: INT_ALGEBRA.zext(width, to_width, x),
               width, arity=1)
    for lo in range(width):
        for hi in range(lo, width):
            _check(lambda b, v: b.extract(hi, lo, v[0]),
                   lambda x: INT_ALGEBRA.extract(hi, lo, x),
                   width, arity=1)


@pytest.mark.parametrize("width", WIDTHS)
def test_ite_and_concat_match_int_algebra(width):
    for cond in (0, 1):
        _check(lambda b, v: b.ite(width, b.eq(1, b.extract(0, 0, v[0]),
                                              b.const(1, cond)),
                                  v[0], v[1]),
               lambda x, y: INT_ALGEBRA.ite(width, (x & 1) == cond, x, y),
               width)
    for lo_width in (1, 4, width - 1):
        hi_width = width - lo_width
        _check(lambda b, v: b.concat(hi_width, b.extract(width - 1,
                                                         lo_width, v[0]),
                                     lo_width, b.extract(lo_width - 1, 0,
                                                         v[1])),
               lambda x, y: INT_ALGEBRA.concat(
                   hi_width, x >> lo_width, lo_width, y & mask(lo_width)),
               width)


# ---------------------------------------------------------------------------
# whole candidates over packed suites
# ---------------------------------------------------------------------------

def _snapshot(state: MachineState) -> tuple:
    return (dict(state.regs), dict(state.reg_defined),
            dict(state.flags), dict(state.flag_defined),
            dict(state.memory),
            (state.events.sigsegv, state.events.sigfpe,
             state.events.undef))


def _suite(kernel, count=16, seed=4):
    bench = benchmark(kernel)
    generator = TestcaseGenerator(bench.o0, bench.spec, bench.annotations,
                                  seed=seed)
    return bench, generator.generate(count)


def _pack(testcases):
    return LaneSuite.pack([tc.initial_state() for tc in testcases],
                          [tc.valid_addresses for tc in testcases])


def _assert_lanes_match_reference(prog, testcases):
    lanes = _pack(testcases)
    steps = compile_program(prog, lanes.layout).lane_steps(lanes.layout)
    assert steps is not None, str(prog)
    packed = lanes.run(steps)
    assert packed is not None, str(prog)
    for index, testcase in enumerate(testcases):
        reference = testcase.initial_state()
        Emulator(reference, testcase.sandbox()).run(prog)
        assert _snapshot(lanes.lane(packed, index)) == \
            _snapshot(reference), (index, str(prog))


@pytest.mark.parametrize("kernel", ("p01", "p03", "p12", "p18"))
def test_lane_runs_match_the_reference_in_every_lane(kernel):
    bench, testcases = _suite(kernel)
    for prog in (bench.o0.compact(), bench.gcc.compact()):
        _assert_lanes_match_reference(prog, testcases)


def test_lane_run_covers_implicit_and_memory_effects():
    """Stack pushes and pops, the widening multiply's rax/rdx pair and
    memory writes: every implicit effect lands in every lane."""
    rng = random.Random(9)
    stack = range(0x7000, 0x7040)
    testcases = [Testcase(
        input_regs=(("rdi", rng.getrandbits(64)),
                    ("rsi", rng.getrandbits(64)), ("rsp", 0x7020)),
        input_memory=tuple((addr, rng.getrandbits(8)) for addr in stack),
        expected_regs=(("rax", 0),), expected_memory=(),
        valid_addresses=frozenset(stack)) for _ in range(5)]
    prog = parse_program("""
        pushq rdi
        movq rsi, rax
        mulq rdi
        movl edx, -16(rsp)
        popq rcx
        movzbl -13(rsp), r8d
        xorq rcx, r8
    """)
    _assert_lanes_match_reference(prog, testcases)


def test_memory_accesses_wrap_at_2_64():
    """Bytes of one access past the top of the address space wrap to
    address 0, in lanes and one testcase at a time."""
    top = (1 << 64) - 3
    valid = frozenset(range(top, 1 << 64)) | frozenset(range(5))
    testcases = [Testcase(
        input_regs=(("rdi", 3), ("rsi", index * 0x0101010101010101)),
        input_memory=((top, 7), (top + 1, 8), (0, 9)),
        expected_regs=(("rax", 0),), expected_memory=(),
        valid_addresses=valid) for index in range(3)]
    prog = parse_program("""
        movq -6(rdi), rax
        movq rsi, -5(rdi)
        movq -6(rdi), rcx
        movq -1(rdi), rdx
    """)
    _assert_lanes_match_reference(prog, testcases)
    for testcase in testcases:
        reference = testcase.initial_state()
        Emulator(reference, testcase.sandbox()).run(prog)
        compiled = testcase.initial_state()
        compile_program(prog).run(compiled, testcase.sandbox())
        assert _snapshot(compiled) == _snapshot(reference)


# -- when lanes cannot carry a candidate ------------------------------------

def _counted_costs(testcases, prog, target=None):
    """Costs under the compiled evaluator (with the lane counters it
    moved) and under the reference evaluator."""
    target = target or prog
    compiled = CostFunction(testcases, target, phase=Phase.OPTIMIZATION)
    reference = CostFunction(testcases, target, phase=Phase.OPTIMIZATION,
                             evaluator="reference")
    runs, fallbacks = COUNTERS.lane_runs, COUNTERS.lane_fallbacks
    got = compiled.evaluate(prog)
    moved = (COUNTERS.lane_runs - runs, COUNTERS.lane_fallbacks - fallbacks)
    assert got == reference.evaluate(prog), str(prog)
    assert compiled._fail_counts == reference._fail_counts
    return moved


def _pointer_suite(bases, valid_extra=None):
    """One testcase per base: rdi points at 8 defined bytes there."""
    testcases = []
    for index, base in enumerate(bases):
        memory = tuple((base + i, (index * 31 + i) & 255) for i in range(8))
        valid = frozenset(addr for addr, _ in memory)
        if valid_extra is not None:
            valid |= valid_extra[index]
        testcases.append(Testcase(
            input_regs=(("rdi", base), ("rsi", index)),
            input_memory=memory, expected_regs=(("rax", index),),
            expected_memory=(), valid_addresses=valid))
    return testcases


def test_uniform_memory_runs_as_lanes():
    prog = parse_program("movq (rdi), rax\naddq rsi, rax")
    assert _counted_costs(_pointer_suite([0x4000] * 3), prog) == (1, 0)


def test_address_that_differs_between_lanes_falls_back():
    """Lanes that compute different addresses abandon the lane run;
    the suite packs (same memory addresses) but rsi differs."""
    prog = parse_program("movq (rdi,rsi,1), rax")
    assert _counted_costs(_pointer_suite([0x4000] * 3), prog) == (0, 1)


def test_address_valid_in_some_lanes_only_falls_back():
    extra = [frozenset(), frozenset({0x4008}), frozenset()]
    prog = parse_program("movb 8(rdi), al")
    assert _counted_costs(_pointer_suite([0x4000] * 3, extra), prog) == \
        (0, 1)
    # an address no lane may touch segfaults in every lane, as lanes
    prog = parse_program("movb 9(rdi), al")
    assert _counted_costs(_pointer_suite([0x4000] * 3, extra), prog) == \
        (1, 0)


def test_suites_that_differ_in_memory_addresses_do_not_pack():
    testcases = _pointer_suite([0x4000, 0x5000])
    assert _pack(testcases) is None
    prog = parse_program("movq (rdi), rax")
    assert _counted_costs(testcases, prog) == (0, 1)


def test_suites_that_differ_in_definedness_do_not_pack():
    _bench, testcases = _suite("p01", count=2)
    states = [tc.initial_state() for tc in testcases]
    states[1].set_reg("rbx", 5)
    assert LaneSuite.pack(states, [frozenset(), frozenset()]) is None


@pytest.fixture
def cold_caches(monkeypatch):
    for name in ("_STRUCTURAL_CACHE", "_SHAPE_CACHE"):
        monkeypatch.setattr(compile_module, name, {})


def test_first_sighting_runs_as_lanes(cold_caches):
    _bench, testcases = _suite("p01", count=4)
    prog = parse_program("movq rdi, rax\nsubq 1, rax\nandq rdi, rax")
    tier_ups = COUNTERS.tier_ups
    assert _counted_costs(testcases, prog) == (1, 0)
    assert COUNTERS.tier_ups == tier_ups + 3
    _assert_lanes_match_reference(prog, testcases)


# -- runtime zero tests ------------------------------------------------------

_M64 = (1 << 64) - 1

#: rax in the three testcases of a zero-test suite.
_RAX = (0x8000_0000_0000_0001, 0x0123_4567_89AB_CDEF, 0xFFFF_FFFF_FFFF_FFF0)


def _zero_test_suite(**columns):
    """Three testcases with rax from :data:`_RAX`, rdx 0, rcx 0 and
    rsi 1, except for the registers given one value per testcase."""
    rows = [{"rax": rax, "rdx": 0, "rcx": 0, "rsi": 1} for rax in _RAX]
    for name, values in columns.items():
        for row, value in zip(rows, values, strict=True):
            row[name] = value & _M64
    return [Testcase(input_regs=tuple(sorted(row.items())),
                     input_memory=(), expected_regs=(("rax", 1),),
                     expected_memory=(), valid_addresses=frozenset())
            for row in rows]


#: (program, testcase columns, whether the lanes carry it): the tested
#: value zero in every lane, in no lane, and in some lanes only.
ZERO_TESTS = {
    "shrq-count-zero-everywhere": ("shrq cl, rax", {"rcx": (0, 64, 128)},
                                   True),
    "shrq-count-zero-nowhere": ("shrq cl, rax", {"rcx": (1, 63, 65)}, True),
    "shrq-count-zero-somewhere": ("shrq cl, rax", {"rcx": (64, 3, 0)},
                                  False),
    "rolb-count-zero-everywhere": ("rolb cl, al", {"rcx": (0, 8, 16)}, True),
    "rolb-count-zero-nowhere": ("rolb cl, al", {"rcx": (1, 7, 9)}, True),
    "rolb-count-zero-somewhere": ("rolb cl, al", {"rcx": (8, 3, 0)}, False),
    "divq-divisor-zero-everywhere": ("divq rsi", {"rsi": (0, 0, 0)}, True),
    "divq-divisor-zero-nowhere": ("divq rsi", {"rsi": (3, 7, 1 << 63)},
                                  True),
    "divq-divisor-zero-somewhere": ("divq rsi", {"rsi": (3, 0, 7)}, False),
    "divq-overflow-everywhere": ("divq rsi", {"rsi": (5, 2, 3),
                                              "rdx": (5, 9, 7)}, True),
    "divq-overflow-somewhere": ("divq rsi", {"rsi": (5, 2, 3),
                                             "rdx": (0, 9, 1)}, False),
    "idivq-divisor-zero-everywhere": ("idivq rsi", {"rsi": (0, 0, 0)},
                                      True),
    "idivq-divisor-zero-nowhere": ("idivq rsi", {"rsi": (3, 7, -5)}, True),
    "idivq-divisor-zero-somewhere": ("idivq rsi", {"rsi": (3, 0, 7)},
                                     False),
    "idivq-overflow-everywhere": ("idivq rsi", {"rax": (1 << 63, 0, 5),
                                                "rdx": (-1, 1, 1),
                                                "rsi": (-1, 1, 1)}, True),
    "idivq-overflow-somewhere": ("idivq rsi", {"rdx": (1, 0, 0),
                                               "rsi": (1, 1, 3)}, False),
}


@pytest.mark.parametrize("case", ZERO_TESTS.values(), ids=ZERO_TESTS)
def test_runtime_zero_tests_dispatch_or_fall_back(case, cold_caches):
    """Zero in every lane or in none runs as lanes, equal to the
    reference in every lane; a mix falls back to one testcase at a
    time on the same code, with the reference's costs."""
    text, columns, carried = case
    testcases = _zero_test_suite(**columns)
    prog = parse_program(text)
    misses = COUNTERS.lane_misses
    assert _counted_costs(testcases, prog) == \
        ((1, 0) if carried else (0, 1))
    assert COUNTERS.lane_misses == misses + (not carried)
    if carried:
        _assert_lanes_match_reference(prog, testcases)
    for testcase in testcases:
        reference = testcase.initial_state()
        Emulator(reference, testcase.sandbox()).run(prog)
        compiled = testcase.initial_state()
        compile_program(prog).run(compiled, testcase.sandbox())
        assert _snapshot(compiled) == _snapshot(reference), str(testcase)


def test_zero_count_over_undefined_flags_reads_no_flag():
    """A zero count leaves the flags alone without reading them, so
    flags that were never defined count no undefined-flag event."""
    testcases = _zero_test_suite(rcx=(0, 64, 128))
    prog = parse_program("shrq cl, rax\nrorl cl, esi")
    lanes = _pack(testcases)
    assert not any(lanes.proto.flag_defined.values())
    packed = lanes.run(compile_program(prog, lanes.layout)
                       .lane_steps(lanes.layout))
    assert packed.events.undef == 0
    _assert_lanes_match_reference(prog, testcases)


def test_program_with_jumps_falls_back():
    _bench, testcases = _suite("p01", count=4)
    prog = parse_program("""
        movq rdi, rax
        testq rdi, rdi
        je .L1
        subq 1, rax
        .L1
        andq rdi, rax
    """)
    assert _counted_costs(testcases, prog) == (0, 1)


def test_counterexample_appended_mid_chain_repacks_the_suite():
    """A new testcase widens the lanes; one whose input memory sits
    elsewhere stops the suite from packing at all."""
    bench, testcases = _suite("p01", count=4)
    compiled = CostFunction(testcases[:3], bench.o0)
    reference = CostFunction(testcases[:3], bench.o0, evaluator="reference")
    prog = bench.gcc
    for cost in (compiled, reference):
        cost.evaluate(prog)
        assert cost.add_testcase(testcases[3])
    runs = COUNTERS.lane_runs
    assert compiled.evaluate(prog) == reference.evaluate(prog)
    assert COUNTERS.lane_runs == runs + 1
    assert compiled._lane_suite().layout.lanes == 4
    assert compiled._fail_counts == reference._fail_counts

    memory_prog = parse_program("movq (rdi), rax")
    suite = _pointer_suite([0x4000, 0x4000, 0x5000])
    compiled = CostFunction(suite[:2], memory_prog)
    assert compiled._lane_suite() is not None
    compiled.add_testcase(suite[2])
    assert compiled._lane_suite() is None
    fallbacks = COUNTERS.lane_fallbacks
    compiled.evaluate(memory_prog)
    assert COUNTERS.lane_fallbacks == fallbacks + 1


# -- scoring a lane run -------------------------------------------------------

def test_suite_checking_different_outputs_scores_lane_by_lane():
    testcases = _pointer_suite([0x4000] * 3)
    testcases[1] = Testcase(
        input_regs=testcases[1].input_regs,
        input_memory=testcases[1].input_memory,
        expected_regs=(("rcx", 5),), expected_memory=(),
        valid_addresses=testcases[1].valid_addresses)
    prog = parse_program("movq (rdi), rax\nmovq rsi, rcx")
    assert _counted_costs(testcases, prog) == (1, 0)


class _HighBitsTerm(CostTerm):
    """A per-testcase term with no lane-aware scoring of its own."""

    name = "high-bits"
    per_testcase = True

    def testcase_cost(self, rewrite, state, testcase):
        return state.regs["rax"] >> 60


def test_terms_without_lane_scoring_read_each_lane():
    _bench, testcases = _suite("p01", count=5)
    target = parse_program("movq rdi, rax\nshlq 2, rax")
    costs = []
    runs = COUNTERS.lane_runs
    for evaluator in ("compiled", "reference"):
        cost = CostFunction(testcases, target, evaluator=evaluator,
                            terms=[(1.0, make_cost_term("correctness")),
                                   (2.5, _HighBitsTerm())])
        costs.append(cost.evaluate(target))
    assert COUNTERS.lane_runs == runs + 1
    assert costs[0] == costs[1]
    assert costs[0].value > 0


def test_lane_scorer_matches_testcase_cost():
    """Outputs and alternative locations a few bits from the expected
    values, written or left as the suite packed them: the packed
    scorer equals Eq. 15 lane by lane, strict and improved."""
    rng = random.Random(15)
    _bench, testcases = _suite("p01", count=16, seed=8)
    lanes = _pack(testcases)
    weights = CostWeights()
    names = [name for name in lanes.proto.regs if not name.startswith("x")]
    for improved in (True, False):
        scorer = LaneScorer(lanes, testcases, weights, improved=improved)
        for _ in range(300):
            state = lanes.proto.copy()
            for name in rng.sample(names, rng.randint(0, len(names))):
                values = []
                for testcase in testcases:
                    expected = testcase.expected_regs[0][1]
                    flips = rng.choice((0, 1, 2, 2, 3, 7))
                    for bit in rng.sample(range(32), flips):
                        expected ^= 1 << bit
                    values.append(expected | rng.getrandbits(32) << 32)
                state.regs[name] = lanes.layout.pack(values)
            state.events.undef = rng.choice((0, 0, 1))
            want = [eq_cost(lanes.lane(state, i), testcase, weights,
                            improved=improved)
                    for i, testcase in enumerate(testcases)]
            assert scorer.costs(state) == want


def test_lane_scorer_matches_testcase_cost_on_memory_outputs():
    rng = random.Random(16)
    outputs = (0x4000, 0x4001, 0x4003)
    testcases = [Testcase(
        input_regs=(("rdi", 0x4000),),
        input_memory=tuple((addr, rng.getrandbits(8)) for addr in outputs),
        expected_regs=(),
        expected_memory=tuple((addr, rng.getrandbits(8))
                              for addr in outputs),
        valid_addresses=frozenset(outputs)) for _ in range(7)]
    lanes = _pack(testcases)
    weights = CostWeights()
    for improved in (True, False):
        scorer = LaneScorer(lanes, testcases, weights, improved=improved)
        for _ in range(200):
            state = lanes.proto.copy()
            for addr in outputs:
                values = []
                for testcase in testcases:
                    byte = rng.choice([expected for _, expected
                                       in testcase.expected_memory])
                    values.append(byte ^ rng.choice((0, 0, 1, 6, 255)))
                state.memory[addr] = lanes.layout.pack(values)
            want = [eq_cost(lanes.lane(state, i), testcase, weights,
                            improved=improved)
                    for i, testcase in enumerate(testcases)]
            assert scorer.costs(state) == want
