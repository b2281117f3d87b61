"""Compiled candidate evaluation: the MCMC inner loop's fast path.

The reference :class:`~repro.emulator.cpu.Emulator` re-dispatches
``execute()`` per instruction per testcase: every proposal pays for
operand classification, register-view resolution, width masking and
algebra indirection once *per testcase*. This module hoists all of that
to once *per candidate*, and then runs the candidate over every
testcase at once.

**Lane form.** Each instruction is lowered to one specialized step
function written for a *lane layout* (:class:`Layout`): every register,
flag and memory byte is one Python int whose fixed-stride lanes
(:data:`LANE_STRIDE` bits each) carry the testcases' values side by
side, so one ``&`` or ``+`` serves every testcase (SWAR, "SIMD within
a register"). The emitted code keeps lanes isolated: it masks before a
left shift, borrows through a guard bit above the operand width for
``sub``, ``neg`` and ``ult``, detects zero for ``eq`` by adding the
lane mask, and fills signs by multiplying 0/1 lanes by a scalar
constant. ``mul`` (:func:`_mul_each`), division and runtime shift
counts go lane by lane. Register and flag definedness and the Eq. 11
event counters stay scalar: compiled steps set them identically in
every lane. A memory access reads the address of lane 0 and raises
:class:`LaneMiss` unless every lane agrees (see
:mod:`repro.emulator.lanes`).

A step takes the state it runs on as arguments, in the order of
:data:`STATE_ARGS`: ``(regs, rdef, flags, fdef, mem, events, check,
<params>)``, the state's register, definedness, flag and memory dicts,
its event counters and the sandbox's address check
(:func:`state_args`). A run fetches them once and passes them to every
step.

Lane masks and replicated constants are parameters of the step, bound
per layout, so the code never depends on the layout. Bound to the
one-lane layout (:data:`ONE_LANE`), the same code is plain
:class:`~repro.emulator.state.MachineState` execution: that is how
:meth:`CompiledProgram.run` executes one testcase, and there is no
second, scalar emitter.

Crucially, lowering is driven by the *same* ``execute()`` definition the
reference emulator and the symbolic validator interpret: compilation
runs the shared semantics once against a recording
:class:`~repro.x86.semantics.Machine` whose algebra emits straight-line
Python source instead of computing values; that source is compiled
once per shape (below) and cached. Constant subexpressions fold at
compile time; reads, writes and sandbox events are emitted in exactly
the order the reference performs them, so final states — including the
Eq. 11 event counters — are bit-identical in every lane
(``tests/emulator/test_compile.py`` and ``test_lanes.py`` check this
differentially).

Where the semantics branch on whether a runtime value is zero (a
shift or rotate count in ``cl`` leaves the flags alone when zero;
``div``/``idiv`` fault on a zero divisor or a quotient that does not
fit), the recorder replays ``execute()`` once per answer and the step
tests the value when it runs: zero in every lane takes one recording,
zero in no lane the other, and a mix raises :class:`LaneMiss`, so that
candidate runs one testcase at a time, where the test always decides.

What gets compiled is a step's *shape*, not the instruction: the
recorder emits register names and constants (immediates,
displacements, folded values, lane masks) as parameters, one per
distinct value, so siblings such as ``addq rdi, rax`` and ``addq rsi,
rcx``, or ``addq 7, rax`` and ``addq 9, rdx``, that differ only in
those values record the same text. A parameter's first letter says how
a layout binds it: ``R`` register names and ``N`` scalars (shift
counts, sign fills) as they are, ``C`` constants replicated into every
lane, ``L`` the layout itself, ``F`` a helper stencil (below) bound for
the same layout. Each shape is ``compile()``-d once, on its first
sighting, into a code object, and every instruction of that shape runs
it with its own values bound as parameter defaults. Binding an
instruction's values back reproduces exactly the source it would
compile to on its own, so sharing is sound; aliasing is part of the
shape (``addq rax, rax`` reads one parameter twice, ``addq rax, rbx``
two).

**Outlined helpers.** The semantic helpers that most shapes repeat
(result flags per width, a condition code, add-with-carry and
subtract-with-borrow per width and carry-in) are marked
:func:`~repro.x86.semantics.outlined`. The recorder records each one
once per static argument (its width or condition code), with its
values as runtime arguments, into a *helper stencil* of its own, and a
shape calls it in one line, such as ``F3(flags, fdef, v2)``: the stencil
takes the state arguments its body uses, then the values, and returns
the runtime parts of the helper's result. A shape thus compiles fewer
lines, and one ``cmov`` or ``set`` shape serves all 16 condition codes,
which differ only in the stencil bound to their ``F`` parameter. A
call whose values are all constants records the helper inline, so
constants fold as before. Helper stencils compile lazily, on first use.

Compiled steps are cached on the :class:`Instruction` instances
themselves (a proposal shares all but one instruction object with its
predecessor), with a structural second-level cache behind them, so the
steady-state compile cost of a proposal is one dictionary hit per slot.
A :data:`ONE_LANE` step (or helper stencil) keeps its binding for the
last lane layout it was bound to. A structural miss costs one
recording, which replays an already compiled helper as one call; a
shape miss one ``compile()``.
"""

from __future__ import annotations

import builtins
import re
from itertools import filterfalse, repeat
from types import CodeType, FunctionType
from typing import Callable

from repro.emulator.sandbox import Sandbox
from repro.emulator.state import MachineState
from repro.errors import StepLimitExceeded
from repro.x86.algebra import INT_ALGEBRA, mask, to_signed
from repro.x86.instruction import Instruction, is_unused
from repro.x86.program import Program
from repro.x86.registers import RegClass, Register
from repro.x86.semantics import cc_value, execute

_M64 = (1 << 64) - 1

#: Bits per lane. The widest recorded value is 128 bits (XMM views, the
#: ``mul`` widening product); ``eq``, ``ult`` and ``sub`` at that width
#: need one guard bit above it, and one more keeps a spare.
LANE_STRIDE = 130

_LANE_MASK = (1 << LANE_STRIDE) - 1

#: What every step takes, in this order, ahead of its parameters: a
#: state's registers, register definedness, flags, flag definedness,
#: memory and event counters, and the sandbox's address check.
STATE_ARGS = ("regs", "rdef", "flags", "fdef", "mem", "events", "check")

#: A compiled step: executes one instruction against :func:`state_args`.
Step = Callable[..., object]


def state_args(state: MachineState, sandbox: Sandbox) -> tuple:
    """The arguments a step runs on: ``state``'s dicts and counters,
    and ``sandbox``'s check, in :data:`STATE_ARGS` order."""
    return (state.regs, state.reg_defined, state.flags, state.flag_defined,
            state.memory, state.events, sandbox.check)


class LaneMiss(Exception):
    """Raised by a lane step when the lanes disagree on a memory access
    or on a runtime zero test (see :meth:`_SourceBuilder.record`).

    The run it aborts had no effect outside its own packed state, so
    the caller re-runs the candidate one testcase at a time.
    """


class Layout:
    """``lanes`` testcases side by side, :data:`LANE_STRIDE` bits apart.

    ``one`` holds 1 in every lane; a constant ``c`` used as an operand
    is replicated into every lane as ``c * one``.
    """

    __slots__ = ("lanes", "one", "shifts", "_replicated")

    def __init__(self, lanes: int) -> None:
        self.lanes = lanes
        self.shifts = range(0, LANE_STRIDE * lanes, LANE_STRIDE)
        self.one = sum(1 << shift for shift in self.shifts)
        self._replicated: dict[int, int] = {}

    def replicate(self, value: int) -> int:
        """``value`` in every lane."""
        packed = self._replicated.get(value)
        if packed is None:
            if len(self._replicated) >= _STRUCTURAL_CACHE_LIMIT:
                self._replicated.clear()
            packed = self._replicated[value] = value * self.one
        return packed

    def pack(self, values) -> int:
        """One value per lane, lane 0 first."""
        packed = 0
        for shift, value in zip(self.shifts, values):
            packed |= value << shift
        return packed

    def lane(self, packed: int, index: int) -> int:
        """Lane ``index`` of ``packed``."""
        return (packed >> (LANE_STRIDE * index)) & _LANE_MASK


_LAYOUTS: dict[int, Layout] = {}


def layout(lanes: int) -> Layout:
    """The shared layout of ``lanes`` lanes (steps cache by identity)."""
    found = _LAYOUTS.get(lanes)
    if found is None:
        found = _LAYOUTS[lanes] = Layout(lanes)
    return found


#: One testcase per state: the layout of plain ``MachineState`` runs.
ONE_LANE = layout(1)


def _each(lay: Layout, op, width: int, a: int, b: int) -> int:
    """``INT_ALGEBRA`` operation ``op`` applied lane by lane."""
    if lay.lanes == 1:
        return op(width, a, b)
    result = 0
    for shift in lay.shifts:
        result |= op(width, a >> shift & _LANE_MASK,
                     b >> shift & _LANE_MASK) << shift
    return result


def _mul_each(lay: Layout, width: int, a: int, b: int) -> int:
    """``a * b`` truncated to ``width`` bits, lane by lane (a product
    of packed ints would mix the lanes)."""
    low = (1 << width) - 1
    if lay.lanes == 1:
        return (a * b) & low
    result = 0
    for shift in lay.shifts:
        result |= ((a >> shift & _LANE_MASK) * (b >> shift & _LANE_MASK)
                   & low) << shift
    return result


class _Const:
    """A compile-time-known value in the recording machine."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


_ONE_KEY = ("one",)

#: Popcount field masks by (field bits, width), shared by recordings.
_FIELDS: dict[tuple, int] = {}


class _SourceBuilder:
    """A :class:`Machine` whose operations emit lane-form source.

    Values flowing through the semantics are either :class:`_Const`
    (folded immediately with the integer algebra's rules) or integer
    indices naming local variables ``v0, v1, ...`` of the generated
    step function. Every state access appends one (or a few) source
    lines, and every outlined helper one call (:meth:`outline`); the
    finished function replays the reference emulator's exact sequence
    of reads, writes and sandbox events for one instruction, in every
    lane at once. Each runtime value holds, in every lane, a value below
    ``2**width`` for the width the semantics gave it.
    """

    def __init__(self) -> None:
        self.alg = self            # semantics reach the algebra via m.alg
        self.lines: list[str] = []
        self._counter = 0
        self._params: dict[tuple, str] = {}
        self._values: list = []
        self._script: list[bool] = []
        self._guards: list[tuple[int, str, str]] = []

    def _param(self, kind: str, value, key: tuple | None = None) -> str:
        """The parameter that carries ``value``: one per (kind, value),
        or per ``key`` for a value derived from widths rather than from
        the instruction, so an immediate never aliases a lane mask."""
        if key is None:
            key = (kind, value)
        name = self._params.get(key)
        if name is None:
            name = self._params[key] = f"{kind}{len(self._params)}"
            self._values.append(value)
        return name

    def _reg(self, name: str) -> str:
        return self._params.get(("R", name)) or self._param("R", name)

    def _num(self, value: int) -> str:
        """A scalar constant: the same number for every lane."""
        return self._params.get(("N", value)) or self._param("N", value)

    def _rep(self, value: int) -> str:
        """A constant replicated into every lane."""
        return self._params.get(("C", value)) or self._param("C", value)

    def _mask(self, width: int) -> str:
        """``width`` low bits set in every lane."""
        key = ("mask", width)
        return self._params.get(key) or self._param("C", mask(width), key)

    def _guard(self, width: int) -> str:
        """Bit ``width`` set in every lane."""
        key = ("guard", width)
        return self._params.get(key) or self._param("C", 1 << width, key)

    def _one(self) -> str:
        return self._params.get(_ONE_KEY) or self._param("C", 1, _ONE_KEY)

    def _fill(self, value: int) -> str:
        """A scalar bit pattern that a 0/1 lane multiplies into place."""
        return self._param("N", value, ("fill", value))

    def _fields(self, bits: int, width: int) -> str:
        """Ones in the low ``bits`` of every ``2 * bits``-bit field of a
        ``width``-bit value, in every lane."""
        key = ("fields", bits, width)
        name = self._params.get(key)
        if name is None:
            fields = _FIELDS.get(key)
            if fields is None:
                fields = _FIELDS[key] = sum(
                    mask(bits) << shift
                    for shift in range(0, width, 2 * bits))
            name = self._param("C", fields, key)
        return name

    def _layout(self) -> str:
        return self._param("L", ONE_LANE)

    def _new(self) -> int:
        """A fresh local ``v<k>``; returns ``k``."""
        k = self._counter
        self._counter += 1
        return k

    def _slot(self, expr: str) -> int:
        k = self._new()
        self.lines.append(f"v{k} = {expr}")
        return k

    def _ref(self, v) -> str:
        if type(v) is _Const:
            return self._rep(v.value)
        return f"v{v}"

    def _lanewise(self, op: str, width: int, a, b) -> int:
        return self._slot(f"_each({self._layout()}, {op}, {width}, "
                          f"{self._ref(a)}, {self._ref(b)})")

    # -- algebra: arithmetic ------------------------------------------------

    def const(self, width: int, value: int):
        return _Const(value & mask(width))

    def add(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const((a.value + b.value) & mask(width))
        return self._slot(f"({self._ref(a)} + {self._ref(b)}) "
                          f"& {self._mask(width)}")

    def sub(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const((a.value - b.value) & mask(width))
        if type(b) is _Const:          # a - b == a + (2**width - b)
            return self._slot(
                f"({self._ref(a)} + {self._rep(-b.value & mask(width))}) "
                f"& {self._mask(width)}")
        return self._slot(f"({self._guarded(width, a)} - {self._ref(b)}) "
                          f"& {self._mask(width)}")

    def _guarded(self, width: int, a) -> str:
        """``a`` with the guard bit ``2**width`` set in every lane, so
        subtracting a ``width``-bit value never borrows across lanes."""
        if type(a) is _Const:
            return self._rep(a.value | (1 << width))
        return f"({self._ref(a)} | {self._guard(width)})"

    def mul(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const((a.value * b.value) & mask(width))
        if type(a) is _Const:
            a, b = b, a
        if type(b) is _Const and \
                width + b.value.bit_length() <= LANE_STRIDE:
            # the product stays inside its lane: multiply by the scalar
            return self._slot(f"({self._ref(a)} * {self._num(b.value)}) "
                              f"& {self._mask(width)}")
        return self._slot(f"_mul_each({self._layout()}, {width}, "
                          f"{self._ref(a)}, {self._ref(b)})")

    def neg(self, width: int, a):
        if type(a) is _Const:
            return _Const((-a.value) & mask(width))
        return self._slot(f"({self._guard(width)} - {self._ref(a)}) "
                          f"& {self._mask(width)}")

    # -- algebra: division (recorded only where known_zero answered that
    # the divisor is nonzero, so these never divide by zero) ----------------

    def udiv(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const(a.value // b.value)
        return self._lanewise("_udiv", width, a, b)

    def urem(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const(a.value % b.value)
        return self._lanewise("_urem", width, a, b)

    def sdiv(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const(INT_ALGEBRA.sdiv(width, a.value, b.value))
        return self._lanewise("_sdiv", width, a, b)

    def srem(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const(INT_ALGEBRA.srem(width, a.value, b.value))
        return self._lanewise("_srem", width, a, b)

    # -- algebra: bitwise ---------------------------------------------------

    def and_(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const(a.value & b.value)
        return self._slot(f"{self._ref(a)} & {self._ref(b)}")

    def or_(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const(a.value | b.value)
        return self._slot(f"{self._ref(a)} | {self._ref(b)}")

    def xor(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const(a.value ^ b.value)
        return self._slot(f"{self._ref(a)} ^ {self._ref(b)}")

    def not_(self, width: int, a):
        if type(a) is _Const:
            return _Const(~a.value & mask(width))
        return self._slot(f"{self._ref(a)} ^ {self._mask(width)}")

    # -- algebra: shifts (a constant count stays scalar; masking before
    # a left shift keeps bits from crossing into the next lane) -------------

    def shl(self, width: int, a, count):
        if type(count) is _Const:
            c = count.value
            if c >= width:
                return _Const(0)
            if type(a) is _Const:
                return _Const((a.value << c) & mask(width))
            return self._slot(f"({self._ref(a)} & {self._mask(width - c)}) "
                              f"<< {self._num(c)}")
        return self._lanewise("_shl", width, a, count)

    def lshr(self, width: int, a, count):
        if type(count) is _Const:
            c = count.value
            if c >= width:
                return _Const(0)
            if type(a) is _Const:
                return _Const(a.value >> c)
            return self._slot(f"({self._ref(a)} >> {self._num(c)}) "
                              f"& {self._mask(width - c)}")
        return self._lanewise("_lshr", width, a, count)

    def ashr(self, width: int, a, count):
        if type(count) is _Const and type(a) is _Const:
            return _Const(INT_ALGEBRA.ashr(width, a.value, count.value))
        if type(count) is not _Const:
            return self._lanewise("_ashr", width, a, count)
        c = min(count.value, width - 1)
        ref = self._ref(a)
        return self._slot(
            f"(({ref} >> {self._num(c)}) & {self._mask(width - c)}) | "
            f"(({ref} >> {width - 1}) & {self._one()}) "
            f"* {self._fill(mask(width) ^ mask(width - c))}")

    # -- algebra: comparisons (0/1 in every lane) ---------------------------

    def eq(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const(1 if a.value == b.value else 0)
        if type(a) is _Const:
            a, b = b, a
        if type(b) is _Const and b.value == 0:
            diff = self._ref(a)
        else:
            diff = f"({self._ref(a)} ^ {self._ref(b)})"
        # a nonzero lane carries into bit ``width`` when the mask is added
        one = self._one()
        return self._slot(f"((({diff} + {self._mask(width)}) >> {width}) "
                          f"& {one}) ^ {one}")

    def ult(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const(1 if a.value < b.value else 0)
        # the guard bit survives the subtraction exactly when a >= b
        one = self._one()
        return self._slot(f"((({self._guarded(width, a)} - {self._ref(b)}) "
                          f">> {width}) & {one}) ^ {one}")

    def slt(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const(1 if to_signed(width, a.value) <
                          to_signed(width, b.value) else 0)
        # flipping the sign bits turns signed order into unsigned order
        sign = 1 << (width - 1)
        return self.ult(width, self.xor(width, a, _Const(sign)),
                        self.xor(width, b, _Const(sign)))

    # -- algebra: structure -------------------------------------------------

    def ite(self, width: int, cond, then, otherwise):
        if type(cond) is _Const:
            return then if cond.value else otherwise
        t = self._ref(then)
        e = self._ref(otherwise)
        return self._slot(f"{e} ^ (({t} ^ {e}) & "
                          f"({self._ref(cond)} * {self._fill(mask(width))}))")

    def extract(self, hi: int, lo: int, a):
        if type(a) is _Const:
            return _Const((a.value >> lo) & mask(hi - lo + 1))
        if lo == 0:
            return self._slot(f"{self._ref(a)} & {self._mask(hi + 1)}")
        return self._slot(
            f"({self._ref(a)} >> {lo}) & {self._mask(hi - lo + 1)}")

    def concat(self, hi_width: int, hi, lo_width: int, lo):
        if type(hi) is _Const and type(lo) is _Const:
            return _Const((hi.value << lo_width) | lo.value)
        if type(hi) is _Const:
            return self._slot(
                f"{self._rep(hi.value << lo_width)} | {self._ref(lo)}")
        return self._slot(
            f"({self._ref(hi)} << {lo_width}) | {self._ref(lo)}")

    def zext(self, from_width: int, to_width: int, a):
        return a                      # values are unsigned ints already

    def sext(self, from_width: int, to_width: int, a):
        if type(a) is _Const:
            return _Const(to_signed(from_width, a.value) & mask(to_width))
        if from_width == to_width:
            return a
        ref = self._ref(a)
        fill = mask(to_width) ^ mask(from_width)
        return self._slot(f"{ref} | (({ref} >> {from_width - 1}) "
                          f"& {self._one()}) * {self._fill(fill)}")

    def popcount(self, width: int, a):
        if type(a) is _Const:
            return _Const(a.value.bit_count())
        # SWAR: sum neighbouring fields of 1, 2, 4, ... bits; masking
        # both addends drops what a right shift pulls in from the next
        # lane, and no field sum outgrows its field
        count = self._slot(f"{self._ref(a)} - (({self._ref(a)} >> 1) & "
                           f"{self._fields(1, width)})")
        bits = 2
        while bits < width:
            fields = self._fields(bits, width)
            ref = self._ref(count)
            count = self._slot(f"({ref} & {fields}) + "
                               f"(({ref} >> {bits}) & {fields})")
            bits *= 2
        return count

    # -- Machine protocol: state accesses -----------------------------------

    def read_full(self, name: str):
        return self._slot(f"regs[{self._reg(name)}]")

    def write_full(self, name: str, value) -> None:
        self.lines.append(f"regs[{self._reg(name)}] = {self._ref(value)}")

    def check_reg_defined(self, reg: Register) -> None:
        needed = (1 << reg.byte_width) - 1
        self.lines.append(
            f"if rdef[{self._reg(reg.full)}] & {needed} != {needed}: "
            "events.undef += 1")

    def mark_reg_defined(self, reg: Register) -> None:
        if reg.reg_class is RegClass.GPR and reg.width == 32:
            self.lines.append(f"rdef[{self._reg(reg.full)}] = 255")
        else:
            bits = (1 << reg.byte_width) - 1
            self.lines.append(f"rdef[{self._reg(reg.full)}] |= {bits}")

    def read_flag(self, name: str):
        self.lines.append(
            f"if not fdef[{name!r}]: events.undef += 1")
        return self._slot(f"flags[{name!r}]")

    def write_flag(self, name: str, value) -> None:
        self.lines.append(f"flags[{name!r}] = {self._ref(value)}")
        self.lines.append(f"fdef[{name!r}] = True")

    def set_flag_undefined(self, name: str) -> None:
        self.lines.append(f"fdef[{name!r}] = False")

    def _address(self, addr) -> str:
        """Lane 0's address, after checking that every lane agrees."""
        if type(addr) is _Const:
            return self._num(addr.value)
        ref = self._ref(addr)
        base = self._ref(self._slot(f"{ref} & {_M64}"))
        self.lines.append(f"if {base} * {self._one()} != {ref}: "
                          "raise _LaneMiss")
        return base

    def read_mem(self, addr, nbytes: int):
        base = self._address(addr)
        return self._slot(f"_load(mem, check, events, {base}, {nbytes})")

    def write_mem(self, addr, nbytes: int, value) -> None:
        base = self._address(addr)
        self.lines.append(f"_store(mem, check, events, {base}, {nbytes}, "
                          f"{self._ref(value)}, {self._mask(8)})")

    def fpe(self) -> None:
        self.lines.append("events.sigfpe += 1")

    def known_zero(self, width: int, value) -> bool:
        if type(value) is _Const:
            return value.value == 0
        # a runtime value: answer from the script (True past its end),
        # noting where the step must test the real value (see record)
        index = len(self._guards)
        ref = self._ref(value)
        one = self._one()
        self._guards.append(
            (len(self.lines), f"{ref} == 0",
             f"(({ref} + {self._mask(width)}) >> {width}) & {one} == {one}"))
        return self._script[index] if index < len(self._script) else True

    # -- outlined helpers ---------------------------------------------------

    def outline(self, fn, args: tuple):
        """Call the shared stencil of the semantic helper ``fn`` in one
        line (see :func:`~repro.x86.semantics.outlined`).

        ``args`` is the helper's static argument and then its values.
        When every value is a constant, the helper is recorded inline
        instead, so it folds exactly as before.
        """
        key, *values = args
        live = [v for v in values if v is not None]
        if live and all(type(v) is _Const for v in live):
            return fn(self, *args)
        helper, state, result = _helper(fn, key,
                                        tuple(v is None for v in values))
        call = (f"{self._param('F', helper)}"
                f"({', '.join([*state, *map(self._ref, live)])})")
        if result is None:
            self.lines.append(call)
            return None
        outs = [v if type(v) is _Const else self._new()
                for v in (result if type(result) is tuple else (result,))]
        names = ", ".join(f"v{v}" for v in outs if type(v) is not _Const)
        self.lines.append(f"{names} = {call}" if names else call)
        return tuple(outs) if type(result) is tuple else outs[0]

    # -- recording ----------------------------------------------------------

    def record(self, instr: Instruction) -> None:
        """Record ``instr`` as one step.

        Where the semantics ask whether a runtime value is zero (a shift
        count, a divisor, whether a quotient fits), the step tests it:
        zero in every lane runs the recording that answered True, zero
        in no lane the one that answered False, and a mix raises
        ``LaneMiss``.
        """
        self.lines = self._branches(instr, [], 0, self._replay(instr, []))

    def _replay(self, instr: Instruction, script: list[bool]) -> tuple:
        """The lines and zero tests of ``instr`` recorded afresh with
        the tests answered from ``script`` (True past its end).

        Replays share the parameter table and record the same lines up
        to where their answers differ.
        """
        self.lines, self._guards, self._counter = [], [], 0
        self._script = script
        execute(instr, self)
        return self.lines, self._guards

    def _branches(self, instr: Instruction, script: list[bool], start: int,
                  run: tuple) -> list[str]:
        """The lines from ``start`` of ``run``, the replay under
        ``script``, branching on every later zero test; each branch
        keeps only its own lines."""
        lines, guards = run
        depth = len(script)
        if depth == len(guards):
            return lines[start:]
        at, zero, nonzero = guards[depth]
        when_zero = self._branches(instr, script + [True], at, run)
        when_not = self._branches(instr, script + [False], at,
                                  self._replay(instr, script + [False]))
        return (lines[start:at]
                + [f"if {zero}:"] + [f"    {line}" for line in when_zero]
                + [f"elif {nonzero}:"] + [f"    {line}" for line in when_not]
                + ["else:", "    raise _LaneMiss"])

    # -- assembly -----------------------------------------------------------

    def shape(self, result=None, head: tuple = STATE_ARGS) -> str:
        """The recorded step with its values lifted out: its *shape*.

        Register names, constants and helper stencils appear as
        parameters after ``head`` (one per distinct value and kind,
        numbered by first use), so every instruction that differs from
        this one only in those values records the same text, aliasing
        included: ``addq rax, rax`` reads ``R0`` twice where ``addq
        rax, rbx`` reads ``R0`` and ``R1``. With ``result``, the step
        returns that value's expression (used for compiled condition
        codes).
        """
        lines = self.lines
        if result is not None:
            lines = lines + [f"return {self._ref(result)}"]
        params = ", ".join((*head, *self._params.values()))
        return f"def _step({params}):\n" + "\n".join(lines)

    @property
    def values(self) -> tuple:
        """The parameters' values bound for :data:`ONE_LANE`."""
        return tuple(self._values)


def _addresses(base: int, nbytes: int):
    """The byte addresses from ``base``, wrapping at 2**64."""
    end = base + nbytes
    if end <= _M64:
        return range(base, end)
    return [(base + i) & _M64 for i in range(nbytes)]


def _load(mem: dict, check, events, base: int, nbytes: int) -> int:
    """Read ``nbytes`` bytes at scalar address ``base``, as the reference
    does: a byte outside the sandbox faults and reads as zero, a byte
    never written counts as an undefined read."""
    value = 0
    shift = 0
    for addr in _addresses(base, nbytes):
        if check(addr):
            byte = mem.get(addr)
            if byte is None:
                events.undef += 1
            else:
                value |= byte << shift
        else:
            events.sigsegv += 1
        shift += 8
    return value


def _store(mem: dict, check, events, base: int, nbytes: int, value: int,
           byte_mask: int) -> None:
    """Write ``nbytes`` bytes of ``value`` at scalar address ``base``."""
    for addr in _addresses(base, nbytes):
        if check(addr):
            mem[addr] = value & byte_mask
        else:
            events.sigsegv += 1
        value >>= 8


_STEP_GLOBALS = {"__builtins__": builtins, "_each": _each,
                 "_LaneMiss": LaneMiss, "_load": _load, "_store": _store,
                 "_mul_each": _mul_each,
                 "_shl": INT_ALGEBRA.shl, "_lshr": INT_ALGEBRA.lshr,
                 "_ashr": INT_ALGEBRA.ashr,
                 "_udiv": INT_ALGEBRA.udiv, "_urem": INT_ALGEBRA.urem,
                 "_sdiv": INT_ALGEBRA.sdiv, "_srem": INT_ALGEBRA.srem}


def _compile_shape(shape: str) -> CodeType:
    """``compile()`` a shape into the code object every step of it runs."""
    header, _, text = shape.partition("\n")
    source = header + "\n" + "".join(
        f"    {line}\n" for line in (text.split("\n") if text else ["pass"]))
    module = compile(source, "<repro-compiled>", "exec")
    return next(const for const in module.co_consts
                if type(const) is CodeType)


def _bind(code: CodeType, values: tuple) -> Step:
    """A step running ``code`` with its parameters bound to ``values``.

    The values become the defaults of the trailing parameters, so a
    step is called with :func:`state_args` alone, like any other.
    """
    return FunctionType(code, _STEP_GLOBALS, "_step", values)


def _rebind(step: Step, lay: Layout) -> Step:
    """A compiled :data:`ONE_LANE` step's code (or a helper stencil's),
    bound for ``lay``."""
    code = step.__code__
    values = step.__defaults__ or ()
    kinds = code.co_varnames[code.co_argcount - len(values):code.co_argcount]
    return _bind(code, tuple(
        lay.replicate(value) if kind[0] == "C"
        else lay if kind[0] == "L"
        else _for_layout(value, lay) if kind[0] == "F"
        else value for kind, value in zip(kinds, values)))


def _for_layout(step: Step, lay: Layout) -> Step:
    """``step`` bound for ``lay``; the binding for the last layout is
    cached on the :data:`ONE_LANE` step itself."""
    bound = step.__dict__.get("lanes")
    if bound is not None and bound[0] is lay:
        return bound[1]
    lane = step if lay is ONE_LANE else _rebind(step, lay)
    step.lanes = (lay, lane)
    return lane


# ---------------------------------------------------------------------------
# evaluator telemetry
# ---------------------------------------------------------------------------


class _EvaluatorCounters:
    """Process-global tier-up/cache/fallback counts for this evaluator.

    Monotonic tallies, snapshotted around each chain job by the engine
    worker (the difference is that chain's share). They describe real
    execution, which is why they are *not* deterministic across worker
    counts: the structural and shape caches are per process, so which
    chain pays a tier-up depends on pool placement.
    Telemetry therefore files them under the chain's nondeterministic
    ``runtime`` section.
    """

    __slots__ = ("instance_hits", "structural_hits", "shape_hits",
                 "tier_ups", "helper_compiles", "cold_fallbacks",
                 "programs_compiled", "lane_runs", "lane_fallbacks",
                 "lane_misses")

    def __init__(self) -> None:
        self.instance_hits = 0          # step cached on the instruction
        self.structural_hits = 0        # equal instruction seen before
        self.shape_hits = 0             # step bound to compiled shape code
        self.tier_ups = 0               # one compile() of a step's shape
        self.helper_compiles = 0        # one compile() of a helper stencil
        # always 0 (every shape compiles on first sight); kept because
        # perfbench/run.py reads it until a benchmark change drops it
        self.cold_fallbacks = 0
        self.programs_compiled = 0      # CompiledProgram constructions
        self.lane_runs = 0              # evaluations run as lanes
        self.lane_fallbacks = 0         # evaluations run one lane a time
        self.lane_misses = 0            # lane runs aborted by LaneMiss

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


COUNTERS = _EvaluatorCounters()


def evaluator_counters() -> dict[str, int]:
    """A point-in-time copy of this process's evaluator counters."""
    return COUNTERS.snapshot()


# ---------------------------------------------------------------------------
# instruction and condition-code compilation, with caching
# ---------------------------------------------------------------------------

_STRUCTURAL_CACHE: dict[tuple, Step] = {}
_STRUCTURAL_CACHE_LIMIT = 1 << 16

#: Compiled code per shape (see :meth:`_SourceBuilder.shape`).
_SHAPE_CACHE: dict[str, CodeType] = {}
_SHAPE_CACHE_LIMIT = 1 << 12

_CC_CACHE: dict[str, Step] = {}

#: Helper stencils by (helper, static argument, which values are None);
#: a few dozen at most, so unbounded.
_HELPERS: dict[tuple, tuple] = {}


def _helper(fn, key, nones: tuple[bool, ...]) -> tuple:
    """``fn``'s stencil for ``key``: ``(helper, state, result)``.

    ``helper`` is ``fn`` recorded with every value not None a runtime
    argument, bound for :data:`ONE_LANE`. It takes the state names in
    ``state`` that its body uses and then those values, and returns the
    runtime parts of ``result``, ``fn``'s recorded result (None, or a
    value or tuple of values, each a constant or a local's index).
    """
    found = _HELPERS.get((fn, key, nones))
    if found is None:
        builder = _SourceBuilder()
        args = [None if none else builder._new() for none in nones]
        result = fn(builder, key, *args)
        assert not builder._guards, "helpers must not test for zero"
        outs = () if result is None else \
            result if type(result) is tuple else (result,)
        runtime = [f"v{v}" for v in outs if type(v) is not _Const]
        if runtime:
            builder.lines.append(f"return {', '.join(runtime)}")
        text = "\n".join(builder.lines)
        state = tuple(name for name in STATE_ARGS
                      if re.search(rf"\b{name}\b", text))
        shape = builder.shape(head=(*state, *(f"v{k}" for k in args
                                              if k is not None)))
        helper = _bind(_compile_shape(shape), builder.values)
        COUNTERS.helper_compiles += 1
        found = _HELPERS[(fn, key, nones)] = (helper, state, result)
    return found


def _shape_step(builder: _SourceBuilder) -> Step:
    """The recorded instruction's step, bound to its shape's code."""
    shape = builder.shape()
    code = _SHAPE_CACHE.get(shape)
    if code is None:
        if len(_SHAPE_CACHE) >= _SHAPE_CACHE_LIMIT:
            _SHAPE_CACHE.clear()
        code = _SHAPE_CACHE[shape] = _compile_shape(shape)
        COUNTERS.tier_ups += 1
    else:
        COUNTERS.shape_hits += 1
    return _bind(code, builder.values)


def compiled_step(instr: Instruction) -> Step:
    """The specialized :data:`ONE_LANE` step for one non-jump instruction.

    The first-level cache lives on the instruction instance (a proposal
    shares all but one instruction object with its predecessor); the
    second level is structural, so re-proposing an equal instruction
    never re-records it. Otherwise the instruction is recorded and its
    shape looked up: an instruction that differs from a compiled one
    only in register names and constants binds its own values to the
    same code, and never calls ``compile()``.
    """
    step = instr.__dict__.get("_compiled_step")
    if step is not None:
        COUNTERS.instance_hits += 1
        return step
    key = (instr.opcode.name, instr.operands)
    step = _STRUCTURAL_CACHE.get(key)
    if step is None:
        builder = _SourceBuilder()
        builder.record(instr)
        step = _shape_step(builder)
        if len(_STRUCTURAL_CACHE) >= _STRUCTURAL_CACHE_LIMIT:
            _STRUCTURAL_CACHE.clear()
        _STRUCTURAL_CACHE[key] = step
    else:
        COUNTERS.structural_hits += 1
    instr.__dict__["_compiled_step"] = step
    return step


def lane_step(instr: Instruction, lay: Layout) -> Step:
    """``instr``'s step, lowered by :func:`compiled_step`, bound for
    ``lay``.

    The binding for the last layout is cached on the :data:`ONE_LANE`
    step itself, so structurally equal instructions share it.
    """
    return _for_layout(instr.__dict__["_compiled_step"], lay)


def _compiled_cc(cc: str) -> Step:
    """A compiled evaluator for one jcc condition code."""
    evaluate = _CC_CACHE.get(cc)
    if evaluate is None:
        builder = _SourceBuilder()
        shape = builder.shape(result=cc_value(builder, cc))
        evaluate = _bind(_compile_shape(shape), builder.values)
        _CC_CACHE[cc] = evaluate
    return evaluate


# ---------------------------------------------------------------------------
# whole programs
# ---------------------------------------------------------------------------

_STRAIGHT, _JMP, _JCC = 0, 1, 2


class CompiledProgram:
    """A candidate lowered to specialized steps, ready to amortize.

    Straight-line programs (the overwhelmingly common case — proposal
    moves never introduce jumps) execute as one flat step list;
    programs with jumps run a per-slot trampoline whose targets were
    resolved against the label table at compile time. :meth:`run`
    executes one testcase; :meth:`lane_steps` gives the steps for a
    run over a whole packed suite, when lanes can carry the program.
    """

    __slots__ = ("steps", "units", "slots", "_code", "_lanes")

    def __init__(self, prog: Program) -> None:
        self.slots = len(prog.code)
        self._lanes: tuple[Layout, tuple[Step, ...] | None] | None = None
        if not prog.has_jumps():
            self._code = tuple(filterfalse(is_unused, prog.code))
            self.steps: tuple[Step, ...] | None = tuple(
                map(compiled_step, self._code))
            self.units: tuple[tuple, ...] = ()
            return
        self._code = ()
        self.steps = None
        units: list[tuple] = []
        for instr in prog.code:
            if is_unused(instr):
                units.append((_STRAIGHT, None))
            elif instr.is_jump:
                target = instr.jump_target
                assert target is not None
                target_pc = prog.labels[target]
                if instr.opcode.family == "jmp":
                    units.append((_JMP, target_pc))
                else:
                    cc = instr.opcode.cc
                    assert cc is not None
                    units.append((_JCC, _compiled_cc(cc), target_pc))
            else:
                units.append((_STRAIGHT, compiled_step(instr)))
        self.units = tuple(units)

    def lane_steps(self, lay: Layout) -> tuple[Step, ...] | None:
        """The steps bound for ``lay``, or None when the program has
        jumps (lanes run straight-line code only)."""
        lanes = self._lanes
        if lanes is not None and lanes[0] is lay:
            return lanes[1]
        steps = None if self.steps is None else \
            tuple(map(lane_step, self._code, repeat(lay)))
        self._lanes = (lay, steps)
        return steps

    def run(self, state: MachineState, sandbox: Sandbox, *,
            max_steps: int = 10_000) -> MachineState:
        """Execute against ``state``; mirrors ``Emulator.run``."""
        args = state_args(state, sandbox)
        steps = self.steps
        if steps is not None:
            if self.slots > max_steps:
                raise StepLimitExceeded(f"exceeded {max_steps} steps")
            regs, rdef, flags, fdef, mem, events, check = args
            for step in steps:
                step(regs, rdef, flags, fdef, mem, events, check)
            return state
        pc = 0
        count = 0
        units = self.units
        length = len(units)
        while pc < length:
            count += 1
            if count > max_steps:
                raise StepLimitExceeded(f"exceeded {max_steps} steps")
            unit = units[pc]
            kind = unit[0]
            if kind == _STRAIGHT:
                if unit[1] is not None:
                    unit[1](*args)
                pc += 1
            elif kind == _JMP:
                pc = unit[1]
            else:
                pc = unit[2] if unit[1](*args) else pc + 1
        return state


def compile_program(prog: Program,
                    lay: Layout | None = None) -> CompiledProgram:
    """Lower ``prog`` once (cached on the program instance); with a
    layout, also bind its lane steps for that layout."""
    compiled = prog.__dict__.get("_compiled")
    if compiled is None:
        compiled = CompiledProgram(prog)
        prog.__dict__["_compiled"] = compiled
        COUNTERS.programs_compiled += 1
    if lay is not None:
        compiled.lane_steps(lay)
    return compiled
