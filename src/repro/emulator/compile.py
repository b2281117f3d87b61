"""Compiled candidate evaluation: the MCMC inner loop's fast path.

The reference :class:`~repro.emulator.cpu.Emulator` re-dispatches
``execute()`` per instruction per testcase: every proposal pays for
operand classification, register-view resolution, width masking and
algebra indirection once *per testcase*. This module hoists all of that
to once *per candidate*: each instruction is lowered to one specialized
step function (operand accessors, masks and jump targets pre-resolved
against the concrete :data:`~repro.x86.algebra.INT_ALGEBRA`; ``UNUSED``
slots dropped outright) and the program becomes a tight trampoline over
the step list, evaluated against a pooled, reset-in-place
:class:`~repro.emulator.state.MachineState`.

Crucially, lowering is driven by the *same* ``execute()`` definition the
reference emulator and the symbolic validator interpret: compilation
runs the shared semantics once against a recording
:class:`~repro.x86.semantics.Machine` whose algebra emits straight-line
Python source instead of computing values; that source is compiled
once per shape (below) and cached. Constant subexpressions fold at compile
time; reads, writes and sandbox events are emitted in exactly the order
the reference performs them, so final states — including the Eq. 11
event counters — are bit-identical (``tests/emulator/test_compile.py``
checks this differentially over the whole suite).

Instructions whose semantics branch on runtime values in ways the
recorder cannot express (``div``/``idiv``, shifts and rotates with a
register count — anywhere ``known_zero`` needs a concrete answer) fall
back to a per-instruction interpretive step over the shared
``execute()``; correctness is preserved, only the speedup is forfeited
for that instruction.

What gets compiled is a step's *shape*, not the instruction: the
recorder emits register names and constants (immediates,
displacements, folded values) as parameters ``K0, K1, ...``, one per
distinct value, so siblings such as ``addq rdi, rax`` and
``addq rsi, rcx``, or ``addq 7, rax`` and ``addq 9, rdx``, that differ
only in those values record the same text. Each shape is
``compile()``-d once (after :data:`_HOT_THRESHOLD` sightings) into a
code object, and every instruction of that shape runs it with its own
values bound as parameter defaults. Binding an instruction's values
back reproduces exactly the source it would compile to on its own, so
sharing is sound; aliasing is part of the shape (``addq rax, rax``
reads one parameter twice, ``addq rax, rbx`` two).

Compiled steps are cached on the :class:`Instruction` instances
themselves (a proposal shares all but one instruction object with its
predecessor) with a structural second-level cache behind them, so the
steady-state compile cost of a proposal is one dictionary hit per slot.
A structural miss costs one recording; a shape miss one ``compile()``.
"""

from __future__ import annotations

import builtins
from types import CodeType, FunctionType
from typing import Callable

from repro.emulator.cpu import Emulator
from repro.emulator.sandbox import Sandbox
from repro.emulator.state import MachineState
from repro.errors import StepLimitExceeded
from repro.x86.algebra import INT_ALGEBRA, mask, to_signed
from repro.x86.instruction import Instruction, is_unused
from repro.x86.program import Program
from repro.x86.registers import RegClass, Register
from repro.x86.semantics import cc_value, execute

_M64 = (1 << 64) - 1

#: A compiled step: executes one instruction against (state, sandbox).
Step = Callable[[MachineState, Sandbox], object]


class _CannotCompile(Exception):
    """Raised when semantics need a concrete value at compile time."""


class _Const:
    """A compile-time-known value in the recording machine."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


class _SourceBuilder:
    """A :class:`Machine` whose operations emit source, not values.

    Values flowing through the semantics are either :class:`_Const`
    (folded immediately with the integer algebra's rules) or integer
    indices naming local variables ``v0, v1, ...`` of the generated
    step function. Every state access appends one (or a few) source
    lines; the finished function replays the reference emulator's exact
    sequence of reads, writes and sandbox events for one instruction.
    """

    def __init__(self) -> None:
        self.alg = self            # semantics reach the algebra via m.alg
        self.lines: list[str] = []
        self._counter = 0
        self._params: dict[int | str, str] = {}

    def _param(self, value: int | str) -> str:
        """The parameter ``K<n>`` that carries ``value``, one per value."""
        name = self._params.get(value)
        if name is None:
            name = self._params[value] = f"K{len(self._params)}"
        return name

    def _slot(self, expr: str) -> int:
        k = self._counter
        self._counter += 1
        self.lines.append(f"v{k} = {expr}")
        return k

    def _tmp(self) -> str:
        self._counter += 1
        return f"v{self._counter - 1}"

    def _ref(self, v) -> str:
        if type(v) is _Const:
            return self._param(v.value)
        return f"v{v}"

    @staticmethod
    def _signed(ref: str, width: int) -> str:
        """Inline two's-complement reinterpretation of a masked value."""
        sign = 1 << (width - 1)
        return f"({ref} - (({ref} & {sign}) << 1))"

    # -- algebra: arithmetic ------------------------------------------------

    def const(self, width: int, value: int):
        return _Const(value & mask(width))

    def add(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const((a.value + b.value) & mask(width))
        return self._slot(
            f"({self._ref(a)} + {self._ref(b)}) & {mask(width)}")

    def sub(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const((a.value - b.value) & mask(width))
        return self._slot(
            f"({self._ref(a)} - {self._ref(b)}) & {mask(width)}")

    def mul(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const((a.value * b.value) & mask(width))
        return self._slot(
            f"({self._ref(a)} * {self._ref(b)}) & {mask(width)}")

    def neg(self, width: int, a):
        if type(a) is _Const:
            return _Const((-a.value) & mask(width))
        return self._slot(f"(-{self._ref(a)}) & {mask(width)}")

    # -- algebra: division (a runtime divisor raises _CannotCompile in
    # known_zero first, so these never divide by zero) ----------------------

    def udiv(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const(a.value // b.value)
        return self._slot(f"{self._ref(a)} // {self._ref(b)}")

    def urem(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const(a.value % b.value)
        return self._slot(f"{self._ref(a)} % {self._ref(b)}")

    def sdiv(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const(INT_ALGEBRA.sdiv(width, a.value, b.value))
        return self._slot(
            f"_sdiv({width}, {self._ref(a)}, {self._ref(b)})")

    def srem(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const(INT_ALGEBRA.srem(width, a.value, b.value))
        return self._slot(
            f"_srem({width}, {self._ref(a)}, {self._ref(b)})")

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
        return self._slot(f"~{self._ref(a)} & {mask(width)}")

    # -- algebra: shifts ----------------------------------------------------

    def shl(self, width: int, a, count):
        if type(count) is _Const:
            c = count.value
            if c >= width:
                return _Const(0)
            if type(a) is _Const:
                return _Const((a.value << c) & mask(width))
            return self._slot(
                f"({self._ref(a)} << {self._param(c)}) & {mask(width)}")
        c = self._ref(count)
        return self._slot(f"0 if {c} >= {width} else "
                          f"({self._ref(a)} << {c}) & {mask(width)}")

    def lshr(self, width: int, a, count):
        if type(count) is _Const:
            c = count.value
            if c >= width:
                return _Const(0)
            if type(a) is _Const:
                return _Const(a.value >> c)
            return self._slot(f"{self._ref(a)} >> {self._param(c)}")
        c = self._ref(count)
        return self._slot(
            f"0 if {c} >= {width} else {self._ref(a)} >> {c}")

    def ashr(self, width: int, a, count):
        if type(count) is _Const and type(a) is _Const:
            return _Const(INT_ALGEBRA.ashr(width, a.value, count.value))
        signed = self._signed(self._ref(a), width)
        if type(count) is _Const:
            c = self._param(min(count.value, width - 1))
        else:
            cr = self._ref(count)
            c = f"({cr} if {cr} < {width - 1} else {width - 1})"
        return self._slot(f"({signed} >> {c}) & {mask(width)}")

    # -- algebra: comparisons -----------------------------------------------

    def eq(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const(1 if a.value == b.value else 0)
        return self._slot(
            f"1 if {self._ref(a)} == {self._ref(b)} else 0")

    def ult(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const(1 if a.value < b.value else 0)
        return self._slot(
            f"1 if {self._ref(a)} < {self._ref(b)} else 0")

    def slt(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const(1 if to_signed(width, a.value) <
                          to_signed(width, b.value) else 0)
        sa = self._signed(self._ref(a), width)
        sb = self._signed(self._ref(b), width)
        return self._slot(f"1 if {sa} < {sb} else 0")

    # -- algebra: structure -------------------------------------------------

    def ite(self, width: int, cond, then, otherwise):
        if type(cond) is _Const:
            return then if cond.value else otherwise
        return self._slot(f"{self._ref(then)} if {self._ref(cond)} "
                          f"else {self._ref(otherwise)}")

    def extract(self, hi: int, lo: int, a):
        m = mask(hi - lo + 1)
        if type(a) is _Const:
            return _Const((a.value >> lo) & m)
        if lo == 0:
            return self._slot(f"{self._ref(a)} & {m}")
        return self._slot(f"({self._ref(a)} >> {lo}) & {m}")

    def concat(self, hi_width: int, hi, lo_width: int, lo):
        if type(hi) is _Const and type(lo) is _Const:
            return _Const((hi.value << lo_width) | lo.value)
        if type(hi) is _Const:
            return self._slot(
                f"{self._param(hi.value << lo_width)} | {self._ref(lo)}")
        return self._slot(
            f"({self._ref(hi)} << {lo_width}) | {self._ref(lo)}")

    def zext(self, from_width: int, to_width: int, a):
        return a                      # values are unsigned ints already

    def sext(self, from_width: int, to_width: int, a):
        if type(a) is _Const:
            return _Const(to_signed(from_width, a.value) & mask(to_width))
        signed = self._signed(self._ref(a), from_width)
        return self._slot(f"{signed} & {mask(to_width)}")

    def popcount(self, width: int, a):
        if type(a) is _Const:
            return _Const(a.value.bit_count())
        return self._slot(f"{self._ref(a)}.bit_count()")

    # -- Machine protocol: state accesses -----------------------------------

    def read_full(self, name: str):
        return self._slot(f"regs[{self._param(name)}]")

    def write_full(self, name: str, value) -> None:
        self.lines.append(
            f"regs[{self._param(name)}] = {self._ref(value)}")

    def check_reg_defined(self, reg: Register) -> None:
        needed = (1 << reg.byte_width) - 1
        self.lines.append(
            f"if rdef[{self._param(reg.full)}] & {needed} != {needed}: "
            "events.undef += 1")

    def mark_reg_defined(self, reg: Register) -> None:
        if reg.reg_class is RegClass.GPR and reg.width == 32:
            self.lines.append(f"rdef[{self._param(reg.full)}] = 255")
        else:
            bits = (1 << reg.byte_width) - 1
            self.lines.append(f"rdef[{self._param(reg.full)}] |= {bits}")

    def read_flag(self, name: str):
        self.lines.append(
            f"if not fdef[{name!r}]: events.undef += 1")
        return self._slot(f"flags[{name!r}]")

    def write_flag(self, name: str, value) -> None:
        self.lines.append(f"flags[{name!r}] = {self._ref(value)}")
        self.lines.append(f"fdef[{name!r}] = True")

    def set_flag_undefined(self, name: str) -> None:
        self.lines.append(f"fdef[{name!r}] = False")

    def read_mem(self, addr, nbytes: int):
        a = self._ref(addr)
        k = self._slot("0")
        lines = self.lines
        for i in range(nbytes):
            t = self._tmp()
            lines.append(f"{t} = ({a} + {i}) & {_M64}")
            lines.append(f"if check({t}):")
            lines.append(f"    {t} = mem.get({t})")
            lines.append(f"    if {t} is None: events.undef += 1")
            lines.append(f"    else: v{k} |= {t} << {8 * i}")
            lines.append("else:")
            lines.append("    events.sigsegv += 1")
        return k

    def write_mem(self, addr, nbytes: int, value) -> None:
        a = self._ref(addr)
        v = self._ref(value)
        lines = self.lines
        for i in range(nbytes):
            t = self._tmp()
            lines.append(f"{t} = ({a} + {i}) & {_M64}")
            lines.append(f"if check({t}): "
                         f"mem[{t}] = ({v} >> {8 * i}) & 255")
            lines.append("else: events.sigsegv += 1")

    def fpe(self) -> None:
        self.lines.append("events.sigfpe += 1")

    def known_zero(self, width: int, value) -> bool:
        if type(value) is _Const:
            return value.value == 0
        raise _CannotCompile("runtime-dependent control flow")

    # -- assembly -----------------------------------------------------------

    def shape(self, result=None) -> str:
        """The recorded step with its values lifted out: its *shape*.

        Register names and constants appear as parameters ``K0, K1,
        ...`` (one per distinct value, numbered by first use), so every
        instruction that differs from this one only in those values
        records the same text, aliasing included: ``addq rax, rax``
        reads ``K0`` twice where ``addq rax, rbx`` reads ``K0`` and
        ``K1``. With ``result``, the step returns that value's
        expression (used for compiled condition codes).
        """
        lines = self.lines
        if result is not None:
            lines = lines + [f"return {self._ref(result)}"]
        params = "".join(f", {name}" for name in self._params.values())
        return f"def _step(s, box{params}):\n" + "\n".join(lines)

    @property
    def values(self) -> tuple:
        """The values of ``K0, K1, ...``, in parameter order."""
        return tuple(self._params)


_PREAMBLE = (("regs", "regs = s.regs"),
             ("rdef", "rdef = s.reg_defined"),
             ("flags", "flags = s.flags"),
             ("fdef", "fdef = s.flag_defined"),
             ("mem", "mem = s.memory"),
             ("events", "events = s.events"),
             ("check", "check = box.check"))

_STEP_GLOBALS = {"__builtins__": builtins,
                 "_sdiv": INT_ALGEBRA.sdiv, "_srem": INT_ALGEBRA.srem}


def _compile_shape(shape: str) -> CodeType:
    """``compile()`` a shape into the code object every step of it runs."""
    header, _, text = shape.partition("\n")
    body = [line for name, line in _PREAMBLE if name in text]
    if text:
        body += text.split("\n")
    source = header + "\n" + "".join(f"    {line}\n"
                                     for line in body or ["pass"])
    module = compile(source, "<repro-compiled>", "exec")
    return next(const for const in module.co_consts
                if type(const) is CodeType)


def _bind(code: CodeType, values: tuple) -> Step:
    """A step running ``code`` with its parameters bound to ``values``.

    The values become the defaults of the trailing ``K`` parameters, so
    the step is called as ``step(state, sandbox)`` like any other.
    """
    return FunctionType(code, _STEP_GLOBALS, "_step", values)


# ---------------------------------------------------------------------------
# the interpretive fallback
# ---------------------------------------------------------------------------

_FALLBACK_MACHINE = Emulator(MachineState(), Sandbox.recorder())


def _fallback_step(instr: Instruction) -> Step:
    """A step interpreting ``instr`` through the shared executor."""
    machine = _FALLBACK_MACHINE

    def step(s, box):
        machine.state = s
        machine.sandbox = box
        execute(instr, machine)
    return step


# ---------------------------------------------------------------------------
# evaluator telemetry
# ---------------------------------------------------------------------------


class _EvaluatorCounters:
    """Process-global tier-up/cache/fallback counts for this evaluator.

    Monotonic tallies, snapshotted around each chain job by the engine
    worker (the difference is that chain's share). They describe real
    execution, which is why they are *not* deterministic across worker
    counts: the structural cache and hot-threshold table are per
    process, so which chain pays a tier-up depends on pool placement.
    Telemetry therefore files them under the chain's nondeterministic
    ``runtime`` section.
    """

    __slots__ = ("instance_hits", "structural_hits", "shape_hits",
                 "tier_ups", "cold_fallbacks", "uncompilable_fallbacks",
                 "programs_compiled")

    def __init__(self) -> None:
        self.instance_hits = 0          # step cached on the instruction
        self.structural_hits = 0        # equal instruction seen before
        self.shape_hits = 0             # step bound to compiled shape code
        self.tier_ups = 0               # one compile() of a step's shape
        self.cold_fallbacks = 0         # below the hot threshold
        self.uncompilable_fallbacks = 0  # semantics defeated the recorder
        self.programs_compiled = 0      # CompiledProgram constructions

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

#: Sightings before a shape is worth ``compile()``-ing. Random
#: proposals draw many one-shot shapes; interpreting a shape's
#: instructions until it recurs keeps compile latency off their path
#: while everything the chain actually revisits still gets compiled.
_HOT_THRESHOLD = 2

#: Sightings of not-yet-compiled shapes, keyed by the shape's hash to
#: keep the table small (a collision only compiles a shape early).
_SEEN_ONCE: dict[int, int] = {}

_CC_CACHE: dict[str, Callable[[MachineState, Sandbox], int]] = {}


def _shape_step(builder: _SourceBuilder) -> Step | None:
    """The recorded instruction's step, or None while its shape is cold."""
    shape = builder.shape()
    code = _SHAPE_CACHE.get(shape)
    if code is None:
        key = hash(shape)
        count = _SEEN_ONCE.get(key, 0) + 1
        if count < _HOT_THRESHOLD:
            if len(_SEEN_ONCE) >= _STRUCTURAL_CACHE_LIMIT:
                _SEEN_ONCE.clear()
            _SEEN_ONCE[key] = count
            return None
        _SEEN_ONCE.pop(key, None)
        if len(_SHAPE_CACHE) >= _SHAPE_CACHE_LIMIT:
            _SHAPE_CACHE.clear()
        code = _SHAPE_CACHE[shape] = _compile_shape(shape)
        COUNTERS.tier_ups += 1
    else:
        COUNTERS.shape_hits += 1
    return _bind(code, builder.values)


def compiled_step(instr: Instruction) -> Step:
    """The specialized step function for one non-jump instruction.

    The first-level cache lives on the instruction instance (a proposal
    shares all but one instruction object with its predecessor); the
    second level is structural, so re-proposing an equal instruction
    never re-records it. Otherwise the instruction is recorded and its
    shape looked up: an instruction that differs from a compiled one
    only in register names and constants binds its own values to the
    same code, and never calls ``compile()``. Below
    :data:`_HOT_THRESHOLD` sightings of its shape the returned step
    interprets (bit-identically) instead.
    """
    step = instr.__dict__.get("_compiled_step")
    if step is not None:
        COUNTERS.instance_hits += 1
        return step
    key = (instr.opcode.name, instr.operands)
    step = _STRUCTURAL_CACHE.get(key)
    if step is None:
        builder = _SourceBuilder()
        try:
            execute(instr, builder)
        except _CannotCompile:
            COUNTERS.uncompilable_fallbacks += 1
            step = _fallback_step(instr)
        else:
            step = _shape_step(builder)
            if step is None:
                COUNTERS.cold_fallbacks += 1
                return _fallback_step(instr)   # cold: not cached
        if len(_STRUCTURAL_CACHE) >= _STRUCTURAL_CACHE_LIMIT:
            _STRUCTURAL_CACHE.clear()
        _STRUCTURAL_CACHE[key] = step
    else:
        COUNTERS.structural_hits += 1
    instr.__dict__["_compiled_step"] = step
    return step


def _compiled_cc(cc: str) -> Callable[[MachineState, Sandbox], int]:
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
    resolved against the label table at compile time.
    """

    __slots__ = ("steps", "units", "slots", "regs_written",
                 "flags_written", "writes_memory")

    def __init__(self, prog: Program) -> None:
        self.slots = len(prog.code)
        self._record_write_set(prog)
        if not prog.has_jumps():
            self.steps: tuple[Step, ...] | None = tuple(
                compiled_step(instr) for instr in prog.code
                if not is_unused(instr))
            self.units: tuple[tuple, ...] = ()
            return
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

    def _record_write_set(self, prog: Program) -> None:
        """The static over-approximation of what a run may dirty.

        Lets a pooled state be reset by undoing exactly these writes
        (:meth:`~repro.testgen.testcase.Testcase.undo_writes`) instead
        of rebuilding every register and flag from the prototype. The
        sets come from the ISA table's def/use metadata, so they cover
        fallback-interpreted instructions too; partial runs (faults,
        step limits) only ever dirty a subset. Each instruction's
        contribution is cached on the instance, like its step.
        """
        regs: set[str] = set()
        flags: set[str] = set()
        writes_memory = False
        for instr in prog.code:
            if is_unused(instr) or instr.is_jump:
                continue
            contribution = instr.__dict__.get("_write_set")
            if contribution is None:
                contribution = instr.__dict__["_write_set"] = (
                    tuple({reg.full for reg in instr.regs_written}),
                    tuple(instr.flags_written), instr.writes_memory)
            regs.update(contribution[0])
            flags.update(contribution[1])
            writes_memory = writes_memory or contribution[2]
        self.regs_written = tuple(regs)
        self.flags_written = tuple(flags)
        self.writes_memory = writes_memory

    def run(self, state: MachineState, sandbox: Sandbox, *,
            max_steps: int = 10_000) -> MachineState:
        """Execute against ``state``; mirrors ``Emulator.run``."""
        steps = self.steps
        if steps is not None:
            if self.slots > max_steps:
                raise StepLimitExceeded(f"exceeded {max_steps} steps")
            for step in steps:
                step(state, sandbox)
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
                    unit[1](state, sandbox)
                pc += 1
            elif kind == _JMP:
                pc = unit[1]
            else:
                pc = unit[2] if unit[1](state, sandbox) else pc + 1
        return state


def compile_program(prog: Program) -> CompiledProgram:
    """Lower ``prog`` once; cached on the program instance."""
    compiled = prog.__dict__.get("_compiled")
    if compiled is None:
        compiled = CompiledProgram(prog)
        prog.__dict__["_compiled"] = compiled
        COUNTERS.programs_compiled += 1
    return compiled
