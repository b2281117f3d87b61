"""Instruction semantics, written once over an abstract value algebra.

The :func:`execute` function interprets one (non-control-flow)
instruction against a :class:`Machine`, using only
:class:`~repro.x86.algebra.Algebra` operations. The concrete emulator
and the symbolic executor both implement :class:`Machine`, so a single
semantic definition drives both — concrete execution and SMT translation
cannot drift apart.

Every flag effect is stated here, once: the handlers write the flags
they define and :data:`UNDEFINED_FLAGS` names those a family leaves
undefined; :mod:`repro.x86.effects` reads them off :func:`execute`.

Documented deviations from bare-metal x86 (consistent across both
engines, and therefore harmless to the reproduction):

* shifts always leave OF undefined (x86 defines OF for count == 1
  only);
* a shift by an immediate count that masks to zero writes no flag but
  still leaves OF undefined; a rotate by such a count touches no flag;
* rotates write CF only: OF keeps its previous value and stays
  defined (x86 defines OF for count == 1 and leaves it undefined for
  larger counts);
* 8/16-bit shift counts are masked to the operand width rather than
  to 32 bits;
* ``bsf``/``bsr`` of zero write 0 to the destination (x86 leaves the
  destination undefined);
* the AF flag is not modeled.
"""

from __future__ import annotations

from functools import wraps
from typing import Protocol, TypeVar

from repro.errors import EmulationError, OperandTypeError
from repro.x86.algebra import Algebra
from repro.x86.instruction import Instruction
from repro.x86.operands import Imm, Mem, Operand, Reg
from repro.x86.registers import FLAG_NAMES, Register, view

V = TypeVar("V")


class Machine(Protocol[V]):
    """State interface the semantics layer reads and writes.

    Implementations track their own notion of undefined state: the
    emulator counts undef events for Eq. 11; the symbolic executor
    rejects programs whose outputs depend on undefined state.
    """

    alg: Algebra[V]

    def read_full(self, name: str) -> V: ...
    def write_full(self, name: str, value: V) -> None: ...
    def check_reg_defined(self, reg: Register) -> None: ...
    def mark_reg_defined(self, reg: Register) -> None: ...

    def read_flag(self, name: str) -> V: ...
    def write_flag(self, name: str, value: V) -> None: ...
    def set_flag_undefined(self, name: str) -> None: ...

    def read_mem(self, addr: V, nbytes: int) -> V: ...
    def write_mem(self, addr: V, nbytes: int, value: V) -> None: ...

    def fpe(self) -> None:
        """Record a division fault (``#DE``); effects are skipped."""
        ...

    def known_zero(self, width: int, value: V) -> bool | None:
        """True/False when the value is statically known (non)zero."""
        ...


def outlined(fn):
    """Let a machine take over calls of the helper ``fn``.

    ``fn(m, key, *values)`` takes one static argument (a width or a
    condition code) and then values (or None). A machine with an
    ``outline`` method receives ``m.outline(fn, (key, *values))`` and
    answers in ``fn``'s place (the compiler calls one shared compiled
    copy of ``fn`` per key); any other machine runs ``fn`` itself.
    """
    @wraps(fn)
    def call(m, *args):
        outline = getattr(m, "outline", None)
        if outline is None:
            return fn(m, *args)
        return outline(fn, args)
    return call


# ---------------------------------------------------------------------------
# register view access (x86 sub-register aliasing rules, shared by engines)
# ---------------------------------------------------------------------------

def read_reg(m: Machine[V], reg: Register) -> V:
    """Read a register view, tracking definedness."""
    m.check_reg_defined(reg)
    full = m.read_full(reg.full)
    if reg.is_full:
        return full
    return m.alg.extract(reg.width - 1, 0, full)


def write_reg(m: Machine[V], reg: Register, value: V) -> None:
    """Write a register view using x86 merge rules.

    32-bit writes zero the upper half of the 64-bit register; 8 and
    16-bit writes merge with the previous contents.
    """
    alg = m.alg
    if reg.is_full:
        m.write_full(reg.full, value)
    elif reg.width == 32:
        m.write_full(reg.full, alg.zext(32, 64, value))
    else:
        old = m.read_full(reg.full)
        high = alg.extract(63, reg.width, old)
        m.write_full(reg.full,
                     alg.concat(64 - reg.width, high, reg.width, value))
    m.mark_reg_defined(reg)


# ---------------------------------------------------------------------------
# operand access
# ---------------------------------------------------------------------------

def effective_address(m: Machine[V], mem: Mem) -> V:
    """Compute ``base + index*scale + disp`` as a 64-bit value."""
    alg = m.alg
    addr = alg.const(64, mem.disp)
    if mem.base is not None:
        if mem.base.width != 64:
            raise OperandTypeError(
                f"address base {mem.base.name} must be 64-bit")
        addr = alg.add(64, addr, read_reg(m, mem.base))
    if mem.index is not None:
        if mem.index.width != 64:
            raise OperandTypeError(
                f"address index {mem.index.name} must be 64-bit")
        scaled = alg.mul(64, read_reg(m, mem.index),
                         alg.const(64, mem.scale))
        addr = alg.add(64, addr, scaled)
    return addr


def read_operand(m: Machine[V], op: Operand, width: int) -> V:
    if isinstance(op, Reg):
        return read_reg(m, op.reg)
    if isinstance(op, Imm):
        return m.alg.const(width, op.value)
    if isinstance(op, Mem):
        return m.read_mem(effective_address(m, op), width // 8)
    raise OperandTypeError(f"cannot read operand {op}")


def write_operand(m: Machine[V], op: Operand, width: int, value: V) -> None:
    if isinstance(op, Reg):
        write_reg(m, op.reg, value)
    elif isinstance(op, Mem):
        m.write_mem(effective_address(m, op), width // 8, value)
    else:
        raise OperandTypeError(f"cannot write operand {op}")


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------

def _msb(alg: Algebra[V], width: int, value: V) -> V:
    return alg.extract(width - 1, width - 1, value)


def _parity_flag(alg: Algebra[V], width: int, value: V) -> V:
    """PF: set when the low byte has an even number of 1 bits."""
    byte = alg.extract(7, 0, value) if width > 8 else value
    count = alg.popcount(8, byte)
    low = alg.extract(0, 0, count)
    return alg.not_(1, low)


@outlined
def _write_result_flags(m: Machine[V], width: int, result: V) -> None:
    alg = m.alg
    m.write_flag("ZF", alg.eq(width, result, alg.const(width, 0)))
    m.write_flag("SF", _msb(alg, width, result))
    m.write_flag("PF", _parity_flag(alg, width, result))


@outlined
def cc_value(m: Machine[V], cc: str) -> V:
    """Evaluate a canonical condition code to a 1-bit value."""
    alg = m.alg

    def flag(name: str) -> V:
        return m.read_flag(name)

    def not1(v: V) -> V:
        return alg.not_(1, v)

    if cc == "e":
        return flag("ZF")
    if cc == "ne":
        return not1(flag("ZF"))
    if cc == "a":
        return alg.and_(1, not1(flag("CF")), not1(flag("ZF")))
    if cc == "ae":
        return not1(flag("CF"))
    if cc == "b":
        return flag("CF")
    if cc == "be":
        return alg.or_(1, flag("CF"), flag("ZF"))
    if cc == "g":
        return alg.and_(1, not1(flag("ZF")),
                        alg.eq(1, flag("SF"), flag("OF")))
    if cc == "ge":
        return alg.eq(1, flag("SF"), flag("OF"))
    if cc == "l":
        return alg.xor(1, flag("SF"), flag("OF"))
    if cc == "le":
        return alg.or_(1, flag("ZF"),
                       alg.xor(1, flag("SF"), flag("OF")))
    if cc == "s":
        return flag("SF")
    if cc == "ns":
        return not1(flag("SF"))
    if cc == "o":
        return flag("OF")
    if cc == "no":
        return not1(flag("OF"))
    if cc == "p":
        return flag("PF")
    if cc == "np":
        return not1(flag("PF"))
    raise EmulationError(f"unknown condition code {cc!r}")


# ---------------------------------------------------------------------------
# arithmetic building blocks
# ---------------------------------------------------------------------------

@outlined
def _add_with_carry(m: Machine[V], width: int, a: V, b: V,
                    carry_in: V | None) -> tuple[V, V, V]:
    """Return (result, CF, OF) of a + b (+ carry)."""
    alg = m.alg
    wide = width + 1
    total = alg.add(wide, alg.zext(width, wide, a),
                    alg.zext(width, wide, b))
    if carry_in is not None:
        total = alg.add(wide, total, alg.zext(1, wide, carry_in))
    result = alg.extract(width - 1, 0, total)
    cf = alg.extract(width, width, total)
    of = _msb(alg, width, alg.and_(width, alg.xor(width, a, result),
                                   alg.xor(width, b, result)))
    return result, cf, of


@outlined
def _sub_with_borrow(m: Machine[V], width: int, a: V, b: V,
                     borrow_in: V | None) -> tuple[V, V, V]:
    """Return (result, CF, OF) of a - b (- borrow)."""
    alg = m.alg
    wide = width + 1
    total = alg.sub(wide, alg.zext(width, wide, a),
                    alg.zext(width, wide, b))
    if borrow_in is not None:
        total = alg.sub(wide, total, alg.zext(1, wide, borrow_in))
    result = alg.extract(width - 1, 0, total)
    cf = alg.extract(width, width, total)
    of = _msb(alg, width, alg.and_(width, alg.xor(width, a, b),
                                   alg.xor(width, a, result)))
    return result, cf, of


def _tzcnt(alg: Algebra[V], width: int, a: V) -> V:
    """Count trailing zeros; width when a == 0."""
    isolated = alg.and_(width, a, alg.neg(width, a))
    return alg.popcount(width, alg.sub(width, isolated,
                                       alg.const(width, 1)))


def _lzcnt(alg: Algebra[V], width: int, a: V) -> V:
    """Count leading zeros; width when a == 0."""
    x = a
    shift = 1
    while shift < width:
        x = alg.or_(width, x, alg.lshr(width, x, alg.const(width, shift)))
        shift *= 2
    return alg.popcount(width, alg.not_(width, x))


# ---------------------------------------------------------------------------
# the executor
# ---------------------------------------------------------------------------

def execute(instr: Instruction, m: Machine[V]) -> None:
    """Interpret one non-jump instruction against a machine.

    Control transfers (jcc/jmp) are the engine's responsibility; call
    :func:`cc_value` to evaluate their condition and raise here.
    """
    family = instr.opcode.family
    handler = _HANDLERS.get(family)
    if handler is None:
        raise EmulationError(f"no semantics for family {family!r}")
    handler(instr, m)
    for name in UNDEFINED_FLAGS.get(family, ()):
        m.set_flag_undefined(name)


def _sem_nop(instr: Instruction, m: Machine[V]) -> None:
    return None


def _sem_mov(instr: Instruction, m: Machine[V]) -> None:
    width = instr.opcode.width
    value = read_operand(m, instr.operands[0], width)
    write_operand(m, instr.operands[1], width, value)


def _sem_lea(instr: Instruction, m: Machine[V]) -> None:
    width = instr.opcode.width
    mem = instr.operands[0]
    assert isinstance(mem, Mem)
    addr = effective_address(m, mem)
    value = addr if width == 64 else m.alg.extract(width - 1, 0, addr)
    write_operand(m, instr.operands[1], width, value)


def _sem_movzx(instr: Instruction, m: Machine[V]) -> None:
    src_w = instr.opcode.src_width
    dst_w = instr.opcode.width
    assert src_w is not None
    value = read_operand(m, instr.operands[0], src_w)
    write_operand(m, instr.operands[1], dst_w,
                  m.alg.zext(src_w, dst_w, value))


def _sem_movsx(instr: Instruction, m: Machine[V]) -> None:
    src_w = instr.opcode.src_width
    dst_w = instr.opcode.width
    assert src_w is not None
    value = read_operand(m, instr.operands[0], src_w)
    write_operand(m, instr.operands[1], dst_w,
                  m.alg.sext(src_w, dst_w, value))


def _binary_arith(instr: Instruction, m: Machine[V], *,
                  carry: bool = False, subtract: bool = False,
                  write_back: bool = True) -> None:
    width = instr.opcode.width
    src = read_operand(m, instr.operands[0], width)
    dst = read_operand(m, instr.operands[1], width)
    carry_in = m.read_flag("CF") if carry else None
    if subtract:
        result, cf, of = _sub_with_borrow(m, width, dst, src, carry_in)
    else:
        result, cf, of = _add_with_carry(m, width, dst, src, carry_in)
    m.write_flag("CF", cf)
    m.write_flag("OF", of)
    _write_result_flags(m, width, result)
    if write_back:
        write_operand(m, instr.operands[1], width, result)


def _sem_add(instr: Instruction, m: Machine[V]) -> None:
    _binary_arith(instr, m)


def _sem_adc(instr: Instruction, m: Machine[V]) -> None:
    _binary_arith(instr, m, carry=True)


def _sem_sub(instr: Instruction, m: Machine[V]) -> None:
    _binary_arith(instr, m, subtract=True)


def _sem_sbb(instr: Instruction, m: Machine[V]) -> None:
    _binary_arith(instr, m, subtract=True, carry=True)


def _sem_cmp(instr: Instruction, m: Machine[V]) -> None:
    _binary_arith(instr, m, subtract=True, write_back=False)


def _binary_logic(instr: Instruction, m: Machine[V], op: str, *,
                  write_back: bool = True) -> None:
    alg = m.alg
    width = instr.opcode.width
    src = read_operand(m, instr.operands[0], width)
    dst = read_operand(m, instr.operands[1], width)
    result = getattr(alg, op)(width, src, dst)
    m.write_flag("CF", alg.const(1, 0))
    m.write_flag("OF", alg.const(1, 0))
    _write_result_flags(m, width, result)
    if write_back:
        write_operand(m, instr.operands[1], width, result)


def _sem_and(instr: Instruction, m: Machine[V]) -> None:
    _binary_logic(instr, m, "and_")


def _sem_or(instr: Instruction, m: Machine[V]) -> None:
    _binary_logic(instr, m, "or_")


def _sem_xor(instr: Instruction, m: Machine[V]) -> None:
    # xor r, r is the canonical zeroing idiom: it must not count as a
    # read of an undefined register (and both engines must agree)
    src, dst = instr.operands
    if isinstance(src, Reg) and src == dst:
        alg = m.alg
        width = instr.opcode.width
        zero = alg.const(width, 0)
        m.write_flag("CF", alg.const(1, 0))
        m.write_flag("OF", alg.const(1, 0))
        _write_result_flags(m, width, zero)
        write_operand(m, dst, width, zero)
        return
    _binary_logic(instr, m, "xor")


def _sem_test(instr: Instruction, m: Machine[V]) -> None:
    _binary_logic(instr, m, "and_", write_back=False)


def _sem_not(instr: Instruction, m: Machine[V]) -> None:
    width = instr.opcode.width
    value = read_operand(m, instr.operands[0], width)
    write_operand(m, instr.operands[0], width, m.alg.not_(width, value))


def _sem_neg(instr: Instruction, m: Machine[V]) -> None:
    alg = m.alg
    width = instr.opcode.width
    value = read_operand(m, instr.operands[0], width)
    result = alg.neg(width, value)
    zero = alg.const(width, 0)
    m.write_flag("CF", alg.not_(1, alg.eq(width, value, zero)))
    m.write_flag("OF", _msb(alg, width, alg.and_(width, value, result)))
    _write_result_flags(m, width, result)
    write_operand(m, instr.operands[0], width, result)


def _sem_inc(instr: Instruction, m: Machine[V]) -> None:
    alg = m.alg
    width = instr.opcode.width
    value = read_operand(m, instr.operands[0], width)
    result, _cf, of = _add_with_carry(m, width, value,
                                      alg.const(width, 1), None)
    m.write_flag("OF", of)
    _write_result_flags(m, width, result)
    write_operand(m, instr.operands[0], width, result)


def _sem_dec(instr: Instruction, m: Machine[V]) -> None:
    alg = m.alg
    width = instr.opcode.width
    value = read_operand(m, instr.operands[0], width)
    result, _cf, of = _sub_with_borrow(m, width, value,
                                       alg.const(width, 1), None)
    m.write_flag("OF", of)
    _write_result_flags(m, width, result)
    write_operand(m, instr.operands[0], width, result)


# -- multiplication and division -------------------------------------------

def _sem_imul(instr: Instruction, m: Machine[V]) -> None:
    alg = m.alg
    width = instr.opcode.width
    if len(instr.operands) == 2:
        src = read_operand(m, instr.operands[0], width)
        dst = read_operand(m, instr.operands[1], width)
        wide = 2 * width
        full = alg.mul(wide, alg.sext(width, wide, src),
                       alg.sext(width, wide, dst))
        result = alg.extract(width - 1, 0, full)
        overflow = alg.not_(
            1, alg.eq(wide, full, alg.sext(width, wide, result)))
        m.write_flag("CF", overflow)
        m.write_flag("OF", overflow)
        write_operand(m, instr.operands[1], width, result)
        return
    _widening_mul(instr, m, signed=True)


def _sem_mul(instr: Instruction, m: Machine[V]) -> None:
    _widening_mul(instr, m, signed=False)


def _widening_mul(instr: Instruction, m: Machine[V], *,
                  signed: bool) -> None:
    alg = m.alg
    width = instr.opcode.width
    wide = 2 * width
    ext = alg.sext if signed else alg.zext
    a = read_reg(m, view("rax", width))
    b = read_operand(m, instr.operands[0], width)
    full = alg.mul(wide, ext(width, wide, a), ext(width, wide, b))
    low = alg.extract(width - 1, 0, full)
    high = alg.extract(wide - 1, width, full)
    if signed:
        overflow = alg.not_(
            1, alg.eq(wide, full, alg.sext(width, wide, low)))
    else:
        overflow = alg.not_(
            1, alg.eq(width, high, alg.const(width, 0)))
    m.write_flag("CF", overflow)
    m.write_flag("OF", overflow)
    if width == 8:
        write_reg(m, view("rax", 16), alg.extract(15, 0, full))
    else:
        write_reg(m, view("rax", width), low)
        write_reg(m, view("rdx", width), high)


def _sem_div(instr: Instruction, m: Machine[V]) -> None:
    _division(instr, m, signed=False)


def _sem_idiv(instr: Instruction, m: Machine[V]) -> None:
    _division(instr, m, signed=True)


def _division(instr: Instruction, m: Machine[V], *, signed: bool) -> None:
    alg = m.alg
    width = instr.opcode.width
    divisor = read_operand(m, instr.operands[0], width)
    if m.known_zero(width, divisor):
        m.fpe()
        return
    low = read_reg(m, view("rax", width))
    high = read_reg(m, view("rdx", width))
    wide = 2 * width
    dividend = alg.concat(width, high, width, low)
    wide_divisor = (alg.sext if signed else alg.zext)(width, wide, divisor)
    if signed:
        quotient = alg.sdiv(wide, dividend, wide_divisor)
        remainder = alg.srem(wide, dividend, wide_divisor)
        fits = alg.eq(wide, quotient,
                      alg.sext(width, wide,
                               alg.extract(width - 1, 0, quotient)))
    else:
        quotient = alg.udiv(wide, dividend, wide_divisor)
        remainder = alg.urem(wide, dividend, wide_divisor)
        fits = alg.eq(width, alg.extract(wide - 1, width, quotient),
                      alg.const(width, 0))
    if m.known_zero(1, fits):
        m.fpe()
        return
    write_reg(m, view("rax", width), alg.extract(width - 1, 0, quotient))
    write_reg(m, view("rdx", width), alg.extract(width - 1, 0, remainder))


def _sem_sextax(instr: Instruction, m: Machine[V]) -> None:
    width = instr.opcode.width
    half = width // 2
    low = read_reg(m, view("rax", half))
    write_reg(m, view("rax", width), m.alg.sext(half, width, low))


def _sem_sextdx(instr: Instruction, m: Machine[V]) -> None:
    alg = m.alg
    width = instr.opcode.width
    value = read_reg(m, view("rax", width))
    sign = _msb(alg, width, value)
    write_reg(m, view("rdx", width),
              alg.ite(width, sign,
                      alg.const(width, (1 << width) - 1),
                      alg.const(width, 0)))


# -- shifts and rotates ------------------------------------------------------

def _shift_count(instr: Instruction, m: Machine[V]) -> V:
    """Read and mask the shift count to the operand width."""
    alg = m.alg
    width = instr.opcode.width
    if len(instr.operands) == 1:
        return alg.const(width, 1)
    raw = read_operand(m, instr.operands[0], 8)
    count = alg.zext(8, width, raw)
    return alg.and_(width, count, alg.const(width, width - 1)) \
        if width < 64 else alg.and_(width, count, alg.const(width, 63))


def _conditional_flags(m: Machine[V], width: int, count: V,
                       updates: dict[str, V]) -> None:
    """Write flags unless the shift count is zero (x86 rule)."""
    alg = m.alg
    known = m.known_zero(width, count)
    if known is True:
        return
    if known is False:
        for name, value in updates.items():
            m.write_flag(name, value)
        return
    is_zero = alg.eq(width, count, alg.const(width, 0))
    for name, value in updates.items():
        old = m.read_flag(name)
        m.write_flag(name, alg.ite(1, is_zero, old, value))


def _sem_shift(instr: Instruction, m: Machine[V], kind: str) -> None:
    alg = m.alg
    width = instr.opcode.width
    count = _shift_count(instr, m)
    dst_index = len(instr.operands) - 1
    value = read_operand(m, instr.operands[dst_index], width)
    one = alg.const(width, 1)
    if kind == "shl":
        result = alg.shl(width, value, count)
        cf_src = alg.lshr(width, value,
                          alg.sub(width, alg.const(width, width), count))
        cf = alg.extract(0, 0, cf_src)
    elif kind == "shr":
        result = alg.lshr(width, value, count)
        cf = alg.extract(0, 0, alg.lshr(width, value,
                                        alg.sub(width, count, one)))
    else:  # sar
        result = alg.ashr(width, value, count)
        cf = alg.extract(0, 0, alg.ashr(width, value,
                                        alg.sub(width, count, one)))
    zero = alg.const(width, 0)
    updates = {
        "CF": cf,
        "ZF": alg.eq(width, result, zero),
        "SF": _msb(alg, width, result),
        "PF": _parity_flag(alg, width, result),
    }
    _conditional_flags(m, width, count, updates)
    write_operand(m, instr.operands[dst_index], width, result)


def _sem_shl(instr: Instruction, m: Machine[V]) -> None:
    _sem_shift(instr, m, "shl")


def _sem_shr(instr: Instruction, m: Machine[V]) -> None:
    _sem_shift(instr, m, "shr")


def _sem_sar(instr: Instruction, m: Machine[V]) -> None:
    _sem_shift(instr, m, "sar")


def _sem_rotate(instr: Instruction, m: Machine[V], left: bool) -> None:
    alg = m.alg
    width = instr.opcode.width
    count = _shift_count(instr, m)
    dst_index = len(instr.operands) - 1
    value = read_operand(m, instr.operands[dst_index], width)
    inverse = alg.sub(width, alg.const(width, width), count)
    if left:
        result = alg.or_(width, alg.shl(width, value, count),
                         alg.lshr(width, value, inverse))
        cf = alg.extract(0, 0, result)
    else:
        result = alg.or_(width, alg.lshr(width, value, count),
                         alg.shl(width, value, inverse))
        cf = _msb(alg, width, result)
    _conditional_flags(m, width, count, {"CF": cf})
    write_operand(m, instr.operands[dst_index], width, result)


def _sem_rol(instr: Instruction, m: Machine[V]) -> None:
    _sem_rotate(instr, m, left=True)


def _sem_ror(instr: Instruction, m: Machine[V]) -> None:
    _sem_rotate(instr, m, left=False)


# -- bit counting ----------------------------------------------------------

def _sem_popcnt(instr: Instruction, m: Machine[V]) -> None:
    alg = m.alg
    width = instr.opcode.width
    src = read_operand(m, instr.operands[0], width)
    result = alg.popcount(width, src)
    zero1 = alg.const(1, 0)
    m.write_flag("ZF", alg.eq(width, src, alg.const(width, 0)))
    for name in ("CF", "OF", "SF", "PF"):
        m.write_flag(name, zero1)
    write_operand(m, instr.operands[1], width, result)


def _count_family(instr: Instruction, m: Machine[V], fn, *,
                  carry_on_zero: bool) -> None:
    alg = m.alg
    width = instr.opcode.width
    src = read_operand(m, instr.operands[0], width)
    result = fn(alg, width, src)
    src_zero = alg.eq(width, src, alg.const(width, 0))
    if carry_on_zero:
        m.write_flag("CF", src_zero)
        m.write_flag("ZF", alg.eq(width, result, alg.const(width, 0)))
    else:
        m.write_flag("ZF", src_zero)
        result = alg.ite(width, src_zero, alg.const(width, 0), result)
    write_operand(m, instr.operands[1], width, result)


def _sem_tzcnt(instr: Instruction, m: Machine[V]) -> None:
    _count_family(instr, m, _tzcnt, carry_on_zero=True)


def _sem_lzcnt(instr: Instruction, m: Machine[V]) -> None:
    _count_family(instr, m, _lzcnt, carry_on_zero=True)


def _sem_bsf(instr: Instruction, m: Machine[V]) -> None:
    _count_family(instr, m, _tzcnt, carry_on_zero=False)


def _sem_bsr(instr: Instruction, m: Machine[V]) -> None:
    def _bsr(alg: Algebra[V], width: int, a: V) -> V:
        lz = _lzcnt(alg, width, a)
        return alg.sub(width, alg.const(width, width - 1), lz)
    _count_family(instr, m, _bsr, carry_on_zero=False)


# -- conditional moves, sets --------------------------------------------------

def _sem_cmov(instr: Instruction, m: Machine[V]) -> None:
    alg = m.alg
    width = instr.opcode.width
    assert instr.opcode.cc is not None
    cond = cc_value(m, instr.opcode.cc)
    src = read_operand(m, instr.operands[0], width)
    dst = read_operand(m, instr.operands[1], width)
    write_operand(m, instr.operands[1], width,
                  alg.ite(width, cond, src, dst))


def _sem_set(instr: Instruction, m: Machine[V]) -> None:
    alg = m.alg
    assert instr.opcode.cc is not None
    cond = cc_value(m, instr.opcode.cc)
    write_operand(m, instr.operands[0], 8, alg.zext(1, 8, cond))


# -- stack ----------------------------------------------------------------------

def _sem_push(instr: Instruction, m: Machine[V]) -> None:
    alg = m.alg
    width = instr.opcode.width
    value = read_operand(m, instr.operands[0], width)
    rsp = read_reg(m, view("rsp", 64))
    new_rsp = alg.sub(64, rsp, alg.const(64, width // 8))
    m.write_mem(new_rsp, width // 8, value)
    write_reg(m, view("rsp", 64), new_rsp)


def _sem_pop(instr: Instruction, m: Machine[V]) -> None:
    alg = m.alg
    width = instr.opcode.width
    rsp = read_reg(m, view("rsp", 64))
    value = m.read_mem(rsp, width // 8)
    write_reg(m, view("rsp", 64),
              alg.add(64, rsp, alg.const(64, width // 8)))
    write_operand(m, instr.operands[0], width, value)


def _sem_xchg(instr: Instruction, m: Machine[V]) -> None:
    width = instr.opcode.width
    a = read_operand(m, instr.operands[0], width)
    b = read_operand(m, instr.operands[1], width)
    write_operand(m, instr.operands[0], width, b)
    write_operand(m, instr.operands[1], width, a)


# -- SSE --------------------------------------------------------------------------

def _sem_movd(instr: Instruction, m: Machine[V]) -> None:
    _sse_move(instr, m, 32)


def _sem_movq_xmm(instr: Instruction, m: Machine[V]) -> None:
    _sse_move(instr, m, 64)


def _sse_move(instr: Instruction, m: Machine[V], narrow: int) -> None:
    alg = m.alg
    src, dst = instr.operands
    src_w = instr.signature[0].width
    dst_w = instr.signature[1].width
    value = read_operand(m, src, src_w)
    if dst_w == 128:
        value = alg.zext(narrow, 128, value)
    else:
        value = alg.extract(narrow - 1, 0, value)
    write_operand(m, dst, dst_w, value)


def _sem_movsse(instr: Instruction, m: Machine[V]) -> None:
    value = read_operand(m, instr.operands[0], 128)
    write_operand(m, instr.operands[1], 128, value)


def _dwords(alg: Algebra[V], value: V) -> list[V]:
    return [alg.extract(32 * i + 31, 32 * i, value) for i in range(4)]


def _from_dwords(alg: Algebra[V], dwords: list[V]) -> V:
    result = dwords[0]
    for i in range(1, 4):
        result = alg.concat(32, dwords[i], 32 * i, result)
    return result


def _sem_shufps(instr: Instruction, m: Machine[V]) -> None:
    alg = m.alg
    imm, src_op, dst_op = instr.operands
    assert isinstance(imm, Imm)
    sel = imm.value & 0xFF
    src = _dwords(alg, read_operand(m, src_op, 128))
    dst = _dwords(alg, read_operand(m, dst_op, 128))
    result = [dst[sel & 3], dst[(sel >> 2) & 3],
              src[(sel >> 4) & 3], src[(sel >> 6) & 3]]
    write_operand(m, dst_op, 128, _from_dwords(alg, result))


def _sem_pshufd(instr: Instruction, m: Machine[V]) -> None:
    alg = m.alg
    imm, src_op, dst_op = instr.operands
    assert isinstance(imm, Imm)
    sel = imm.value & 0xFF
    src = _dwords(alg, read_operand(m, src_op, 128))
    result = [src[(sel >> (2 * i)) & 3] for i in range(4)]
    write_operand(m, dst_op, 128, _from_dwords(alg, result))


def _packed_binary(instr: Instruction, m: Machine[V], fn) -> None:
    alg = m.alg
    ew = instr.opcode.elem_width
    assert ew is not None
    src = read_operand(m, instr.operands[0], 128)
    dst = read_operand(m, instr.operands[1], 128)
    lanes = 128 // ew
    result = None
    for i in range(lanes):
        a = alg.extract(ew * i + ew - 1, ew * i, src)
        b = alg.extract(ew * i + ew - 1, ew * i, dst)
        lane = fn(alg, ew, a, b)
        result = lane if result is None else \
            alg.concat(ew, lane, ew * i, result)
    assert result is not None
    write_operand(m, instr.operands[1], 128, result)


def _sem_padd(instr: Instruction, m: Machine[V]) -> None:
    _packed_binary(instr, m, lambda alg, w, a, b: alg.add(w, b, a))


def _sem_psub(instr: Instruction, m: Machine[V]) -> None:
    _packed_binary(instr, m, lambda alg, w, a, b: alg.sub(w, b, a))


def _sem_pmull(instr: Instruction, m: Machine[V]) -> None:
    _packed_binary(instr, m, lambda alg, w, a, b: alg.mul(w, b, a))


def _sem_pand(instr: Instruction, m: Machine[V]) -> None:
    _packed_binary(instr, m, lambda alg, w, a, b: alg.and_(w, b, a))


def _sem_por(instr: Instruction, m: Machine[V]) -> None:
    _packed_binary(instr, m, lambda alg, w, a, b: alg.or_(w, b, a))


def _sem_pxor(instr: Instruction, m: Machine[V]) -> None:
    _packed_binary(instr, m, lambda alg, w, a, b: alg.xor(w, b, a))


def _sem_pmuludq(instr: Instruction, m: Machine[V]) -> None:
    alg = m.alg
    src = read_operand(m, instr.operands[0], 128)
    dst = read_operand(m, instr.operands[1], 128)
    products = []
    for lane in (0, 2):
        a = alg.extract(32 * lane + 31, 32 * lane, src)
        b = alg.extract(32 * lane + 31, 32 * lane, dst)
        products.append(alg.mul(64, alg.zext(32, 64, a),
                                alg.zext(32, 64, b)))
    result = alg.concat(64, products[1], 64, products[0])
    write_operand(m, instr.operands[1], 128, result)


def _packed_shift(instr: Instruction, m: Machine[V], left: bool) -> None:
    alg = m.alg
    ew = instr.opcode.elem_width
    assert ew is not None
    imm = instr.operands[0]
    assert isinstance(imm, Imm)
    count = imm.value & 0xFF
    dst = read_operand(m, instr.operands[1], 128)
    lanes = 128 // ew
    result = None
    for i in range(lanes):
        lane = alg.extract(ew * i + ew - 1, ew * i, dst)
        if count >= ew:
            lane = alg.const(ew, 0)
        elif left:
            lane = alg.shl(ew, lane, alg.const(ew, count))
        else:
            lane = alg.lshr(ew, lane, alg.const(ew, count))
        result = lane if result is None else \
            alg.concat(ew, lane, ew * i, result)
    assert result is not None
    write_operand(m, instr.operands[1], 128, result)


def _sem_psll(instr: Instruction, m: Machine[V]) -> None:
    _packed_shift(instr, m, left=True)


def _sem_psrl(instr: Instruction, m: Machine[V]) -> None:
    _packed_shift(instr, m, left=False)


#: Flags each family leaves undefined, applied after its handler.
UNDEFINED_FLAGS: dict[str, frozenset[str]] = {
    **dict.fromkeys(("shl", "sal", "shr", "sar"), frozenset({"OF"})),
    **dict.fromkeys(("imul", "mul"), frozenset({"ZF", "SF", "PF"})),
    **dict.fromkeys(("div", "idiv"), frozenset(FLAG_NAMES)),
    **dict.fromkeys(("bsf", "bsr"), frozenset({"CF", "SF", "OF", "PF"})),
    **dict.fromkeys(("tzcnt", "lzcnt"), frozenset({"SF", "OF", "PF"})),
}

_HANDLERS = {
    "nop": _sem_nop,
    "mov": _sem_mov,
    "lea": _sem_lea,
    "movzx": _sem_movzx,
    "movsx": _sem_movsx,
    "add": _sem_add,
    "adc": _sem_adc,
    "sub": _sem_sub,
    "sbb": _sem_sbb,
    "cmp": _sem_cmp,
    "and": _sem_and,
    "or": _sem_or,
    "xor": _sem_xor,
    "test": _sem_test,
    "not": _sem_not,
    "neg": _sem_neg,
    "inc": _sem_inc,
    "dec": _sem_dec,
    "imul": _sem_imul,
    "mul": _sem_mul,
    "div": _sem_div,
    "idiv": _sem_idiv,
    "sextax": _sem_sextax,
    "sextdx": _sem_sextdx,
    "shl": _sem_shl,
    "sal": _sem_shl,
    "shr": _sem_shr,
    "sar": _sem_sar,
    "rol": _sem_rol,
    "ror": _sem_ror,
    "popcnt": _sem_popcnt,
    "tzcnt": _sem_tzcnt,
    "lzcnt": _sem_lzcnt,
    "bsf": _sem_bsf,
    "bsr": _sem_bsr,
    "cmov": _sem_cmov,
    "set": _sem_set,
    "push": _sem_push,
    "pop": _sem_pop,
    "xchg": _sem_xchg,
    "movd": _sem_movd,
    "movq_xmm": _sem_movq_xmm,
    "movsse": _sem_movsse,
    "shufps": _sem_shufps,
    "pshufd": _sem_pshufd,
    "padd": _sem_padd,
    "psub": _sem_psub,
    "pmull": _sem_pmull,
    "pmuludq": _sem_pmuludq,
    "pand": _sem_pand,
    "por": _sem_por,
    "pxor": _sem_pxor,
    "psll": _sem_psll,
    "psrl": _sem_psrl,
}
