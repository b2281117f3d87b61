"""Value algebras: the operations instruction semantics are written over.

The instruction semantics in :mod:`repro.x86.semantics` are expressed
against the abstract :class:`Algebra` interface. Instantiating them with
:class:`IntAlgebra` yields the concrete emulator; instantiating them with
the bit-vector algebra in :mod:`repro.verifier.symbolic` yields the
symbolic executor used by the validator. Sharing one semantic definition
guarantees the two engines agree — a property the test suite checks
differentially with hypothesis.

All values are width-tagged by convention: operations take the width as
their first argument and must be given operands of that width. Boolean
results (comparisons, flags) are 1-bit values.
"""

from __future__ import annotations

from typing import Protocol, TypeVar

V = TypeVar("V")


class Algebra(Protocol[V]):
    """Operations over ``width``-bit two's-complement bit vectors."""

    def const(self, width: int, value: int) -> V: ...

    # arithmetic
    def add(self, width: int, a: V, b: V) -> V: ...
    def sub(self, width: int, a: V, b: V) -> V: ...
    def mul(self, width: int, a: V, b: V) -> V: ...
    def neg(self, width: int, a: V) -> V: ...

    # division (callers guarantee a nonzero divisor; the symbolic algebra
    # may refuse these — wide division is validated as an uninterpreted
    # function, mirroring the paper's STP usage in Section 5.2)
    def udiv(self, width: int, a: V, b: V) -> V: ...
    def urem(self, width: int, a: V, b: V) -> V: ...
    def sdiv(self, width: int, a: V, b: V) -> V: ...
    def srem(self, width: int, a: V, b: V) -> V: ...

    # bitwise
    def and_(self, width: int, a: V, b: V) -> V: ...
    def or_(self, width: int, a: V, b: V) -> V: ...
    def xor(self, width: int, a: V, b: V) -> V: ...
    def not_(self, width: int, a: V) -> V: ...

    # shifts (count is a ``width``-bit value; counts >= width yield 0 for
    # shl/lshr and sign-fill for ashr, i.e. SMT-LIB semantics)
    def shl(self, width: int, a: V, count: V) -> V: ...
    def lshr(self, width: int, a: V, count: V) -> V: ...
    def ashr(self, width: int, a: V, count: V) -> V: ...

    # comparisons -> 1-bit values
    def eq(self, width: int, a: V, b: V) -> V: ...
    def ult(self, width: int, a: V, b: V) -> V: ...
    def slt(self, width: int, a: V, b: V) -> V: ...

    # structure
    def ite(self, width: int, cond: V, then: V, otherwise: V) -> V: ...
    def extract(self, hi: int, lo: int, a: V) -> V: ...
    def concat(self, hi_width: int, hi: V, lo_width: int, lo: V) -> V: ...
    def zext(self, from_width: int, to_width: int, a: V) -> V: ...
    def sext(self, from_width: int, to_width: int, a: V) -> V: ...

    # counting
    def popcount(self, width: int, a: V) -> V: ...


def mask(width: int) -> int:
    return (1 << width) - 1


def to_signed(width: int, value: int) -> int:
    """Interpret an unsigned ``width``-bit value as two's complement."""
    sign_bit = 1 << (width - 1)
    return (value & mask(width)) - ((value & sign_bit) << 1)


class IntAlgebra:
    """The concrete algebra: values are Python ints masked to width."""

    def const(self, width: int, value: int) -> int:
        return value & mask(width)

    # -- arithmetic -----------------------------------------------------------

    def add(self, width: int, a: int, b: int) -> int:
        return (a + b) & mask(width)

    def sub(self, width: int, a: int, b: int) -> int:
        return (a - b) & mask(width)

    def mul(self, width: int, a: int, b: int) -> int:
        return (a * b) & mask(width)

    def neg(self, width: int, a: int) -> int:
        return (-a) & mask(width)

    # -- division (truncating toward zero, as x86 div/idiv do) -----------------

    def udiv(self, width: int, a: int, b: int) -> int:
        return a // b

    def urem(self, width: int, a: int, b: int) -> int:
        return a % b

    def sdiv(self, width: int, a: int, b: int) -> int:
        sa, sb = to_signed(width, a), to_signed(width, b)
        quotient = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            quotient = -quotient
        return quotient & mask(width)

    def srem(self, width: int, a: int, b: int) -> int:
        sa, sb = to_signed(width, a), to_signed(width, b)
        remainder = abs(sa) % abs(sb)
        if sa < 0:
            remainder = -remainder
        return remainder & mask(width)

    # -- bitwise ---------------------------------------------------------------

    def and_(self, width: int, a: int, b: int) -> int:
        return a & b

    def or_(self, width: int, a: int, b: int) -> int:
        return a | b

    def xor(self, width: int, a: int, b: int) -> int:
        return a ^ b

    def not_(self, width: int, a: int) -> int:
        return ~a & mask(width)

    # -- shifts ------------------------------------------------------------------

    def shl(self, width: int, a: int, count: int) -> int:
        if count >= width:
            return 0
        return (a << count) & mask(width)

    def lshr(self, width: int, a: int, count: int) -> int:
        if count >= width:
            return 0
        return a >> count

    def ashr(self, width: int, a: int, count: int) -> int:
        signed = to_signed(width, a)
        count = min(count, width - 1)
        return (signed >> count) & mask(width)

    # -- comparisons ---------------------------------------------------------------

    def eq(self, width: int, a: int, b: int) -> int:
        return 1 if a == b else 0

    def ult(self, width: int, a: int, b: int) -> int:
        return 1 if a < b else 0

    def slt(self, width: int, a: int, b: int) -> int:
        return 1 if to_signed(width, a) < to_signed(width, b) else 0

    # -- structure -----------------------------------------------------------------

    def ite(self, width: int, cond: int, then: int, otherwise: int) -> int:
        return then if cond else otherwise

    def extract(self, hi: int, lo: int, a: int) -> int:
        return (a >> lo) & mask(hi - lo + 1)

    def concat(self, hi_width: int, hi: int, lo_width: int, lo: int) -> int:
        return (hi << lo_width) | lo

    def zext(self, from_width: int, to_width: int, a: int) -> int:
        return a

    def sext(self, from_width: int, to_width: int, a: int) -> int:
        return to_signed(from_width, a) & mask(to_width)

    # -- counting ----------------------------------------------------------------------

    def popcount(self, width: int, a: int) -> int:
        return a.bit_count()


INT_ALGEBRA = IntAlgebra()
"""Shared stateless instance of the concrete algebra."""
