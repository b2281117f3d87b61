"""A small C-like expression language: the benchmark source form.

Kernels (Hacker's Delight programs, SAXPY, Montgomery multiplication)
are written as :class:`Function` objects over this AST; the two code
generators lower them the way ``llvm -O0`` and ``gcc -O3`` would.

Types are integer widths (32/64). Pointers are 64-bit values used by
Load/Store nodes. Semantics mirror C on a two's-complement machine with
well-defined wraparound (the kernels only rely on defined behavior).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class BinOp(Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    MULHI_U = "mulhi_u"     # high half of the widening unsigned product
    AND = "&"
    OR = "|"
    XOR = "^"
    SHL = "<<"
    SHR_U = ">>u"           # logical shift right
    SHR_S = ">>s"           # arithmetic shift right
    DIV_U = "/u"
    EQ = "=="
    NE = "!="
    LT_U = "<u"
    LT_S = "<s"
    LE_S = "<=s"
    GT_S = ">s"


class UnOp(Enum):
    NOT = "~"
    NEG = "-"


@dataclass(frozen=True)
class Expr:
    """Base class for expressions."""


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Const(Expr):
    value: int


@dataclass(frozen=True)
class Bin(Expr):
    op: BinOp
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Un(Expr):
    op: UnOp
    operand: Expr


@dataclass(frozen=True)
class Select(Expr):
    """C ternary: cond ? then : otherwise (cond is a 0/1 expression)."""

    cond: Expr
    then: Expr
    otherwise: Expr


@dataclass(frozen=True)
class Cast(Expr):
    """Width change: zero- or sign-extend, or truncate."""

    operand: Expr
    to_width: int
    signed: bool = False


@dataclass(frozen=True)
class Load(Expr):
    """``*(base + index*scale + disp)`` of ``width`` bits."""

    base: Expr
    width: int
    index: Expr | None = None
    scale: int = 1
    disp: int = 0


@dataclass(frozen=True)
class Stmt:
    """Base class for statements."""


@dataclass(frozen=True)
class Assign(Stmt):
    name: str
    value: Expr


@dataclass(frozen=True)
class Store(Stmt):
    """``*(base + index*scale + disp) = value`` of ``width`` bits."""

    base: Expr
    value: Expr
    width: int
    index: Expr | None = None
    scale: int = 1
    disp: int = 0


@dataclass(frozen=True)
class Param:
    """A function parameter bound to an argument register.

    Attributes:
        name: source-level name.
        width: value width in bits (pointers are 64).
        reg: the register view the argument arrives in (System V
            calling convention by default, e.g. edi/rsi/...).
    """

    name: str
    width: int
    reg: str


@dataclass(frozen=True)
class Output:
    """A result: the final value of ``var`` lands in register ``reg``."""

    var: str
    reg: str


@dataclass(frozen=True)
class Function:
    """A loop-free kernel: parameters, straight-line body, outputs."""

    name: str
    params: tuple[Param, ...]
    body: tuple[Stmt, ...]
    outputs: tuple[Output, ...]


#: System V AMD64 integer argument registers, by 64-bit name.
SYSV_ARG_REGS = ("rdi", "rsi", "rdx", "rcx", "r8", "r9")


def params32(*names: str) -> tuple[Param, ...]:
    """Convenience: 32-bit parameters in calling-convention order."""
    from repro.x86.registers import view
    return tuple(
        Param(name, 32, view(SYSV_ARG_REGS[i], 32).name)
        for i, name in enumerate(names))


def params64(*names: str) -> tuple[Param, ...]:
    return tuple(Param(name, 64, SYSV_ARG_REGS[i])
                 for i, name in enumerate(names))
