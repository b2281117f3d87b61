"""Register file model for the 64-bit X86 subset.

The model covers the sixteen 64-bit general purpose registers with their
32/16/8-bit views, the sixteen 128-bit SSE registers, and the five status
flags used by the modeled instruction subset.

Sub-register aliasing follows the x86-64 rules that matter to the paper:

* writing a 32-bit view zeroes the upper 32 bits of the full register
  (the ``mov edx, edx`` idiom in Figure 1 relies on this),
* writing a 16-bit or 8-bit view leaves the remaining bits untouched.

High-byte registers (``ah`` .. ``bh``) are intentionally not modeled; they
are rarely produced by compilers and the paper never uses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class RegClass(Enum):
    """Top-level storage class of a register."""

    GPR = "gpr"
    XMM = "xmm"


@dataclass(frozen=True)
class Register:
    """A named architectural register view.

    Attributes:
        name: the assembly-level name, e.g. ``"eax"`` or ``"r8d"``.
        full: name of the full-width register this view aliases, e.g.
            ``"rax"`` for ``"eax"``.
        width: view width in bits (8, 16, 32, 64 for GPRs; 128 for XMM).
        reg_class: GPR or XMM.
    """

    name: str
    full: str
    width: int
    reg_class: RegClass

    @property
    def is_full(self) -> bool:
        """True if this view covers the entire underlying register."""
        return self.name == self.full

    @property
    def byte_width(self) -> int:
        return self.width // 8

    @property
    def mask(self) -> int:
        """Bit mask selecting this view within the full register."""
        return (1 << self.width) - 1

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


_GPR64 = ["rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
          "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15"]
_GPR32 = ["eax", "ebx", "ecx", "edx", "esi", "edi", "ebp", "esp",
          "r8d", "r9d", "r10d", "r11d", "r12d", "r13d", "r14d", "r15d"]
_GPR16 = ["ax", "bx", "cx", "dx", "si", "di", "bp", "sp",
          "r8w", "r9w", "r10w", "r11w", "r12w", "r13w", "r14w", "r15w"]
_GPR8 = ["al", "bl", "cl", "dl", "sil", "dil", "bpl", "spl",
         "r8b", "r9b", "r10b", "r11b", "r12b", "r13b", "r14b", "r15b"]

FLAG_NAMES = ("CF", "ZF", "SF", "OF", "PF")
"""Status flags modeled by this library (AF is omitted; the modeled
instruction subset never reads it)."""


def _build_register_table() -> dict[str, Register]:
    table: dict[str, Register] = {}
    for i, full in enumerate(_GPR64):
        for width, names in ((64, _GPR64), (32, _GPR32),
                             (16, _GPR16), (8, _GPR8)):
            name = names[i]
            table[name] = Register(name, full, width, RegClass.GPR)
    for i in range(16):
        name = f"xmm{i}"
        table[name] = Register(name, name, 128, RegClass.XMM)
    return table


REGISTERS: dict[str, Register] = _build_register_table()
"""All register views, keyed by assembly name."""

GPR64: tuple[Register, ...] = tuple(REGISTERS[n] for n in _GPR64)
GPR32: tuple[Register, ...] = tuple(REGISTERS[n] for n in _GPR32)
GPR16: tuple[Register, ...] = tuple(REGISTERS[n] for n in _GPR16)
GPR8: tuple[Register, ...] = tuple(REGISTERS[n] for n in _GPR8)
XMM: tuple[Register, ...] = tuple(REGISTERS[f"xmm{i}"] for i in range(16))

_BY_FULL_AND_WIDTH: dict[tuple[str, int], Register] = {
    (r.full, r.width): r for r in REGISTERS.values()
}


def lookup(name: str) -> Register:
    """Return the register named ``name``.

    Raises:
        KeyError: if the name is not a modeled register.
    """
    return REGISTERS[name]


def is_register_name(name: str) -> bool:
    return name in REGISTERS


def view(full: str, width: int) -> Register:
    """Return the ``width``-bit view of the full register ``full``.

    >>> view("rax", 32).name
    'eax'
    """
    return _BY_FULL_AND_WIDTH[(full, width)]


def gprs_of_width(width: int) -> tuple[Register, ...]:
    """All general purpose registers of the given bit width."""
    return {64: GPR64, 32: GPR32, 16: GPR16, 8: GPR8}[width]


def registers_of_width(width: int) -> tuple[Register, ...]:
    """All registers (GPR or XMM) of the given bit width."""
    if width == 128:
        return XMM
    return gprs_of_width(width)
