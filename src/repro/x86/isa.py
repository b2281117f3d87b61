"""The instruction set table for the modeled 64-bit X86 subset.

Each :class:`Opcode` describes one mnemonic (e.g. ``addq``): its operand
signatures, operand access modes, implicit register uses, base latency
and semantic family; its flag effects follow from the family's
semantics (:mod:`repro.x86.effects`). The table is built once at import
time and covers roughly 270 mnemonics across the integer and fixed-point
SSE subsets the paper searches over (Section 4.3: "arithmetic and fixed
point SSE opcodes").

Operand order follows the paper's listings, which use AT&T source-first
order (``addq rdx, rax`` adds ``rdx`` into ``rax``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import OperandTypeError, UnknownOpcodeError
from repro.x86.operands import (Operand, OperandKind, Reg)
from repro.x86.registers import RegClass

R = OperandKind.REG
M = OperandKind.MEM
I = OperandKind.IMM
L = OperandKind.LABEL

#: Condition codes and the flag predicate they denote.  Aliases map to a
#: canonical name so that e.g. ``jz`` and ``je`` share semantics.
CONDITION_CODES: dict[str, str] = {
    "e": "e", "z": "e",
    "ne": "ne", "nz": "ne",
    "a": "a", "nbe": "a",
    "ae": "ae", "nb": "ae", "nc": "ae",
    "b": "b", "c": "b", "nae": "b",
    "be": "be", "na": "be",
    "g": "g", "nle": "g",
    "ge": "ge", "nl": "ge",
    "l": "l", "nge": "l",
    "le": "le", "ng": "le",
    "s": "s", "ns": "ns",
    "o": "o", "no": "no",
    "p": "p", "pe": "p",
    "np": "np", "po": "np",
}

_SUFFIX_WIDTH = {"b": 8, "w": 16, "l": 32, "q": 64}
_WIDTH_SUFFIX = {v: k for k, v in _SUFFIX_WIDTH.items()}


@dataclass(frozen=True)
class Slot:
    """One operand position in an instruction signature.

    Attributes:
        kinds: operand kinds accepted at this position.
        width: operand bit width (8..128); for LABEL slots it is 0.
        access: "r", "w" or "rw" — how the instruction uses the operand.
        reg_class: register class accepted when the operand is a register.
    """

    kinds: frozenset[OperandKind]
    width: int
    access: str
    reg_class: RegClass = RegClass.GPR

    def accepts(self, op: Operand) -> bool:
        if op.kind not in self.kinds:
            return False
        if isinstance(op, Reg):
            return op.reg.width == self.width and \
                op.reg.reg_class == self.reg_class
        return True


def slot(kinds: Iterable[OperandKind], width: int, access: str,
         reg_class: RegClass = RegClass.GPR) -> Slot:
    return Slot(frozenset(kinds), width, access, reg_class)


@dataclass(frozen=True)
class Opcode:
    """A single mnemonic in the ISA table.

    Flag effects are not fields: an instruction derives them from the
    family's semantics and its operands (a shift count may be zero).

    Attributes:
        name: the mnemonic with width suffix, e.g. ``"addq"``.
        family: semantic family dispatched on by the executor, e.g. ``"add"``.
        width: principal operation width in bits.
        signatures: alternative operand slot tuples (x86 mnemonics often
            accept several arities/directions).
        latency: base latency in cycles; memory access adds extra
            (see :mod:`repro.x86.latency`).
        implicit_reads / implicit_writes: full names of implicitly used
            general purpose registers (e.g. ``mulq`` reads/writes rax, rdx).
        cc: canonical condition code for jcc/setcc/cmovcc families.
        is_jump: True for control transfer instructions.
        uf: True if the symbolic validator treats the result as an
            uninterpreted function (wide multiplication, Section 5.2).
        elem_width: packed element width for SSE integer ops.
        src_width: source operand width for widening moves (movzx/movsx).
    """

    name: str
    family: str
    width: int
    signatures: tuple[tuple[Slot, ...], ...]
    latency: int = 1
    implicit_reads: tuple[str, ...] = ()
    implicit_writes: tuple[str, ...] = ()
    cc: str | None = None
    is_jump: bool = False
    uf: bool = False
    elem_width: int | None = None
    src_width: int | None = None

    def match(self, operands: tuple[Operand, ...]) -> tuple[Slot, ...] | None:
        """Return the matching signature for ``operands``, or None."""
        for sig in self.signatures:
            if len(sig) != len(operands):
                continue
            if all(s.accepts(op) for s, op in zip(sig, operands)):
                mem_count = sum(op.kind is OperandKind.MEM for op in operands)
                if mem_count <= 1:
                    return sig
        return None

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


class _TableBuilder:
    """Accumulates opcodes; small helpers cut down table boilerplate."""

    def __init__(self) -> None:
        self.table: dict[str, Opcode] = {}

    def add(self, op: Opcode) -> None:
        if op.name in self.table:
            raise ValueError(f"duplicate opcode {op.name}")
        self.table[op.name] = op

    # -- integer helpers ---------------------------------------------------

    def binary_alu(self, family: str, dst_access: str) -> None:
        """src(r/m/i), dst(r/m) two-operand ALU family, all widths."""
        for w, sfx in _WIDTH_SUFFIX.items():
            src = slot({R, M, I}, w, "r")
            dst = slot({R, M}, w, dst_access)
            self.add(Opcode(family + sfx, family, w, ((src, dst),)))

    def unary_alu(self, family: str) -> None:
        for w, sfx in _WIDTH_SUFFIX.items():
            self.add(Opcode(family + sfx, family, w,
                            ((slot({R, M}, w, "rw"),),)))

    def shift(self, family: str) -> None:
        """Shift/rotate: count(imm8 or cl) + dst, or implicit-one dst."""
        for w, sfx in _WIDTH_SUFFIX.items():
            count = slot({I, R}, 8, "r")
            dst = slot({R, M}, w, "rw")
            self.add(Opcode(family + sfx, family, w, ((count, dst), (dst,))))

    def widening_move(self, family: str, sign: str) -> None:
        """movz/movs with explicit source and destination widths."""
        pairs = [(8, 16), (8, 32), (8, 64), (16, 32), (16, 64)]
        if sign == "s":
            pairs.append((32, 64))
        for sw, dw in pairs:
            if sign == "s" and (sw, dw) == (32, 64):
                name = "movslq"   # AT&T spelling for 32->64 sign extension
            else:
                name = f"mov{sign}{_WIDTH_SUFFIX[sw]}{_WIDTH_SUFFIX[dw]}"
            src = slot({R, M}, sw, "r")
            dst = slot({R}, dw, "w")
            self.add(Opcode(name, family, dw, ((src, dst),),
                            src_width=sw))

    def sse_binary(self, name: str, family: str, *, latency: int = 1,
                   elem_width: int | None = None) -> None:
        """xmm/m128 src, xmm dst packed binary operation."""
        src = slot({R, M}, 128, "r", RegClass.XMM)
        dst = slot({R}, 128, "rw", RegClass.XMM)
        self.add(Opcode(name, family, 128, ((src, dst),), latency=latency,
                        elem_width=elem_width))


def _build_table() -> dict[str, Opcode]:
    b = _TableBuilder()

    # --- data movement ----------------------------------------------------
    for w in (8, 16, 32, 64):
        name = "mov" + _WIDTH_SUFFIX[w]
        src = slot({R, M, I}, w, "r")
        dst = slot({R, M}, w, "w")
        b.add(Opcode(name, "mov", w, ((src, dst),)))
    b.add(Opcode("movabsq", "mov", 64,
                 ((slot({I}, 64, "r"), slot({R}, 64, "w")),)))
    for w in (16, 32, 64):
        name = "lea" + _WIDTH_SUFFIX[w]
        b.add(Opcode(name, "lea", w,
                     ((slot({M}, w, "addr"), slot({R}, w, "w")),)))
    b.widening_move("movzx", "z")
    b.widening_move("movsx", "s")
    for w, name in ((64, "pushq"), (16, "pushw")):
        b.add(Opcode(name, "push", w, ((slot({R, M, I}, w, "r"),),),
                     latency=2, implicit_reads=("rsp",),
                     implicit_writes=("rsp",)))
    for w, name in ((64, "popq"), (16, "popw")):
        b.add(Opcode(name, "pop", w, ((slot({R, M}, w, "w"),),),
                     latency=2, implicit_reads=("rsp",),
                     implicit_writes=("rsp",)))
    b.add(Opcode("xchgq", "xchg", 64,
                 ((slot({R}, 64, "rw"), slot({R, M}, 64, "rw")),),
                 latency=2))
    b.add(Opcode("xchgl", "xchg", 32,
                 ((slot({R}, 32, "rw"), slot({R, M}, 32, "rw")),),
                 latency=2))

    # --- integer arithmetic -----------------------------------------------
    for family in ("add", "sub", "adc", "sbb", "cmp", "and", "or", "xor",
                   "test"):
        b.binary_alu(family, "r" if family in ("cmp", "test") else "rw")
    for family in ("not", "neg", "inc", "dec"):
        b.unary_alu(family)

    # two-operand imul: src(r/m), dst(r); 16/32/64 bit only
    for w in (16, 32, 64):
        name = "imul" + _WIDTH_SUFFIX[w]
        src = slot({R, M, I}, w, "r")
        dst = slot({R}, w, "rw")
        # one-operand widening form shares the mnemonic in AT&T syntax
        wide = slot({R, M}, w, "r")
        b.add(Opcode(name, "imul", w, ((src, dst), (wide,)), latency=3,
                     implicit_reads=("rax",),
                     implicit_writes=("rax", "rdx"),
                     uf=(w == 64)))
    for w in (8, 16, 32, 64):
        name = "mul" + _WIDTH_SUFFIX[w]
        b.add(Opcode(name, "mul", w, ((slot({R, M}, w, "r"),),), latency=4,
                     implicit_reads=("rax",),
                     implicit_writes=("rax", "rdx"),
                     uf=(w == 64)))
    for w in (16, 32, 64):
        for fam in ("div", "idiv"):
            name = fam + _WIDTH_SUFFIX[w]
            b.add(Opcode(name, fam, w, ((slot({R, M}, w, "r"),),),
                         latency=24 if fam == "div" else 26,
                         implicit_reads=("rax", "rdx"),
                         implicit_writes=("rax", "rdx"),
                         uf=(w == 64)))

    # sign-extension idioms
    b.add(Opcode("cltq", "sextax", 64, ((),), implicit_reads=("rax",),
                 implicit_writes=("rax",)))
    b.add(Opcode("cwtl", "sextax", 32, ((),), implicit_reads=("rax",),
                 implicit_writes=("rax",)))
    b.add(Opcode("cqto", "sextdx", 64, ((),), implicit_reads=("rax",),
                 implicit_writes=("rdx",)))
    b.add(Opcode("cltd", "sextdx", 32, ((),), implicit_reads=("rax",),
                 implicit_writes=("rdx",)))

    # --- shifts and rotates -------------------------------------------------
    for family in ("shl", "sal", "shr", "sar", "rol", "ror"):
        b.shift(family)

    # --- bit manipulation ---------------------------------------------------
    for w in (16, 32, 64):
        sfx = _WIDTH_SUFFIX[w]
        src = slot({R, M}, w, "r")
        dst = slot({R}, w, "w")
        for family in ("popcnt", "bsf", "bsr", "tzcnt", "lzcnt"):
            b.add(Opcode(family + sfx, family, w, ((src, dst),), latency=3))

    # --- conditional data movement ------------------------------------------
    for cc_name, cc in CONDITION_CODES.items():
        for w in (16, 32, 64):
            name = f"cmov{cc_name}{_WIDTH_SUFFIX[w]}"
            src = slot({R, M}, w, "r")
            dst = slot({R}, w, "rw")
            b.add(Opcode(name, "cmov", w, ((src, dst),), cc=cc))
        b.add(Opcode(f"set{cc_name}", "set", 8,
                     ((slot({R, M}, 8, "w"),),), cc=cc))
        b.add(Opcode(f"j{cc_name}", "jcc", 64, ((slot({L}, 0, "r"),),),
                     cc=cc, is_jump=True))
    b.add(Opcode("jmp", "jmp", 64, ((slot({L}, 0, "r"),),), is_jump=True))

    # --- SSE integer / data movement ------------------------------------------
    b.add(Opcode("movd", "movd", 128, (
        (slot({R, M}, 32, "r"), slot({R}, 128, "w", RegClass.XMM)),
        (slot({R}, 128, "r", RegClass.XMM), slot({R, M}, 32, "w")),
    ), latency=2))
    b.add(Opcode("movq_xmm", "movq_xmm", 128, (
        (slot({R, M}, 64, "r"), slot({R}, 128, "w", RegClass.XMM)),
        (slot({R}, 128, "r", RegClass.XMM), slot({R, M}, 64, "w")),
    ), latency=2))
    for name in ("movups", "movaps", "movdqa", "movdqu"):
        b.add(Opcode(name, "movsse", 128, (
            (slot({R, M}, 128, "r", RegClass.XMM),
             slot({R, M}, 128, "w", RegClass.XMM)),
        ), latency=1))
    b.add(Opcode("shufps", "shufps", 128, (
        (slot({I}, 8, "r"), slot({R, M}, 128, "r", RegClass.XMM),
         slot({R}, 128, "rw", RegClass.XMM)),
    ), latency=1))
    b.add(Opcode("pshufd", "pshufd", 128, (
        (slot({I}, 8, "r"), slot({R, M}, 128, "r", RegClass.XMM),
         slot({R}, 128, "w", RegClass.XMM)),
    ), latency=1))
    for name, ew in (("paddb", 8), ("paddw", 16), ("paddd", 32),
                     ("paddq", 64)):
        b.sse_binary(name, "padd", elem_width=ew)
    for name, ew in (("psubb", 8), ("psubw", 16), ("psubd", 32),
                     ("psubq", 64)):
        b.sse_binary(name, "psub", elem_width=ew)
    b.sse_binary("pmullw", "pmull", latency=5, elem_width=16)
    b.sse_binary("pmulld", "pmull", latency=10, elem_width=32)
    b.sse_binary("pmuludq", "pmuludq", latency=5, elem_width=32)
    b.sse_binary("pand", "pand", elem_width=128)
    b.sse_binary("por", "por", elem_width=128)
    b.sse_binary("pxor", "pxor", elem_width=128)
    for name, ew in (("psllw", 16), ("pslld", 32), ("psllq", 64)):
        b.add(Opcode(name, "psll", 128, (
            (slot({I}, 8, "r"), slot({R}, 128, "rw", RegClass.XMM)),
        ), latency=1, elem_width=ew))
    for name, ew in (("psrlw", 16), ("psrld", 32), ("psrlq", 64)):
        b.add(Opcode(name, "psrl", 128, (
            (slot({I}, 8, "r"), slot({R}, 128, "rw", RegClass.XMM)),
        ), latency=1, elem_width=ew))

    # --- misc -------------------------------------------------------------
    b.add(Opcode("nop", "nop", 0, ((),)))

    return b.table


OPCODES: dict[str, Opcode] = _build_table()
"""The full mnemonic table, keyed by mnemonic name."""


def opcode(name: str) -> Opcode:
    """Look up a mnemonic, raising :class:`UnknownOpcodeError` if absent."""
    try:
        return OPCODES[name]
    except KeyError:
        raise UnknownOpcodeError(f"unknown opcode {name!r}") from None


def check_operands(op: Opcode, operands: tuple[Operand, ...]) \
        -> tuple[Slot, ...]:
    """Validate operands against ``op``; return the matching signature.

    Raises:
        OperandTypeError: if no signature matches.
    """
    sig = op.match(operands)
    if sig is None:
        ops = ", ".join(str(o) for o in operands)
        raise OperandTypeError(f"{op.name} does not accept operands ({ops})")
    return sig
