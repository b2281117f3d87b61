"""Instructions and the UNUSED padding token.

An :class:`Instruction` pairs an :class:`~repro.x86.isa.Opcode` with a
tuple of operands and caches the matched signature, from which register
def/use sets are derived for liveness and dependence analysis; flag
def/use sets are recorded from the shared semantics on first use.

Candidate rewrites in the search are fixed-length sequences where the
distinguished :data:`UNUSED` token stands for an empty slot (Section 4.3
of the paper), keeping the dimensionality of the search space constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.x86 import isa
from repro.x86.isa import Opcode, Slot, check_operands
from repro.x86.operands import Label, Mem, Operand, Reg
from repro.x86.registers import Register


@dataclass(frozen=True)
class Instruction:
    """A single decoded instruction.

    Instances are immutable; the search replaces instructions wholesale
    rather than mutating them in place.
    """

    opcode: Opcode
    operands: tuple[Operand, ...] = ()

    def __post_init__(self) -> None:
        # matched once, here, in place of the cached property below
        self.__dict__["signature"] = check_operands(self.opcode,
                                                    self.operands)

    @cached_property
    def signature(self) -> tuple[Slot, ...]:
        return check_operands(self.opcode, self.operands)

    # -- structural queries --------------------------------------------------

    @property
    def is_jump(self) -> bool:
        return self.opcode.is_jump

    @property
    def jump_target(self) -> str | None:
        if not self.opcode.is_jump:
            return None
        (label,) = self.operands
        assert isinstance(label, Label)
        return label.name

    @property
    def is_widening_onearg(self) -> bool:
        """True for the one-operand forms of imul/mul/div/idiv."""
        return self.opcode.family in ("imul", "mul", "div", "idiv") and \
            len(self.operands) == 1

    def _implicit_active(self) -> bool:
        """Implicit rax/rdx uses only apply to one-operand widening forms."""
        if self.opcode.family in ("imul",):
            return self.is_widening_onearg
        return True

    # -- def/use sets ---------------------------------------------------------

    @cached_property
    def regs_read(self) -> frozenset[Register]:
        """Register views read by this instruction (explicit + implicit)."""
        from repro.x86.registers import lookup
        reads: set[Register] = set()
        for op, sl in zip(self.operands, self.signature):
            if isinstance(op, Reg) and "r" in sl.access:
                reads.add(op.reg)
            elif isinstance(op, Mem):
                reads.update(op.registers())
        if self._implicit_active():
            for name in self.opcode.implicit_reads:
                reads.add(lookup(name))
        return frozenset(reads)

    @cached_property
    def regs_written(self) -> frozenset[Register]:
        """Register views written by this instruction."""
        from repro.x86.registers import lookup
        writes: set[Register] = set()
        for op, sl in zip(self.operands, self.signature):
            if isinstance(op, Reg) and "w" in sl.access:
                writes.add(op.reg)
        if self._implicit_active():
            for name in self.opcode.implicit_writes:
                writes.add(lookup(name))
        return frozenset(writes)

    @cached_property
    def mem_operand(self) -> Mem | None:
        """The memory operand, if any (at most one per instruction)."""
        for op in self.operands:
            if isinstance(op, Mem):
                return op
        return None

    @property
    def reads_memory(self) -> bool:
        if self.opcode.family == "lea":
            return False
        mem = self.mem_operand
        if mem is None:
            return False
        for op, sl in zip(self.operands, self.signature):
            if op is mem and "r" in sl.access:
                return True
        return self.opcode.family == "push"

    @property
    def writes_memory(self) -> bool:
        if self.opcode.family == "lea":
            return False
        if self.opcode.family == "push":
            return True
        if self.opcode.family == "pop":
            # pop reads the stack; it writes memory only via a mem operand
            pass
        mem = self.mem_operand
        if mem is None:
            return False
        for op, sl in zip(self.operands, self.signature):
            if op is mem and "w" in sl.access:
                return True
        return False

    @cached_property
    def flag_effects(self):
        """See :func:`repro.x86.effects.flag_effects`."""
        from repro.x86.effects import flag_effects
        return flag_effects(self)

    flags_read = property(lambda self: self.flag_effects.read)
    flags_defined = property(lambda self: self.flag_effects.defined)
    flags_touched = property(lambda self: self.flag_effects.touched)

    def __str__(self) -> str:
        if not self.operands:
            return self.opcode.name
        ops = ", ".join(str(op) for op in self.operands)
        return f"{self.opcode.name} {ops}"


#: Sentinel padding token for fixed-length rewrites (Section 4.3).  It is a
#: real (flagless, effect-free) instruction so sequences containing it can
#: be executed and printed without special cases.
UNUSED = Instruction(isa.opcode("nop"))


def is_unused(instr: Instruction) -> bool:
    return instr.opcode.family == "nop"
