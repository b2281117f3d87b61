"""Proposal moves over fixed-length rewrites (Section 4.3).

Four move types, the first two minor, the latter two major:

* **Opcode** — replace an instruction's opcode with a random one drawn
  from the equivalence class of opcodes expecting the same number and
  type of operands.
* **Operand** — replace one operand with a random operand of equivalent
  type; immediates come from a bag of predefined constants.
* **Swap** — interchange two instructions.
* **Instruction** — replace an instruction wholesale with a random
  instruction or the UNUSED token.

All four are symmetric (the probability of proposing a move equals the
probability of proposing its inverse), so the Metropolis ratio (Eq. 6)
applies.
"""

from __future__ import annotations

import random
from enum import Enum

from repro.errors import OperandTypeError
from repro.x86.instruction import Instruction, UNUSED, is_unused
from repro.x86.isa import OPCODES, Opcode, Slot
from repro.x86.operands import Imm, Mem, Operand, OperandKind, Reg
from repro.x86.program import Program
from repro.x86.registers import RegClass, registers_of_width

#: Families excluded from the proposal pool: control flow (rewrites are
#: straight-line), faulting division, stack management and no-ops.
EXCLUDED_FAMILIES = frozenset({
    "jcc", "jmp", "nop", "div", "idiv", "push", "pop", "xchg",
})

#: The default bag of predefined constants immediates are drawn from.
DEFAULT_CONSTANT_BAG = (
    0, 1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 24, 31, 32, 63, 64, 127, 128,
    255, 0xFFFF, 0xFFFFFFFF, -1, -2, -8,
)


class MoveKind(Enum):
    OPCODE = "opcode"
    OPERAND = "operand"
    SWAP = "swap"
    INSTRUCTION = "instruction"


def _ordered_kinds(sl: Slot) -> list[OperandKind]:
    """The slot's samplable kinds in a canonical order.

    ``Slot.kinds`` is a frozenset whose iteration order follows enum
    identity hashes and therefore varies between interpreter launches;
    sampling from it directly would make proposal streams — and with
    them whole campaigns — irreproducible across processes.
    """
    kinds = [k for k in sl.kinds if k is not OperandKind.LABEL]
    kinds.sort(key=lambda k: k.value)
    return kinds


def _operand_type_key(operands: tuple[Operand, ...],
                      signature: tuple[Slot, ...]) -> tuple:
    """The equivalence-class key: number and types of operands."""
    key = []
    for op, sl in zip(operands, signature):
        if isinstance(op, Reg):
            key.append(("r", op.reg.width, op.reg.reg_class.value))
        elif isinstance(op, Imm):
            key.append(("i", sl.width))
        else:
            key.append(("m", sl.width))
    return tuple(key)


def _signature_keys(sig: tuple[Slot, ...]) -> list[tuple]:
    """All concrete type keys a signature can match."""
    keys: list[list[tuple]] = [[]]
    for sl in sig:
        grown: list[list[tuple]] = []
        for prefix in keys:
            for kind in sl.kinds:
                if kind is OperandKind.REG:
                    entry = ("r", sl.width, sl.reg_class.value)
                elif kind is OperandKind.IMM:
                    entry = ("i", sl.width)
                elif kind is OperandKind.MEM:
                    entry = ("m", sl.width)
                else:
                    continue
                grown.append(prefix + [entry])
        keys = grown or keys
    return [tuple(k) for k in keys
            if sum(1 for e in k if e[0] == "m") <= 1]


_OPCODE_POOLS: dict[frozenset[str],
                    tuple[list[Opcode], dict[tuple, list[Opcode]]]] = {}


def _opcode_pool(extra_opcodes: frozenset[str]) \
        -> tuple[list[Opcode], dict[tuple, list[Opcode]]]:
    """The proposal pool and its operand-type class index, built once
    per process for each set of extra opcodes (callers never mutate
    them). The index maps operand-type keys to the opcodes accepting
    them, in pool order."""
    found = _OPCODE_POOLS.get(extra_opcodes)
    if found is None:
        pool = [op for op in OPCODES.values()
                if op.family not in EXCLUDED_FAMILIES or
                op.name in extra_opcodes]
        index: dict[tuple, list[Opcode]] = {}
        for op in pool:
            for sig in op.signatures:
                for key in _signature_keys(sig):
                    index.setdefault(key, []).append(op)
        found = _OPCODE_POOLS[extra_opcodes] = (pool, index)
    return found


class MoveGenerator:
    """Samples the proposal distribution q(R* | R)."""

    def __init__(self, target: Program, config, rng: random.Random,
                 *, extra_opcodes: frozenset[str] = frozenset()) -> None:
        self.config = config
        self.rng = rng
        self.pool, self._class_index = _opcode_pool(extra_opcodes)
        self.constant_bag = self._build_constant_bag(target)
        self.mem_pool = self._build_mem_pool(target)
        self._move_cdf = self._build_move_cdf()

    # -- pool construction ------------------------------------------------------

    def _build_constant_bag(self, target: Program) -> list[int]:
        bag = list(DEFAULT_CONSTANT_BAG)
        for instr in target.code:
            for op in instr.operands:
                if isinstance(op, Imm) and op.value not in bag:
                    bag.append(op.value)
        return bag

    @staticmethod
    def _build_mem_pool(target: Program) -> list[Mem]:
        pool: list[Mem] = []
        for instr in target.code:
            for op in instr.operands:
                if isinstance(op, Mem) and op not in pool:
                    pool.append(op)
        return pool

    def _build_move_cdf(self) -> list[tuple[float, MoveKind]]:
        weights = self.config.move_distribution()
        kinds = (MoveKind.OPCODE, MoveKind.OPERAND, MoveKind.SWAP,
                 MoveKind.INSTRUCTION)
        cdf = []
        acc = 0.0
        for w, k in zip(weights, kinds):
            acc += w
            cdf.append((acc, k))
        return cdf

    # -- proposal sampling ------------------------------------------------------------

    def propose(self, program: Program) -> tuple[Program, MoveKind]:
        """One proposal R -> R*; always returns a well-formed program."""
        u = self.rng.random()
        for threshold, kind in self._move_cdf:
            if u <= threshold:
                break
        for _ in range(16):                  # resample on dead ends
            result = self._apply(program, kind)
            if result is not None:
                return result, kind
            kind = MoveKind.INSTRUCTION       # always applicable
        raise AssertionError("instruction move cannot fail")

    def _apply(self, program: Program, kind: MoveKind) -> Program | None:
        if kind is MoveKind.OPCODE:
            return self._move_opcode(program)
        if kind is MoveKind.OPERAND:
            return self._move_operand(program)
        if kind is MoveKind.SWAP:
            return self._move_swap(program)
        return self._move_instruction(program)

    def _real_indices(self, program: Program) -> list[int]:
        return [i for i, ins in enumerate(program.code)
                if not is_unused(ins)]

    def _move_opcode(self, program: Program) -> Program | None:
        indices = self._real_indices(program)
        if not indices:
            return None
        index = self.rng.choice(indices)
        instr = program.code[index]
        key = _operand_type_key(instr.operands, instr.signature)
        candidates = self._class_index.get(key)
        if not candidates:
            return None
        new_op = self.rng.choice(candidates)
        try:
            return program.replace(index,
                                   Instruction(new_op, instr.operands))
        except OperandTypeError:
            return None

    def _move_operand(self, program: Program) -> Program | None:
        indices = [i for i in self._real_indices(program)
                   if program.code[i].operands]
        if not indices:
            return None
        index = self.rng.choice(indices)
        instr = program.code[index]
        slot_index = self.rng.randrange(len(instr.operands))
        sl = instr.signature[slot_index]
        other_has_mem = any(
            isinstance(op, Mem)
            for i, op in enumerate(instr.operands) if i != slot_index)
        new = self._sample_slot_operand(sl, allow_mem=not other_has_mem)
        if new is None:
            return None
        operands = list(instr.operands)
        operands[slot_index] = new
        try:
            return program.replace(
                index, Instruction(instr.opcode, tuple(operands)))
        except OperandTypeError:
            return None

    def _sample_slot_operand(self, sl: Slot, *,
                             allow_mem: bool = True) -> Operand | None:
        """Sample an operand from the *slot's* equivalence class.

        The class is defined by the instruction's slot (the "type" of
        Section 4.3), so an r/m slot may flip between a register and a
        memory operand — the single-move path that connects O0-style
        stack traffic to register code (Figure 4's dense region).
        """
        kinds = _ordered_kinds(sl)
        if not allow_mem or not self.mem_pool:
            kinds = [k for k in kinds if k is not OperandKind.MEM]
        if not kinds:
            return None
        kind = self.rng.choice(kinds)
        if kind is OperandKind.REG:
            pool = registers_of_width(
                sl.width if sl.reg_class is RegClass.GPR else 128)
            return Reg(self.rng.choice(pool))
        if kind is OperandKind.IMM:
            return Imm(self.rng.choice(self.constant_bag))
        return self.rng.choice(self.mem_pool)

    def _move_swap(self, program: Program) -> Program | None:
        if len(program.code) < 2:
            return None
        i = self.rng.randrange(len(program.code))
        j = self.rng.randrange(len(program.code))
        if i == j:
            return None
        return program.swap(i, j)

    def _move_instruction(self, program: Program) -> Program | None:
        index = self.rng.randrange(len(program.code))
        if self.rng.random() < self.config.p_unused:
            return program.replace(index, UNUSED)
        instr = self.random_instruction()
        if instr is None:
            return None
        return program.replace(index, instr)

    def random_instruction(self, *, max_tries: int = 32) \
            -> Instruction | None:
        """An unconstrained random instruction (also used for random
        synthesis starting points)."""
        for _ in range(max_tries):
            opcode = self.rng.choice(self.pool)
            sig = self.rng.choice(opcode.signatures)
            operands = self._sample_signature(sig)
            if operands is None:
                continue
            try:
                return Instruction(opcode, operands)
            except OperandTypeError:
                continue
        return None

    def _sample_signature(self, sig: tuple[Slot, ...]) \
            -> tuple[Operand, ...] | None:
        operands: list[Operand] = []
        used_mem = False
        for sl in sig:
            kinds = _ordered_kinds(sl)
            if used_mem or not self.mem_pool:
                kinds = [k for k in kinds if k is not OperandKind.MEM]
            if not kinds:
                return None
            kind = self.rng.choice(kinds)
            if kind is OperandKind.REG:
                pool = registers_of_width(
                    sl.width if sl.reg_class is RegClass.GPR else 128)
                operands.append(Reg(self.rng.choice(pool)))
            elif kind is OperandKind.IMM:
                operands.append(Imm(self.rng.choice(self.constant_bag)))
            else:
                used_mem = True
                operands.append(self.rng.choice(self.mem_pool))
        return tuple(operands)

    def random_program(self, length: int | None = None) -> Program:
        """A random starting point for synthesis (Section 4.4)."""
        length = length if length is not None else self.config.ell
        code = []
        for _ in range(length):
            instr = self.random_instruction()
            code.append(instr if instr is not None else UNUSED)
        return Program(tuple(code))
