"""Flag effects derived from the shared semantics, against the emulator.

``Instruction.flags_read``, ``flags_defined`` and ``flags_touched`` are
read off ``execute()`` by :mod:`repro.x86.effects`; nothing tabulates
them. Every opcode in the ISA table runs here in each signature, with
each operand kind its slots accept, and a shift or rotate runs with
counts 0, 1, width-1, width and 64, as an immediate and in ``cl``.
Each case runs once on the reference emulator from a random, fully
defined state, and then:

* every flag in ``flags_defined`` is defined;
* every flag outside ``flags_touched`` keeps its value and its
  definedness;
* flipping a flag outside ``flags_read`` before the run changes no
  register, memory byte or other flag, nor the flag itself when it is
  in ``flags_defined``.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.emulator.cpu import Emulator
from repro.emulator.sandbox import Sandbox
from repro.emulator.state import MachineState
from repro.x86.instruction import Instruction
from repro.x86.isa import OPCODES
from repro.x86.operands import Imm, Label, Mem, OperandKind, Reg
from repro.x86.parser import parse_instruction
from repro.x86.program import Program
from repro.x86.registers import FLAG_NAMES, RegClass, lookup, view
from repro.x86.semantics import cc_value

SHIFTS = ("shl", "sal", "shr", "sar", "rol", "ror")
STACK = 0x7FFF_0000
MEM = Mem(base=lookup("rsp"), disp=-32)
CL = Reg(lookup("cl"))


def _counts(op) -> list[int]:
    return sorted({0, 1, op.width - 1, op.width, 64})


def _operand_choices(op, sig, position):
    sl = sig[position]
    if op.family in SHIFTS and len(sig) == 2 and position == 0:
        return [Imm(c) for c in _counts(op)] + [CL]
    choices = []
    if OperandKind.REG in sl.kinds:
        if sl.reg_class is RegClass.XMM:
            choices.append(Reg(lookup(f"xmm{position + 1}")))
        else:
            choices.append(Reg(view(("rbx", "rsi", "rdi")[position],
                                    sl.width)))
    if OperandKind.MEM in sl.kinds:
        choices.append(MEM)
    if OperandKind.IMM in sl.kinds:
        choices.append(Imm(7))
    if OperandKind.LABEL in sl.kinds:
        choices.append(Label(".L0"))
    return choices


def _cases(op):
    """``(instruction, count in cl or None)`` pairs for ``op``."""
    for sig in op.signatures:
        choices = [_operand_choices(op, sig, i) for i in range(len(sig))]
        for operands in itertools.product(*choices):
            if operands.count(MEM) > 1:
                continue
            instr = Instruction(op, operands)
            if operands[:1] == (CL,):
                for count in _counts(op):
                    yield instr, count
            else:
                yield instr, None


def _random_state(rng: random.Random, cl: int | None) -> MachineState:
    state = MachineState()
    for name in state.regs:
        state.regs[name] = rng.getrandbits(128 if name.startswith("xmm")
                                           else 64)
    state.regs["rsp"] = STACK
    for name in FLAG_NAMES:
        state.flags[name] = rng.getrandbits(1)
    if cl is not None:
        state.set_reg("cl", cl)
    state.set_mem_bytes(STACK - 64, rng.randbytes(128))
    state.mark_all_defined()
    return state


def _run(instr: Instruction, state: MachineState) -> tuple:
    """The state after the run, and a jump's outcome."""
    state = state.copy()
    emulator = Emulator(state, Sandbox.recorder())
    taken = None
    if instr.opcode.family == "jcc":
        taken = cc_value(emulator, instr.opcode.cc)
    elif not instr.is_jump:
        emulator.run(Program((instr,), {}))
    return state, taken


def _without(flags: dict, name: str) -> dict:
    return {k: v for k, v in flags.items() if k != name}


def _check(instr: Instruction, cl: int | None) -> None:
    rng = random.Random(f"{instr} {cl}")
    before = _random_state(rng, cl)
    after, taken = _run(instr, before)
    for name in instr.flags_defined:
        assert after.flag_defined[name], f"{instr}: {name} left undefined"
    for name in set(FLAG_NAMES) - instr.flags_touched:
        assert after.flags[name] == before.flags[name] and \
            after.flag_defined[name], f"{instr} touched {name}"
    for name in set(FLAG_NAMES) - instr.flags_read:
        flipped = before.copy()
        flipped.flags[name] ^= 1
        other, other_taken = _run(instr, flipped)
        assert (other.regs, other.memory, other_taken) == \
            (after.regs, after.memory, taken), f"{instr} read {name}"
        assert _without(other.flags, name) == _without(after.flags, name)
        assert other.flag_defined == after.flag_defined
        if name in instr.flags_defined:
            assert other.flags[name] == after.flags[name], \
                f"{instr} did not overwrite {name}"


@pytest.mark.parametrize("name", sorted(OPCODES))
def test_effects_match_emulator(name):
    for instr, cl in _cases(OPCODES[name]):
        _check(instr, cl)


def test_every_shift_count_is_covered():
    """The rotate and zero-count cases where derived effects differ
    from what a per-opcode table can state."""
    cases = {(str(i), cl) for i, cl in _cases(OPCODES["shrb"])}
    for count in (0, 1, 7, 8, 64):
        assert (f"shrb {count}, sil", None) in cases
        assert ("shrb cl, sil", count) in cases
        assert ("shrb cl, -32(rsp)", count) in cases
    assert ("shrb bl", None) in cases


@pytest.mark.parametrize("text, read, defined, touched", [
    ("addq rsi, rax", "", "CF ZF SF OF PF", "CF ZF SF OF PF"),
    ("adcq rsi, rax", "CF", "CF ZF SF OF PF", "CF ZF SF OF PF"),
    ("incq rax", "", "ZF SF OF PF", "ZF SF OF PF"),
    ("notq rax", "", "", ""),
    ("imulq rsi, rax", "", "CF OF", "CF ZF SF OF PF"),
    ("divq rsi", "", "", "CF ZF SF OF PF"),
    ("tzcntq rsi, rax", "", "CF ZF", "CF ZF SF OF PF"),
    ("shrq 3, rax", "", "CF ZF SF PF", "CF ZF SF OF PF"),
    ("shrq cl, rax", "", "", "CF ZF SF OF PF"),
    ("shrb 64, r11b", "", "", "OF"),
    ("rolq 3, rcx", "", "CF", "CF"),
    ("rolq cl, rcx", "", "", "CF"),
    ("rolq 64, rcx", "", "", ""),
    ("cmovaq rsi, rax", "CF ZF", "", ""),
    ("setl al", "SF OF", "", ""),
    ("jle .L0", "ZF SF OF", "", ""),
    ("jmp .L0", "", "", ""),
])
def test_effects_of_representative_instructions(text, read, defined,
                                                touched):
    instr = parse_instruction(text)
    assert instr.flags_read == set(read.split())
    assert instr.flags_defined == set(defined.split())
    assert instr.flags_touched == set(touched.split())
