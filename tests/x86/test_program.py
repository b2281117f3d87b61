"""Program container tests: padding, compaction, replacement, labels."""

import pytest

from repro.errors import AsmSyntaxError
from repro.x86.instruction import UNUSED, is_unused
from repro.x86.parser import parse_instruction, parse_program
from repro.x86.program import Program


def _prog(text: str) -> Program:
    return parse_program(text)


def test_padded_then_compact_roundtrip():
    prog = _prog("movq rdi, rax\naddq rsi, rax")
    padded = prog.padded(10)
    assert len(padded) == 10
    assert padded.instruction_count == 2
    assert padded.compact().code == prog.code


def test_padding_too_short_raises():
    prog = _prog("movq rdi, rax\naddq rsi, rax")
    with pytest.raises(ValueError):
        prog.padded(1)


def test_replace_is_persistent():
    prog = _prog("movq rdi, rax\naddq rsi, rax")
    new = prog.replace(1, UNUSED)
    assert new.instruction_count == 1
    assert prog.instruction_count == 2      # original untouched


def test_swap():
    prog = _prog("movq rdi, rax\naddq rsi, rax")
    swapped = prog.swap(0, 1)
    assert str(swapped.code[0]) == "addq rsi, rax"
    assert str(swapped.code[1]) == "movq rdi, rax"


def test_compact_remaps_labels():
    prog = Program(
        (parse_instruction("jae .L1"), UNUSED, UNUSED,
         parse_instruction("movq rax, rbx")),
        {".L1": 3})
    compacted = prog.compact()
    assert compacted.labels[".L1"] == 1
    assert len(compacted) == 2


def test_label_out_of_range_rejected():
    with pytest.raises(AsmSyntaxError):
        Program((parse_instruction("movq rax, rbx"),), {".L0": 5})


def test_instruction_def_use_sets():
    instr = parse_instruction("addq rsi, rax")
    reads = {r.name for r in instr.regs_read}
    writes = {r.name for r in instr.regs_written}
    assert reads == {"rsi", "rax"}
    assert writes == {"rax"}
    assert instr.flags_touched == {"CF", "ZF", "SF", "OF", "PF"}
    assert instr.flags_defined == {"CF", "ZF", "SF", "OF", "PF"}


def test_memory_def_use():
    load = parse_instruction("movq -8(rsp), rax")
    assert load.reads_memory and not load.writes_memory
    store = parse_instruction("movq rax, -8(rsp)")
    assert store.writes_memory and not store.reads_memory
    lea = parse_instruction("leaq -8(rsp), rax")
    assert not lea.reads_memory and not lea.writes_memory


def test_implicit_reg_use_on_widening_mul():
    widening = parse_instruction("mulq rsi")
    assert {r.name for r in widening.regs_written} == {"rax", "rdx"}
    two_op = parse_instruction("imulq rsi, rax")
    assert {r.name for r in two_op.regs_written} == {"rax"}


def test_unused_token():
    assert is_unused(UNUSED)
    assert UNUSED.regs_read == frozenset()
    assert UNUSED.regs_written == frozenset()
