"""Dead code elimination tests, including behavior preservation."""

import os
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulator.cpu import Emulator
from repro.emulator.sandbox import Sandbox
from repro.emulator.state import MachineState
from repro.search.config import SearchConfig
from repro.search.dce import eliminate_dead_code
from repro.search.moves import MoveGenerator
from repro.verifier.validator import LiveSpec
from repro.x86.parser import parse_program
from repro.x86.registers import GPR64

SPEC = LiveSpec(live_in=("rdi", "rsi"), live_out=("rax",))

#: How many generator seeds the live-out loop below replays: a few
#: hundred by default, the 10,001 of the original sweep in CI, through
#: the fuzz suite's program budget.
SEED_BUDGET = int(os.environ.get("REPRO_FUZZ_PROGRAMS", "500"))


def test_removes_dead_register_write():
    prog = parse_program("""
        movq rdi, rax
        movq rsi, rbx
    """)
    cleaned = eliminate_dead_code(prog, SPEC).compact()
    assert cleaned.instruction_count == 1
    assert str(cleaned.code[0]) == "movq rdi, rax"


def test_keeps_chain_feeding_live_out():
    prog = parse_program("""
        movq rdi, rbx
        addq rsi, rbx
        movq rbx, rax
    """)
    cleaned = eliminate_dead_code(prog, SPEC).compact()
    assert cleaned.instruction_count == 3


def test_removes_dead_flag_writes():
    prog = parse_program("""
        cmpq rsi, rdi
        movq rdi, rax
    """)
    cleaned = eliminate_dead_code(prog, SPEC).compact()
    assert cleaned.instruction_count == 1


def test_keeps_flags_feeding_cmov():
    prog = parse_program("""
        cmpq rsi, rdi
        cmovaeq rsi, rax
    """)
    cleaned = eliminate_dead_code(prog, SPEC).compact()
    assert cleaned.instruction_count == 2


def test_store_kept_when_loaded_later():
    prog = parse_program("""
        movq rdi, -8(rsp)
        movq -8(rsp), rax
    """)
    cleaned = eliminate_dead_code(prog, SPEC).compact()
    assert cleaned.instruction_count == 2


def test_dead_store_removed_when_memory_not_live():
    prog = parse_program("""
        movq rdi, rax
        movq rsi, -8(rsp)
    """)
    cleaned = eliminate_dead_code(prog, SPEC).compact()
    assert cleaned.instruction_count == 1


def test_sub_register_write_does_not_kill_liveness():
    prog = parse_program("""
        movq rdi, rax
        movb 1, al
    """)
    cleaned = eliminate_dead_code(prog, SPEC).compact()
    assert cleaned.instruction_count == 2      # both contribute to rax


def test_jumpy_programs_left_alone():
    prog = parse_program("""
        jae .L1
        movq rsi, rbx
        .L1
        movq rdi, rax
    """)
    assert eliminate_dead_code(prog, SPEC) is prog


def _draw(seed):
    """The generator's program for ``seed``, and its rng for inputs."""
    rng = random.Random(seed)
    moves = MoveGenerator(parse_program("movq rdi, rax"),
                          SearchConfig(ell=10), rng)
    return moves.random_program(10), rng


def _rax_after(prog, inputs):
    state = MachineState()
    for name, value in inputs.items():
        state.set_reg(name, value)
    state.mark_all_defined()
    Emulator(state, Sandbox.recorder()).run(prog)
    return state.get_reg("rax")


def _dce_keeps_rax(seed):
    prog, rng = _draw(seed)
    cleaned = eliminate_dead_code(prog, SPEC)
    inputs = {reg.name: rng.getrandbits(64) for reg in GPR64}
    return _rax_after(prog, inputs) == _rax_after(cleaned, inputs)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_dce_preserves_live_out_behavior(seed):
    """Random programs: DCE must not change the live outputs."""
    prog, _ = _draw(seed)
    if any(i.opcode.family in ("mul", "imul", "div", "idiv")
           for i in prog.code):
        return
    assert _dce_keeps_rax(seed), f"DCE changed rax on:\n{prog}"


def test_dce_preserves_live_out_on_generator_seeds():
    """The same property, deterministically, on the first
    ``SEED_BUDGET`` generator seeds, widening ops included."""
    failing = [seed for seed in range(SEED_BUDGET)
               if not _dce_keeps_rax(seed)]
    assert not failing, f"DCE changed rax for seeds {failing[:20]}"


#: Generator seeds whose programs exposed DCE killing flags that an
#: instruction may leave untouched (undefined flags, zero shift counts).
#: The printed programs are pinned so a generator change cannot quietly
#: retire the regression.
FLAG_KILL_SEEDS = {
    405: ("addq rdx, r12", "cmovncl r10d, r12d", "cmovpew r9w, r15w",
          "setc r15b", "adcl ecx, r8d", "pshufd 63, xmm10, xmm2",
          "salb bl", "psubb xmm15, xmm13", "movzbl dl, r10d",
          "cmovol r13d, eax"),
    1619: ("subl r8d, edx", "bsrl r15d, ecx", "cmovpoq r13, r12",
           "setnbe bl", "cmovpl r8d, ebp", "cmovael r15d, eax",
           "cmovnbeq r15, rdi", "setg r14b", "movw 65535, r9w",
           "incq r10"),
    1665: ("cmovpel r8d, eax", "orl 63, r11d", "cmovnael esp, ebp",
           "cmovaw ax, r9w", "andb 255, r11b", "lzcntq r14, rbp",
           "cmovpeq rax, r9", "psllq 0, xmm1", "bsfq rdx, r8",
           "cmovll r12d, eax"),
    2595: ("cmovzl edx, edx", "cmovnll r15d, r8d", "cmpb al, r13b",
           "paddb xmm5, xmm1", "movzwl dx, r13d", "addq rcx, rbx",
           "movsbw r13b, di", "shrb 64, r11b", "seta al",
           "bsrq r9, rbx"),
}


def test_dce_keeps_writers_of_flags_left_untouched():
    """The seeds above, replayed exactly as the property test draws
    them: each program must survive DCE with rax unchanged."""
    for seed, pinned in FLAG_KILL_SEEDS.items():
        prog, _ = _draw(seed)
        assert tuple(str(instr) for instr in prog.code) == pinned
        assert _dce_keeps_rax(seed), \
            f"DCE changed rax for seed {seed}:\n{prog}"


def test_rotate_does_not_kill_overflow_flag():
    """Rotates write only CF, so the add's OF still reaches cmovo; the
    rotate itself touches only CF and a dead rcx, so it goes."""
    prog = parse_program("""
        movq rdi, rax
        addq rsi, rbx
        rolq 3, rcx
        cmovoq rsi, rax
    """)
    cleaned = [str(i) for i in eliminate_dead_code(prog, SPEC).compact().code]
    assert "addq rsi, rbx" in cleaned
    assert "cmovoq rsi, rax" in cleaned
    assert "rolq 3, rcx" not in cleaned


def test_zero_count_shift_kills_no_flags():
    """``shrb 64, r11b`` masks its count to zero and writes no flag."""
    prog = parse_program("""
        cmpq rsi, rdi
        shrb 64, r11b
        cmovaq rsi, rax
    """)
    cleaned = eliminate_dead_code(prog, SPEC).compact()
    assert str(cleaned.code[0]) == "cmpq rsi, rdi"


def test_zero_count_shift_into_dead_register_is_removed():
    """``shrb 64, r11b`` writes no flag and only a dead r11b; its OF,
    left undefined, is not live either."""
    prog = parse_program("""
        cmpq rsi, rdi
        shrb 64, r11b
        cmovaq rsi, rax
    """)
    cleaned = [str(i) for i in eliminate_dead_code(prog, SPEC).compact().code]
    assert cleaned == ["cmpq rsi, rdi", "cmovaq rsi, rax"]
