"""Dead code elimination over rewrites, given the live-output spec.

MCMC leaves behind junk instructions whose effects are dead (they cost
latency, so a longer search would remove them; a liveness pass removes
them immediately). Every DCE result is re-validated by the caller, so
this pass only needs to be *conservative*, never clever.
"""

from __future__ import annotations

from repro.verifier.validator import LiveSpec
from repro.x86.instruction import Instruction, UNUSED, is_unused
from repro.x86.program import Program
from repro.x86.registers import lookup


def _fully_redefines(instr: Instruction, full: str) -> bool:
    """True if the instruction overwrites every bit of ``full``."""
    for reg in instr.regs_written:
        if reg.full != full:
            continue
        if reg.width in (64, 128):
            return True
        if reg.width == 32 and reg.reg_class.value == "gpr":
            return True     # 32-bit writes zero-extend
    return False


def eliminate_dead_code(program: Program, spec: LiveSpec) -> Program:
    """Replace dead instructions with UNUSED (backward liveness).

    Conservative along every axis: any control flow keeps everything
    below it alive; memory stores stay if any later instruction reads
    memory or the spec has live-out memory; sub-register writes never
    kill liveness of the full register.
    """
    if program.has_jumps():
        return program
    live_regs = {lookup(name).full for name in spec.live_out}
    live_flags: set[str] = set()
    memory_live = bool(spec.mem_out)
    code = list(program.code)
    for index in range(len(code) - 1, -1, -1):
        instr = code[index]
        if is_unused(instr):
            continue
        writes = {reg.full for reg in instr.regs_written}
        # an instruction that may touch a live flag is kept, but only
        # the flags it always defines stop being live above it
        useful = bool(writes & live_regs) or \
            bool(instr.flags_touched & live_flags) or \
            (instr.writes_memory and memory_live) or \
            instr.opcode.family in ("div", "idiv")
        if not useful:
            code[index] = UNUSED
            continue
        for full in writes:
            if _fully_redefines(instr, full):
                live_regs.discard(full)        # kill, then gen below
        live_regs.update(reg.full for reg in instr.regs_read)
        live_flags -= instr.flags_defined
        live_flags.update(instr.flags_read)
        if instr.reads_memory:
            memory_live = True
    return Program(tuple(code), dict(program.labels))
