"""Static instruction latencies: the paper's LATENCY(i) (Eq. 13).

The performance term of the cost function is a *static approximation* of
expected runtime: the sum over instructions of an average latency. Base
latencies live in the opcode table; memory operands add a fixed load or
store penalty, which is what makes the stack-traffic-heavy ``llvm -O0``
code expensive under the heuristic, exactly as in the paper.
"""

from __future__ import annotations

from repro.x86.instruction import Instruction, is_unused
from repro.x86.program import Program

MEM_READ_PENALTY = 3
"""Extra cycles charged for a memory read operand."""

MEM_WRITE_PENALTY = 2
"""Extra cycles charged for a memory write operand."""


def instruction_latency(instr: Instruction) -> int:
    """The average latency LATENCY(i) charged to one instruction.

    Cached on the instruction instance, which the MCMC inner loop's
    program snapshots share, so the cache hit rate is very high and the
    cache dies with its instruction.
    """
    latency = instr.__dict__.get("_latency")
    if latency is None:
        if is_unused(instr):
            latency = 0
        else:
            latency = instr.opcode.latency
            if instr.reads_memory:
                latency += MEM_READ_PENALTY
            if instr.writes_memory:
                latency += MEM_WRITE_PENALTY
        instr.__dict__["_latency"] = latency
    return latency


def program_latency(prog: Program) -> int:
    """The paper's H(f): total static latency of a program (Eq. 13)."""
    total = 0
    for instr in prog.code:
        latency = instr.__dict__.get("_latency")
        total += instruction_latency(instr) if latency is None else latency
    return total
