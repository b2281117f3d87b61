"""A micro-op level performance model: the "actual runtime" oracle.

The paper measures real hardware runtimes; this environment has none,
so the substitute is a dependence-aware list scheduler that models what
distinguishes actual runtimes from the static latency heuristic of
Eq. 13: instruction-level parallelism. Independent instructions overlap
(bounded by issue width and functional-unit ports), so a long chain of
dependent adds costs its full latency sum while four independent
multiplies pipeline — reproducing exactly the correlated-with-outliers
shape of Figure 3.

Dependences are tracked through full registers, flags, and memory
(loads depend on earlier stores, stores on earlier accesses; addresses
are not disambiguated, which is conservative but stable).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.x86.instruction import Instruction, is_unused
from repro.x86.latency import instruction_latency
from repro.x86.program import Program

ISSUE_WIDTH = 4
"""Maximum instructions issued per cycle."""

#: Functional-unit port counts by resource class.
PORT_COUNTS = {"mul": 1, "mem": 2, "alu": 4}


def _resource_class(instr: Instruction) -> str:
    if instr.opcode.family in ("mul", "imul", "div", "idiv", "pmull",
                               "pmuludq"):
        return "mul"
    if instr.reads_memory or instr.writes_memory:
        return "mem"
    return "alu"


@dataclass
class ScheduleResult:
    """Outcome of scheduling one program.

    Attributes:
        cycles: the modeled makespan ("actual runtime" in cycles).
        latency_sum: the static heuristic H(f) for comparison.
        ilp: latency_sum / cycles — instructions' average overlap.
    """

    cycles: int
    latency_sum: int
    ilp: float


def simulate_cycles(prog: Program) -> ScheduleResult:
    """Schedule ``prog`` and return its modeled runtime in cycles."""
    ready_time: dict[str, int] = {}        # full reg/flag -> ready cycle
    mem_write_time = 0                     # last store completion
    mem_access_time = 0                    # last load or store issue
    port_free: dict[str, list[int]] = {
        name: [0] * count for name, count in PORT_COUNTS.items()
    }
    issued_in_cycle: dict[int, int] = {}
    makespan = 0
    latency_sum = 0

    for instr in prog.code:
        if is_unused(instr) or instr.is_jump:
            continue
        latency = instruction_latency(instr)
        latency_sum += latency

        depends = 0
        for reg in instr.regs_read:
            depends = max(depends, ready_time.get(reg.full, 0))
        for flag in instr.flags_read:
            depends = max(depends, ready_time.get(flag, 0))
        if instr.reads_memory:
            depends = max(depends, mem_write_time)
        if instr.writes_memory:
            depends = max(depends, mem_access_time)

        resource = _resource_class(instr)
        ports = port_free[resource]
        port_index = min(range(len(ports)), key=ports.__getitem__)
        start = max(depends, ports[port_index])
        while issued_in_cycle.get(start, 0) >= ISSUE_WIDTH:
            start += 1
        issued_in_cycle[start] = issued_in_cycle.get(start, 0) + 1
        ports[port_index] = start + 1          # port busy one cycle
        finish = start + latency

        for reg in instr.regs_written:
            ready_time[reg.full] = finish
        for flag in instr.flags_touched:
            ready_time[flag] = finish
        if instr.writes_memory:
            mem_write_time = max(mem_write_time, finish)
        if instr.reads_memory or instr.writes_memory:
            mem_access_time = max(mem_access_time, start + 1)
        makespan = max(makespan, finish)

    ilp = latency_sum / makespan if makespan else 1.0
    return ScheduleResult(cycles=makespan, latency_sum=latency_sum,
                          ilp=ilp)


def actual_runtime(prog: Program) -> int:
    """Convenience accessor used by the re-ranking stage (Figure 9)."""
    return simulate_cycles(prog).cycles
