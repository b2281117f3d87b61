"""Testcases: recorded input/output machine-state pairs.

A testcase holds the initial values of the live inputs, the initial
contents of every memory byte the target dereferences, the target's
side effects on the live outputs, and the sandbox derived from the
target's memory accesses (Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.emulator.sandbox import Sandbox
from repro.emulator.state import MachineState
from repro.x86.operands import Mem
from repro.x86.registers import lookup


@dataclass(frozen=True)
class Testcase:
    """One input/expected-output pair.

    Attributes:
        input_regs: live-in register view name -> value.
        input_memory: initial memory bytes (addr -> byte).
        expected_regs: live-out register view name -> expected value.
        expected_memory: addr -> expected byte, for live-out regions.
        valid_addresses: the sandbox address set for rewrites.
    """

    input_regs: tuple[tuple[str, int], ...]
    input_memory: tuple[tuple[int, int], ...]
    expected_regs: tuple[tuple[str, int], ...]
    expected_memory: tuple[tuple[int, int], ...]
    valid_addresses: frozenset[int]

    __test__ = False        # not a pytest test class, despite its name

    def initial_state(self) -> MachineState:
        """A fresh machine state holding this testcase's inputs.

        The prototype state is built once and copied per call; every
        run that goes testcase by testcase starts from such a copy.
        """
        proto = self.__dict__.get("_proto_state")
        if proto is None:
            proto = MachineState()
            for name, value in self.input_regs:
                proto.set_reg(name, value)
            for addr, byte in self.input_memory:
                proto.memory[addr] = byte
            self.__dict__["_proto_state"] = proto
        return proto.copy()

    def sandbox(self) -> Sandbox:
        box = self.__dict__.get("_sandbox")
        if box is None:
            box = Sandbox(self.valid_addresses)
            self.__dict__["_sandbox"] = box
        return box


def build_reg_lookup(input_regs: dict[str, int]) -> dict[str, int]:
    """Full-register name -> value of its first view in ``input_regs``.

    Precomputed once per input set so memory-operand resolution is a
    dictionary probe instead of a linear scan over the live-ins.
    """
    table: dict[str, int] = {}
    for view_name, value in input_regs.items():
        table.setdefault(lookup(view_name).full, value)
    return table


def resolve_mem_out(mem: Mem, input_regs: dict[str, int],
                    reg_lookup: dict[str, int] | None = None) -> int:
    """Evaluate a mem_out addressing expression on testcase inputs."""
    if reg_lookup is None:
        reg_lookup = build_reg_lookup(input_regs)
    addr = mem.disp
    if mem.base is not None:
        addr += _reg_value(mem.base.name, input_regs, reg_lookup)
    if mem.index is not None:
        addr += mem.scale * _reg_value(mem.index.name, input_regs,
                                       reg_lookup)
    return addr & ((1 << 64) - 1)


def _reg_value(name: str, input_regs: dict[str, int],
               reg_lookup: dict[str, int]) -> int:
    if name in input_regs:
        return input_regs[name]
    reg = lookup(name)
    try:
        value = reg_lookup[reg.full]
    except KeyError:
        raise KeyError(
            f"address register {name} has no input value") from None
    return value & ((1 << reg.width) - 1)
