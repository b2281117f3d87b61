"""Machine state: registers, flags, sparse memory, undefinedness, events.

The state tracks *definedness* at byte granularity for registers and at
byte granularity for memory, because the paper's err(·) term (Eq. 11)
penalizes reads from undefined registers or memory, and the sandbox must
detect them rather than crash.

Runtime events (segfaults, floating point exceptions, undefined reads)
are counted, not raised: the cost function consumes the counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.x86.registers import (FLAG_NAMES, REGISTERS, RegClass, Register,
                                 lookup)

_GPR_FULL = tuple(sorted({r.full for r in REGISTERS.values()
                          if r.reg_class is RegClass.GPR}))
_XMM_FULL = tuple(f"xmm{i}" for i in range(16))


@dataclass
class RunEvents:
    """Counters for the sandboxed runtime events of Eq. 11."""

    sigsegv: int = 0
    sigfpe: int = 0
    undef: int = 0

    def total(self) -> int:
        return self.sigsegv + self.sigfpe + self.undef

    def clear(self) -> None:
        self.sigsegv = 0
        self.sigfpe = 0
        self.undef = 0


class MachineState:
    """Registers, flags, and sparse byte-addressed memory.

    Attributes:
        regs: full-register values (GPRs as 64-bit ints, xmm as 128-bit).
        reg_defined: per-register bitmask of defined bytes.
        flags: flag values (0/1).
        flag_defined: per-flag definedness.
        memory: written/initialized memory bytes, keyed by address.
        events: runtime event counters for the current run.
    """

    __slots__ = ("regs", "reg_defined", "flags", "flag_defined",
                 "memory", "events")

    def __init__(self) -> None:
        self.regs: dict[str, int] = {name: 0 for name in _GPR_FULL}
        self.regs.update({name: 0 for name in _XMM_FULL})
        self.reg_defined: dict[str, int] = {name: 0 for name in self.regs}
        self.flags: dict[str, int] = {name: 0 for name in FLAG_NAMES}
        self.flag_defined: dict[str, bool] = \
            {name: False for name in FLAG_NAMES}
        self.memory: dict[int, int] = {}
        self.events = RunEvents()

    # -- construction helpers ---------------------------------------------------

    def copy(self) -> "MachineState":
        other = MachineState.__new__(MachineState)
        other.regs = dict(self.regs)
        other.reg_defined = dict(self.reg_defined)
        other.flags = dict(self.flags)
        other.flag_defined = dict(self.flag_defined)
        other.memory = dict(self.memory)
        other.events = RunEvents()
        return other

    def set_reg(self, name: str, value: int) -> None:
        """Define a register (by any view name) with a concrete value."""
        reg = lookup(name)
        width_mask = (1 << reg.width) - 1
        if reg.is_full:
            self.regs[reg.full] = value & width_mask
        elif reg.width == 32:
            self.regs[reg.full] = value & width_mask
        else:
            old = self.regs[reg.full]
            self.regs[reg.full] = (old & ~width_mask) | (value & width_mask)
        self.mark_defined(reg)

    def get_reg(self, name: str) -> int:
        """Read a register view's value without definedness tracking."""
        reg = lookup(name)
        return self.regs[reg.full] & ((1 << reg.width) - 1)

    def set_mem_bytes(self, addr: int, data: bytes) -> None:
        for i, byte in enumerate(data):
            self.memory[(addr + i) & ((1 << 64) - 1)] = byte

    def set_mem_value(self, addr: int, nbytes: int, value: int) -> None:
        self.set_mem_bytes(addr, value.to_bytes(nbytes, "little"))

    def get_mem_value(self, addr: int, nbytes: int) -> int:
        data = bytes(self.memory.get((addr + i) & ((1 << 64) - 1), 0)
                     for i in range(nbytes))
        return int.from_bytes(data, "little")

    # -- definedness ----------------------------------------------------------------

    def mark_defined(self, reg: Register) -> None:
        if reg.reg_class is RegClass.GPR and reg.width == 32:
            self.reg_defined[reg.full] = 0xFF     # 32-bit writes zero-extend
        else:
            nbytes = reg.byte_width
            self.reg_defined[reg.full] |= (1 << nbytes) - 1

    def is_defined(self, reg: Register) -> bool:
        nbytes = reg.byte_width
        needed = (1 << nbytes) - 1
        return (self.reg_defined[reg.full] & needed) == needed

    def mark_all_defined(self) -> None:
        """Mark every register and flag defined (useful in tests)."""
        for name in self.reg_defined:
            width = 16 if name.startswith("xmm") else 8
            self.reg_defined[name] = (1 << width) - 1
        for name in self.flag_defined:
            self.flag_defined[name] = True
