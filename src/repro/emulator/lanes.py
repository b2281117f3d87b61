"""A testcase suite packed into lanes: one machine state for every testcase.

:mod:`repro.emulator.compile` lowers each instruction to lane-form
code. This module builds the state that code runs on: a
:class:`~repro.emulator.state.MachineState` whose register, flag and
memory values are Python ints holding one testcase per lane
(:class:`~repro.emulator.compile.Layout`), while definedness and the
Eq. 11 event counters stay scalar. That only works when every testcase
starts with the same definedness and the same input-memory addresses;
:meth:`LaneSuite.pack` refuses any other suite.

Memory stays byte-addressed by one scalar address per byte. A lane step
raises :class:`~repro.emulator.compile.LaneMiss` when its lanes compute
different addresses (or split on a runtime zero test, such as a zero
shift count in some lanes only), and :class:`LaneSandbox` raises it for
an address that only some testcases' sandboxes allow;
:meth:`LaneSuite.run` then reports that the suite must run one
testcase at a time.
"""

from __future__ import annotations

from typing import Sequence

from repro.emulator.compile import LaneMiss, Layout, Step, layout, state_args
from repro.emulator.state import MachineState, RunEvents


class LaneSandbox:
    """The sandboxes of every lane's testcase, as one policy.

    ``check(addr)`` is True when every lane may dereference ``addr``,
    False when none may (a segfault in every lane), and raises
    :class:`LaneMiss` when the lanes disagree.
    """

    __slots__ = ("check",)

    def __init__(self, valid: Sequence[frozenset[int]]) -> None:
        every = frozenset.intersection(*valid)
        mixed = frozenset.union(*valid) - every
        if not mixed:
            self.check = every.__contains__
            return

        def check(addr: int) -> bool:
            if addr in every:
                return True
            if addr in mixed:
                raise LaneMiss(f"address {addr:#x} valid in some lanes")
            return False
        self.check = check


class LaneSuite:
    """Initial states of a whole suite, packed one testcase per lane.

    Attributes:
        layout: how many lanes, and where each one sits.
        proto: the packed initial state; every run starts from a copy,
            so an unwritten register keeps the very object held here.
        sandbox: the lanes' combined sandbox policy.
    """

    __slots__ = ("layout", "proto", "sandbox")

    def __init__(self, lay: Layout, proto: MachineState,
                 sandbox: LaneSandbox) -> None:
        self.layout = lay
        self.proto = proto
        self.sandbox = sandbox

    @classmethod
    def pack(cls, states: Sequence[MachineState],
             valid: Sequence[frozenset[int]]) -> "LaneSuite | None":
        """Pack initial states (with their sandboxes' valid addresses).

        None when lanes cannot carry the suite: it is empty, or its
        states differ in register or flag definedness or in which
        memory addresses they hold.
        """
        if not states:
            return None
        first = states[0]
        for state in states[1:]:
            if state.reg_defined != first.reg_defined or \
                    state.flag_defined != first.flag_defined or \
                    state.memory.keys() != first.memory.keys():
                return None
        lay = layout(len(states))
        proto = MachineState()
        proto.regs = {name: lay.pack(state.regs[name] for state in states)
                      for name in first.regs}
        proto.reg_defined = dict(first.reg_defined)
        proto.flags = {name: lay.pack(state.flags[name]
                                      for state in states)
                       for name in first.flags}
        proto.flag_defined = dict(first.flag_defined)
        proto.memory = {addr: lay.pack(state.memory[addr]
                                       for state in states)
                        for addr in first.memory}
        return cls(lay, proto, LaneSandbox(valid))

    def run(self, steps: Sequence[Step]) -> MachineState | None:
        """Run lane steps over a fresh copy of the packed suite.

        None when the lanes disagreed (on a memory access or a runtime
        zero test); the partial run touched nothing but its own copy.
        """
        state = self.proto.copy()
        regs, rdef, flags, fdef, mem, events, check = \
            state_args(state, self.sandbox)
        try:
            for step in steps:
                step(regs, rdef, flags, fdef, mem, events, check)
        except LaneMiss:
            return None
        return state

    def lane(self, state: MachineState, index: int) -> MachineState:
        """Lane ``index`` of a packed state, as a plain machine state."""
        lay = self.layout
        single = MachineState.__new__(MachineState)
        single.regs = {name: lay.lane(value, index)
                       for name, value in state.regs.items()}
        single.reg_defined = dict(state.reg_defined)
        single.flags = {name: lay.lane(value, index)
                        for name, value in state.flags.items()}
        single.flag_defined = dict(state.flag_defined)
        single.memory = {addr: lay.lane(value, index)
                         for addr, value in state.memory.items()}
        events = state.events
        single.events = RunEvents(events.sigsegv, events.sigfpe,
                                  events.undef)
        return single
