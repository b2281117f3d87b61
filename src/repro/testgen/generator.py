"""Testcase generation by instrumented execution (Section 5.1).

This plays the role of the paper's PinTool step: run the *target* on
annotation-derived random inputs under a recording sandbox, capture the
dereferenced addresses and the live outputs, and package everything as
:class:`~repro.testgen.testcase.Testcase` objects. Counterexamples from
the validator go through the same packaging.
"""

from __future__ import annotations

import random

from repro.emulator.cpu import Emulator
from repro.emulator.sandbox import Sandbox
from repro.emulator.state import MachineState
from repro.errors import EmulationError
from repro.testgen.annotations import (ARENA_BASE, ARENA_STRIDE,
                                       Annotations, ConstantInput,
                                       PointerInput,
                                       RandomInput, RangeInput)
from repro.testgen.testcase import (Testcase, build_reg_lookup,
                                    resolve_mem_out)
from repro.verifier.validator import Counterexample, LiveSpec
from repro.x86.program import Program
from repro.x86.registers import lookup

DEFAULT_TESTCASE_COUNT = 32
"""The paper's default: 32 testcases per target."""

STACK_BASE = 0x7FFF_F000_0000
"""Initial stack pointer: pinned by the calling convention, so it is an
implicit live input unless the annotations say otherwise."""


class TestcaseGenerator:
    """Generates testcases for a target program."""

    __test__ = False        # not a pytest test class, despite its name

    def __init__(self, target: Program, spec: LiveSpec,
                 annotations: Annotations, *,
                 seed: int = 0) -> None:
        self.target = target
        self.spec = spec
        self.annotations = annotations
        self.rng = random.Random(seed)

    def generate(self, count: int = DEFAULT_TESTCASE_COUNT) \
            -> list[Testcase]:
        """Random testcases from annotation-sampled inputs."""
        return [self._record(self._sample_inputs())
                for _ in range(count)]

    def from_counterexample(self, cex: Counterexample) -> Testcase:
        """Package a validator counterexample as a testcase."""
        input_regs = {name: cex.registers.get(name, 0)
                      for name in self.spec.live_in}
        if "rsp" not in input_regs:
            input_regs["rsp"] = cex.registers.get("rsp", STACK_BASE)
        return self._record((input_regs, dict(cex.memory)))

    def refutes(self, rewrite: Program, cex: Counterexample) -> bool:
        """Whether the reference emulator tells the target and
        ``rewrite`` apart from ``cex``'s initial state.

        False marks a spurious refutation: a model of an abstraction in
        the validator's query (an uninterpreted function) that no run of
        the two programs reproduces.
        """
        testcase = self.from_counterexample(cex)
        state = testcase.initial_state()
        Emulator(state, Sandbox.recorder()).run(rewrite)
        got_regs = tuple(sorted((name, state.get_reg(name))
                                for name in self.spec.live_out))
        got_memory = tuple((addr, state.memory.get(addr, 0))
                           for addr, _ in testcase.expected_memory)
        return state.events.sigfpe or \
            (got_regs, got_memory) != (testcase.expected_regs,
                                       testcase.expected_memory)

    # -- input sampling -------------------------------------------------------

    def _sample_inputs(self) -> tuple[dict[str, int], dict[int, int]]:
        regs: dict[str, int] = {}
        memory: dict[int, int] = {}
        arena_next = ARENA_BASE
        if "rsp" not in self.spec.live_in:
            regs["rsp"] = STACK_BASE
        for name in self.spec.live_in:
            kind = self.annotations.inputs.get(name, RandomInput())
            width = lookup(name).width
            if isinstance(kind, ConstantInput):
                regs[name] = kind.value & ((1 << width) - 1)
            elif isinstance(kind, RangeInput):
                regs[name] = self.rng.randint(kind.lo, kind.hi)
            elif isinstance(kind, PointerInput):
                base = (arena_next + kind.align - 1) & ~(kind.align - 1)
                arena_next = base + kind.size + ARENA_STRIDE
                regs[name] = base
                for offset in range(kind.size):
                    memory[base + offset] = self.rng.getrandbits(8)
            else:
                value = self.rng.getrandbits(width)
                if isinstance(kind, RandomInput) and kind.mask is not None:
                    value &= kind.mask
                regs[name] = value
        return regs, memory

    # -- recording --------------------------------------------------------------

    def _record(self, inputs: tuple[dict[str, int], dict[int, int]]) \
            -> Testcase:
        input_regs, input_memory = inputs
        state = MachineState()
        for name, value in input_regs.items():
            state.set_reg(name, value)
        for addr, byte in input_memory.items():
            state.memory[addr] = byte
        recorder = Sandbox.recorder()
        emulator = Emulator(state, recorder)
        emulator.run(self.target)
        if state.events.sigfpe:
            raise EmulationError(
                "target faulted on generated inputs; refine annotations")
        expected_regs = {name: state.get_reg(name)
                         for name in self.spec.live_out}
        expected_memory: dict[int, int] = {}
        reg_lookup = build_reg_lookup(input_regs)
        for mem, nbytes in self.spec.mem_out:
            base = resolve_mem_out(mem, input_regs, reg_lookup)
            for i in range(nbytes):
                addr = (base + i) & ((1 << 64) - 1)
                expected_memory[addr] = state.memory.get(addr, 0)
        valid = frozenset(recorder.accessed) | frozenset(input_memory)
        return Testcase(
            input_regs=tuple(sorted(input_regs.items())),
            input_memory=tuple(sorted(input_memory.items())),
            expected_regs=tuple(sorted(expected_regs.items())),
            expected_memory=tuple(sorted(expected_memory.items())),
            valid_addresses=valid,
        )
