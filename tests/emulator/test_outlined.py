"""Outlined helpers: one shared stencil per helper and static argument.

:func:`repro.x86.semantics.outlined` marks the semantic helpers that
the compiler records once, per width or per condition code, and that
every step calls in one line. These tests hold each helper stencil to
the reference: exhaustively at 8 bits, 16 lanes at a time, against the
same helper run on the reference :class:`Emulator` over
``INT_ALGEBRA``. Then the point of outlining: the condition code is no
longer part of a ``cmov`` or ``set`` shape, so all 16 codes bind one
code object per width and operand kinds, and still run bit for bit as
the reference does.
"""

from __future__ import annotations

import itertools

import pytest

from repro.emulator import compile as compile_module
from repro.emulator.compile import compiled_step, layout, state_args
from repro.emulator.cpu import Emulator
from repro.emulator.sandbox import Sandbox
from repro.emulator.state import MachineState, RunEvents
from repro.x86 import semantics
from repro.x86.isa import CONDITION_CODES
from repro.x86.parser import parse_instruction
from repro.x86.registers import FLAG_NAMES

LANES = layout(16)
CCS = sorted(set(CONDITION_CODES.values()))


def _stencil(helper, key, nones):
    """``helper``'s stencil for ``key``, bound for :data:`LANES`."""
    fn, state, _result = compile_module._helper(helper.__wrapped__, key,
                                                nones)
    assert fn.__code__ is compile_module._helper(
        helper.__wrapped__, key, nones)[0].__code__       # compiled once
    return compile_module._for_layout(fn, LANES), state


def _reference():
    return Emulator(MachineState(), Sandbox())


def _chunks(cases):
    for start in range(0, len(cases), LANES.lanes):
        yield cases[start:start + LANES.lanes]


def _lanes(packed, count):
    return [LANES.lane(packed, index) for index in range(count)]


@pytest.mark.parametrize("carry", (False, True), ids=("plain", "carry"))
@pytest.mark.parametrize("helper", (semantics._add_with_carry,
                                    semantics._sub_with_borrow),
                         ids=lambda helper: helper.__name__)
def test_arithmetic_stencil_exhaustive_at_8_bits(helper, carry):
    stencil, state = _stencil(helper, 8, (False, False, not carry))
    assert state == ()                                  # a pure helper
    cases = list(itertools.product(range(256), range(256),
                                   *[(0, 1)] if carry else []))
    reference = _reference()
    for chunk in _chunks(cases):
        got = stencil(*(LANES.pack(column) for column in zip(*chunk)))
        got = list(zip(*(_lanes(value, len(chunk)) for value in got)))
        want = [helper(reference, 8, *case, *[] if carry else [None])
                for case in chunk]
        assert got == want, chunk


def test_result_flags_stencil_exhaustive_at_8_bits():
    stencil, state = _stencil(semantics._write_result_flags, 8, (False,))
    assert state == ("flags", "fdef")
    reference = _reference()
    for chunk in _chunks(list(range(256))):
        flags, fdef = {}, {}
        stencil(flags, fdef, LANES.pack(chunk))
        for index, value in enumerate(chunk):
            semantics._write_result_flags(reference, 8, value)
            want = reference.state
            assert {name: LANES.lane(lane, index)
                    for name, lane in flags.items()} == \
                {name: want.flags[name] for name in flags}, value
            assert fdef == {name: want.flag_defined[name]
                            for name in fdef}
        assert sorted(flags) == ["PF", "SF", "ZF"]


@pytest.mark.parametrize("cc", CCS)
def test_condition_code_stencil_exhaustive(cc):
    """Every flag value and every flag definedness (which decides the
    undefined-read events), lane by lane."""
    stencil, state = _stencil(semantics.cc_value, cc, ())
    assert state == ("flags", "fdef", "events")
    values = list(itertools.product((0, 1), repeat=len(FLAG_NAMES)))
    for defined in itertools.product((False, True), repeat=len(FLAG_NAMES)):
        fdef = dict(zip(FLAG_NAMES, defined))
        for chunk in _chunks(values):
            flags = {name: LANES.pack(column)
                     for name, column in zip(FLAG_NAMES, zip(*chunk))}
            events = RunEvents()
            got = _lanes(stencil(flags, fdef, events), len(chunk))
            for lane, value in zip(got, chunk):
                reference = _reference()
                reference.state.flags.update(zip(FLAG_NAMES, value))
                reference.state.flag_defined.update(fdef)
                assert lane == semantics.cc_value(reference, cc), value
                # definedness is scalar: every lane counts the same
                assert events.undef == reference.state.events.undef


CC_FAMILIES = ["cmov{}w si, ax", "cmov{}l esi, eax", "cmov{}q rsi, rax",
               "set{} al", "set{} dil"]


@pytest.mark.parametrize("template", CC_FAMILIES)
def test_condition_codes_share_one_code_object(template, monkeypatch):
    for name in ("_STRUCTURAL_CACHE", "_SHAPE_CACHE"):
        monkeypatch.setattr(compile_module, name, {})
    instrs = [parse_instruction(template.format(cc)) for cc in CCS]
    steps = [compiled_step(instr) for instr in instrs]
    assert len({step.__code__ for step in steps}) == 1
    assert len(compile_module._SHAPE_CACHE) == 1
    for instr, step in zip(instrs, steps):
        for flags in range(1 << len(FLAG_NAMES)):
            state = MachineState()
            state.mark_all_defined()
            state.regs.update(rax=0x1122334455667788, rsi=0x99AABBCCDDEEFF00,
                              rdi=0x0F0E0D0C0B0A0908)
            state.flags.update((name, flags >> bit & 1)
                               for bit, name in enumerate(FLAG_NAMES))
            state.flag_defined["OF"] = bool(flags & 1)
            reference = state.copy()
            semantics.execute(instr, Emulator(reference, Sandbox()))
            step(*state_args(state, Sandbox()))
            assert (state.regs, state.reg_defined, state.events) == \
                (reference.regs, reference.reg_defined,
                 reference.events), str(instr)


def test_constant_arguments_inline_the_helper():
    """``xorq rax, rax`` writes constant flags: nothing to call."""
    code = compiled_step(parse_instruction("xorq rax, rax")).__code__
    assert not any(name.startswith("F")
                   for name in code.co_varnames[:code.co_argcount])
