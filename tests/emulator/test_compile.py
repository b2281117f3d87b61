"""Differential tests: the compiled evaluator vs the reference emulator.

The compiled fast path is only admissible because it is bit-identical
to the reference: same final registers, flags, memory, definedness
*and* the same Eq. 11 event counters, for every program it may see.
These tests check that over the whole benchmark suite (every
compilation of every kernel x generated testcases), over randomized
programs drawn from the proposal distribution with a fixed seed, and
at the cost-function level, where a stream of candidates must score
exactly as under the reference. Instructions that share a compiled
shape are checked one by one on a warm shape cache, since each runs
code that was compiled for a sibling. One test also holds the fast
path to its reason to exist: a p01 chain makes the same decisions
under both evaluators (and with lane runs turned off), and the
compiled one makes them no slower. ``test_lanes.py`` covers the lane
form itself.
"""

from __future__ import annotations

import random

import pytest

from repro.cost.correctness import CostWeights
from repro.cost.correctness import testcase_cost as eq_cost
from repro.cost.function import CostFunction, Phase
from repro.emulator import compile as compile_module
from repro.emulator.compile import (COUNTERS, compile_program,
                                    compiled_step, state_args)
from repro.emulator.cpu import Emulator
from repro.emulator.lanes import LaneSuite
from repro.emulator.sandbox import Sandbox
from repro.emulator.state import MachineState
from repro.errors import StepLimitExceeded
from repro.search.config import SearchConfig
from repro.search.mcmc import MCMCSampler
from repro.search.moves import MoveGenerator
from repro.suite.registry import all_benchmarks, benchmark
from repro.testgen.generator import TestcaseGenerator
from repro.x86.parser import parse_instruction, parse_program
from repro.x86.semantics import execute


def _snapshot(state: MachineState) -> tuple:
    return (dict(state.regs), dict(state.reg_defined),
            dict(state.flags), dict(state.flag_defined),
            dict(state.memory),
            (state.events.sigsegv, state.events.sigfpe,
             state.events.undef))


def _assert_identical(prog, testcase) -> None:
    reference = testcase.initial_state()
    Emulator(reference, testcase.sandbox()).run(prog)
    compiled = testcase.initial_state()
    compile_program(prog).run(compiled, testcase.sandbox())
    assert _snapshot(reference) == _snapshot(compiled), str(prog)
    weights = CostWeights()
    assert eq_cost(reference, testcase, weights) == \
        eq_cost(compiled, testcase, weights)


def _testcases(bench, count=4, seed=3):
    generator = TestcaseGenerator(bench.o0, bench.spec,
                                  bench.annotations, seed=seed)
    return generator.generate(count)


@pytest.mark.parametrize("bench", all_benchmarks(),
                         ids=lambda b: b.name)
def test_suite_kernels_bit_identical(bench):
    """Every compilation of every kernel, including jumps/div/shifts."""
    testcases = _testcases(bench)
    programs = [bench.o0, bench.gcc, bench.icc]
    if bench.paper_stoke is not None:
        programs.append(bench.paper_stoke)
    for prog in programs:
        for testcase in testcases:
            _assert_identical(prog, testcase)


def test_randomized_programs_bit_identical():
    """Fixed-seed fuzz over the proposal distribution's program space."""
    bench = benchmark("p14")
    testcases = _testcases(bench, count=3, seed=0)
    rng = random.Random(20260727)
    moves = MoveGenerator(bench.o0, SearchConfig(ell=12), rng)
    for _ in range(200):
        prog = moves.random_program()
        for testcase in testcases:
            _assert_identical(prog, testcase)


def test_mutated_chain_programs_bit_identical():
    """A proposal chain (shared instruction objects, warm caches)."""
    bench = benchmark("p18")
    testcases = _testcases(bench, count=2, seed=1)
    rng = random.Random(7)
    config = SearchConfig(ell=36)
    moves = MoveGenerator(bench.o0, config, rng)
    prog = bench.o0.compact().padded(config.ell)
    for _ in range(120):
        prog, _kind = moves.propose(prog)
        for testcase in testcases:
            _assert_identical(prog, testcase)


def test_candidate_stream_costs_match_reference():
    """One compiled CostFunction scores a stream of candidates (lane
    runs and one-testcase-at-a-time runs alike) exactly as the
    reference evaluator does: nothing leaks between candidates."""
    bench = benchmark("p12")
    testcases = _testcases(bench, count=6, seed=2)
    compiled_fn = CostFunction(testcases, bench.o0,
                               phase=Phase.OPTIMIZATION,
                               evaluator="compiled")
    reference_fn = CostFunction(testcases, bench.o0,
                                phase=Phase.OPTIMIZATION,
                                evaluator="reference")
    rng = random.Random(13)
    moves = MoveGenerator(bench.o0, SearchConfig(ell=24), rng)
    candidates = [bench.o0.compact().padded(24), bench.gcc.padded(24)]
    candidates += [moves.random_program() for _ in range(60)]
    for candidate in candidates:
        compiled = compiled_fn.evaluate(candidate)
        reference = reference_fn.evaluate(candidate)
        assert compiled.value == reference.value, str(candidate)
        assert compiled.eq_term == reference.eq_term


def _p01_chain(evaluator, proposals=1_000):
    """One synthesis chain on p01 over the paper's 32 testcases."""
    bench = benchmark("p01")
    testcases = _testcases(bench, count=32, seed=0)
    cost = CostFunction(testcases, bench.o0, phase=Phase.SYNTHESIS,
                        evaluator=evaluator)
    config = SearchConfig(ell=10, beta=0.2)
    rng = random.Random(11)
    moves = MoveGenerator(bench.o0, config, rng)
    sampler = MCMCSampler(cost, moves, moves.random_program(),
                          beta=config.beta, rng=rng)
    return sampler.run(proposals)


def _decisions(chain) -> tuple:
    return (chain.best_cost, chain.current_cost, chain.stats.accepted,
            chain.stats.testcases_evaluated)


def test_compiled_chain_outpaces_reference(monkeypatch):
    """The compiled evaluator's reason to exist: the same chain, with
    the same decisions, at no fewer proposals per second.

    One unmeasured compiled pass pays every tier-up first (the
    measured pass proposes the same instruction stream), so the floor
    compares steady states. The chain also runs with every suite
    refused by the lane packer, so every candidate goes one testcase at
    a time: it must make the same decisions as the lane runs.
    """
    reference = _p01_chain("reference")
    _p01_chain("compiled")
    runs = COUNTERS.lane_runs
    compiled = _p01_chain("compiled")
    assert COUNTERS.lane_runs > runs
    assert _decisions(compiled) == _decisions(reference)
    assert compiled.stats.proposals_per_second >= \
        reference.stats.proposals_per_second
    monkeypatch.setattr(LaneSuite, "pack",
                        classmethod(lambda cls, states, valid: None))
    runs = COUNTERS.lane_runs
    one_lane = _p01_chain("compiled")
    assert COUNTERS.lane_runs == runs
    assert _decisions(one_lane) == _decisions(compiled)


def test_jump_programs_take_both_branches():
    prog = parse_program("""
        cmpq rsi, rdi
        je .L1
        movq rsi, rax
        jmp .L2
        .L1
        movq rdi, rax
        .L2
        addq rdi, rax
    """)
    for rdi, rsi in ((5, 5), (5, 9)):
        state = MachineState()
        state.set_reg("rdi", rdi)
        state.set_reg("rsi", rsi)
        reference = state.copy()
        from repro.emulator.sandbox import Sandbox
        Emulator(reference, Sandbox.recorder()).run(prog)
        compiled = state.copy()
        compile_program(prog).run(compiled, Sandbox.recorder())
        assert _snapshot(reference) == _snapshot(compiled)


def test_step_limit_enforced():
    prog = parse_program("movq rdi, rax\nmovq rax, rbx\n")
    state = MachineState()
    state.mark_all_defined()
    from repro.emulator.sandbox import Sandbox
    with pytest.raises(StepLimitExceeded):
        compile_program(prog).run(state, Sandbox.recorder(), max_steps=1)


# ---------------------------------------------------------------------------
# shapes: one compiled code object per register/constant-renamed family
# ---------------------------------------------------------------------------

#: Each family's members differ only in register names and constants,
#: so they share one shape. High-byte views (``ah``) are not modeled.
SHAPE_FAMILIES = [
    ("addq rdi, rax", "addq rsi, rcx", "addq r9, r15"),
    ("addl edi, eax", "addl esi, ecx", "addl r9d, r15d"),
    ("addw di, ax", "addw si, cx", "addw r9w, r15w"),
    ("addb dil, al", "addb sil, cl", "addb r9b, r15b"),
    ("movl edi, eax", "movl r8d, edx", "movl esp, r12d"),
    ("addq 7, rax", "addq 9, rdx", "addq 123456, r10"),
    ("shlq 3, rax", "shlq 5, rdx", "shlq 17, r11"),
    ("leaq 8(rsi,rcx,4), r8", "leaq 24(rdi,rdx,8), r9",
     "leaq 16(rdi,rax,2), rbx"),
    ("movq 8(rsi), rax", "movq 16(rdi), rdx", "movq 4(rdi), rcx"),
    ("movl (rsi), ecx", "movl 4(rdi), r8d", "movl 12(rsi), eax"),
    ("movq rax, 8(rsi)", "movq rdx, 16(rdi)", "movq rcx, 4(rdi)"),
    ("movb al, 3(rsi)", "movb cl, 7(rdi)", "movb dl, 11(rsi)"),
    ("mulq rsi", "mulq rcx", "mulq r9"),
]

#: Same opcode, different aliasing between operands: different shapes.
ALIASED_PAIRS = [
    ("addq rax, rax", "addq rax, rbx"),
    ("mulq rsi", "mulq rax"),
    ("movq 8(rsi), rsi", "movq 8(rsi), rax"),
]

#: Valid sandbox bytes; only the first 24 hold defined memory, so loads
#: near the end read undefined bytes and accesses past it fault.
_VALID = frozenset(range(0x1000, 0x1020))


def _states(count=4, seed=5):
    """Random machine states with rsi/rdi pointing into the sandbox,
    some register bytes and flags left undefined."""
    rng = random.Random(seed)
    for index in range(count):
        state = MachineState()
        state.mark_all_defined()
        for name in state.regs:
            if not name.startswith("xmm"):
                state.regs[name] = rng.getrandbits(64)
        state.regs["rsi"] = 0x1000
        state.regs["rdi"] = 0x1000 + 4 * index
        state.reg_defined["rcx"] = 0x0F
        for name in state.flags:
            state.flags[name] = rng.getrandbits(1)
            state.flag_defined[name] = bool(rng.getrandbits(1))
        state.set_mem_bytes(0x1000, bytes(rng.getrandbits(8)
                                          for _ in range(24)))
        yield state


def _assert_step_identical(instr, step):
    for state in _states():
        reference = state.copy()
        execute(instr, Emulator(reference, Sandbox(_VALID)))
        compiled = state.copy()
        step(*state_args(compiled, Sandbox(_VALID)))
        assert _snapshot(reference) == _snapshot(compiled), str(instr)


def _shape(text):
    builder = compile_module._SourceBuilder()
    builder.record(parse_instruction(text))
    return builder.shape()


@pytest.fixture
def cold_caches(monkeypatch):
    for name in ("_STRUCTURAL_CACHE", "_SHAPE_CACHE"):
        monkeypatch.setattr(compile_module, name, {})


@pytest.mark.parametrize("family", SHAPE_FAMILIES, ids=lambda f: f[0])
def test_shape_siblings_share_code_and_stay_bit_identical(family,
                                                         cold_caches):
    assert len({_shape(text) for text in family}) == 1
    instrs = [parse_instruction(text) for text in family]
    tier_ups = COUNTERS.tier_ups
    compiled_step(instrs[0])                         # first sighting
    assert COUNTERS.tier_ups == tier_ups + 1
    for instr in instrs[1:]:
        shape_hits = COUNTERS.shape_hits
        step = compiled_step(instr)
        assert COUNTERS.tier_ups == tier_ups + 1, str(instr)
        assert COUNTERS.shape_hits == shape_hits + 1
        assert step.__code__ is instrs[0].__dict__[
            "_compiled_step"].__code__
    for instr in instrs:
        _assert_step_identical(instr, compiled_step(instr))


@pytest.mark.parametrize("pair", ALIASED_PAIRS, ids=lambda p: p[0])
def test_aliasing_is_part_of_the_shape(pair, cold_caches):
    assert _shape(pair[0]) != _shape(pair[1])
    for text in pair:
        instr = parse_instruction(text)
        _assert_step_identical(instr, compiled_step(instr))


def test_shape_cache_is_bounded(cold_caches, monkeypatch):
    monkeypatch.setattr(compile_module, "_SHAPE_CACHE_LIMIT", 2)
    for text in ("addq rdi, rax", "subq rdi, rax", "xorq rdi, rax"):
        compiled_step(parse_instruction(text))
    assert len(compile_module._SHAPE_CACHE) <= 2
