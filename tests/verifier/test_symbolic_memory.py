"""The indexed memory read against the linear walk it replaced.

``SymbolicMachine._read_byte`` skips a write whose address provably
differs from the read's (same base, other offset; two different
constants). The full walk built an ite for every write, and for those
writes each folded away without making a node. So the skip may change
nothing: each query below must intern the same nodes under the same
ids and blast to the same CNF with either read.
"""

from __future__ import annotations

import random

import pytest

import repro.smt.solver as bv_solver
import repro.verifier.validator as validator_module
from repro.errors import ReproError
from repro.search.config import SearchConfig
from repro.search.moves import MoveGenerator
from repro.smt.bitvec import BV, Context
from repro.smt.sat import CNF
from repro.suite.registry import all_benchmarks, benchmark
from repro.verifier.symbolic import SymbolicMachine
from repro.verifier.validator import LiveSpec, Validator
from repro.x86.parser import parse_program


class LinearMachine(SymbolicMachine):
    """The oracle: every read walks every earlier write."""

    def _read_byte(self, addr: BV) -> BV:
        ctx = self.ctx
        value = self.shared.initial_byte(addr)
        for write in self.writes:
            hit = ctx.and_(1, write.guard, ctx.eq(64, addr, write.addr))
            value = ctx.ite(8, hit, write.value, value)
        return value


def _query(monkeypatch, machine, target, rewrite, spec):
    """The validator's whole query under ``machine``: every interned
    node with its id, and the CNF (the solver is not run)."""
    contexts: list[Context] = []
    cnfs = []

    class RecordingContext(Context):
        def __init__(self) -> None:
            super().__init__()
            contexts.append(self)

    class Unsolved:
        conflicts = decisions = propagations = 0

        def __init__(self, cnf: CNF, **kwargs) -> None:
            cnfs.append([cnf.num_vars, cnf.clauses])

        def solve(self) -> bool:
            return False

    with monkeypatch.context() as patch:
        patch.setattr(validator_module, "Context", RecordingContext)
        patch.setattr(validator_module, "SymbolicMachine", machine)
        patch.setattr(bv_solver, "Solver", Unsolved)
        try:
            Validator().validate(target, rewrite, spec)
        except ReproError as exc:
            return type(exc).__name__
    ctx, = contexts
    nodes = sorted((node.id, key) for key, node in ctx._table.items())
    return ctx.size, nodes, cnfs


def _assert_same_query(monkeypatch, target, rewrite, spec):
    linear = _query(monkeypatch, LinearMachine, target, rewrite, spec)
    indexed = _query(monkeypatch, SymbolicMachine, target, rewrite, spec)
    assert indexed == linear


@pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda b: b.name)
def test_suite_pairs_build_identical_queries(monkeypatch, bench):
    for other in (bench.gcc, bench.icc):
        _assert_same_query(monkeypatch, bench.o0, other, bench.spec)


def test_stack_mutants_build_identical_queries(monkeypatch):
    """200 proposals over the short -O0 listings (p01-p10), which keep
    every local on the stack."""
    kernels = [benchmark(f"p{n:02d}") for n in range(1, 11)]
    rng = random.Random(20261019)
    checked = 0
    for index in range(200):
        bench = kernels[index % len(kernels)]
        config = SearchConfig(ell=len(bench.o0.code) + 4)
        moves = MoveGenerator(bench.o0, config, rng)
        prog = bench.o0.padded(config.ell)
        for _ in range(1 + index % 4):
            prog, _kind = moves.propose(prog)
        _assert_same_query(monkeypatch, bench.o0, prog, bench.spec)
        checked += 1
    assert checked == 200


def test_guarded_write_builds_identical_query(monkeypatch):
    """A store under a branch merges into the write chain with a
    non-constant guard; reads after it still skip the other slots."""
    target = parse_program("""
        movl edi, -8(rsp)
        movl esi, -16(rsp)
        testl edi, edi
        je .L1
        movl esi, -8(rsp)
        movl edi, -12(rsp)
        .L1
        movl -8(rsp), eax
        addl -16(rsp), eax
        addl -12(rsp), eax
    """)
    rewrite = parse_program("""
        movl -12(rsp), eax
        testl edi, edi
        cmovnel esi, edi
        addl edi, eax
        addl esi, eax
    """)
    spec = LiveSpec(live_in=("edi", "esi"), live_out=("eax",))
    _assert_same_query(monkeypatch, target, rewrite, spec)


def test_reads_skip_provably_distinct_writes(monkeypatch):
    """The skip is taken: fewer address comparisons, same query."""
    bench = benchmark("p01")
    calls = {}
    for machine in (LinearMachine, SymbolicMachine):
        counted = []
        original = Context.eq

        def eq(self, width, a, b, counted=counted, original=original):
            counted.append(width)
            return original(self, width, a, b)

        with monkeypatch.context() as patch:
            patch.setattr(Context, "eq", eq)
            _query(monkeypatch, machine, bench.o0, bench.gcc, bench.spec)
        calls[machine] = len(counted)
    assert calls[SymbolicMachine] < calls[LinearMachine] / 2
