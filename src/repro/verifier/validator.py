"""The sound equivalence validator (Section 5.2 of the paper).

Two loop-free code sequences are equal if for all machine states that
agree on the live inputs with respect to the target, they produce
identical side effects on the live outputs. The validator builds that
query over the built-in SMT stack and decides it by bit-blasting; a SAT
answer yields a counterexample that the search turns into a new
testcase (Eq. 12's refinement loop).

A proof has three steps. :meth:`Validator._query` runs both programs
symbolically and assembles the query: the difference of the live
outputs plus the memory and UF consistency constraints.
:func:`~repro.smt.rewrite.rewrite_query` rebuilds it at the word level,
as STP does before it bit-blasts, so a difference that rewrites to
false is never blasted. :meth:`Validator._decide` blasts and solves
what is left, and reads a refutation's counterexample from the model
of the rewritten query (the rewrite keeps every root's value, so that
model satisfies the query as built).

The search asks the same question many times over: chains of one
campaign converge on the same rewrites, and a refuted candidate's
siblings come back after refinement. :meth:`Validator.prove` answers a
repeated query from a per-instance memo keyed by the printed query;
:meth:`Validator.validate` is always a fresh proof.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import SymbolicExecutionError
from repro.smt.bitvec import BV, Context
from repro.smt.rewrite import rewrite_query
from repro.smt.solver import BVSolver
from repro.verifier.symbolic import (DEFAULT_UF_WIDTH, SharedMemory,
                                     SymbolicExecutor, SymbolicMachine,
                                     UFTable)
from repro.x86.operands import Mem
from repro.x86.program import Program
from repro.x86.registers import lookup


@dataclass(frozen=True)
class LiveSpec:
    """Live inputs and outputs of a target, in the paper's sense.

    Attributes:
        live_in: register views the two codes must agree on initially.
        live_out: register views whose final values must match.
        mem_out: memory regions whose final contents must match, as
            (addressing expression, byte count) pairs; addresses are
            evaluated against the *initial* live-in values.
    """

    live_in: tuple[str, ...]
    live_out: tuple[str, ...]
    mem_out: tuple[tuple[Mem, int], ...] = ()


@dataclass
class Counterexample:
    """A distinguishing initial state extracted from a SAT model."""

    registers: dict[str, int]
    memory: dict[int, int]        # byte address -> byte value


@dataclass
class ValidationResult:
    """Outcome of one equivalence query.

    ``num_vars`` / ``num_clauses`` size the blasted instance, and
    ``conflicts`` / ``decisions`` / ``propagations`` count the SAT
    solver's work; all are 0 when the miter folds to a constant and no
    solver runs.
    """

    equivalent: bool
    counterexample: Counterexample | None = None
    num_vars: int = 0
    num_clauses: int = 0
    seconds: float = 0.0
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0


#: Memoized proofs per validator; the memo starts over when full.
_PROOF_MEMO_LIMIT = 1 << 12


def _printed(prog: Program) -> tuple:
    return (tuple(str(instr) for instr in prog.code),
            tuple(sorted(prog.labels.items())))


class Validator:
    """Decides equivalence of two programs under a :class:`LiveSpec`."""

    def __init__(self, *, uf_width: int = DEFAULT_UF_WIDTH,
                 max_conflicts: int = 2_000_000) -> None:
        self.uf_width = uf_width
        self.max_conflicts = max_conflicts
        # outcomes only: a proof's Context and CNF die with the proof
        self._proven: dict[tuple, ValidationResult] = {}
        self._work = {"proofs": 0, "memo_hits": 0, "seconds": 0.0}

    def prove(self, target: Program, rewrite: Program,
              spec: LiveSpec) -> ValidationResult:
        """:meth:`validate`, answered from memory for a repeated query.

        The query is keyed by the printed slots and labels of both
        programs and the spec; the instance's own ``uf_width`` and
        ``max_conflicts`` cover the rest. A proof is a pure function
        of that key, so a remembered outcome (the same object, not to
        be mutated) is the one a fresh proof would return. Exceptions
        propagate and are not remembered.
        """
        key = (_printed(target), _printed(rewrite), spec)
        outcome = self._proven.get(key)
        if outcome is not None:
            self._work["memo_hits"] += 1
            return outcome
        outcome = self.validate(target, rewrite, spec)
        self._work["proofs"] += 1
        self._work["seconds"] += outcome.seconds
        if len(self._proven) >= _PROOF_MEMO_LIMIT:
            self._proven.clear()
        self._proven[key] = outcome
        return outcome

    def counters(self) -> dict[str, int | float]:
        """Proofs run and memo hits by :meth:`prove`, and the seconds
        its proofs took, since this validator was made."""
        return dict(self._work)

    def validate(self, target: Program, rewrite: Program,
                 spec: LiveSpec) -> ValidationResult:
        """Prove or refute equivalence on the live outputs.

        The assembled query goes through :func:`rewrite_query` first, so
        a miter that rewrites to false is never blasted.

        Raises:
            SolverTimeoutError: when the SAT conflict budget runs out.
            SymbolicExecutionError: if a program cannot be translated.
        """
        start = time.perf_counter()
        query = self._query(target, rewrite, spec)
        return self._decide(query, rewrite_query(query.ctx, query.roots),
                            start)

    def _decide(self, query: "_Query", roots: list[BV],
                start: float) -> ValidationResult:
        """Decide ``roots``, the query's roots or their rewrite: the
        consistency constraints and, last, the difference."""
        difference = roots[-1]
        if difference.is_const and difference.value == 0:
            return ValidationResult(
                equivalent=True,
                seconds=time.perf_counter() - start)

        solver = BVSolver(query.ctx, max_conflicts=self.max_conflicts)
        for constraint in roots:
            solver.add(constraint)
        outcome = solver.check()
        work = dict(num_vars=outcome.num_vars,
                    num_clauses=outcome.num_clauses,
                    seconds=time.perf_counter() - start,
                    conflicts=outcome.conflicts,
                    decisions=outcome.decisions,
                    propagations=outcome.propagations)
        if not outcome.is_sat:
            return ValidationResult(equivalent=True, **work)
        cex = self._extract_counterexample(query.ctx, query.shared,
                                           query.live_in, outcome.model)
        return ValidationResult(equivalent=False, counterexample=cex,
                                **work)

    # -- query construction ------------------------------------------------------

    def _query(self, target: Program, rewrite: Program,
               spec: LiveSpec) -> "_Query":
        """The equivalence query as symbolic execution builds it, before
        any rewriting."""
        ctx = Context()
        shared = SharedMemory(ctx)
        ufs = UFTable(ctx)

        live_in = self._live_in_values(ctx, spec)
        machines = {}
        for prefix, prog in (("t", target), ("r", rewrite)):
            initial = self._initial_regs(ctx, prefix, live_in)
            machine = SymbolicMachine(ctx, prefix, shared, ufs, initial,
                                      uf_width=self.uf_width)
            SymbolicExecutor(machine).run(prog)
            machines[prefix] = machine

        difference = self._difference(ctx, machines["t"], machines["r"],
                                      live_in, spec)
        if difference.is_const and difference.value == 0:
            # no output can differ: the constraints could not matter
            return _Query(ctx, shared, live_in, [difference])
        return _Query(ctx, shared, live_in,
                      [*shared.consistency_constraints(),
                       *ufs.consistency_constraints(), difference])

    @staticmethod
    def _live_in_values(ctx: Context, spec: LiveSpec) -> dict[str, BV]:
        """Shared symbolic values for each live-in register view."""
        values: dict[str, BV] = {}
        for name in spec.live_in:
            reg = lookup(name)
            values[name] = ctx.var(reg.width, f"in_{name}")
        # the stack pointer is pinned by the calling convention; both
        # machines share it so stack slots name consistently
        if "rsp" not in values:
            values["rsp"] = ctx.var(64, "in_rsp")
        return values

    @staticmethod
    def _initial_regs(ctx: Context, prefix: str,
                      live_in: dict[str, BV]) -> dict[str, BV]:
        """Initial full-register contents for one machine.

        Live-in view bits are shared between machines; any remaining
        high bits are per-machine unconstrained variables, because the
        equivalence quantifier only fixes the live inputs.
        """
        initial: dict[str, BV] = {}
        for name, value in live_in.items():
            reg = lookup(name)
            full_width = 128 if reg.reg_class.value == "xmm" else 64
            if reg.width == full_width:
                initial[reg.full] = value
            else:
                high = ctx.var(full_width - reg.width,
                               f"{prefix}_{reg.full}_hi")
                initial[reg.full] = ctx.concat(
                    full_width - reg.width, high, reg.width, value)
        return initial

    def _difference(self, ctx: Context, target: SymbolicMachine,
                    rewrite: SymbolicMachine, live_in: dict[str, BV],
                    spec: LiveSpec) -> BV:
        """1-bit expression: true iff some live output differs."""
        diffs: list[BV] = []
        for name in spec.live_out:
            reg = lookup(name)
            t_val = self._final_reg(target, name)
            r_val = self._final_reg(rewrite, name)
            diffs.append(ctx.not_(1, ctx.eq(reg.width, t_val, r_val)))
        if spec.mem_out:
            init = _AddressEvaluator(ctx, live_in)
            for mem, nbytes in spec.mem_out:
                addr = init.address(mem)
                t_val = target.read_mem(addr, nbytes)
                r_val = rewrite.read_mem(addr, nbytes)
                diffs.append(ctx.not_(1, ctx.eq(8 * nbytes, t_val, r_val)))
        result = ctx.false()
        for diff in diffs:
            result = ctx.or_(1, result, diff)
        return result

    @staticmethod
    def _final_reg(machine: SymbolicMachine, name: str) -> BV:
        reg = lookup(name)
        full = machine.read_full(reg.full)
        if reg.is_full:
            return full
        return machine.ctx.extract(reg.width - 1, 0, full)

    @staticmethod
    def _extract_counterexample(ctx: Context, shared: SharedMemory,
                                live_in: dict[str, BV],
                                model: dict[str, int]) -> Counterexample:
        registers = {name: model.get(f"in_{name}", 0)
                     for name in live_in}
        memory: dict[int, int] = {}
        for addr_expr, var in shared.initial_reads:
            addr = ctx.evaluate(addr_expr, model)
            memory[addr] = model.get(var.name, 0)
        return Counterexample(registers=registers, memory=memory)


@dataclass
class _Query:
    """One assembled equivalence query.

    ``roots`` are the 1-bit constraints the solver must satisfy at once:
    the memory and UF consistency constraints, then the difference of
    the live outputs, always last.
    """

    ctx: Context
    shared: SharedMemory
    live_in: dict[str, BV]
    roots: list[BV]


class _AddressEvaluator:
    """Evaluates Mem operands against the initial live-in values."""

    def __init__(self, ctx: Context, live_in: dict[str, BV]) -> None:
        self.ctx = ctx
        self.live_in = live_in

    def address(self, mem: Mem) -> BV:
        ctx = self.ctx
        addr = ctx.const(64, mem.disp)
        if mem.base is not None:
            addr = ctx.add(64, addr, self._reg64(mem.base.name))
        if mem.index is not None:
            scaled = ctx.mul(64, self._reg64(mem.index.name),
                             ctx.const(64, mem.scale))
            addr = ctx.add(64, addr, scaled)
        return addr

    def _reg64(self, name: str) -> BV:
        value = self.live_in.get(name)
        if value is None:
            raise SymbolicExecutionError(
                f"mem_out address uses {name}, which is not a live input")
        if value.width != 64:
            value = self.ctx.zext(value.width, 64, value)
        return value
