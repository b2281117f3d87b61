"""Symbolic execution of X86 subset programs into bit-vector constraints.

A :class:`SymbolicMachine` implements the same
:class:`~repro.x86.semantics.Machine` protocol as the concrete emulator,
with bit-vector expressions as values, so instruction semantics are
shared verbatim between the two engines.

Key modeling choices (all from Section 5.2 of the paper):

* registers that are not live inputs start as *per-machine* fresh
  variables — the equivalence query quantifies over all initial states
  that agree only on the live inputs;
* memory is byte-addressed; each machine has its own guarded write
  chain over a *shared* initial memory, and reads walk the chain with
  ite chains on address equality ("addr1 = addr2 => val1 = val2");
* stack addresses in base+offset form collapse structurally thanks to
  the canonical forms in :mod:`repro.smt.bitvec`;
* wide multiplications are uninterpreted functions shared across both
  machines (with a commutativity normalization, sound because
  multiplication is commutative).

Forward conditional jumps are handled by guarded execution with state
merging at labels, so the gcc-style Montgomery listing (Figure 1 left)
validates without special cases.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SymbolicExecutionError
from repro.smt.bitvec import BV, Context
from repro.x86.instruction import Instruction, is_unused
from repro.x86.program import Program
from repro.x86.registers import Register, view
from repro.x86.semantics import (UNDEFINED_FLAGS, cc_value, execute,
                                 read_operand, read_reg, write_operand,
                                 write_reg)

#: Width at or above which multiplication results become uninterpreted
#: functions (the paper treats 64-bit multiplication this way).
DEFAULT_UF_WIDTH = 64


class UFTable:
    """Shared uninterpreted-function applications.

    Structurally identical applications share one result node; beyond
    that, :meth:`consistency_constraints` emits Ackermann expansions —
    (args₁ = args₂) ⇒ (result₁ = result₂) — so the solver can identify
    applications whose arguments are only *semantically* equal (e.g.
    ``(x << 32) | y`` versus ``(x << 32) ^ y`` with disjoint masks,
    which is exactly what the Figure 1 Montgomery rewrite requires).
    Commutative functions additionally accept argument-swapped equality.
    """

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self._cache: dict[tuple, BV] = {}
        self._apps: list[tuple[str, int, tuple[BV, ...], BV, bool]] = []
        self._counter = 0

    def apply(self, name: str, width: int, args: tuple[BV, ...], *,
              commutative: bool = False) -> BV:
        if commutative:
            args = tuple(sorted(args, key=lambda n: n.id))
        key = (name, width, tuple(a.id for a in args))
        result = self._cache.get(key)
        if result is None:
            self._counter += 1
            result = self.ctx.var(width, f"uf_{name}_{self._counter}")
            self._cache[key] = result
            self._apps.append((name, width, args, result, commutative))
        return result

    def consistency_constraints(self) -> list[BV]:
        """Pairwise functional-consistency constraints."""
        ctx = self.ctx
        constraints: list[BV] = []
        for i in range(len(self._apps)):
            name_i, width_i, args_i, res_i, comm_i = self._apps[i]
            for j in range(i + 1, len(self._apps)):
                name_j, width_j, args_j, res_j, comm_j = self._apps[j]
                if (name_i, width_i) != (name_j, width_j) or \
                        len(args_i) != len(args_j):
                    continue
                same_args = self._args_equal(args_i, args_j)
                if comm_i and comm_j and len(args_i) == 2:
                    swapped = self._args_equal(
                        args_i, (args_j[1], args_j[0]))
                    same_args = ctx.or_(1, same_args, swapped)
                if same_args.is_const and same_args.value == 0:
                    continue
                same_res = ctx.eq(width_i, res_i, res_j)
                constraints.append(
                    ctx.or_(1, ctx.not_(1, same_args), same_res))
        return constraints

    def _args_equal(self, a: tuple[BV, ...], b: tuple[BV, ...]) -> BV:
        ctx = self.ctx
        result = ctx.true()
        for x, y in zip(a, b):
            result = ctx.and_(1, result, ctx.eq(x.width, x, y))
        return result


class SharedMemory:
    """The initial memory both machines execute against.

    Reads of the initial memory are uninterpreted per byte address;
    structurally identical addresses share one variable, and distinct
    symbolic addresses get Ackermann consistency constraints.
    """

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.initial_reads: list[tuple[BV, BV]] = []
        self._cache: dict[int, BV] = {}
        self._counter = 0

    def initial_byte(self, addr: BV) -> BV:
        cached = self._cache.get(addr.id)
        if cached is not None:
            return cached
        self._counter += 1
        var = self.ctx.var(8, f"mem_{self._counter}")
        self._cache[addr.id] = var
        self.initial_reads.append((addr, var))
        return var

    def consistency_constraints(self) -> list[BV]:
        """addr_i == addr_j  =>  val_i == val_j, for all pairs.

        Pairs whose addresses are *provably* distinct (the common
        stack-slot case) simplify away inside :meth:`Context.eq`.
        """
        ctx = self.ctx
        constraints: list[BV] = []
        reads = self.initial_reads
        for i in range(len(reads)):
            addr_i, val_i = reads[i]
            for j in range(i + 1, len(reads)):
                addr_j, val_j = reads[j]
                same_addr = ctx.eq(64, addr_i, addr_j)
                if same_addr.is_const and same_addr.value == 0:
                    continue
                same_val = ctx.eq(8, val_i, val_j)
                constraints.append(
                    ctx.or_(1, ctx.not_(1, same_addr), same_val))
        return constraints


@dataclass
class _Write:
    guard: BV
    addr: BV
    value: BV      # one byte


class SymbolicMachine:
    """Machine-protocol implementation over bit-vector expressions."""

    def __init__(self, ctx: Context, prefix: str, shared: SharedMemory,
                 ufs: UFTable, live_in: dict[str, BV], *,
                 uf_width: int = DEFAULT_UF_WIDTH) -> None:
        self.alg = ctx
        self.ctx = ctx
        self.prefix = prefix
        self.shared = shared
        self.ufs = ufs
        self.uf_width = uf_width
        self.regs: dict[str, BV] = dict(live_in)
        self.flags: dict[str, BV] = {}
        self.writes: list[_Write] = []
        self.guard: BV = ctx.true()

    # -- Machine protocol -------------------------------------------------------

    def read_full(self, name: str) -> BV:
        value = self.regs.get(name)
        if value is None:
            width = 128 if name.startswith("xmm") else 64
            value = self.ctx.var(width, f"{self.prefix}_{name}")
            self.regs[name] = value
        return value

    def write_full(self, name: str, value: BV) -> None:
        self.regs[name] = value

    def check_reg_defined(self, reg: Register) -> None:
        return None      # undefined reads become unconstrained variables

    def mark_reg_defined(self, reg: Register) -> None:
        return None

    def read_flag(self, name: str) -> BV:
        value = self.flags.get(name)
        if value is None:
            value = self.ctx.var(1, f"{self.prefix}_flag_{name}")
            self.flags[name] = value
        return value

    def write_flag(self, name: str, value: BV) -> None:
        self.flags[name] = value

    def set_flag_undefined(self, name: str) -> None:
        # a fresh variable per clobber: reading it constrains nothing
        self.flags[name] = self.ctx.var(
            1, f"{self.prefix}_undef_{name}_{self.ctx.size}")

    def read_mem(self, addr: BV, nbytes: int) -> BV:
        ctx = self.ctx
        result: BV | None = None
        for i in range(nbytes):
            byte_addr = ctx.add(64, addr, ctx.const(64, i))
            byte = self._read_byte(byte_addr)
            result = byte if result is None else \
                ctx.concat(8, byte, 8 * i, result)
        assert result is not None
        return result

    def _read_byte(self, addr: BV) -> BV:
        ctx = self.ctx
        value = self.shared.initial_byte(addr)
        for write in self.writes:                       # oldest..newest
            hit = ctx.and_(1, write.guard, ctx.eq(64, addr, write.addr))
            value = ctx.ite(8, hit, write.value, value)
        return value

    def write_mem(self, addr: BV, nbytes: int, value: BV) -> None:
        ctx = self.ctx
        for i in range(nbytes):
            byte_addr = ctx.add(64, addr, ctx.const(64, i))
            byte = ctx.extract(8 * i + 7, 8 * i, value)
            self.writes.append(_Write(self.guard, byte_addr, byte))

    def fpe(self) -> None:
        raise SymbolicExecutionError(
            "division reached symbolic execution; it must be validated "
            "as an uninterpreted function")

    def known_zero(self, width: int, value: BV) -> bool | None:
        if value.is_const:
            return value.value == 0
        return None

    # -- state snapshots for branch merging ----------------------------------------

    def snapshot(self) -> tuple[dict[str, BV], dict[str, BV]]:
        return dict(self.regs), dict(self.flags)

    def restore(self, snap: tuple[dict[str, BV], dict[str, BV]]) -> None:
        self.regs, self.flags = dict(snap[0]), dict(snap[1])

    def merge_in(self, guard: BV,
                 snap: tuple[dict[str, BV], dict[str, BV]]) -> None:
        """Merge a pending branch state under its guard."""
        ctx = self.ctx
        regs, flags = snap
        for name in set(self.regs) | set(regs):
            width = 128 if name.startswith("xmm") else 64
            # a side that never touched the register holds its initial
            # value; the variable name is canonical so hash-consing
            # returns the same node every time it is materialized
            ours = self.regs.get(name)
            if ours is None:
                ours = ctx.var(width, f"{self.prefix}_{name}")
            theirs = regs.get(name)
            if theirs is None:
                theirs = ctx.var(width, f"{self.prefix}_{name}")
            self.regs[name] = ctx.ite(width, guard, theirs, ours)
        for name in set(self.flags) | set(flags):
            ours = self.flags.get(name)
            if ours is None:
                ours = ctx.var(1, f"{self.prefix}_flag_{name}")
            theirs = flags.get(name)
            if theirs is None:
                theirs = ctx.var(1, f"{self.prefix}_flag_{name}")
            self.flags[name] = ctx.ite(1, guard, theirs, ours)


class SymbolicExecutor:
    """Runs a loop-free program on a :class:`SymbolicMachine`."""

    def __init__(self, machine: SymbolicMachine) -> None:
        self.m = machine

    def run(self, prog: Program) -> None:
        pending: dict[str, list[tuple[BV, tuple]]] = {}
        label_at: dict[int, list[str]] = {}
        for name, index in prog.labels.items():
            label_at.setdefault(index, []).append(name)
        for pc, instr in enumerate(prog.code):
            for label in label_at.get(pc, []):
                for guard, snap in pending.pop(label, []):
                    self.m.merge_in(guard, snap)
            if is_unused(instr):
                continue
            if instr.is_jump:
                self._jump(instr, pending)
                continue
            self._execute_or_uf(instr)
        for label in label_at.get(len(prog.code), []):
            for guard, snap in pending.pop(label, []):
                self.m.merge_in(guard, snap)
        if pending:
            raise SymbolicExecutionError(
                f"unresolved jump targets: {sorted(pending)}")

    def _jump(self, instr: Instruction,
              pending: dict[str, list[tuple[BV, tuple]]]) -> None:
        ctx = self.m.ctx
        target = instr.jump_target
        assert target is not None
        if instr.opcode.family == "jmp":
            taken = ctx.true()
        else:
            assert instr.opcode.cc is not None
            taken = cc_value(self.m, instr.opcode.cc)
        guard_taken = ctx.and_(1, self.m.guard, taken)
        if not (guard_taken.is_const and guard_taken.value == 0):
            pending.setdefault(target, []).append(
                (guard_taken, self.m.snapshot()))
        self.m.guard = ctx.and_(1, self.m.guard, ctx.not_(1, taken))

    def _execute_or_uf(self, instr: Instruction) -> None:
        opcode = instr.opcode
        if opcode.family in ("mul", "imul", "div", "idiv") and \
                (opcode.uf or opcode.width >= self.m.uf_width or
                 opcode.family in ("div", "idiv")):
            self._apply_uf(instr)
            return
        execute(instr, self.m)

    def _apply_uf(self, instr: Instruction) -> None:
        """Uninterpreted-function treatment of wide mul/div (§5.2)."""
        m = self.m
        width = instr.opcode.width
        family = instr.opcode.family
        if family == "imul" and len(instr.operands) == 2:
            a = read_operand(m, instr.operands[0], width)
            b = read_operand(m, instr.operands[1], width)
            result = m.ufs.apply(f"mul{width}_lo", width, (a, b),
                                 commutative=True)
            write_operand(m, instr.operands[1], width, result)
            overflow = m.ufs.apply(f"imul{width}_of", 1, (a, b),
                                   commutative=True)
            m.write_flag("CF", overflow)
            m.write_flag("OF", overflow)
        elif family in ("mul", "imul"):
            a = read_reg(m, view("rax", width))
            b = read_operand(m, instr.operands[0], width)
            low = m.ufs.apply(f"mul{width}_lo", width, (a, b),
                              commutative=True)
            high = m.ufs.apply(f"{family}{width}_hi", width, (a, b),
                               commutative=True)
            overflow = m.ufs.apply(f"{family}{width}_of", 1, (a, b),
                                   commutative=True)
            write_reg(m, view("rax", width), low)
            write_reg(m, view("rdx", width), high)
            m.write_flag("CF", overflow)
            m.write_flag("OF", overflow)
        else:   # div / idiv
            a = read_reg(m, view("rax", width))
            d = read_reg(m, view("rdx", width))
            b = read_operand(m, instr.operands[0], width)
            quotient = m.ufs.apply(f"{family}{width}_q", width, (d, a, b))
            remainder = m.ufs.apply(f"{family}{width}_r", width, (d, a, b))
            write_reg(m, view("rax", width), quotient)
            write_reg(m, view("rdx", width), remainder)
        for name in UNDEFINED_FLAGS[family]:
            m.set_flag_undefined(name)
