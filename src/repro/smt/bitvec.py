"""Hash-consed bit-vector expression DAGs.

This is the term layer of the built-in SMT stack (the STP substitute of
Section 5.2). Expressions are immutable, interned per :class:`Context`,
and aggressively simplified at construction time: constant folding plus
the algebraic identities that make structurally similar programs (the
common case in equivalence checking) collapse before any SAT work.

Construction-time rules see one node and its arguments. The validator
then rebuilds its whole assembled query through these constructors
with :func:`repro.smt.rewrite.rewrite_query`, whose rules look across
nodes (bytes glued back into a value, a sum widened for its carry, an
``ite`` in a shift count), before :mod:`repro.smt.tseitin` blasts it.

Widths are explicit everywhere. A 1-bit vector doubles as a boolean.
"""

from __future__ import annotations

from typing import Iterable

from repro.x86.algebra import IntAlgebra, mask

_FOLD = IntAlgebra()

#: Operation tags. ``var`` and ``const`` are leaves; everything else has
#: argument nodes. ``params`` carries non-node data (names, bit ranges).
LEAF_OPS = frozenset({"const", "var"})
BINARY_OPS = frozenset({"add", "sub", "mul", "and", "or", "xor",
                        "shl", "lshr", "ashr", "eq", "ult", "slt",
                        "udiv", "urem"})
UNARY_OPS = frozenset({"not", "neg"})


class BV:
    """One interned bit-vector expression node.

    Do not construct directly; use :class:`Context` methods. Identity
    comparison (``is``) is equality for nodes from the same context.
    """

    __slots__ = ("op", "width", "args", "params", "id")

    def __init__(self, op: str, width: int, args: tuple["BV", ...],
                 params: tuple, node_id: int) -> None:
        self.op = op
        self.width = width
        self.args = args
        self.params = params
        self.id = node_id

    @property
    def is_const(self) -> bool:
        return self.op == "const"

    @property
    def value(self) -> int:
        """Constant value; only valid when :attr:`is_const`."""
        assert self.op == "const"
        return self.params[0]

    @property
    def name(self) -> str:
        assert self.op == "var"
        return self.params[0]

    def __repr__(self) -> str:
        if self.op == "const":
            return f"bv{self.width}({self.params[0]:#x})"
        if self.op == "var":
            return f"{self.params[0]}:{self.width}"
        inner = ", ".join(repr(a) for a in self.args)
        extra = "".join(f", {p}" for p in self.params)
        return f"{self.op}[{self.width}]({inner}{extra})"


class Context:
    """Owns the intern table; all expressions must share one context."""

    def __init__(self) -> None:
        self._table: dict[tuple, BV] = {}
        self._next_id = 0

    def _mk(self, op: str, width: int, args: tuple[BV, ...],
            params: tuple = ()) -> BV:
        key = (op, width, tuple(a.id for a in args), params)
        node = self._table.get(key)
        if node is None:
            node = BV(op, width, args, params, self._next_id)
            self._next_id += 1
            self._table[key] = node
        return node

    @property
    def size(self) -> int:
        """Number of distinct nodes created so far."""
        return len(self._table)

    # -- leaves ------------------------------------------------------------------

    def const(self, width: int, value: int) -> BV:
        return self._mk("const", width, (), (value & mask(width),))

    def var(self, width: int, name: str) -> BV:
        return self._mk("var", width, (), (name,))

    def true(self) -> BV:
        return self.const(1, 1)

    def false(self) -> BV:
        return self.const(1, 0)

    # -- arithmetic -----------------------------------------------------------

    def add(self, width: int, a: BV, b: BV) -> BV:
        if a.is_const and b.is_const:
            return self.const(width, _FOLD.add(width, a.value, b.value))
        if a.is_const:                        # constants go second
            a, b = b, a
        if b.is_const and b.value == 0:
            return a
        if b.is_const and a.op == "add" and a.args[1].is_const:
            # (x + c1) + c2 -> x + (c1 + c2): canonical base+offset form,
            # which lets the validator name stack slots (Section 5.2)
            folded = _FOLD.add(width, a.args[1].value, b.value)
            return self.add(width, a.args[0], self.const(width, folded))
        if not a.is_const and not b.is_const and a.id > b.id:
            a, b = b, a                       # commutative normal form
        return self._mk("add", width, (a, b))

    def sub(self, width: int, a: BV, b: BV) -> BV:
        if a.is_const and b.is_const:
            return self.const(width, _FOLD.sub(width, a.value, b.value))
        if b.is_const:
            # x - c -> x + (-c), joining the canonical base+offset form
            return self.add(width, a, self.const(width, -b.value))
        if a is b:
            return self.const(width, 0)
        return self._mk("sub", width, (a, b))

    def mul(self, width: int, a: BV, b: BV) -> BV:
        if a.is_const and b.is_const:
            return self.const(width, _FOLD.mul(width, a.value, b.value))
        for x, y in ((a, b), (b, a)):
            if x.is_const:
                if x.value == 0:
                    return self.const(width, 0)
                if x.value == 1:
                    return y
        if a.id > b.id:
            a, b = b, a
        return self._mk("mul", width, (a, b))

    def neg(self, width: int, a: BV) -> BV:
        if a.is_const:
            return self.const(width, _FOLD.neg(width, a.value))
        return self._mk("neg", width, (a,))

    def udiv(self, width: int, a: BV, b: BV) -> BV:
        if a.is_const and b.is_const and b.value != 0:
            return self.const(width, _FOLD.udiv(width, a.value, b.value))
        return self._mk("udiv", width, (a, b))

    def urem(self, width: int, a: BV, b: BV) -> BV:
        if a.is_const and b.is_const and b.value != 0:
            return self.const(width, _FOLD.urem(width, a.value, b.value))
        return self._mk("urem", width, (a, b))

    def sdiv(self, width: int, a: BV, b: BV) -> BV:
        raise NotImplementedError(
            "signed division is validated as an uninterpreted function")

    def srem(self, width: int, a: BV, b: BV) -> BV:
        raise NotImplementedError(
            "signed remainder is validated as an uninterpreted function")

    # -- bitwise ----------------------------------------------------------------

    def and_(self, width: int, a: BV, b: BV) -> BV:
        if a.is_const and b.is_const:
            return self.const(width, a.value & b.value)
        for x, y in ((a, b), (b, a)):
            if x.is_const:
                if x.value == 0:
                    return self.const(width, 0)
                if x.value == mask(width):
                    return y
        if a is b:
            return a
        if a.id > b.id:
            a, b = b, a
        return self._mk("and", width, (a, b))

    def or_(self, width: int, a: BV, b: BV) -> BV:
        if a.is_const and b.is_const:
            return self.const(width, a.value | b.value)
        for x, y in ((a, b), (b, a)):
            if x.is_const:
                if x.value == 0:
                    return y
                if x.value == mask(width):
                    return self.const(width, mask(width))
        if a is b:
            return a
        if a.id > b.id:
            a, b = b, a
        return self._mk("or", width, (a, b))

    def xor(self, width: int, a: BV, b: BV) -> BV:
        if a.is_const and b.is_const:
            return self.const(width, a.value ^ b.value)
        for x, y in ((a, b), (b, a)):
            if x.is_const and x.value == 0:
                return y
            if x.is_const and x.value == mask(width):
                return self.not_(width, y)
        if a is b:
            return self.const(width, 0)
        if a.id > b.id:
            a, b = b, a
        return self._mk("xor", width, (a, b))

    def not_(self, width: int, a: BV) -> BV:
        if a.is_const:
            return self.const(width, _FOLD.not_(width, a.value))
        if a.op == "not":
            return a.args[0]
        return self._mk("not", width, (a,))

    # -- shifts ---------------------------------------------------------------------

    def shl(self, width: int, a: BV, count: BV) -> BV:
        return self._shift("shl", width, a, count)

    def lshr(self, width: int, a: BV, count: BV) -> BV:
        return self._shift("lshr", width, a, count)

    def ashr(self, width: int, a: BV, count: BV) -> BV:
        return self._shift("ashr", width, a, count)

    def _shift(self, op: str, width: int, a: BV, count: BV) -> BV:
        if count.is_const:
            if count.value == 0:
                return a
            if a.is_const:
                fold = getattr(_FOLD, op)
                return self.const(width, fold(width, a.value, count.value))
        if a.is_const and a.value == 0:
            return a
        return self._mk(op, width, (a, count))

    # -- comparisons ------------------------------------------------------------------

    @staticmethod
    def _base_offset(node: BV) -> tuple[BV, int]:
        """Decompose into (base, constant offset)."""
        if node.op == "add" and node.args[1].is_const:
            return node.args[0], node.args[1].value
        return node, 0

    def eq(self, width: int, a: BV, b: BV) -> BV:
        if a is b:
            return self.true()
        if a.is_const and b.is_const:
            return self.const(1, 1 if a.value == b.value else 0)
        base_a, off_a = self._base_offset(a)
        base_b, off_b = self._base_offset(b)
        if base_a is base_b and off_a != off_b:
            # same symbolic base, different constant offsets: disequal.
            # This is what collapses stack-slot aliasing checks.
            return self.false()
        if width == 1:
            # eq over booleans is xnor; normalize to xor/not for blasting
            return self.not_(1, self.xor(1, a, b))
        if a.id > b.id:
            a, b = b, a
        return self._mk("eq", 1, (a, b))

    def ult(self, width: int, a: BV, b: BV) -> BV:
        if a is b:
            return self.false()
        if a.is_const and b.is_const:
            return self.const(1, 1 if a.value < b.value else 0)
        if b.is_const and b.value == 0:
            return self.false()
        return self._mk("ult", 1, (a, b))

    def slt(self, width: int, a: BV, b: BV) -> BV:
        if a is b:
            return self.false()
        if a.is_const and b.is_const:
            return self.const(1, _FOLD.slt(width, a.value, b.value))
        return self._mk("slt", 1, (a, b))

    # -- structure --------------------------------------------------------------------

    def ite(self, width: int, cond: BV, then: BV, otherwise: BV) -> BV:
        assert cond.width == 1
        if cond.is_const:
            return then if cond.value else otherwise
        if then is otherwise:
            return then
        return self._mk("ite", width, (cond, then, otherwise))

    def extract(self, hi: int, lo: int, a: BV) -> BV:
        width = hi - lo + 1
        if lo == 0 and width == a.width:
            return a
        if a.is_const:
            return self.const(width, _FOLD.extract(hi, lo, a.value))
        if a.op == "zext":
            inner = a.args[0]
            if hi < inner.width:
                return self.extract(hi, lo, inner)
            if lo >= inner.width:
                return self.const(width, 0)
        if a.op == "concat":
            hi_part, lo_part = a.args
            lo_w = lo_part.width
            if hi < lo_w:
                return self.extract(hi, lo, lo_part)
            if lo >= lo_w:
                return self.extract(hi - lo_w, lo - lo_w, hi_part)
        if a.op == "extract":
            inner_lo = a.params[1]
            return self.extract(hi + inner_lo, lo + inner_lo, a.args[0])
        return self._mk("extract", width, (a,), (hi, lo))

    def concat(self, hi_width: int, hi: BV, lo_width: int, lo: BV) -> BV:
        width = hi_width + lo_width
        if hi.is_const and lo.is_const:
            return self.const(width, (hi.value << lo_width) | lo.value)
        if hi.is_const and hi.value == 0:
            return self.zext(lo_width, width, lo)
        return self._mk("concat", width, (hi, lo))

    def zext(self, from_width: int, to_width: int, a: BV) -> BV:
        if from_width == to_width:
            return a
        if a.is_const:
            return self.const(to_width, a.value)
        if a.op == "zext":
            return self.zext(a.args[0].width, to_width, a.args[0])
        return self._mk("zext", to_width, (a,))

    def sext(self, from_width: int, to_width: int, a: BV) -> BV:
        if from_width == to_width:
            return a
        if a.is_const:
            return self.const(to_width,
                              _FOLD.sext(from_width, to_width, a.value))
        return self._mk("sext", to_width, (a,))

    # -- counting ---------------------------------------------------------------------

    def popcount(self, width: int, a: BV) -> BV:
        """Population count, lowered to a tree of widening adds."""
        if a.is_const:
            return self.const(width, a.value.bit_count())
        bits = [self.extract(i, i, a) for i in range(width)]
        total = None
        for bit in bits:
            term = self.zext(1, width, bit)
            total = term if total is None else self.add(width, total, term)
        assert total is not None
        return total

    # -- evaluation ------------------------------------------------------------------

    def evaluate(self, node: BV, env: dict[str, int]) -> int:
        """Evaluate a DAG under an assignment of variable names to ints.

        Used for model checking and differential testing; iterative so
        deep DAGs cannot overflow the Python stack.
        """
        cache: dict[int, int] = {}
        stack = [node]
        while stack:
            n = stack[-1]
            if n.id in cache:
                stack.pop()
                continue
            missing = [a for a in n.args if a.id not in cache]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            cache[n.id] = self._eval_node(n, cache, env)
        return cache[node.id]

    def _eval_node(self, n: BV, cache: dict[int, int],
                   env: dict[str, int]) -> int:
        op = n.op
        if op == "const":
            return n.value
        if op == "var":
            return env.get(n.name, 0) & mask(n.width)
        args = [cache[a.id] for a in n.args]
        if op == "extract":
            hi, lo = n.params
            return _FOLD.extract(hi, lo, args[0])
        if op == "concat":
            return (args[0] << n.args[1].width) | args[1]
        if op == "zext":
            return args[0]
        if op == "sext":
            return _FOLD.sext(n.args[0].width, n.width, args[0])
        if op == "ite":
            return args[1] if args[0] else args[2]
        if op == "not":
            return _FOLD.not_(n.width, args[0])
        if op == "neg":
            return _FOLD.neg(n.width, args[0])
        if op in ("eq", "ult", "slt"):
            fold = getattr(_FOLD, op)
            return fold(n.args[0].width, args[0], args[1])
        if op == "and":
            return args[0] & args[1]
        if op == "or":
            return args[0] | args[1]
        if op == "xor":
            return args[0] ^ args[1]
        fold = getattr(_FOLD, {"add": "add", "sub": "sub", "mul": "mul",
                               "shl": "shl", "lshr": "lshr",
                               "ashr": "ashr", "udiv": "udiv",
                               "urem": "urem"}[op])
        return fold(n.width, args[0], args[1])


def topological(roots: Iterable[BV]) -> list[BV]:
    """All nodes reachable from ``roots`` in dependency order."""
    seen: set[int] = set()
    order: list[BV] = []
    stack: list[tuple[BV, bool]] = [(r, False) for r in roots]
    while stack:
        node, expanded = stack.pop()
        if node.id in seen:
            continue
        if expanded:
            seen.add(node.id)
            order.append(node)
            continue
        stack.append((node, True))
        for arg in node.args:
            if arg.id not in seen:
                stack.append((arg, False))
    return order
