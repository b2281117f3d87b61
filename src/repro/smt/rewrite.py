"""Word-level rewriting of a validator query before it is bit-blasted.

STP simplifies a query at the word level before it bit-blasts (Ganesh &
Dill, "A Decision Procedure for Bit-Vectors and Arrays", CAV 2007).
:func:`rewrite_query` is that step for this stack: it rebuilds the assembled
query (the miter plus the memory and UF consistency constraints) in the
same :class:`~repro.smt.bitvec.Context`, through the context's own
constructors, so their constant folding and normal forms apply to every
rebuilt node. Five rules undo what symbolic execution hides from the
solver:

1. ``concat(extract(x, h, m+1), extract(x, m, l))`` is
   ``extract(x, h, l)``, so a value split into stack bytes and glued
   back is the value again (a full-width extract is ``x``);
2. the low ``n`` bits of ``add_{n+1}(zext a, zext b)`` are
   ``add_n(a, b)``: a sum widened for its carry is a sum again;
3. ``eq(add(a, b), add(a, c))`` is ``eq(b, c)``;
4. an ``ite`` with a constant arm moves above ``extract``, ``zext``,
   ``and`` with a constant and a shift count, where the constant arm's
   image folds to a constant or to a node the query already has;
5. ``eq(p, ite(c, p, q))`` is ``or(c, eq(p, q))``, and
   ``eq(p, ite(c, q, p))`` is ``or(not c, eq(p, q))``.

Every rule maps a node to one with the same value under every
assignment, so each rebuilt root equals its original as a function of
the variables, and a model of the rebuilt query is a model of the
original. Rules 1 and 3 only drop nodes, rule 2 trades an ``extract``
for a narrower ``add``, rule 4 fires only where the lifted constant arm
costs no node, and rule 5 trades an ``ite`` and an ``eq`` for an ``or``
and an ``eq``. A node is added only where a wide sum stays because its
carry is read, where rule 2 needs a new narrow constant, or by the
``not`` of rule 5's second form, which bit-blasts to no gate.
"""

from __future__ import annotations

from repro.smt.bitvec import BV, Context, topological

_SHIFTS = ("shl", "lshr", "ashr")
_CALLS = {"and": "and_", "or": "or_", "xor": "xor", "add": "add",
          "sub": "sub", "mul": "mul", "udiv": "udiv", "urem": "urem",
          "shl": "shl", "lshr": "lshr", "ashr": "ashr"}


def rewrite_query(ctx: Context, roots: list[BV]) -> list[BV]:
    """Rebuild ``roots`` under the five rules, sharing one memo."""
    rewriter = _Rewriter(ctx)
    done: dict[int, BV] = {}
    # ids grow with creation, so id order is a topological order that
    # meets a node before every node built after it
    for node in sorted(topological(roots), key=lambda n: n.id):
        new = rewriter.rebuild(node, [done[a.id] for a in node.args])
        done[node.id] = new
        rewriter.built.add(new.id)
    return [done[root.id] for root in roots]


class _Rewriter:
    """The rules, as constructors over one context.

    Methods, not closures: closures that call each other form reference
    cycles, which would keep the query's whole context alive until the
    cyclic collector ran.
    """

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        #: ids of the nodes rebuilt so far
        self.built: set[int] = set()

    def rebuild(self, node: BV, args: list[BV]) -> BV:
        ctx = self.ctx
        op = node.op
        if op in ("const", "var"):
            return node
        if op == "extract":
            return self.extract(*node.params, args[0])
        if op == "concat":
            return self.concat(*args)
        if op == "zext":
            return self.zext(node.width, args[0])
        if op == "sext":
            return ctx.sext(args[0].width, node.width, args[0])
        if op == "ite":
            return ctx.ite(node.width, *args)
        if op == "eq":
            return self.eq(args[0].width, *args)
        if op in ("ult", "slt"):
            return getattr(ctx, op)(args[0].width, *args)
        if op == "not":
            return ctx.not_(node.width, args[0])
        if op == "neg":
            return ctx.neg(node.width, args[0])
        return self.binary(op, node.width, *args)

    def lift(self, node: BV, width: int, apply) -> BV | None:
        """Rule 4: ``apply(ite(c, k, q))`` as ``ite(c, apply k, apply q)``
        when ``apply(k)`` is a constant or an already rebuilt node."""
        if node.op != "ite":
            return None
        cond, then, other = node.args
        if then.is_const:
            image = apply(then)
            if image.is_const or image.id in self.built:
                return self.ctx.ite(width, cond, image, apply(other))
        elif other.is_const:
            image = apply(other)
            if image.is_const or image.id in self.built:
                return self.ctx.ite(width, cond, apply(then), image)
        return None

    def extract(self, hi: int, lo: int, a: BV) -> BV:
        if lo == 0 and a.op == "add" and a.width == hi + 2:     # rule 2
            parts = [_low_bits(self.ctx, arg, hi + 1) for arg in a.args]
            if None not in parts:
                return self.ctx.add(hi + 1, *parts)
        lifted = self.lift(a, hi - lo + 1, lambda x: self.extract(hi, lo, x))
        return lifted or self.ctx.extract(hi, lo, a)

    def concat(self, hi: BV, lo: BV) -> BV:
        if hi.op == "extract" and lo.op == "extract" and \
                hi.args[0] is lo.args[0] and \
                hi.params[1] == lo.params[0] + 1:               # rule 1
            return self.extract(hi.params[0], lo.params[1], hi.args[0])
        return self.ctx.concat(hi.width, hi, lo.width, lo)

    def zext(self, width: int, a: BV) -> BV:
        lifted = self.lift(a, width, lambda x: self.zext(width, x))
        return lifted or self.ctx.zext(a.width, width, a)

    def binary(self, op: str, width: int, a: BV, b: BV) -> BV:
        if op == "and":
            for k, x in ((a, b), (b, a)):
                if k.is_const:
                    lifted = self.lift(
                        x, width, lambda y: self.binary(op, width, k, y))
                    if lifted is not None:
                        return lifted
        if op in _SHIFTS:
            lifted = self.lift(b, width,
                               lambda y: self.binary(op, width, a, y))
            if lifted is not None:
                return lifted
        return getattr(self.ctx, _CALLS[op])(width, a, b)

    def eq(self, width: int, a: BV, b: BV) -> BV:
        ctx = self.ctx
        while a.op == "add" and b.op == "add":                  # rule 3
            common = [x for x in a.args if x in b.args]
            if not common:
                break
            rest_a = list(a.args)
            rest_a.remove(common[0])
            rest_b = list(b.args)
            rest_b.remove(common[0])
            a, b = rest_a[0], rest_b[0]
        for p, q in ((a, b), (b, a)):                           # rule 5
            if q.op == "ite" and p in q.args[1:]:
                cond, then, other = q.args
                if then is p:
                    return ctx.or_(1, cond, self.eq(width, p, other))
                return ctx.or_(1, ctx.not_(1, cond), self.eq(width, p, then))
        return ctx.eq(width, a, b)


def _low_bits(ctx: Context, node: BV, width: int) -> BV | None:
    """The low ``width`` bits of ``node`` at no cost, if known."""
    if node.is_const:
        return ctx.const(width, node.value)
    if node.op == "zext" and node.args[0].width == width:
        return node.args[0]
    return None
