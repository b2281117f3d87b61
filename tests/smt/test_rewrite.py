"""Ground truth for the word-level rewrite of a validator query.

Each rule is checked exhaustively with :meth:`Context.evaluate` at
widths up to 4: every rewritten root must equal its original under
every assignment, and must take the rewritten form. Then the queries of
about 200 ``MoveGenerator`` mutants of the p01-p14 o0 targets are
rewritten and compared on random 32- and 64-bit inputs, and no
rewritten query may have more nodes than its input.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.errors import SymbolicExecutionError
from repro.search.config import SearchConfig
from repro.search.moves import MoveGenerator
from repro.smt.bitvec import BV, Context, topological
from repro.smt.rewrite import rewrite_query
from repro.suite.registry import benchmark
from repro.verifier.validator import Validator


def _variables(roots: list[BV]) -> dict[str, int]:
    return {node.name: node.width for node in topological(roots)
            if node.op == "var"}


def _exhaustively_equal(ctx: Context, roots: list[BV], *,
                        spare: int = 0) -> list[BV]:
    """Rewrite ``roots``; each must keep its value under every
    assignment, and the query may grow by at most ``spare`` nodes.
    Returns the rewrite."""
    rewritten = rewrite_query(ctx, roots)
    names = _variables(roots)
    assert len(topological(rewritten)) <= len(topological(roots)) + spare
    for values in itertools.product(*(range(1 << width)
                                      for width in names.values())):
        env = dict(zip(names, values))
        for old, new in zip(roots, rewritten):
            assert ctx.evaluate(old, env) == ctx.evaluate(new, env), env
    return rewritten


WIDTHS = (2, 3, 4)


# -- rule 1: glued extracts ------------------------------------------------------


@pytest.mark.parametrize("width", WIDTHS)
def test_adjacent_extracts_glue_back(width):
    ctx = Context()
    x, y = ctx.var(width, "x"), ctx.var(width, "y")
    value = ctx.xor(width, x, y)
    for hi, lo in itertools.combinations_with_replacement(
            range(width - 1, -1, -1), 2):
        for mid in range(lo, hi):
            glued = ctx.concat(hi - mid, ctx.extract(hi, mid + 1, value),
                               mid - lo + 1, ctx.extract(mid, lo, value))
            new, = _exhaustively_equal(ctx, [glued])
            assert new is ctx.extract(hi, lo, value)


@pytest.mark.parametrize("width", WIDTHS)
def test_value_split_into_bits_and_glued_back_is_the_value(width):
    ctx = Context()
    x = ctx.var(width, "x")
    glued = ctx.extract(0, 0, x)
    for bit in range(1, width):
        glued = ctx.concat(1, ctx.extract(bit, bit, x), bit, glued)
    new, = _exhaustively_equal(ctx, [glued])
    assert new is x


def test_extracts_of_different_values_or_gapped_ranges_stay():
    ctx = Context()
    x, y = ctx.var(4, "x"), ctx.var(4, "y")
    apart = ctx.concat(2, ctx.extract(3, 2, x), 2, ctx.extract(1, 0, y))
    gapped = ctx.concat(1, ctx.extract(3, 3, x), 1, ctx.extract(1, 1, x))
    assert _exhaustively_equal(ctx, [apart, gapped]) == [apart, gapped]


# -- rule 2: adds widened for their carry ----------------------------------------


@pytest.mark.parametrize("width", (1, 2, 3))
def test_low_bits_of_a_widened_add_are_the_add(width):
    ctx = Context()
    a, b = ctx.var(width, "a"), ctx.var(width, "b")
    wide = width + 1
    for other, narrow in ((ctx.zext(width, wide, b), b),
                          (ctx.const(wide, 1), ctx.const(width, 1))):
        total = ctx.add(wide, ctx.zext(width, wide, a), other)
        low = ctx.extract(width - 1, 0, total)
        carry = ctx.extract(width, width, total)
        new, = _exhaustively_equal(ctx, [low])
        assert new is ctx.add(width, a, narrow)
        # where the carry is read too, the wide add stays for it
        assert rewrite_query(ctx, [low, carry]) == [new, carry]


def test_an_add_of_wider_values_keeps_its_extract():
    ctx = Context()
    a, b = ctx.var(3, "a"), ctx.var(2, "b")
    low = ctx.extract(1, 0, ctx.add(3, a, ctx.zext(2, 3, b)))
    assert _exhaustively_equal(ctx, [low]) == [low]


# -- rule 3: a common summand cancels --------------------------------------------


@pytest.mark.parametrize("width", WIDTHS)
def test_common_summand_cancels_from_an_equality(width):
    ctx = Context()
    names = (ctx.var(width, name) for name in "abc")
    # each of the three is the common summand once: first or second
    # argument of its add, in the context's id order
    for common, b, c in itertools.permutations(names):
        left, right = ctx.add(width, common, b), ctx.add(width, c, common)
        new, = _exhaustively_equal(ctx, [ctx.eq(width, left, right)])
        assert new is ctx.eq(width, b, c)


def test_equal_sums_of_distinct_summands_stay():
    ctx = Context()
    a, b, c, d = (ctx.var(2, name) for name in "abcd")
    same = ctx.eq(2, ctx.add(2, a, b), ctx.add(2, c, d))
    assert _exhaustively_equal(ctx, [same]) == [same]


# -- rule 4: an ite with a constant arm moves up ----------------------------------


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("const_then", (True, False))
def test_ite_with_a_constant_arm_lifts_through_extract_zext_and(
        width, const_then):
    ctx = Context()
    c, q = ctx.var(1, "c"), ctx.var(width, "q")
    k = ctx.const(width, 1)
    choice = ctx.ite(width, c, *((k, q) if const_then else (q, k)))
    wide = width + 1
    cases = [ctx.extract(width - 1, 1, choice),
             ctx.zext(width, wide, choice),
             ctx.and_(width, ctx.const(width, 0b101), choice)]
    for node in cases:
        new, = _exhaustively_equal(ctx, [node])
        assert new.op == "ite" and new.args[0] is c


@pytest.mark.parametrize("op", ("shl", "lshr", "ashr"))
@pytest.mark.parametrize("width", WIDTHS)
def test_shift_by_an_ite_lifts_when_the_constant_count_is_built(op, width):
    ctx = Context()
    c = ctx.var(1, "c")
    x, q = ctx.var(width, "x"), ctx.var(width, "q")
    k = ctx.const(width, 1)
    by_k = getattr(ctx, op)(width, x, k)
    by_choice = getattr(ctx, op)(width, x, ctx.ite(width, c, k, q))
    _, new = _exhaustively_equal(ctx, [by_k, by_choice])
    assert new is ctx.ite(width, c, by_k, getattr(ctx, op)(width, x, q))
    # alone, the lift would add a node: it does not fire
    ctx = Context()
    c = ctx.var(1, "c")
    x, q = ctx.var(width, "x"), ctx.var(width, "q")
    alone = ctx.lshr(width, x, ctx.ite(width, c, ctx.const(width, 1), q))
    assert _exhaustively_equal(ctx, [alone]) == [alone]


def test_ite_without_a_constant_arm_stays():
    ctx = Context()
    c, p, q = ctx.var(1, "c"), ctx.var(3, "p"), ctx.var(3, "q")
    node = ctx.zext(3, 4, ctx.ite(3, c, p, q))
    assert _exhaustively_equal(ctx, [node]) == [node]


# -- rule 5: an equality with one arm of an ite -----------------------------------


@pytest.mark.parametrize("width", WIDTHS)
def test_equality_with_an_arm_of_an_ite_is_a_disjunction(width):
    ctx = Context()
    c = ctx.var(1, "c")
    p, q = ctx.var(width, "p"), ctx.var(width, "q")
    same = ctx.eq(width, p, q)
    # p in the else arm needs ``not c``, a node that blasts to no gate
    for choice, guard, spare in ((ctx.ite(width, c, p, q), c, 0),
                                 (ctx.ite(width, c, q, p), ctx.not_(1, c), 1)):
        for left, right in ((p, choice), (choice, p)):
            node = ctx.not_(1, ctx.eq(width, left, right))
            new, = _exhaustively_equal(ctx, [node], spare=spare)
            assert new is ctx.not_(1, ctx.or_(1, guard, same))


# -- all rules together, on the queries of search mutants --------------------------


KERNELS = [f"p{n:02d}" for n in range(1, 15)]
MUTANTS_PER_KERNEL = 15


def _mutant_queries(kernel: str):
    bench = benchmark(kernel)
    target = bench.o0
    config = SearchConfig(ell=len(target.compact().code) + 4)
    moves = MoveGenerator(target, config, random.Random(f"rewrite/{kernel}"))
    prog = target.compact().padded(config.ell)
    for _ in range(MUTANTS_PER_KERNEL):
        prog, _kind = moves.propose(prog)
        try:
            query = Validator()._query(target, prog, bench.spec)
        except SymbolicExecutionError:
            continue
        yield query


@pytest.mark.parametrize("kernel", KERNELS)
def test_mutant_queries_keep_their_values_and_do_not_grow(kernel):
    rng = random.Random(f"inputs/{kernel}")
    shrunk = 0
    for query in _mutant_queries(kernel):
        ctx, roots = query.ctx, query.roots
        rewritten = rewrite_query(ctx, roots)
        before, after = len(topological(roots)), len(topological(rewritten))
        assert after <= before
        shrunk += after < before
        names = _variables(roots)
        for bits in (32, 64) * 4:
            env = {name: rng.getrandbits(bits) for name in names}
            for old, new in zip(roots, rewritten):
                assert ctx.evaluate(old, env) == ctx.evaluate(new, env)
    assert shrunk, "no mutant query of this kernel was rewritten"
