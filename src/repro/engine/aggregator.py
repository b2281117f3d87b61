"""Result aggregation: merge chain outputs into one verdict.

Aggregation is pure and order-insensitive to *completion* order — it
only looks at results arranged in plan order — so a campaign produces
the same aggregate whether its chains ran serially, across a pool, or
partly out of a resume journal.

The final candidate costs are recomputed here on the campaign-wide
merged testcase suite (base testcases plus every counterexample any
chain discovered), mirroring the serial pipeline, which re-scored its
survivors on the refined suite before re-ranking.

The same machinery also runs *during* a campaign: after each completed
chain the adaptive budget asks for the running ranking's
:func:`best_signature`, and the progress stream publishes it as a
partial aggregate — the final ranking is just the last of these, over
every result. Its journal form (:func:`ranking_to_json`) lands in the
kernel's ``campaign`` metrics record, and :func:`ranking_from_json`
rebuilds it from the same pool, so a resume of a finished kernel need
not rank again.
"""

from __future__ import annotations

from typing import Iterable

from repro.cost.function import CostFunction, Phase
from repro.cost.terms import CostSpec
from repro.engine.jobs import JobResult
from repro.engine.serialize import Json, program_key
from repro.search.config import SearchConfig
from repro.search.ranker import RankedRewrite, rerank
from repro.testgen.testcase import Testcase
from repro.x86.program import Program


def dedup_programs(programs: Iterable[Program]) -> list[Program]:
    """Drop later duplicates; two programs with equal compacted code
    (and labels) count as the same candidate."""
    return list(_by_key(programs).values())


def _by_key(programs: Iterable[Program]) -> dict[str, Program]:
    unique: dict[str, Program] = {}
    for program in programs:
        unique.setdefault(program_key(program), program)
    return unique


def merge_testcases(base: list[Testcase],
                    results: list[JobResult]) -> list[Testcase]:
    """Base suite plus deduped counterexamples, in plan order."""
    merged = list(base)
    seen = set(base)
    for result in results:
        for testcase in result.new_testcases:
            if testcase in seen:
                continue
            seen.add(testcase)
            merged.append(testcase)
    return merged


def synthesis_starts(target: Program,
                     results: list[JobResult]) -> list[Program]:
    """Optimization starting points: the target plus every distinct
    synthesized equivalent, in plan order."""
    verified = [program for result in results
                for program in result.verified]
    return dedup_programs([target] + verified)


def final_ranking(target: Program, config: SearchConfig,
                  testcases: list[Testcase],
                  results: list[JobResult], *,
                  cost: CostSpec | None = None) -> list[RankedRewrite]:
    """Score the verified pool on the merged suite and re-rank.

    Survivors are scored with the same cost spec the chains searched
    under. The target is always admitted as a candidate, so the
    campaign can never rank worse than the program it was given.
    """
    spec = cost if cost is not None else CostSpec()
    cost_fn = CostFunction(testcases, target,
                           phase=Phase.OPTIMIZATION,
                           weights=config.weights,
                           improved=config.improved_cost,
                           terms=spec.instantiate())
    candidates = [(_cost(cost_fn, program), program)
                  for program in verified_pool(results).values()]
    candidates.append((_cost(cost_fn, target), target))
    return rerank(candidates, window=config.rank_window)


def verified_pool(results: list[JobResult]) -> dict[str, Program]:
    """The distinct verified programs, by program key, in plan order."""
    return _by_key(program for result in results
                   for program in result.verified)


def ranking_to_json(ranked: list[RankedRewrite], target: Program,
                    target_cycles: int, pool_size: int,
                    testcases: int) -> Json:
    """A final ranking as the campaign record journals it.

    One row per ranked rewrite, by program key; the target's row is
    marked, since a verified program may share its key. The sizes of
    the pool and the suite it was ranked on let a reader tell a
    ranking of other inputs.
    """
    rows = []
    for rewrite in ranked:
        row = {"program_key": program_key(rewrite.program),
               "cost": rewrite.cost, "cycles": rewrite.cycles}
        if rewrite.program is target:
            row["target"] = True
        rows.append(row)
    return {"target_cycles": target_cycles, "candidates": pool_size + 1,
            "testcases": testcases, "rows": rows}


def ranking_from_json(ranking: Json, pool: dict[str, Program],
                      target: Program, testcases: int) \
        -> tuple[list[RankedRewrite], int] | None:
    """A journaled ranking's rows as rewrites, and the target's cycles.

    ``pool`` is :func:`verified_pool` of the results being finished.
    None when the record cannot be trusted: it ranked a pool or a
    suite of another size, is malformed, or names a program that is
    neither in the pool nor the target.
    """
    try:
        if (ranking["candidates"] != len(pool) + 1
                or ranking["testcases"] != testcases
                or type(ranking["target_cycles"]) is not int):
            return None
        ranked = []
        for row in ranking["rows"]:
            key = row["program_key"]
            if row.get("target"):
                program = target if key == program_key(target) else None
            else:
                program = pool.get(key)
            if (program is None or type(row["cost"]) is not int
                    or type(row["cycles"]) is not int):
                return None
            ranked.append(RankedRewrite(program=program, cost=row["cost"],
                                        cycles=row["cycles"]))
    except (AttributeError, KeyError, TypeError):
        return None
    return ranked, ranking["target_cycles"]


def best_signature(target: Program, config: SearchConfig,
                   testcases: list[Testcase],
                   results: list[JobResult], *,
                   cost: CostSpec | None = None) -> tuple[str, int]:
    """The running ranking's head, as a stability signature.

    The signature is (best program key, modeled cycles). Cost is
    deliberately excluded: the merged suite grows as chains land, so a
    cost value can shift under an unchanged best program — which is
    churn in the score, not in the ranking the user receives.
    """
    ranked = final_ranking(target, config, testcases, results,
                           cost=cost)
    best = ranked[0]        # final_ranking always admits the target
    return (program_key(best.program), best.cycles)


def _cost(cost_fn: CostFunction, program: Program) -> int:
    result = cost_fn.evaluate(program)
    assert result.value is not None
    return result.value
