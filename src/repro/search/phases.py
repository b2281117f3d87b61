"""Synthesis and optimization phases (Section 4.4).

The two phases share the MCMC implementation; only the starting point
and cost terms differ:

* **synthesis** starts from a random program and uses the correctness
  term only, trying to locate regions of equal programs distinct from
  the target's region;
* **optimization** starts from a program known (or believed) equivalent
  to the target and uses correctness + performance, so it can explore
  shortcuts that temporarily violate correctness.

Zero-test-cost candidates are promoted through the sound validator
(Eq. 12); counterexamples refine the testcase suite and the search
continues in the updated landscape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cost.function import CostFunction, Phase
from repro.search.config import SearchConfig
from repro.search.dce import eliminate_dead_code
from repro.search.mcmc import ChainResult
from repro.search.moves import MoveGenerator
from repro.search.strategies import MCMCStrategy, SearchStrategy
from repro.testgen.generator import TestcaseGenerator
from repro.verifier.validator import LiveSpec, Validator
from repro.x86.program import Program


@dataclass
class PhaseResult:
    """Outcome of one phase over one chain.

    Attributes:
        verified: rewrites proven equivalent by the validator, best
            cost first.
        candidates: zero-test-cost rewrites that were not validated
            (either unattempted or refuted-then-refined).
        chain: raw chain diagnostics.
        validations: number of validator queries made, memo hits
            included (a ``validations`` budget spends this count).
    """

    verified: list[Program] = field(default_factory=list)
    candidates: list[tuple[int, Program]] = field(default_factory=list)
    chain: ChainResult | None = None
    validations: int = 0


class _ValidatingPhase:
    """Shared validation-promotion logic for both phases."""

    def __init__(self, target: Program, spec: LiveSpec,
                 cost_fn: CostFunction, generator: TestcaseGenerator,
                 validator: Validator | None,
                 config: SearchConfig, *,
                 strategy: SearchStrategy | None = None) -> None:
        self.target = target
        self.spec = spec
        self.cost_fn = cost_fn
        self.generator = generator
        self.validator = validator
        self.config = config
        self.strategy = strategy if strategy is not None else MCMCStrategy()

    def promote(self, result: PhaseResult,
                zero_cost: list[tuple[int, Program]]) -> None:
        """Validate zero-test-cost candidates, refining on failure.

        Candidates are cleaned with dead code elimination first; DCE is
        conservative but the validator still gets the final word.
        """
        if self.validator is None:
            result.candidates.extend(zero_cost)
            return
        rounds = 0
        for cost, program in zero_cost:
            if rounds >= self.config.max_validation_rounds:
                result.candidates.append((cost, program))
                continue
            # counterexamples from earlier refutations refine the
            # testcase suite; re-check before paying for a proof, so a
            # whole family of deceptive candidates dies with one cex
            if self.cost_fn.evaluate(program).eq_term != 0:
                result.candidates.append((cost, program))
                continue
            rounds += 1
            result.validations += 1
            cleaned = eliminate_dead_code(program, self.spec).compact()
            outcome = self.validator.prove(self.target, cleaned,
                                           self.spec)
            if outcome.equivalent:
                result.verified.append(cleaned)
                continue
            assert outcome.counterexample is not None
            testcase = self.generator.from_counterexample(
                outcome.counterexample)
            self.cost_fn.add_testcase(testcase)
            result.candidates.append((cost, program))


class SynthesisPhase(_ValidatingPhase):
    """Random-start, correctness-only search."""

    def run(self, *, seed: int, proposals: int | None = None,
            moves: MoveGenerator | None = None) -> PhaseResult:
        rng = random.Random(seed)
        moves = moves or MoveGenerator(self.target, self.config, rng)
        budget = proposals if proposals is not None \
            else self.config.synthesis_proposals
        result = PhaseResult()
        remaining = budget
        start = moves.random_program()
        while remaining > 0:
            chain = self.strategy.run_chain(
                self.cost_fn, moves, start, config=self.config, rng=rng,
                proposals=remaining, stop_at_zero=True)
            remaining -= chain.stats.proposals
            result.chain = _merge_chain(result.chain, chain)
            if not chain.zero_cost:
                break                      # budget exhausted, no hit
            self.promote(result, chain.zero_cost[:1])
            if result.verified:
                break
            # refuted: continue searching from where the chain stopped
            start = chain.current_program
        return result


class OptimizationPhase(_ValidatingPhase):
    """Equivalent-start search over correctness + performance.

    The budget is split into segments; each segment restarts the chain
    from the best zero-test-cost rewrite found so far. This mirrors the
    paper's use of many parallel chains and keeps the search anchored
    near correct programs even when the combined cost function has
    deceptively cheap incorrect regions (the Section 6.3 failure mode).
    """

    def run(self, start: Program, *, seed: int,
            proposals: int | None = None,
            moves: MoveGenerator | None = None) -> PhaseResult:
        rng = random.Random(seed)
        moves = moves or MoveGenerator(self.target, self.config, rng)
        budget = proposals if proposals is not None \
            else self.config.optimization_proposals
        segments = max(1, self.config.optimization_restarts)
        segment_budget = max(1, budget // segments)
        anchor = start.compact().padded(self.config.ell) \
            if len(start.compact()) <= self.config.ell else start
        pool: list[tuple[int, Program]] = []
        result = PhaseResult()
        for _segment in range(segments):
            chain = self.strategy.run_chain(
                self.cost_fn, moves, anchor, config=self.config, rng=rng,
                proposals=segment_budget)
            result.chain = _merge_chain(result.chain, chain)
            pool.extend(chain.zero_cost)
            pool.sort(key=lambda pair: pair[0])
            del pool[32:]
            if pool:
                anchor = pool[0][1]
        self.promote(result, pool)
        return result


def _merge_chain(acc: ChainResult | None,
                 chain: ChainResult) -> ChainResult:
    if acc is None:
        return chain
    # segments of one chain continue each other: the segment's trace
    # steps shift by the proposals already run
    acc.stats.extend(chain.stats, step_offset=acc.stats.proposals)
    best = chain if chain.best_cost < acc.best_cost else acc
    return ChainResult(
        best_program=best.best_program,
        best_cost=best.best_cost,
        current_program=chain.current_program,
        current_cost=chain.current_cost,
        zero_cost=sorted(acc.zero_cost + chain.zero_cost,
                         key=lambda pair: pair[0]),
        stats=acc.stats,
    )
