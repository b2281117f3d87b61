"""Metropolis-Hastings sampling over rewrites (Sections 3.2, 4.5).

Because the proposal distribution is symmetric, acceptance reduces to
the Metropolis ratio computed directly from the cost function:

    alpha = min(1, exp(-beta * (c(R*) - c(R))))

The *optimized acceptance computation* of Section 4.5 samples the
acceptance uniform p first, inverts the ratio to get the maximum cost
we could accept (Eq. 14),

    c(R*) < c(R) - log(p) / beta

and then evaluates testcases only until that bound is exceeded.

Each chain carries one record, its
:class:`~repro.telemetry.chain.ChainTelemetry`: the counters, the
downsampled cost trace (Figure 4) and the per-proposal testcase
histogram (Figure 5). Recording it never touches the rng.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from repro.cost.function import CostFunction
from repro.search.moves import MoveGenerator
from repro.telemetry.chain import ChainTelemetry
from repro.x86.program import Program


@dataclass
class ChainResult:
    """Final state of one MCMC chain; ``stats`` is its one record."""

    best_program: Program
    best_cost: int
    current_program: Program
    current_cost: int
    zero_cost: list[tuple[int, Program]]     # (cost, program), eq' == 0
    stats: ChainTelemetry


class MCMCSampler:
    """One Markov chain over fixed-length rewrites."""

    def __init__(self, cost_fn: CostFunction, moves: MoveGenerator,
                 start: Program, *, beta: float,
                 rng: random.Random,
                 early_termination: bool = True) -> None:
        self.cost_fn = cost_fn
        self.moves = moves
        self.beta = beta
        self.rng = rng
        self.early_termination = early_termination
        self.current = start
        result = cost_fn.evaluate(start)
        assert result.value is not None
        self.current_cost = result.value
        self.best = start
        self.best_cost = self.current_cost
        # (cost, program) pairs with eq' == 0, pruned to the best few —
        # the pool handed to the re-ranking step (Figure 9, stage 6)
        self.zero_cost: list[tuple[int, Program]] = []
        self._zero_cost_cap = 64
        if result.eq_term == 0:
            self.zero_cost.append((self.current_cost, start))

    def _acceptance_bound(self, step: int, p: float) -> float:
        """Invert the Metropolis ratio for uniform ``p`` (Eq. 14).

        The maximum candidate cost this step would accept; strategy
        variants (greedy descent, annealing schedules) override this
        single decision point and inherit the rest of the chain.
        """
        return self.current_cost - math.log(max(p, 1e-300)) / self.beta

    def run(self, proposals: int, *,
            stop_at_zero: bool = False) -> ChainResult:
        """Run the chain for a fixed number of proposals.

        Args:
            proposals: the computational budget.
            stop_at_zero: end early once a zero-eq-cost rewrite appears
                (used by the synthesis phase).
        """
        stats = ChainTelemetry()
        start_time = time.perf_counter()
        step = -1
        for step in range(proposals):
            candidate, kind = self.moves.propose(self.current)
            p = self.rng.random()
            bound = self._acceptance_bound(step, p)
            result = self.cost_fn.evaluate(
                candidate, bound=bound if self.early_termination else None)
            accept = (not result.exceeded and
                      result.value is not None and
                      result.value <= bound)
            previous_cost = self.current_cost
            if accept:
                assert result.value is not None
                self.current = candidate
                self.current_cost = result.value
                if result.value < self.best_cost:
                    self.best = candidate
                    self.best_cost = result.value
                if result.eq_term == 0:
                    self.zero_cost.append((result.value, candidate))
                    if len(self.zero_cost) > 2 * self._zero_cost_cap:
                        self.zero_cost.sort(key=lambda pair: pair[0])
                        del self.zero_cost[self._zero_cost_cap:]
            delta = (None if result.exceeded or result.value is None
                     else result.value - previous_cost)
            stats.record_proposal(
                stats.move_row(kind.value),
                accepted=accept, delta=delta,
                bounded=result.exceeded,
                testcases=result.testcases_evaluated,
                step=step, cost=self.current_cost,
                best=self.best_cost)
            if stop_at_zero and self.zero_cost:
                break
        stats.runtime["seconds"] = time.perf_counter() - start_time
        if step >= 0:
            stats.seal(step, self.current_cost, self.best_cost)
        return ChainResult(
            best_program=self.best,
            best_cost=self.best_cost,
            current_program=self.current,
            current_cost=self.current_cost,
            zero_cost=sorted(self.zero_cost, key=lambda pair: pair[0]),
            stats=stats,
        )
