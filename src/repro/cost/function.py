"""The full cost function c(R; T) (Eq. 2), as a weighted sum of terms.

The paper's c = eq + perf is the default instance of a more general
shape: a weighted sum of registered :class:`~repro.cost.terms.CostTerm`
objects. Static terms (latency, size, modeled cycles) are charged once
per candidate; per-testcase terms (correctness) accumulate inside the
testcase loop. Both search phases of Section 4.4 are supported:

* synthesis mode ignores the static terms entirely;
* optimization mode adds them, allowing temporary correctness
  violations while exploring shortcuts.

The evaluator supports bounded evaluation for the optimized acceptance
computation of Section 4.5: evaluation stops as soon as the running
cost exceeds the precomputed acceptance bound (Eq. 14). Two refinements
sharpen that loop:

* candidates are lowered once via :mod:`repro.emulator.compile` and
  run over the whole suite at once, one testcase per lane of a packed
  state (:mod:`repro.emulator.lanes`). ``evaluator="reference"``
  runs the original per-testcase interpreter instead; it is the oracle
  the compiled path is tested against, not a product setting. Both
  produce bit-identical states and therefore identical costs;
* testcases are visited most-discriminating-first, ordered by a
  deterministic per-testcase failure counter, so the Eq. 14 bound is
  usually exceeded within the first few testcases. Accept/reject
  decisions and final costs are unchanged (the total is a sum); only
  ``testcases_evaluated`` shifts.

A lane run scores every testcase, and the evaluator then replays those
per-testcase costs in visit order, so the Eq. 14 cut,
``testcases_evaluated`` and the failure counters come out exactly as
if the testcases had run one by one. A candidate the lanes cannot
carry — one with a jump, or one whose lane run raises ``LaneMiss``
(lanes that disagree on a memory address, or a runtime zero test that
splits them) — and any suite :meth:`LaneSuite.pack` refuses run one
testcase at a time from fresh initial states, on the same compiled
steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from repro.cost.correctness import CostWeights
from repro.cost.terms import (CostTerm, DEFAULT_COST_TERMS, CostSpec,
                              TermContext)
from repro.emulator.compile import COUNTERS, compile_program
from repro.emulator.cpu import Emulator
from repro.emulator.lanes import LaneSuite
from repro.emulator.state import MachineState
from repro.errors import SearchError
from repro.testgen.suite import input_key
from repro.testgen.testcase import Testcase
from repro.x86.program import Program


class Phase(Enum):
    """Which cost terms are active (Section 4.4)."""

    SYNTHESIS = "synthesis"
    OPTIMIZATION = "optimization"


@dataclass
class CostResult:
    """Outcome of evaluating one candidate rewrite.

    Attributes:
        value: the total cost, or None if evaluation terminated early
            because the bound was exceeded.
        eq_term: the per-testcase part (valid when value is not None);
            zero means the candidate passed every testcase.
        testcases_evaluated: how many testcases ran before stopping —
            the quantity plotted in Figure 5.
    """

    value: int | None
    eq_term: int
    testcases_evaluated: int

    @property
    def exceeded(self) -> bool:
        return self.value is None

    @property
    def correct_on_tests(self) -> bool:
        return self.value is not None and self.eq_term == 0


class CostFunction:
    """Evaluates c(R; T) over a testcase suite.

    The testcase list is copied on construction — counterexamples
    appended during search (which, as the paper notes, change the
    search landscape; that is intended) never mutate the caller's
    suite. ``terms`` takes (weight, unbound term) pairs, normally from
    :meth:`CostSpec.instantiate`; the default reproduces the paper's
    c = eq + perf exactly. Terms are bound to this function's target
    here, so instances must not be shared between cost functions.

    ``evaluator="reference"`` runs candidates on the reference
    interpreter, the oracle for the default ``"compiled"`` path; see
    the module docstring.
    """

    def __init__(self, testcases: Sequence[Testcase], target: Program, *,
                 phase: Phase = Phase.SYNTHESIS,
                 weights: CostWeights | None = None,
                 improved: bool = True,
                 max_steps: int = 10_000,
                 terms: Sequence[tuple[float, CostTerm]] | None = None,
                 evaluator: str = "compiled") -> None:
        self.testcases = list(testcases)
        self.weights = weights or CostWeights()
        self.improved = improved
        self.phase = phase
        self.max_steps = max_steps
        if evaluator not in ("compiled", "reference"):
            raise SearchError(f"unknown evaluator {evaluator!r} "
                              "(available: compiled, reference)")
        self.evaluator = evaluator
        # the suite packed into lanes, built on first use and again
        # after a counterexample is appended; None when lanes cannot
        # carry it
        self._lanes: LaneSuite | None = None
        self._lanes_stale = True
        self._fail_counts = [0] * len(self.testcases)
        self._input_keys = {input_key(tc) for tc in self.testcases}
        if terms is None:
            terms = CostSpec(DEFAULT_COST_TERMS).instantiate()
        context = TermContext(target=target, weights=self.weights,
                              improved=self.improved)
        for _weight, term in terms:
            term.bind(context)
        self.terms = list(terms)
        self._static_terms = [(weight, term) for weight, term in terms
                              if not term.per_testcase]
        self._testcase_terms = [(weight, term) for weight, term in terms
                                if term.per_testcase]
        if not self._testcase_terms:
            # without a per-testcase term every candidate scores
            # eq_term == 0, so search would promote arbitrary programs
            # straight to the (expensive, and here unrefinable)
            # validator on every proposal
            raise SearchError(
                "cost spec needs at least one per-testcase term "
                "(e.g. correctness)")

    def add_testcase(self, testcase: Testcase) -> bool:
        """Append a counterexample to the suite; True if it was novel.

        Testcases are keyed by their *inputs*: a duplicate input would
        add per-proposal evaluation cost without distinguishing any new
        candidates (the validator can re-discover the same
        counterexample when refinement and hardened base suites
        overlap), so duplicates are dropped.
        """
        if input_key(testcase) in self._input_keys:
            return False
        self._input_keys.add(input_key(testcase))
        self.testcases.append(testcase)
        self._lanes_stale = True
        self._fail_counts.append(0)
        return True

    def _visit_order(self) -> list[int]:
        """Testcase indices, most-discriminating-first.

        The failure counters depend only on the (deterministic)
        sequence of evaluations this function has performed, so the
        order — and with it the ``testcases_evaluated`` statistics —
        is reproducible across runs, worker counts and resumes.
        """
        counts = self._fail_counts
        # reverse=True keeps the sort stable: ties stay in index order
        return sorted(range(len(counts)), key=counts.__getitem__,
                      reverse=True)

    def _lane_suite(self) -> LaneSuite | None:
        if self._lanes_stale:
            self._lanes = LaneSuite.pack(
                [testcase.initial_state() for testcase in self.testcases],
                [testcase.valid_addresses for testcase in self.testcases])
            self._lanes_stale = False
        return self._lanes

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self, rewrite: Program,
                 bound: float | None = None) -> CostResult:
        """Compute c(rewrite), optionally stopping at ``bound``.

        With a bound (Eq. 14), evaluation is abandoned — and the
        proposal known rejected — once the running sum exceeds it.
        """
        total = 0
        if self.phase is Phase.OPTIMIZATION:
            for weight, term in self._static_terms:
                value = term.program_cost(rewrite)
                total += value if weight == 1 else int(value * weight)
        if bound is not None and total > bound:
            return CostResult(value=None, eq_term=0, testcases_evaluated=0)
        compiled = None
        lane_costs = None
        if self.evaluator == "compiled":
            lanes = self._lane_suite()
            compiled = compile_program(
                rewrite, lanes.layout if lanes is not None else None)
            if lanes is not None:
                lane_costs = self._lane_costs(rewrite, compiled, lanes)
            if lane_costs is None:
                COUNTERS.lane_fallbacks += 1
            else:
                COUNTERS.lane_runs += 1
        fail_counts = self._fail_counts
        limit = math.inf if bound is None else bound
        if lane_costs is not None:
            eq_term = sum(lane_costs)
            if total + eq_term <= limit and min(lane_costs) >= 0:
                # no running sum crosses the bound, so every testcase
                # counts and the visit order does not matter
                for index, case_total in enumerate(lane_costs):
                    if case_total:
                        fail_counts[index] += 1
                return CostResult(value=total + eq_term, eq_term=eq_term,
                                  testcases_evaluated=len(lane_costs))
        evaluated = 0
        eq_term = 0
        for index in self._visit_order():
            if total > limit:
                return CostResult(value=None, eq_term=eq_term,
                                  testcases_evaluated=evaluated)
            if lane_costs is not None:
                case_total = lane_costs[index]
            else:
                testcase = self.testcases[index]
                state = testcase.initial_state()
                if compiled is not None:
                    compiled.run(state, testcase.sandbox(),
                                 max_steps=self.max_steps)
                else:
                    Emulator(state, testcase.sandbox()).run(
                        rewrite, max_steps=self.max_steps)
                case_total = self._case_cost(rewrite, state, testcase)
            if case_total:
                fail_counts[index] += 1
                total += case_total
                eq_term += case_total
            evaluated += 1
        if bound is not None and total > bound:
            return CostResult(value=None, eq_term=eq_term,
                              testcases_evaluated=evaluated)
        return CostResult(value=total, eq_term=eq_term,
                          testcases_evaluated=evaluated)

    def _case_cost(self, rewrite: Program, state: MachineState,
                   testcase: Testcase) -> int:
        """The weighted per-testcase terms of one finished run."""
        case_total = 0
        for weight, term in self._testcase_terms:
            value = term.testcase_cost(rewrite, state, testcase)
            # ceil, not truncate: a failing testcase (value > 0) must
            # never weight down to 0, or eq_term == 0 would stop
            # meaning "passed every testcase"
            case_total += value if weight == 1 \
                else math.ceil(value * weight)
        return case_total

    def _lane_costs(self, rewrite: Program, compiled, lanes: LaneSuite) \
            -> list[int] | None:
        """Every testcase's weighted cost from one lane run, or None
        when the lanes cannot carry this candidate."""
        steps = compiled.lane_steps(lanes.layout)
        if steps is None or compiled.slots > self.max_steps:
            return None
        state = lanes.run(steps)
        if state is None:
            COUNTERS.lane_misses += 1
            return None
        costs: list[int] | None = None
        for weight, term in self._testcase_terms:
            values = term.lane_costs(rewrite, state, lanes,
                                     self.testcases)
            if weight != 1:
                values = [math.ceil(value * weight) for value in values]
            costs = values if costs is None else \
                [a + b for a, b in zip(costs, values)]
        return costs
