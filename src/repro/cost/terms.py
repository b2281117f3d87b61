"""Pluggable cost terms: the c = sum of weighted terms generalization.

The paper's cost function (Eq. 2) is a sum of two terms, eq + perf.
This module turns "two hardcoded terms" into "any weighted sum of
registered terms" while preserving the structure the optimized
acceptance computation of Section 4.5 depends on: *static* terms are
computed once per candidate before any testcase runs, and
*per-testcase* terms accumulate inside the bounded testcase loop.

Built-in terms (all normalized so the target itself scores zero):

==================  ============================================
``correctness``     eq'(R; T, t) per testcase (Eqs. 8-11, 15)
``latency``         H(R) - H(T), the static heuristic of Eq. 13
``size``            instruction count difference vs the target
``perfsim-cycles``  modeled-cycle difference from the scheduler
==================  ============================================

New terms are added with :func:`register_cost_term`; a
:class:`CostSpec` names terms (with optional weights) by registry key
and is the form that travels through CLI flags, worker processes, and
checkpoint manifests. Custom terms must be registered in every process
that evaluates them: with ``--jobs N`` on platforms that spawn (rather
than fork) workers, that means registering at import time of a module
the workers also import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, TYPE_CHECKING

from repro.cost.correctness import CostWeights, LaneScorer, testcase_cost
from repro.cost.performance import perf_term
from repro.errors import RegistryError, unknown_name_message
from repro.x86.latency import program_latency
from repro.x86.program import Program

if TYPE_CHECKING:
    from repro.emulator.lanes import LaneSuite
    from repro.emulator.state import MachineState
    from repro.testgen.testcase import Testcase


@dataclass(frozen=True)
class TermContext:
    """Everything a term may precompute against before evaluation.

    Attributes:
        target: the program being optimized (terms are differences
            against it, so the target itself always costs zero).
        weights: the paper's error/misplacement weights (Figure 11).
        improved: use the improved equality metric of Section 4.6.
    """

    target: Program
    weights: CostWeights
    improved: bool = True


class CostTerm:
    """One term of the cost function.

    Subclasses override :meth:`bind` to precompute against the target,
    then either :meth:`program_cost` (static terms, evaluated once per
    candidate) or :meth:`testcase_cost` (per-testcase terms, evaluated
    inside the bounded loop) — flagged by the ``per_testcase`` class
    attribute. A term instance is bound to exactly one
    :class:`~repro.cost.function.CostFunction`; registries hand out
    fresh instances for this reason.
    """

    name: str = "term"
    per_testcase: bool = False

    def bind(self, context: TermContext) -> None:
        """Precompute whatever the term needs about the target."""

    def program_cost(self, rewrite: Program) -> int:
        """Static contribution, charged once per candidate."""
        return 0

    def testcase_cost(self, rewrite: Program, state: MachineState,
                      testcase: Testcase) -> int:
        """Per-testcase contribution, read off the final machine state."""
        return 0

    def lane_costs(self, rewrite: Program, state: MachineState,
                   lanes: LaneSuite,
                   testcases: Sequence[Testcase]) -> list[int]:
        """:meth:`testcase_cost` of every testcase after one lane run.

        ``state`` holds testcase ``i`` in lane ``i``. The default reads
        each lane out as a plain machine state; a term can score the
        packed state directly.
        """
        return [self.testcase_cost(rewrite, lanes.lane(state, index),
                                   testcase)
                for index, testcase in enumerate(testcases)]


class CorrectnessTerm(CostTerm):
    """eq'(R; T, t): Hamming distance plus sandbox-event penalties."""

    name = "correctness"
    per_testcase = True

    def bind(self, context: TermContext) -> None:
        self.weights = context.weights
        self.improved = context.improved
        self._scorer: LaneScorer | None = None

    def testcase_cost(self, rewrite: Program, state: MachineState,
                      testcase: Testcase) -> int:
        return testcase_cost(state, testcase, self.weights,
                             improved=self.improved)

    def lane_costs(self, rewrite: Program, state: MachineState,
                   lanes: LaneSuite,
                   testcases: Sequence[Testcase]) -> list[int]:
        scorer = self._scorer
        if scorer is None or scorer.lanes is not lanes:
            scorer = self._scorer = LaneScorer(
                lanes, testcases, self.weights, improved=self.improved)
        if not scorer.uniform:
            return super().lane_costs(rewrite, state, lanes, testcases)
        return scorer.costs(state)


class LatencyTerm(CostTerm):
    """perf(R; T) of Eq. 13: static latency-sum difference H(R) - H(T)."""

    name = "latency"

    def bind(self, context: TermContext) -> None:
        self.target_latency = program_latency(context.target)

    def program_cost(self, rewrite: Program) -> int:
        return perf_term(rewrite, self.target_latency)


class SizeTerm(CostTerm):
    """Instruction-count difference: rewards shorter rewrites outright."""

    name = "size"

    def bind(self, context: TermContext) -> None:
        self.target_size = context.target.instruction_count

    def program_cost(self, rewrite: Program) -> int:
        return rewrite.instruction_count - self.target_size


class PerfsimCyclesTerm(CostTerm):
    """Modeled-cycle difference from the dependence-aware scheduler.

    Sharper than ``latency`` (it sees instruction-level parallelism)
    but considerably more expensive per evaluation; best used with
    smaller proposal budgets or as a re-ranking-aligned objective.
    """

    name = "perfsim-cycles"

    def bind(self, context: TermContext) -> None:
        from repro.perfsim.model import actual_runtime
        self._runtime = actual_runtime
        self.target_cycles = actual_runtime(context.target.compact())

    def program_cost(self, rewrite: Program) -> int:
        return self._runtime(rewrite.compact()) - self.target_cycles


# -- the registry -------------------------------------------------------------

TermFactory = Callable[[], CostTerm]

_COST_TERMS: dict[str, TermFactory] = {}


def register_cost_term(name: str, factory: TermFactory, *,
                       replace: bool = False) -> None:
    """Register a term factory under a spec key.

    The factory must return a *fresh, unbound* :class:`CostTerm` each
    call. Re-registering an existing key requires ``replace=True``.
    """
    if not replace and name in _COST_TERMS:
        raise RegistryError(f"cost term {name!r} is already registered "
                            "(pass replace=True to override)")
    _COST_TERMS[name] = factory


def make_cost_term(name: str) -> CostTerm:
    """Instantiate a fresh, unbound term by registry key."""
    try:
        factory = _COST_TERMS[name]
    except KeyError:
        raise RegistryError(
            unknown_name_message("cost term", name, _COST_TERMS)) from None
    return factory()


def available_cost_terms() -> list[str]:
    return sorted(_COST_TERMS)


register_cost_term("correctness", CorrectnessTerm)
register_cost_term("latency", LatencyTerm)
register_cost_term("size", SizeTerm)
register_cost_term("perfsim-cycles", PerfsimCyclesTerm)


# -- the spec -----------------------------------------------------------------

DEFAULT_COST_TERMS = (("correctness", 1.0), ("latency", 1.0))

EVALUATORS = frozenset({"compiled", "reference"})
"""How candidates execute in the testcase loop: ``compiled`` lowers the
rewrite once per candidate (:mod:`repro.emulator.compile`); ``reference``
interprets it per testcase. Results are bit-identical either way."""

DEFAULT_EVALUATOR = "compiled"


@dataclass(frozen=True)
class CostSpec:
    """A cost function by name: ordered (term key, weight) pairs.

    This is the serializable description of a cost function — the form
    carried by ``--cost`` flags, shipped to worker processes, and
    frozen into checkpoint manifests — resolved against the term
    registry only when a :class:`CostFunction` is actually built. The
    spec also carries the *evaluator* choice (``evaluator=reference``
    in the flag grammar), so worker processes and resumed campaigns
    execute candidates the same way the original run did.
    """

    terms: tuple[tuple[str, float], ...] = DEFAULT_COST_TERMS
    evaluator: str = DEFAULT_EVALUATOR

    def __post_init__(self) -> None:
        if not self.terms:
            raise RegistryError("a cost spec needs at least one term")
        seen: set[str] = set()
        for name, weight in self.terms:
            if name in seen:
                raise RegistryError(f"duplicate cost term {name!r}")
            seen.add(name)
            if weight <= 0:
                raise RegistryError(
                    f"cost term {name!r} needs a positive weight, "
                    f"got {weight}")
        if self.evaluator not in EVALUATORS:
            raise RegistryError(
                unknown_name_message("evaluator", self.evaluator,
                                     EVALUATORS))

    @classmethod
    def parse(cls, text: str | CostSpec | None) -> CostSpec:
        """Parse ``"correctness,latency:2[,evaluator=reference]"``.

        Term names (and the evaluator) are validated immediately so a
        typo fails at the flag, not thousands of proposals later.
        Weights default to 1.
        """
        if text is None:
            return cls()
        if isinstance(text, CostSpec):
            return text
        terms: list[tuple[str, float]] = []
        evaluator = DEFAULT_EVALUATOR
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if part.startswith("evaluator="):
                evaluator = part.removeprefix("evaluator=").strip()
                if evaluator not in EVALUATORS:
                    raise RegistryError(
                        unknown_name_message("evaluator", evaluator,
                                             EVALUATORS))
                continue
            name, _, weight_text = part.partition(":")
            name = name.strip()
            if name not in _COST_TERMS:
                raise RegistryError(
                    unknown_name_message("cost term", name, _COST_TERMS))
            if weight_text:
                try:
                    weight = float(weight_text)
                except ValueError:
                    raise RegistryError(
                        f"bad weight {weight_text!r} for cost term "
                        f"{name!r}") from None
            else:
                weight = 1.0
            terms.append((name, weight))
        if not terms:
            raise RegistryError("a cost spec needs at least one term")
        return cls(terms=tuple(terms), evaluator=evaluator)

    def spec_string(self) -> str:
        """The canonical flag/manifest form (defaults are implicit)."""
        parts = []
        for name, weight in self.terms:
            if weight == 1:
                parts.append(name)
            else:
                parts.append(f"{name}:{weight:g}")
        if self.evaluator != DEFAULT_EVALUATOR:
            parts.append(f"evaluator={self.evaluator}")
        return ",".join(parts)

    def with_evaluator(self, evaluator: str | None) -> "CostSpec":
        """This spec with the evaluator replaced (None keeps it)."""
        if evaluator is None or evaluator == self.evaluator:
            return self
        return CostSpec(terms=self.terms, evaluator=evaluator)

    def instantiate(self) -> list[tuple[float, CostTerm]]:
        """Fresh, unbound term instances with their weights."""
        return [(weight, make_cost_term(name))
                for name, weight in self.terms]
