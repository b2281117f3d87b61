"""Sessions: assemble a pipeline from named parts and run it.

A :class:`Session` is the composable front door to the Figure 9
pipeline: pick a :class:`~repro.api.targets.Target`, a cost function
(by :class:`~repro.cost.terms.CostSpec` or flag string), a search
strategy (by :class:`~repro.search.strategies.StrategySpec` or name),
a :class:`~repro.search.config.SearchConfig`, and optionally a
validator and engine options — then :meth:`Session.run` executes the
campaign and returns a JSON-serializable :class:`Result`.

At every default a session adds nothing to the engine: its result
wraps exactly what :meth:`Campaign.run` returns for the same
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.api.targets import Target
from repro.cost.terms import CostSpec
from repro.engine.campaign import (Campaign, CampaignResult,
                                   EngineOptions)
from repro.search.config import SearchConfig
from repro.search.strategies import StrategySpec
from repro.verifier.validator import Validator
from repro.x86.printer import format_program


@dataclass
class Result:
    """Everything a session run produced, in reportable form.

    Plain data throughout — ``to_json()`` emits a dict that survives
    ``json.dumps`` unchanged. The engine's full
    :class:`~repro.engine.campaign.CampaignResult` (programs, per-chain
    diagnostics, refined testcases) stays available on ``stoke`` for
    programmatic use.
    """

    name: str
    verified: bool
    target_asm: str
    rewrite_asm: str | None
    target_cycles: int
    rewrite_cycles: int
    speedup: float
    seconds: float
    cost: str
    strategy: str
    proposals_per_second: float
    testcases_per_proposal: float
    stoke: CampaignResult = field(repr=False)
    budget: str = "fixed"
    interleave: str = "none"
    chains_scheduled: int = 0
    chains_saved: int = 0
    #: Chain jobs abandoned after exhausting their retry budget, and
    #: their ids — graceful degradation is reported, never silent.
    chains_quarantined: int = 0
    quarantined_jobs: list[str] = field(default_factory=list)
    #: Deterministic search-telemetry summary (merged over all chains).
    telemetry: dict[str, Any] = field(default_factory=dict)
    #: Shrink summary (``MinimizeResult.to_json()``) when the engine
    #: minimized the winner; None otherwise.
    minimize: dict[str, Any] | None = None

    @property
    def improved(self) -> bool:
        return self.rewrite_asm is not None

    def to_json(self) -> dict[str, Any]:
        """A plain-JSON report (everything but the program objects)."""
        return {
            "name": self.name,
            "verified": self.verified,
            "target_asm": self.target_asm,
            "rewrite_asm": self.rewrite_asm,
            "target_cycles": self.target_cycles,
            "rewrite_cycles": self.rewrite_cycles,
            "speedup": round(self.speedup, 4),
            "seconds": round(self.seconds, 3),
            "cost": self.cost,
            "strategy": self.strategy,
            "budget": self.budget,
            "interleave": self.interleave,
            "chains_scheduled": self.chains_scheduled,
            "chains_saved": self.chains_saved,
            "chains_quarantined": self.chains_quarantined,
            "quarantined_jobs": list(self.quarantined_jobs),
            "proposals_per_second": round(self.proposals_per_second, 1),
            "testcases_per_proposal":
                round(self.testcases_per_proposal, 3),
            "telemetry": self.telemetry,
            "minimize": self.minimize,
        }


_DEFAULT_VALIDATOR = object()


class Session:
    """One assembled pipeline run over one target.

    Args:
        target: what to optimize (see :class:`Target` constructors).
        config: MCMC/search tunables; defaults to the paper's table.
        cost: cost function spec — a :class:`CostSpec`, a flag string
            like ``"correctness,latency:2"``, or None for the paper's
            eq + perf.
        strategy: search strategy — a :class:`StrategySpec`, a registry
            name like ``"greedy"``, or None for the paper's MCMC.
        validator: sound validator for candidate promotion; defaults to
            a fresh :class:`Validator`, pass None to skip validation.
        engine: execution options — executor spec (``serial``,
            ``pool:n=N``, ``tcp:spawn=N``), checkpoint directory, chain
            budget (``fixed`` / ``adaptive:stable=K``), winner
            minimization (``minimize=True``, applied by the engine) and
            a live progress listener.
    """

    def __init__(self, target: Target, *,
                 config: SearchConfig | None = None,
                 cost: CostSpec | str | None = None,
                 strategy: StrategySpec | str | None = None,
                 validator: Validator | None | object = _DEFAULT_VALIDATOR,
                 engine: EngineOptions | None = None) -> None:
        self.target = target
        self.config = config or SearchConfig()
        self.cost = CostSpec.parse(cost)
        self.strategy = StrategySpec.parse(strategy)
        if validator is _DEFAULT_VALIDATOR:
            validator = Validator()
        self.validator = validator
        self.engine = engine

    def campaign(self) -> Campaign:
        """The assembled campaign, not yet running.

        A cross-kernel sweep (:func:`repro.engine.sweep.run_campaigns`)
        collects one of these per kernel and executes them over a
        shared pool; :meth:`wrap` turns the outcome back into a
        :class:`Result`.
        """
        return Campaign(
            self.target.program, self.target.spec, self.target.annotations,
            config=self.config, validator=self.validator,
            options=self.engine or EngineOptions(), cost=self.cost,
            strategy=self.strategy, name=self.target.name)

    def run(self) -> Result:
        """Execute the campaign and wrap its outcome."""
        campaign = self.campaign()
        return self.wrap(campaign, campaign.run())

    def wrap(self, campaign: Campaign, outcome: CampaignResult) -> Result:
        """Report one campaign outcome as a :class:`Result`.

        Pure formatting: the engine has already applied every option,
        winner minimization included.
        """
        merged = outcome.merged_telemetry()
        telemetry = {
            "proposals": merged.proposals,
            "accepted": merged.accepted,
            "acceptance_rate": round(merged.acceptance_rate(), 4),
            "testcases_per_proposal":
                round(merged.testcases_per_proposal, 3),
            "moves": {kind: row for kind, row in merged.move_table()},
        }
        return Result(
            name=self.target.name,
            verified=outcome.verified,
            target_asm=format_program(outcome.target.compact()),
            rewrite_asm=(None if outcome.rewrite is None
                         else format_program(outcome.rewrite)),
            target_cycles=outcome.target_cycles,
            rewrite_cycles=outcome.rewrite_cycles,
            speedup=outcome.speedup,
            seconds=outcome.seconds,
            cost=self.cost.spec_string(),
            strategy=self.strategy.spec_string(),
            proposals_per_second=outcome.proposals_per_second,
            testcases_per_proposal=outcome.testcases_per_proposal,
            stoke=outcome,
            budget=campaign.budget.spec_string(),
            interleave=campaign.options.interleave_policy,
            chains_scheduled=outcome.chains_scheduled,
            chains_saved=outcome.chains_saved,
            chains_quarantined=outcome.chains_quarantined,
            quarantined_jobs=list(outcome.quarantined_jobs),
            telemetry=telemetry,
            minimize=(None if outcome.minimize is None
                      else outcome.minimize.to_json()),
        )
