"""Sessions: assemble a pipeline from named parts and run it.

A :class:`Session` is the composable front door to the Figure 9
pipeline: pick a :class:`~repro.api.targets.Target`, a cost function
(by :class:`~repro.cost.terms.CostSpec` or flag string), a search
strategy (by :class:`~repro.search.strategies.StrategySpec` or name),
a :class:`~repro.search.config.SearchConfig`, and optionally a
validator and engine options — then :meth:`Session.run` executes the
campaign and returns a JSON-serializable :class:`Result`.

The legacy ``Stoke`` facade is a thin shim over this class with every
choice left at its default, so both surfaces produce bit-identical
results for the same configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.api.targets import Target
from repro.cost.terms import CostSpec
from repro.engine.campaign import Campaign, EngineOptions
from repro.engine.checkpoint import CheckpointStore
from repro.minimize.driver import Minimizer, MinimizeResult
from repro.minimize.spec import MinimizeSpec
from repro.perfsim.model import actual_runtime
from repro.search.config import SearchConfig
from repro.search.stoke import StokeResult
from repro.search.strategies import StrategySpec
from repro.telemetry import MetricsLog
from repro.verifier.validator import Validator
from repro.x86.printer import format_program


@dataclass
class Result:
    """Everything a session run produced, in reportable form.

    Plain data throughout — ``to_json()`` emits a dict that survives
    ``json.dumps`` unchanged. The full :class:`StokeResult` (programs,
    per-chain diagnostics, refined testcases) stays available on
    ``stoke`` for programmatic use.
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
    stoke: StokeResult = field(repr=False)
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
    #: Shrink summary (``MinimizeResult.to_json()`` minus runtime) when
    #: the session ran with minimization; None otherwise.
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
        engine: execution options — worker count, checkpoint
            directory, chain budget (``fixed`` / ``adaptive:stable=K``),
            and a live progress listener.
        evaluator: how candidates execute in the inner loop —
            ``"compiled"`` (default) or ``"reference"``; overrides any
            ``evaluator=`` token in the cost spec. Results are
            bit-identical either way; only throughput differs.
        minimize: shrink the winning rewrite before the result is
            built — True for the default pass list, a spec string
            (comma-separated pass names) or
            :class:`~repro.minimize.spec.MinimizeSpec` to select
            passes, False/None to leave winners as found. Overrides
            ``engine.minimize`` when set.
    """

    def __init__(self, target: Target, *,
                 config: SearchConfig | None = None,
                 cost: CostSpec | str | None = None,
                 strategy: StrategySpec | str | None = None,
                 validator: Validator | None | object = _DEFAULT_VALIDATOR,
                 engine: EngineOptions | None = None,
                 evaluator: str | None = None,
                 minimize: MinimizeSpec | str | bool | None = None) -> None:
        self.target = target
        self.config = config or SearchConfig()
        self.cost = CostSpec.parse(cost).with_evaluator(evaluator)
        self.strategy = StrategySpec.parse(strategy)
        if validator is _DEFAULT_VALIDATOR:
            validator = Validator()
        self.validator = validator
        self.engine = engine
        self.minimize = minimize

    def campaign(self) -> Campaign:
        """The assembled campaign, not yet running.

        A cross-kernel sweep (:func:`repro.engine.sweep.run_campaigns`)
        collects one of these per kernel and executes them over a
        shared pool; :meth:`wrap` turns the outcome back into a
        :class:`Result`.
        """
        options = self.engine or EngineOptions()
        if self.minimize is not None and self.minimize is not False:
            options = replace(options, minimize=self.minimize)
        return Campaign(
            self.target.program, self.target.spec, self.target.annotations,
            config=self.config, validator=self.validator,
            options=options, cost=self.cost, strategy=self.strategy,
            name=self.target.name)

    def run(self) -> Result:
        """Execute the campaign and wrap its outcome."""
        campaign = self.campaign()
        return self.wrap(campaign, campaign.run())

    def _minimize_outcome(self, campaign: Campaign,
                          outcome: StokeResult) -> MinimizeResult | None:
        """Shrink the campaign's verified winner, per the options.

        Returns None when minimization is off, the campaign found no
        verified rewrite, or the rewrite is already minimal. Runs in
        the orchestrating process on the campaign's merged suite, so
        the shrunk program is a pure function of the campaign outcome
        — bit-identical at any worker count.
        """
        options = campaign.options
        if options.minimize is None or outcome.rewrite is None \
                or not outcome.verified:
            return None
        validator = (self.validator
                     if isinstance(self.validator, Validator)
                     else Validator())
        minimizer = Minimizer(campaign.target, campaign.spec,
                              campaign.annotations,
                              validator=validator,
                              spec_passes=options.minimize)
        minimized = minimizer.minimize(outcome.rewrite,
                                       testcases=outcome.testcases)
        if options.run_dir is not None:
            if options.harden and minimized.cegis_testcases:
                from repro.minimize.cegis import CounterexampleSuite
                suite = CounterexampleSuite.for_run_dir(options.run_dir)
                suite.note(outcome.testcases)
                suite.append(minimized.cegis_testcases)
            log = MetricsLog(
                CheckpointStore(options.run_dir).metrics_path)
            log.record_minimize(campaign.name, minimized.to_json())
        return minimized

    def wrap(self, campaign: Campaign, outcome: StokeResult) -> Result:
        """Report one campaign outcome as a :class:`Result`."""
        merged = outcome.merged_telemetry()
        telemetry = {
            "proposals": merged.proposals,
            "accepted": merged.accepted,
            "acceptance_rate": round(merged.acceptance_rate(), 4),
            "testcases_per_proposal":
                round(merged.testcases_per_proposal, 3),
            "moves": {kind: row for kind, row in merged.move_table()},
        }
        minimized = self._minimize_outcome(campaign, outcome)
        rewrite = outcome.rewrite
        rewrite_cycles = outcome.rewrite_cycles
        speedup = outcome.speedup
        if minimized is not None:
            rewrite = minimized.program
            rewrite_cycles = actual_runtime(rewrite)
            if rewrite_cycles:
                speedup = outcome.target_cycles / rewrite_cycles
        return Result(
            name=self.target.name,
            verified=outcome.verified,
            target_asm=format_program(outcome.target.compact()),
            rewrite_asm=(None if rewrite is None
                         else format_program(rewrite)),
            target_cycles=outcome.target_cycles,
            rewrite_cycles=rewrite_cycles,
            speedup=speedup,
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
            minimize=(None if minimized is None
                      else minimized.to_json()),
        )
