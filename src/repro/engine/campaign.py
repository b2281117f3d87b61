"""Campaign orchestration: waves of chains, checkpointed, aggregated.

A campaign runs the Figure 9 pipeline as two waves of independent jobs:

1. every synthesis chain (the verified survivors, plus the target,
   become the optimization starting points), then
2. optimization chains over every start — granted incrementally, one
   chain round at a time, so the campaign's stopping rule
   (:mod:`repro.engine.budget`) can stop a kernel whose best verified
   ranking has stabilized (or whose wall-clock budget is spent)
   instead of burning its whole allocation.

Execution lives in :mod:`repro.engine.sweep`: a :class:`Campaign` is
the *description* of one kernel's search (target, specs, options,
fingerprint), and :meth:`Campaign.run` is simply the one-kernel case
of the cross-kernel scheduler — ``repro engine campaign --interleave``
runs many of these over one shared pool.

Each completed job is journaled before the next result is awaited, so
an interrupted campaign resumed with the same run directory re-runs
only the missing chains — and, because jobs are independent, results
are aggregated in plan order, and stopping decisions depend only on
that plan-order sequence (or on journaled grant decisions, for the
clock-driven ``wallclock`` rule), a campaign finishes with results
identical to an uninterrupted run at any worker count.

Progress is streamed as versioned events (:mod:`repro.engine.events`):
to ``<run_dir>/events.jsonl`` when checkpointing, and to the
``EngineOptions.progress`` listener live — the partial aggregates a
multi-host scheduler (or ``--progress``) consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.cost.terms import CostSpec
from repro.engine import serialize
from repro.engine.budget import BudgetSpec
from repro.engine.checkpoint import CheckpointStore
from repro.engine.events import ProgressListener
from repro.engine.executor import ExecutorSpec
from repro.engine.serialize import Json
from repro.errors import EngineError
from repro.search.config import SearchConfig
from repro.search.phases import PhaseResult
from repro.search.ranker import RankedRewrite
from repro.search.strategies import StrategySpec
from repro.telemetry.chain import ChainTelemetry
from repro.telemetry.metrics import safe_rate
from repro.testgen.annotations import Annotations
from repro.testgen.generator import TestcaseGenerator
from repro.testgen.testcase import Testcase
from repro.verifier.validator import LiveSpec, Validator
from repro.x86.program import Program

if TYPE_CHECKING:                               # pragma: no cover
    from repro.minimize import cegis
    from repro.minimize.driver import MinimizeResult

INTERLEAVE_NONE = "none"
INTERLEAVE_ROUNDROBIN = "roundrobin"


@dataclass(frozen=True)
class EngineOptions:
    """How to execute a campaign.

    Attributes:
        executor: which executor runs the jobs — an
            :class:`~repro.engine.executor.ExecutorSpec` or its spec
            string (``--executor``). ``serial``, the default, runs
            in this process; ``pool:n=N`` runs a local pool of N >= 2
            processes; ``tcp:spawn=N`` runs a TCP coordinator
            (:class:`~repro.engine.remote.RemoteExecutor`) with N >= 1
            loopback workers, which remote hosts may join and leave
            mid-campaign. Results are bit-identical on every executor;
            the manifest (v8) freezes the *transport* (``local`` vs
            ``tcp:wire=N``), never the worker count.
        run_dir: checkpoint directory; None disables checkpointing.
        resume: continue a journaled campaign instead of starting
            fresh (requires ``run_dir``).
        budget: chain-scheduling stopping rule — a
            :class:`~repro.engine.budget.BudgetSpec` or its spec string
            (``"fixed"``, ``"adaptive:stable=K"``,
            ``"plateau:eps=E,stable=K"``, ``"wallclock:secs=S"``). The
            default ``fixed`` runs every configured chain,
            bit-identical to the pre-budget engine.
        interleave: grant chain rounds from many kernels to one shared
            pool in round-robin order instead of draining one kernel
            at a time. Results are bit-identical either way; the
            policy is frozen in the checkpoint manifest (v4) so a
            resume cannot silently switch schedulers.
        minimize: shrink each kernel's winning rewrite after the
            campaign aggregates — True for the default pass list, a
            :class:`~repro.minimize.spec.MinimizeSpec`, its spec
            string (a comma-separated pass list, or ``"default"``), or
            None/False to leave winners as found. The policy is frozen
            in the manifest (v6): minimization changes the reported
            rewrite, so a resume cannot silently toggle it.
        harden: seed this campaign's base testcases from the kernel's
            persistent counterexample suite (``cex_suite.jsonl`` in
            the run directory) and persist every counterexample its
            chains discover back — the cross-run CEGIS flywheel.
            Requires ``run_dir``; frozen in the manifest like
            ``minimize``.
        job_timeout: per-attempt deadline in seconds (``--job-timeout``);
            a job whose result has not arrived by its deadline is
            re-granted (capped exponential backoff per attempt). None
            disables deadlines — a crashed worker still retries, but a
            silently stalled one would wait forever.
        retries: re-grants allowed per job after its first attempt
            (``--retries``); a job failing ``retries + 1`` attempts is
            quarantined and the campaign degrades gracefully. Frozen in
            the checkpoint manifest (v7) with ``job_timeout`` as the
            retry-policy fingerprint.
        faults: deterministic fault injection (``--faults``) — a
            :class:`~repro.engine.faults.FaultPlan`, its spec string
            (``faults:seed=S,crash=P,dup=P,stall=P,corrupt=P``), or
            None for a fault-free run. Injection wraps the executor
            only; it is test machinery, not resume state, so it is
            deliberately *not* part of the manifest fingerprint.
        progress: optional live listener for campaign progress events;
            also streamed to ``<run_dir>/events.jsonl`` when
            checkpointing.
    """

    executor: ExecutorSpec | str = field(default_factory=ExecutorSpec)
    run_dir: str | Path | None = None
    resume: bool = False
    budget: BudgetSpec | str = field(default_factory=BudgetSpec)
    interleave: bool = False
    minimize: "MinimizeSpec | str | bool | None" = None
    harden: bool = False
    job_timeout: float | None = None
    retries: int | None = None
    faults: "FaultPlan | str | None" = None
    progress: ProgressListener | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "executor",
                           ExecutorSpec.parse(self.executor))
        if self.resume and self.run_dir is None:
            raise EngineError("--resume requires a run directory")
        if self.harden and self.run_dir is None:
            raise EngineError("harden requires a run directory (the "
                              "counterexample suite lives there)")
        object.__setattr__(self, "budget", BudgetSpec.parse(self.budget))
        from repro.minimize.spec import MinimizeSpec
        minimize = self.minimize
        if minimize is False:
            minimize = None
        elif minimize is True:
            minimize = MinimizeSpec()
        elif minimize is not None:
            minimize = MinimizeSpec.parse(minimize)
        object.__setattr__(self, "minimize", minimize)
        from repro.engine.faults import FaultPlan, RetryPolicy
        retries = (RetryPolicy().retries if self.retries is None
                   else self.retries)
        # construct eagerly so bad knobs fail at options time, and
        # keep the normalized policy via the retry_policy property
        policy = RetryPolicy(retries=retries,
                             job_timeout=self.job_timeout)
        object.__setattr__(self, "retries", policy.retries)
        object.__setattr__(self, "job_timeout", policy.job_timeout)
        faults = FaultPlan.parse(self.faults)
        if faults is not None and faults.stall > 0 \
                and self.job_timeout is None:
            raise EngineError(
                "a fault plan with stall > 0 requires a job timeout; "
                "only a deadline can recover a stalled worker")
        object.__setattr__(self, "faults", faults)

    @property
    def interleave_policy(self) -> str:
        """The manifest form of the scheduling policy."""
        return (INTERLEAVE_ROUNDROBIN if self.interleave
                else INTERLEAVE_NONE)

    @property
    def minimize_policy(self) -> str:
        """The manifest form of the minimize policy."""
        from repro.minimize.spec import MINIMIZE_OFF
        if self.minimize is None:
            return MINIMIZE_OFF
        return self.minimize.spec_string()

    @property
    def retry_policy(self) -> "RetryPolicy":
        """The normalized retry policy (``--retries``/``--job-timeout``)."""
        from repro.engine.faults import RetryPolicy
        assert self.retries is not None     # normalized in post-init
        return RetryPolicy(retries=self.retries,
                           job_timeout=self.job_timeout)

    @property
    def transport_policy(self) -> str:
        """The manifest (v8) form of the execution transport.

        ``local`` or ``tcp:wire=N`` — the frame vocabulary, not the
        worker count, is what a resume must agree on (counts are
        invisible in results by construction).
        """
        return self.executor.transport


@dataclass
class CampaignResult:
    """Everything one kernel's campaign produced.

    Attributes:
        rewrite: the best verified rewrite (None if none was found —
            the target itself always remains a valid answer). Under
            ``EngineOptions.minimize`` it is the winner after
            shrinking, every step re-proved against the target.
        verified: True when ``rewrite`` passed the sound validator.
        target_cycles / rewrite_cycles: modeled runtimes for reporting
            (of the shrunk rewrite, when minimized).
        ranked: the final verified ranking, as the chains found it
            (minimization shrinks only the reported ``rewrite``).
        synthesis / optimization: per-chain phase diagnostics.
        testcases: the final (possibly counterexample-refined) suite.
        seconds: wall-clock time of the whole run.
        chains_scheduled: chains the engine actually ran (synthesis
            plus optimization chain rounds).
        chains_saved: configured chains an adaptive budget skipped
            because the ranking had stabilized (0 under ``fixed``).
        chains_quarantined: chain jobs abandoned after exhausting
            their retry budget (0 on a healthy run); the campaign
            degrades gracefully, aggregating over the survivors.
        quarantined_jobs: the abandoned jobs' ids, sorted — always
            reported, never silently dropped.
        minimize: the shrink report
            (:class:`~repro.minimize.driver.MinimizeResult`) when the
            campaign ran with ``EngineOptions.minimize`` and found a
            rewrite; None otherwise.
    """

    target: Program
    rewrite: Program | None
    verified: bool
    target_cycles: int
    rewrite_cycles: int
    ranked: list[RankedRewrite] = field(default_factory=list)
    synthesis: list[PhaseResult] = field(default_factory=list)
    optimization: list[PhaseResult] = field(default_factory=list)
    testcases: list[Testcase] = field(default_factory=list)
    seconds: float = 0.0
    synthesis_seconds: float = 0.0
    optimization_seconds: float = 0.0
    chains_scheduled: int = 0
    chains_saved: int = 0
    chains_quarantined: int = 0
    quarantined_jobs: list[str] = field(default_factory=list)
    minimize: MinimizeResult | None = None

    @property
    def speedup(self) -> float:
        """Modeled target/rewrite cycle ratio (>1 means improvement)."""
        if self.rewrite is None or self.rewrite_cycles == 0:
            return 1.0
        return self.target_cycles / self.rewrite_cycles

    @property
    def synthesis_succeeded(self) -> bool:
        return any(phase.verified for phase in self.synthesis)

    # -- inner-loop throughput (aggregated over every chain) -------------

    def _chain_totals(self) -> tuple[int, int, float]:
        proposals = testcases = 0
        seconds = 0.0
        for phase in self.synthesis + self.optimization:
            if phase.chain is None:
                continue
            stats = phase.chain.stats
            proposals += stats.proposals
            testcases += stats.testcases_evaluated
            seconds += stats.seconds
        return proposals, testcases, seconds

    @property
    def proposals_per_second(self) -> float:
        """Aggregate inner-loop throughput (chain time, not wall).

        Finite even when every chain finished under the clock's
        resolution (``safe_rate`` clamps the denominator).
        """
        proposals, _testcases, seconds = self._chain_totals()
        return safe_rate(proposals, seconds)

    @property
    def testcases_per_proposal(self) -> float:
        """Mean testcases evaluated per proposal (Figure 5's y-axis)."""
        proposals, testcases, _seconds = self._chain_totals()
        return testcases / proposals if proposals else 0.0

    def merged_telemetry(self) -> ChainTelemetry:
        """Every chain's search telemetry absorbed into one aggregate
        (counters only: traces are per chain)."""
        merged = ChainTelemetry()
        for phase in self.synthesis + self.optimization:
            if phase.chain is not None:
                merged.absorb(phase.chain.stats)
        return merged


class Campaign:
    """One orchestrated, resumable search campaign."""

    def __init__(self, target: Program, spec: LiveSpec,
                 annotations: Annotations, *, config: SearchConfig,
                 validator: Validator | None,
                 options: EngineOptions | None = None,
                 cost: CostSpec | None = None,
                 strategy: StrategySpec | None = None,
                 name: str = "target") -> None:
        self.target = target
        self.spec = spec
        self.annotations = annotations
        self.config = config
        self.validator = validator
        self.options = options or EngineOptions()
        self.cost = cost if cost is not None else CostSpec()
        self.strategy = strategy if strategy is not None else StrategySpec()
        self.name = name

    @property
    def budget(self) -> BudgetSpec:
        spec = self.options.budget
        assert isinstance(spec, BudgetSpec)    # normalized in options
        return spec

    def run(self) -> CampaignResult:
        """Execute (or finish) the campaign and aggregate the result.

        A single campaign is the one-kernel case of the cross-kernel
        scheduler — see :func:`repro.engine.sweep.run_campaigns` for
        the sweep over many.
        """
        from repro.engine.sweep import run_campaigns
        return run_campaigns([self])[0]

    # -- run state ------------------------------------------------------------

    def _fingerprint(self) -> Json:
        return {
            "target": serialize.program_to_json(self.target),
            "spec": serialize.spec_to_json(self.spec),
            "annotations": serialize.annotations_to_json(
                self.annotations),
            "config": serialize.config_to_json(self.config),
            "cost": self.cost.spec_string(),
            "strategy": self.strategy.spec_string(),
            "budget": self.budget.spec_string(),
            "interleave": self.options.interleave_policy,
            "minimize": self.options.minimize_policy,
            "harden": self.options.harden,
            "retry": self.options.retry_policy.spec_string(),
            "transport": self.options.transport_policy,
        }

    def _initial_state(self, store: CheckpointStore | None) \
            -> tuple[list[Testcase], dict[str, Json],
                     cegis.CounterexampleSuite | None]:
        """Base testcases, already-completed job payloads, and the
        counterexample suite when this start opened one.

        A resumed campaign takes its testcases from the manifest (they
        were random-generated; regeneration is deterministic, but the
        manifest is the ground truth the journaled jobs actually saw).
        A fresh hardened campaign merges the run directory's persisted
        counterexample suite into the generated base before the
        manifest freezes them — ``start_fresh`` truncates the journals
        but never ``cex_suite.jsonl``, which is what makes the suite a
        cross-run flywheel rather than per-run state. That suite is
        handed on, so the schedule appends to it without decoding the
        file again; a resume opens none here.
        """
        if self.options.resume:
            assert store is not None
            manifest = store.load_manifest(self._fingerprint())
            testcases = [serialize.testcase_from_json(tc)
                         for tc in manifest["testcases"]]
            # a structurally damaged journal record (bit rot that
            # still parses as JSON) is dropped here, so the resumed
            # campaign simply re-runs that job instead of crashing
            # the decoder mid-aggregation
            from repro.engine.jobs import payload_problem
            completed = {job_id: payload for job_id, payload
                         in store.completed().items()
                         if payload_problem(payload) is None}
            return testcases, completed, None
        generator = TestcaseGenerator(self.target, self.spec,
                                      self.annotations,
                                      seed=self.config.seed)
        testcases = generator.generate(self.config.testcase_count)
        suite = None
        if self.options.harden:
            assert store is not None     # enforced by EngineOptions
            from repro.minimize.cegis import CounterexampleSuite
            from repro.testgen.suite import append_unique
            suite = CounterexampleSuite.for_run_dir(
                store.run_dir, journals=store.journals)
            append_unique(testcases, suite.testcases())
        if store is not None:
            manifest = self._fingerprint()
            manifest["testcases"] = [serialize.testcase_to_json(tc)
                                     for tc in testcases]
            store.start_fresh(manifest)
        return testcases, {}, suite
