"""Cross-kernel campaign scheduling: many kernels, one worker pool.

The paper's headline result comes from running many independent MCMC
chains per kernel on a large cluster. Scheduling one kernel's chains
at a time squanders that shape on a shared pool: a campaign drains to
a single slow kernel's tail while finished kernels' slots sit idle.
This module runs a whole sweep as *one* pool of jobs, granting chain
rounds to kernels in round-robin (fair-share) order, gated by each
kernel's budget rule, so the pool stays saturated until every kernel
stops. (:func:`repro.engine.scheduler.interleave_rounds` is the pure,
ungated specification of that rotation — the driver below implements
the same discipline inline because grants also depend on budget
decisions and in-flight barriers.)

Determinism survives interleaving because nothing a kernel computes
depends on any other kernel: each kernel's rounds keep their plan
order, ids, and seeds; results aggregate per kernel in plan order; and
stopping rules observe only their own kernel's plan-order signature
sequence. Interleaving reorders *when* rounds run, never *which*
rounds exist — so an interleaved campaign is bit-identical to a
sequential one at any worker count.

The one rule that is not a pure function of results is ``wallclock``:
its grant decisions consult the campaign clock. Those decisions — not
the clock — are therefore journaled (``grants.jsonl``, the v4
checkpoint layout) and streamed (``kernel-granted`` events), and a
resumed campaign replays the journal verbatim before making any live
decision, which keeps replay deterministic even under a deadline.

:class:`KernelSchedule` is one kernel's steppable state machine
(synthesis wave → optimization rounds → final aggregate);
:func:`run_campaigns` is the driver that interleaves any number of
them over one executor. A single-kernel :meth:`Campaign.run` is just
the one-schedule sweep.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, TYPE_CHECKING

from repro.engine import aggregator, scheduler
from repro.engine.checkpoint import CheckpointStore
from repro.engine.events import (CAMPAIGN_FINISHED, CAMPAIGN_STARTED,
                                 CHAIN_COMPLETED, EventLog,
                                 JOB_QUARANTINED, JOB_REQUEUED,
                                 JOB_RETRIED, KERNEL_GRANTED,
                                 KERNEL_STOPPED, RANKING_UPDATED,
                                 WORKER_JOINED, WORKER_LEFT)
from repro.engine.executor import make_executor
from repro.engine.faults import FaultInjectingExecutor
from repro.engine.jobs import (ChainJob, JobResult, payload_problem,
                               result_from_json)
from repro.engine.serialize import Json
from repro.engine.worker import CampaignContext
from repro.errors import (CorruptPayloadError, EngineError,
                          JobTimeoutError, StaleGrantError,
                          WorkerCrashError)
from repro.perfsim.model import actual_runtime
from repro.search.stoke import StokeResult
from repro.telemetry import ChainTelemetry, MetricsLog
from repro.telemetry.metrics import Series
from repro.x86.program import Program

if TYPE_CHECKING:                               # pragma: no cover
    from repro.engine.campaign import Campaign

Clock = Callable[[], float]

_SYNTHESIS = "synthesis"
_OPTIMIZATION = "optimization"

GRANT_SCHEDULED = "scheduled"

RECOVERY_RETRIED = "retried"
RECOVERY_REQUEUED = "requeued"
RECOVERY_QUARANTINED = "quarantined"


class KernelSchedule:
    """One kernel's campaign as a steppable state machine.

    The cross-kernel driver holds one schedule per kernel and walks
    them in fair-share rotation: :meth:`next_grant` returns the next
    wave of jobs this kernel wants in the pool (or None while it waits
    on in-flight results), :meth:`complete` feeds one finished job
    back. The schedule journals, emits progress events, consults its
    budget rule at every grant, and aggregates its own final result —
    everything :class:`Campaign` used to do inline, reshaped so many
    kernels can share one executor.
    """

    def __init__(self, campaign: Campaign, *,
                 clock: Clock = time.perf_counter) -> None:
        self.campaign = campaign
        self.name = campaign.name
        self.clock = clock
        options = campaign.options
        config = campaign.config
        self.store = (CheckpointStore(options.run_dir)
                      if options.run_dir is not None else None)
        self.testcases, self.completed = campaign._initial_state(
            self.store)
        # on a fresh run start_fresh (in _initial_state) has already
        # emptied both journals; the logs only ever append
        self.events = EventLog(
            path=(None if self.store is None
                  else self.store.events_path),
            listener=options.progress)
        self.metrics = (MetricsLog(self.store.metrics_path)
                        if self.store is not None else None)
        self.rule = campaign.budget.rule()
        # the persistent CEGIS suite (harden): the fresh-start merge
        # already happened in _initial_state; noting the frozen base
        # keeps appends down to genuinely novel counterexamples
        self.cex_suite = None
        if options.harden and self.store is not None:
            from repro.minimize.cegis import CounterexampleSuite
            self.cex_suite = CounterexampleSuite.for_run_dir(
                self.store.run_dir)
            self.cex_suite.note(self.testcases)
        self.context = CampaignContext(
            target=campaign.target, spec=campaign.spec,
            annotations=campaign.annotations, config=config,
            testcases=self.testcases, validator=campaign.validator,
            cost=campaign.cost, strategy=campaign.strategy)
        self.chains_planned = (config.synthesis_chains +
                               config.optimization_chains)
        # grant decisions journaled by an interrupted run, replayed
        # verbatim (the wallclock rule's determinism-on-resume seam)
        self._replay: deque[Json] = deque(
            self.store.grants()
            if self.store is not None and options.resume else ())
        # recovery state: quarantines are campaign membership (a
        # resume must not hammer a poisoned chain again), so they
        # replay from recovery.jsonl; counters are diagnostics for
        # the metrics document's runtime section
        self.recovery_counts: dict[str, int] = {
            RECOVERY_RETRIED: 0, RECOVERY_REQUEUED: 0,
            RECOVERY_QUARANTINED: 0, "duplicates": 0, "stale": 0}
        self._quarantined: dict[str, str] = {}
        if self.store is not None and options.resume:
            for record in self.store.recovery():
                action = record.get("action")
                if action in self.recovery_counts:
                    self.recovery_counts[action] += 1
                if action == RECOVERY_QUARANTINED:
                    self._quarantined[record["job_id"]] = \
                        record.get("kind", "")
        # phase state
        self._phase = _SYNTHESIS
        self._synth_plan = scheduler.synthesis_jobs(config)
        self._synth_granted = False
        self._synth_results: list[JobResult] = []
        self._starts: list[Program] = []
        self._rounds = None
        self._pending_round: list[ChainJob] | None = None
        self._opt_plan: list[ChainJob] = []
        self._decoded: dict[str, JobResult] = {}
        self._opt_granted_all = False
        self._granted_chains = 0
        self._observed_chains = 0
        self._charged_validations = 0
        self._in_flight: set[str] = set()
        self._result: StokeResult | None = None
        self._start_time = 0.0
        self._synth_seconds = 0.0
        self._opt_start_time = 0.0
        # scheduler runtime telemetry (wall-clock, hence filed under
        # the metrics document's nondeterministic runtime section)
        self._granted_at: dict[str, float] = {}
        self._latency_count = 0
        self._latency_total = 0.0
        self._latency_max = 0.0
        self._occupancy = Series()
        # distributed runs only: chains delivered per remote worker
        # (runtime diagnostics, like every other wall-clock number)
        self._worker_counts: dict[str, int] = {}

    # -- driver protocol ------------------------------------------------------

    def start(self) -> None:
        self._start_time = self.clock()
        self.events.emit(CAMPAIGN_STARTED, self.name,
                         budget=self.campaign.budget.spec_string(),
                         jobs=self.campaign.options.jobs,
                         chains_planned=self.chains_planned)

    @property
    def done(self) -> bool:
        return self._result is not None

    @property
    def result(self) -> StokeResult:
        assert self._result is not None, "campaign still running"
        return self._result

    def complete(self, payload: Json) -> None:
        """Feed one finished job's payload back into the schedule."""
        job_id = payload["job_id"]
        self.completed[job_id] = payload
        if self.store is not None:
            self.store.record(payload)
        self.events.emit(CHAIN_COMPLETED, self.name,
                         job_id=job_id,
                         kind=payload["kind"],
                         verified=len(payload["verified"]),
                         new_testcases=len(payload["new_testcases"]))
        self._in_flight.discard(job_id)
        granted_at = self._granted_at.pop(job_id, None)
        if granted_at is not None:
            latency = self.clock() - granted_at
            self._latency_count += 1
            self._latency_total += latency
            self._latency_max = max(self._latency_max, latency)
        self._sample_occupancy()
        chain = payload.get("chain")
        if self.metrics is not None and chain is not None:
            self.metrics.record_chain(self.name, job_id,
                                      chain["telemetry"])
        if self.cex_suite is not None and payload["new_testcases"]:
            self.cex_suite.append(
                self._result_for(job_id).new_testcases)

    # -- recovery -------------------------------------------------------------

    def _note_recovery(self, action: str, event_type: str,
                       job: ChainJob, attempt: int,
                       reason: str) -> None:
        if self.store is not None:
            self.store.record_recovery({
                "action": action, "job_id": job.job_id,
                "kind": job.kind, "attempt": attempt,
                "reason": reason})
        self.recovery_counts[action] += 1
        self.events.emit(event_type, self.name, job_id=job.job_id,
                         kind=job.kind, attempt=attempt, reason=reason)

    def note_retry(self, job: ChainJob, attempt: int,
                   reason: str) -> None:
        """Journal one re-grant of a failed or corrupt attempt."""
        self._note_recovery(RECOVERY_RETRIED, JOB_RETRIED, job,
                            attempt, reason)

    def note_requeue(self, job: ChainJob, attempt: int,
                     reason: str) -> None:
        """Journal one re-grant of a stalled (deadline-expired) job."""
        self._note_recovery(RECOVERY_REQUEUED, JOB_REQUEUED, job,
                            attempt, reason)

    def quarantine(self, job: ChainJob, attempt: int,
                   reason: str) -> None:
        """Abandon a job that exhausted its retries.

        The campaign degrades gracefully: the job leaves the in-flight
        set (so the schedule can progress), contributes an empty
        result to the aggregate, and is reported — never silently
        dropped — in ``StokeResult.quarantined_jobs``.
        """
        self._note_recovery(RECOVERY_QUARANTINED, JOB_QUARANTINED,
                            job, attempt, reason)
        self._quarantined[job.job_id] = job.kind
        self._in_flight.discard(job.job_id)
        self._granted_at.pop(job.job_id, None)
        self._sample_occupancy()

    def note_worker(self, worker_id: str | None) -> None:
        """Credit one delivered chain to a remote worker (None for
        local executors, which have no worker identities)."""
        if worker_id is None:
            return
        self._worker_counts[worker_id] = \
            self._worker_counts.get(worker_id, 0) + 1

    def note_membership(self, notices: list[tuple]) -> None:
        """Stream worker joins/leaves as progress events (v4)."""
        for notice in notices:
            if notice[0] == "joined":
                self.events.emit(WORKER_JOINED, self.name,
                                 worker=notice[1])
            else:
                self.events.emit(WORKER_LEFT, self.name,
                                 worker=notice[1], reason=notice[2])

    def note_duplicate(self, job_id: str) -> None:
        """Count one duplicate completion (first-wins dedup kept the
        journaled result; the copy is dropped)."""
        self.recovery_counts["duplicates"] += 1

    def note_stale(self, job_id: str) -> None:
        """Count one completion for a job this run no longer tracks
        (a re-granted job's original worker reporting after its
        replacement already finished, or after a quarantine)."""
        self.recovery_counts["stale"] += 1

    def next_grant(self, elapsed: float) -> list[ChainJob] | None:
        """The next wave of jobs to submit, or None.

        None means the kernel is waiting on in-flight results (or has
        finished). The method advances every phase transition that
        needs no new execution — a wave satisfied entirely from the
        resume journal completes instantly and the loop rolls on to
        the next grant decision.
        """
        while True:
            if self._result is not None or self._in_flight:
                return None
            if self._phase == _SYNTHESIS:
                if not self._synth_granted:
                    self._synth_granted = True
                    if self._synth_plan:
                        pending = self._admit_wave(self._synth_plan,
                                                   wave=_SYNTHESIS,
                                                   chain=None,
                                                   reason=GRANT_SCHEDULED)
                        if pending:
                            return pending
                    continue
                self._finish_synthesis()
                continue
            assert self._phase == _OPTIMIZATION
            if not self.rule.incremental:
                grant = self._grant_full_wave()
                if grant is None:
                    continue
                return grant
            grant = self._grant_next_round(elapsed)
            if grant is None:
                continue
            return grant

    # -- phase transitions ----------------------------------------------------

    def _admit_wave(self, jobs: list[ChainJob], *, wave: str,
                    chain: int | None, reason: str) -> list[ChainJob]:
        """Admit one granted wave: emit the grant event, return the
        jobs not already satisfied by the resume journal."""
        self.events.emit(KERNEL_GRANTED, self.name, wave=wave,
                         chain=chain, granted=True, reason=reason,
                         jobs=len(jobs))
        pending = [job for job in jobs
                   if job.job_id not in self.completed
                   and job.job_id not in self._quarantined]
        self._in_flight.update(job.job_id for job in pending)
        now = self.clock()
        for job in pending:
            self._granted_at[job.job_id] = now
        self._sample_occupancy()
        return pending

    def _sample_occupancy(self) -> None:
        """One (elapsed, jobs-in-flight) point on the occupancy
        timeline; ``force`` because elapsed is a float, not a step."""
        self._occupancy.record(self.clock() - self._start_time,
                               float(len(self._in_flight)), force=True)

    def _result_for(self, job_id: str) -> JobResult:
        """The decoded result for one completed job, parsed once.

        Per-round observations walk the whole plan-so-far; decoding a
        payload (programs through the x86 parser, testcases) on every
        walk would make observation quadratic in chains."""
        result = self._decoded.get(job_id)
        if result is None:
            if job_id in self._quarantined:
                # an abandoned chain contributes an empty result: the
                # aggregate is computed over the survivors
                result = JobResult(job_id=job_id,
                                   kind=self._quarantined[job_id])
            else:
                result = result_from_json(self.completed[job_id])
            self._decoded[job_id] = result
        return result

    def _finish_synthesis(self) -> None:
        self._synth_results = [self._result_for(job.job_id)
                               for job in self._synth_plan]
        self._synth_seconds = self.clock() - self._start_time
        self._starts = aggregator.synthesis_starts(
            self.campaign.target, self._synth_results)
        self._rounds = scheduler.optimization_rounds(
            self.campaign.config, self._starts)
        self._opt_start_time = self.clock()
        self._phase = _OPTIMIZATION

    def _grant_full_wave(self) -> list[ChainJob] | None:
        """Non-incremental rules submit the whole plan as one wave —
        exactly the pre-budget engine."""
        if self._opt_granted_all:
            # wave complete (nothing in flight): aggregate
            self._finalize("exhausted")
            return None
        self._opt_granted_all = True
        self._opt_plan = [job for round_jobs in self._rounds
                          for job in round_jobs]
        self._granted_chains = self.campaign.config.optimization_chains
        if self._opt_plan:
            pending = self._admit_wave(self._opt_plan,
                                       wave=_OPTIMIZATION, chain=None,
                                       reason=GRANT_SCHEDULED)
            if pending:
                return pending
        return None

    def _grant_next_round(self, elapsed: float) -> list[ChainJob] | None:
        """One grant decision under an incremental rule."""
        if self._observed_chains < self._granted_chains:
            self._observe_round()
        granted, reason = self._grant_decision(elapsed)
        if not granted:
            self.events.emit(KERNEL_GRANTED, self.name,
                             wave=_OPTIMIZATION,
                             chain=self._granted_chains,
                             granted=False, reason=reason, jobs=0)
            self._finalize(reason)
            return None
        if self._pending_round is None:
            self._pending_round = next(self._rounds, None)
        if self._pending_round is None:
            self._finalize("exhausted")
            return None
        round_jobs = self._pending_round
        self._pending_round = None
        chain = self._granted_chains
        self._granted_chains += 1
        self._opt_plan.extend(round_jobs)
        pending = self._admit_wave(round_jobs, wave=_OPTIMIZATION,
                                   chain=chain, reason=reason)
        if pending:
            return pending
        return None                     # round satisfied from journal

    # -- grant decisions ------------------------------------------------------

    def _grant_decision(self, elapsed: float) -> tuple[bool, str]:
        """Grant or deny the next chain; replayed on resume.

        Fresh decisions ask the rule (the wallclock rule consults
        ``elapsed``) and are journaled; a resumed campaign replays the
        journal verbatim instead, so the set of chains a run schedules
        is reproducible even when the deciding input was a clock.
        """
        chain = self._granted_chains
        if self._replay:
            record = self._replay.popleft()
            if record.get("chain") != chain:
                raise EngineError(
                    f"grants journal out of order for {self.name}: "
                    f"expected chain {chain}, found "
                    f"{record.get('chain')}")
            return bool(record["granted"]), str(record["reason"])
        granted = self.rule.grant(elapsed)
        reason = GRANT_SCHEDULED if granted else self.rule.stop_reason
        if self.store is not None:
            self.store.record_grant({"chain": chain,
                                     "granted": granted,
                                     "reason": reason})
        return granted, reason

    def _observe_round(self) -> None:
        """Feed the just-completed round's feedback to the rule.

        Ranking rules get the running best signature; validator-budget
        rules get the round's *newly* spent validator queries (the
        plan-order total minus what was already charged — a chain's
        spend must never be double-counted when several rounds resolve
        from the resume journal at once).
        """
        self._observed_chains += 1
        if self.rule.needs_validations:
            total = sum(result.validations for result in
                        self._synth_results + self._opt_results())
            self.rule.charge(total - self._charged_validations)
            self._charged_validations = total
        if not self.rule.needs_ranking:
            return
        results = self._opt_results()
        merged = aggregator.merge_testcases(
            self.testcases, self._synth_results + results)
        signature = aggregator.best_signature(
            self.campaign.target, self.campaign.config, merged,
            results, cost=self.campaign.cost)
        self.rule.observe(signature)
        self.events.emit(RANKING_UPDATED, self.name,
                         chains_completed=self._observed_chains,
                         best_cycles=signature[1],
                         stable_chains=self.rule.stable_chains)

    # -- aggregation ----------------------------------------------------------

    def _opt_results(self) -> list[JobResult]:
        return [self._result_for(job.job_id)
                for job in self._opt_plan]

    def _finalize(self, reason: str) -> None:
        campaign = self.campaign
        config = campaign.config
        # stale-grant rejection: every journaled result must belong to
        # a job this campaign actually planned — a foreign record (a
        # hand-mixed journal, or results from a differently-budgeted
        # run) must abort rather than silently join the aggregate
        plan_ids = {job.job_id for job in
                    list(self._synth_plan) + list(self._opt_plan)}
        foreign = sorted(set(self.completed) - plan_ids)
        if foreign:
            raise StaleGrantError(
                f"run directory holds results for jobs this campaign "
                f"never planned: {', '.join(foreign[:5])}"
                + ("..." if len(foreign) > 5 else ""))
        chains_scheduled = (config.synthesis_chains +
                            self._granted_chains)
        chains_saved = self.chains_planned - chains_scheduled
        self.events.emit(KERNEL_STOPPED, self.name,
                         reason=reason,
                         chains_scheduled=chains_scheduled,
                         chains_saved=chains_saved)
        opt_results = self._opt_results()
        if self.cex_suite is not None:
            # backfill journal-satisfied chains (they never passed
            # through complete()); dedup makes live chains no-ops
            for result in self._synth_results + opt_results:
                if result.new_testcases:
                    self.cex_suite.append(result.new_testcases)
        merged = aggregator.merge_testcases(
            self.testcases, self._synth_results + opt_results)
        ranked = aggregator.final_ranking(campaign.target, config,
                                          merged, opt_results,
                                          cost=campaign.cost)
        target_cycles = actual_runtime(campaign.target.compact())
        rewrite: Program | None = None
        rewrite_cycles = target_cycles
        if ranked:
            best = ranked[0]
            if best.cycles <= target_cycles:
                rewrite = best.program.compact()
                rewrite_cycles = best.cycles
        now = self.clock()
        result = StokeResult(
            target=campaign.target,
            rewrite=rewrite,
            verified=rewrite is not None,
            target_cycles=target_cycles,
            rewrite_cycles=rewrite_cycles,
            ranked=ranked,
            synthesis=[r.phase_result() for r in self._synth_results],
            optimization=[r.phase_result() for r in opt_results],
            testcases=merged,
            seconds=now - self._start_time,
            synthesis_seconds=self._synth_seconds,
            optimization_seconds=now - self._opt_start_time,
            chains_scheduled=chains_scheduled,
            chains_saved=chains_saved,
            chains_quarantined=len(self._quarantined),
            quarantined_jobs=sorted(self._quarantined),
        )
        occupancy = (round(chains_scheduled / self.chains_planned, 4)
                     if self.chains_planned else 0.0)
        finished: Json = dict(verified=result.verified,
                              rewrite_cycles=result.rewrite_cycles,
                              speedup=round(result.speedup, 4),
                              chains_scheduled=chains_scheduled,
                              chains_saved=chains_saved,
                              occupancy=occupancy)
        if self._quarantined:
            finished["chains_quarantined"] = len(self._quarantined)
        self.events.emit(CAMPAIGN_FINISHED, self.name, **finished)
        if self.metrics is not None:
            self._journal_campaign_metrics(result.seconds)
        self._result = result

    def _journal_campaign_metrics(self, seconds: float) -> None:
        """Seal the metrics journal: backfill + the campaign record.

        Chains satisfied from the resume journal never passed through
        :meth:`complete`, so their telemetry is backfilled here in plan
        order (dedup makes live-recorded chains no-ops). The campaign
        record carries the plan-order merge — bit-identical at any
        worker count — plus this run's scheduler runtime.
        """
        assert self.metrics is not None
        merged = ChainTelemetry()
        for job in list(self._synth_plan) + list(self._opt_plan):
            payload = self.completed.get(job.job_id)
            chain = None if payload is None else payload.get("chain")
            if chain is None:
                continue
            telemetry = chain["telemetry"]
            self.metrics.record_chain(self.name, job.job_id, telemetry)
            merged.absorb(ChainTelemetry.from_json(telemetry))
        runtime = {
            "seconds": seconds,
            "grant_latency": {
                "count": self._latency_count,
                "mean": (self._latency_total / self._latency_count
                         if self._latency_count else 0.0),
                "max": self._latency_max,
            },
            "occupancy": self._occupancy.to_json(),
            # recovery counters ride in the runtime section: how hard
            # the run fought worker failures is a property of this
            # execution, not of the (deterministic) search
            "recovery": dict(self.recovery_counts),
        }
        if self._worker_counts:
            # which remote worker delivered which chains is the very
            # definition of runtime state — any other placement would
            # break worker-count invisibility of the deterministic doc
            runtime["workers"] = dict(self._worker_counts)
        self.metrics.record_campaign(
            self.name, merged.deterministic_json(), runtime)


class _InFlight:
    """Driver-side state of one granted job: who wants it, which
    attempt is running, and when to give up waiting for it."""

    __slots__ = ("kernel", "job", "attempt", "deadline")

    def __init__(self, kernel: str, job: ChainJob, attempt: int,
                 deadline: float | None) -> None:
        self.kernel = kernel
        self.job = job
        self.attempt = attempt
        self.deadline = deadline


def run_campaigns(campaigns: list[Campaign], *,
                  clock: Clock = time.perf_counter,
                  executor_factory: Callable[
                      [dict[str, CampaignContext]], object] | None = None) \
        -> list[StokeResult]:
    """Run any number of campaigns over one shared worker pool.

    The driver grants waves in fair-share rotation (each pass visits
    every kernel in list order and admits at most one wave per
    kernel), then blocks for one completed job and feeds it back to
    its schedule — so slow kernels' rounds interleave with fast ones'
    instead of serializing behind them. Results return in input
    order; every campaign must share one worker count, and kernel
    names must be unique (they key the shared pool's contexts).

    ``executor_factory`` overrides executor selection: it receives the
    per-kernel contexts and returns any object speaking the
    submit/next_result protocol — the seam tests and embedders use to
    run a sweep over, say, a hand-configured
    :class:`~repro.engine.remote.RemoteExecutor`. Fault injection
    (``--faults``) still wraps whatever the factory returns. Without a
    factory, ``EngineOptions.workers > 0`` selects the distributed
    coordinator and spawns that many loopback workers.

    The driver is also the recovery layer: every granted job carries
    a per-attempt deadline (``--job-timeout``, capped exponential
    backoff), a crashed or corrupt attempt is re-granted up to
    ``--retries`` times before quarantine, duplicate completions are
    deduplicated first-wins by job id, and every decision is
    journaled (``recovery.jsonl``) and streamed (``job-retried`` /
    ``job-requeued`` / ``job-quarantined``). Because chain jobs are
    deterministic functions of their (context, job) pair, a retried
    attempt reproduces the lost payload exactly — a campaign that
    survives injected faults ranks bit-identically to a fault-free
    run.
    """
    if not campaigns:
        return []
    jobs = campaigns[0].options.jobs
    for campaign in campaigns:
        if campaign.options.jobs != jobs:
            raise EngineError(
                "all campaigns in one sweep must share a worker count")
    workers = campaigns[0].options.workers
    for campaign in campaigns:
        if campaign.options.workers != workers:
            # one sweep runs over one executor; half the kernels
            # cannot be distributed while the rest stay local
            raise EngineError(
                "all campaigns in one sweep must share a --workers "
                "count")
    policy = campaigns[0].options.retry_policy
    for campaign in campaigns:
        if campaign.options.retry_policy != policy:
            # the deadline/retry discipline is pool-global: one shared
            # next_result() wait cannot honor two different timeouts
            raise EngineError(
                "all campaigns in one sweep must share a retry policy")
    faults = campaigns[0].options.faults
    for campaign in campaigns:
        if campaign.options.faults != faults:
            raise EngineError(
                "all campaigns in one sweep must share a fault plan")
    if len(campaigns) > 1 and not all(c.options.interleave
                                      for c in campaigns):
        # a multi-kernel sweep IS the round-robin scheduler; running
        # one with interleave=False options would stamp 'none' into
        # every v4 manifest while actually interleaving — the silent
        # policy switch the fingerprint exists to reject. Sequential
        # sweeps run each campaign on its own (campaign.run()).
        raise EngineError(
            "a multi-kernel sweep interleaves; its campaigns must "
            "carry EngineOptions(interleave=True) — run campaigns "
            "one at a time for a sequential sweep")
    names = [campaign.name for campaign in campaigns]
    if len(set(names)) != len(names):
        raise EngineError(
            f"duplicate kernel names in one sweep: {sorted(names)}")
    run_dirs = [str(campaign.options.run_dir) for campaign in campaigns
                if campaign.options.run_dir is not None]
    if len(set(run_dirs)) != len(run_dirs):
        # job ids are kernel-agnostic, so two kernels sharing one
        # journal would fuse their records and poison a later resume
        raise EngineError(
            "campaigns in one sweep must not share a run directory")
    schedules = [KernelSchedule(campaign, clock=clock)
                 for campaign in campaigns]
    by_name = {schedule.name: schedule for schedule in schedules}
    contexts = {schedule.name: schedule.context
                for schedule in schedules}
    executor = (executor_factory(contexts)
                if executor_factory is not None
                else make_executor(contexts, jobs, workers=workers))
    if faults is not None and faults.active:
        executor = FaultInjectingExecutor(executor, faults)
    start = clock()
    # job ids are kernel-agnostic (every kernel has an opt-c000-s000),
    # so in-flight state is keyed by (kernel, job id)
    tracked: dict[tuple[str, str], _InFlight] = {}

    def admit(kernel: str, wave: list[ChainJob]) -> None:
        now = clock()
        for job in wave:
            tracked[kernel, job.job_id] = _InFlight(
                kernel, job, 0, policy.deadline(now, 0))
        executor.submit(kernel, wave)

    def fail_attempt(key: tuple[str, str], reason: str, *,
                     requeue: bool) -> None:
        """Retry (or quarantine) one failed/expired attempt."""
        flight = tracked[key]
        schedule = by_name[flight.kernel]
        attempts = flight.attempt + 1       # attempts made so far
        if attempts > policy.retries:
            del tracked[key]
            schedule.quarantine(flight.job, attempts, reason)
            return
        if requeue:
            schedule.note_requeue(flight.job, attempts, reason)
        else:
            schedule.note_retry(flight.job, attempts, reason)
        flight.attempt = attempts
        flight.deadline = policy.deadline(clock(), attempts)
        executor.submit(flight.kernel, [flight.job])

    def sync_membership() -> None:
        """Stream any worker joins/leaves the executor observed while
        we waited (local executors have no membership to report)."""
        drain = getattr(executor, "drain_notices", None)
        if drain is None:
            return
        notices = drain()
        if not notices:
            return
        for schedule in schedules:
            schedule.note_membership(notices)

    try:
        for schedule in schedules:
            schedule.start()
        while True:
            progressed = True
            while progressed:
                progressed = False
                for schedule in schedules:       # fair-share rotation
                    pending = schedule.next_grant(clock() - start)
                    if pending:
                        admit(schedule.name, pending)
                        progressed = True
            if all(schedule.done for schedule in schedules):
                break
            if not tracked:
                raise EngineError("campaign scheduler stalled with "
                                  "no jobs in flight")
            timeout = None
            if policy.job_timeout is not None:
                nearest = min(flight.deadline
                              for flight in tracked.values())
                timeout = max(0.0, nearest - clock())
            try:
                kernel, payload = executor.next_result(timeout=timeout)
            except JobTimeoutError:
                # a stalled worker never deadlocks the wait: whichever
                # jobs are past their deadline are re-granted, and a
                # spurious wake simply recomputes the next deadline
                now = clock()
                overdue = [key for key, flight in tracked.items()
                           if flight.deadline is not None
                           and flight.deadline <= now]
                for key in overdue:
                    fail_attempt(key, "deadline expired",
                                 requeue=True)
                continue
            except WorkerCrashError as exc:
                key = (exc.kernel, exc.job_id)
                if exc.job_id is None or exc.kernel not in by_name:
                    raise          # pool-level failure: unrecoverable
                if key not in tracked:
                    # a re-granted job's original worker failing after
                    # its replacement (or a quarantine) already
                    # settled the job: late bad news about banked
                    # work, counted and dropped like a stale result
                    by_name[exc.kernel].note_stale(exc.job_id)
                    continue
                fail_attempt(key, str(exc), requeue=False)
                continue
            finally:
                sync_membership()
            job_id = (payload.get("job_id")
                      if isinstance(payload, dict) else None)
            key = (kernel, job_id)
            problem = payload_problem(payload)
            if problem is not None:
                if isinstance(job_id, str) and key in tracked:
                    fail_attempt(key, f"corrupt payload: {problem}",
                                 requeue=False)
                    continue
                raise CorruptPayloadError(
                    f"unrecoverable corrupt payload from {kernel}: "
                    f"{problem}", kernel=kernel,
                    job_id=job_id if isinstance(job_id, str) else None)
            schedule = by_name[kernel]
            if key in tracked:
                del tracked[key]
                schedule.complete(payload)
                schedule.note_worker(
                    getattr(executor, "last_worker_id", None))
            elif job_id in schedule.completed:
                # duplicate completion: first-wins — the journaled
                # result stands, the copy is counted and dropped
                schedule.note_duplicate(job_id)
            else:
                # a completion for a job this run no longer tracks
                # (re-granted elsewhere, or quarantined): never let it
                # poison the aggregate
                schedule.note_stale(job_id)
    except BaseException:
        # don't block an error or Ctrl-C on queued chains; the
        # journal already holds everything worth keeping (every
        # event/metric/recovery record is flushed as it is written,
        # and terminate() is idempotent even mid-shutdown)
        executor.terminate()
        raise
    else:
        executor.close()
    return [schedule.result for schedule in schedules]
