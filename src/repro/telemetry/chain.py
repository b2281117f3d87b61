"""Per-chain search telemetry: what one MCMC chain records about itself.

The paper's evidence that stochastic search works is diagnostic: the
cost-over-proposals trace (Fig. 4), the distribution of testcases
evaluated per proposal under the Eq. 14 short-circuit (Fig. 5), and the
acceptance behavior of the proposal distribution (§3.2, §4.5). A
:class:`ChainTelemetry` carries exactly those quantities out of the
sampler: per-move-type proposal/acceptance counts with accepted and
rejected cost deltas, a deterministically downsampled cost trace, and
the per-proposal testcases-evaluated histogram.

Everything in the deterministic part is a pure function of
(campaign context, chain job) — the same invariant the engine holds
for search results — so merged telemetry is bit-identical at any
worker count. Wall-clock seconds and the evaluator's process-global
cache counters are *not* (pool assignment decides which process's
caches a chain warms), so they ride in the separate ``runtime`` dict
that the journal keeps out of the deterministic document.

The recording hot path is :meth:`record_proposal` — one call per MCMC
proposal, a handful of list-index increments. Telemetry is always on
(it is the chain's only record), so its cost is inside every
throughput number the benchmarks report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.metrics import Histogram, Json, Series, safe_rate

#: Move-table column layout (the wire format is named, this is the
#: in-memory fast path): proposals, acceptances, summed accepted cost
#: delta, summed fully-evaluated rejected delta, and rejections where
#: Eq. 14 abandoned evaluation early.
_PROPOSED, _ACCEPTED, _ACC_DELTA, _REJ_DELTA, _BOUNDED = range(5)

_MOVE_FIELDS = ("proposed", "accepted", "accepted_delta",
                "rejected_delta", "bounded")

#: Histogram cap for testcases evaluated per proposal. Suites run 16-32
#: testcases plus counterexamples; 64 exact buckets cover any practical
#: suite and the overflow bucket keeps pathological ones honest.
TESTCASE_HIST_CAP = 64

#: Points kept per downsampled trace (Fig. 4 needs no more resolution).
TRACE_CAPACITY = 256


@dataclass
class ChainTelemetry:
    """Diagnostics for one chain (or one merged chain of segments)."""

    moves: dict[str, list[int]] = field(default_factory=dict)
    cost_trace: Series = field(
        default_factory=lambda: Series(capacity=TRACE_CAPACITY))
    best_trace: Series = field(
        default_factory=lambda: Series(capacity=TRACE_CAPACITY))
    testcase_hist: Histogram = field(
        default_factory=lambda: Histogram(cap=TESTCASE_HIST_CAP))
    proposals: int = 0
    accepted: int = 0
    testcases_evaluated: int = 0
    runtime: Json = field(default_factory=dict)

    # -- recording (the sampler's hot path) -------------------------------

    def move_row(self, kind: str) -> list[int]:
        """The mutable counter row for one move kind."""
        row = self.moves.get(kind)
        if row is None:
            row = [0] * len(_MOVE_FIELDS)
            self.moves[kind] = row
        return row

    def record_proposal(self, row: list[int], *, accepted: bool,
                        delta: int | None, bounded: bool,
                        testcases: int, step: int, cost: int,
                        best: int) -> None:
        """Record one proposal's outcome against a pre-fetched row."""
        row[_PROPOSED] += 1
        self.proposals += 1
        self.testcases_evaluated += testcases
        self.testcase_hist.observe(testcases)
        if accepted:
            row[_ACCEPTED] += 1
            self.accepted += 1
            if delta is not None:
                row[_ACC_DELTA] += delta
        elif bounded:
            row[_BOUNDED] += 1
        elif delta is not None:
            row[_REJ_DELTA] += delta
        self.cost_trace.record(step, cost)
        self.best_trace.record(step, best)

    def seal(self, step: int, cost: int, best: int) -> None:
        """Pin the chain's final point onto both traces.

        A final step that fell on the stride is already kept by
        :meth:`record_proposal` with the same value; forcing it again
        would duplicate the point.
        """
        for trace, y in ((self.cost_trace, cost), (self.best_trace, best)):
            if not trace.points or trace.points[-1][0] != step:
                trace.record(step, y, force=True)

    # -- derived views ----------------------------------------------------

    @property
    def seconds(self) -> float:
        """Wall-clock seconds the chain ran (summed over segments)."""
        return self.runtime.get("seconds", 0.0)

    @property
    def proposals_per_second(self) -> float:
        """Inner-loop throughput, finite even for sub-resolution runs."""
        return safe_rate(self.proposals, self.seconds)

    @property
    def testcases_per_proposal(self) -> float:
        """Exact mean testcases evaluated per proposal (Fig. 5)."""
        if not self.proposals:
            return 0.0
        return self.testcases_evaluated / self.proposals

    def acceptance_rate(self, kind: str | None = None) -> float:
        if kind is None:
            return self.accepted / self.proposals if self.proposals \
                else 0.0
        row = self.moves.get(kind)
        if not row or not row[_PROPOSED]:
            return 0.0
        return row[_ACCEPTED] / row[_PROPOSED]

    def move_table(self) -> list[tuple[str, dict[str, int]]]:
        """(kind, named counters) rows in stable (sorted) order."""
        return [(kind, dict(zip(_MOVE_FIELDS, row)))
                for kind, row in sorted(self.moves.items())]

    # -- merging ----------------------------------------------------------

    def extend(self, other: ChainTelemetry, *,
               step_offset: int) -> None:
        """Absorb a continuation segment of the *same* chain.

        The optimization phase runs one chain as restart segments;
        their traces continue each other, so the segment's steps shift
        by the proposals already recorded.
        """
        self._absorb_counters(other)
        if "seconds" in other.runtime:
            self.runtime["seconds"] = (self.runtime.get("seconds", 0.0)
                                       + other.runtime["seconds"])
        for mine, theirs in ((self.cost_trace, other.cost_trace),
                             (self.best_trace, other.best_trace)):
            shifted = Series(capacity=theirs.capacity,
                             stride=theirs.stride,
                             points=[[x + step_offset, y]
                                     for x, y in theirs.points])
            mine.merge(shifted)

    def absorb(self, other: ChainTelemetry) -> None:
        """Aggregate an *independent* chain's counters (no traces —
        different chains' traces are different curves, not segments)."""
        self._absorb_counters(other)

    def _absorb_counters(self, other: ChainTelemetry) -> None:
        for kind, row in other.moves.items():
            mine = self.move_row(kind)
            for i, n in enumerate(row):
                mine[i] += n
        self.testcase_hist.merge(other.testcase_hist)
        self.proposals += other.proposals
        self.accepted += other.accepted
        self.testcases_evaluated += other.testcases_evaluated

    # -- wire format ------------------------------------------------------

    def to_json(self) -> Json:
        return {
            "moves": {kind: dict(zip(_MOVE_FIELDS, row))
                      for kind, row in sorted(self.moves.items())},
            "cost_trace": self.cost_trace.to_json(),
            "best_trace": self.best_trace.to_json(),
            "testcase_hist": self.testcase_hist.to_json(),
            "proposals": self.proposals,
            "accepted": self.accepted,
            "testcases_evaluated": self.testcases_evaluated,
            "runtime": dict(self.runtime),
        }

    @classmethod
    def from_json(cls, data: Json) -> ChainTelemetry:
        return cls(
            moves={kind: [named[name] for name in _MOVE_FIELDS]
                   for kind, named in data["moves"].items()},
            cost_trace=Series.from_json(data["cost_trace"]),
            best_trace=Series.from_json(data["best_trace"]),
            testcase_hist=Histogram.from_json(data["testcase_hist"]),
            proposals=data["proposals"],
            accepted=data["accepted"],
            testcases_evaluated=data["testcases_evaluated"],
            runtime=dict(data["runtime"]),
        )

    def deterministic_json(self) -> Json:
        """The wire form minus the ``runtime`` dict — the part that is
        bit-identical at any worker count."""
        payload = self.to_json()
        del payload["runtime"]
        return payload
