"""Versioned campaign progress stream: partial aggregates as JSONL.

A campaign that stays silent until its job pool drains is unusable for
long sweeps, and the stopping rules of :mod:`repro.engine.budget` need
running rankings anyway. This module gives those partial aggregates a
wire format: every state change of a campaign is a
:class:`ProgressEvent`, appended as one JSON line to
``<run_dir>/events.jsonl`` and (optionally) handed to a live listener —
the mechanism behind ``repro engine campaign --progress``.

The record format is versioned (``"v"``) independently of the
checkpoint manifest, because the stream is meant to outgrow this
process: a multi-host scheduler can follow a worker's event file (or a
socket carrying the same records) without parsing its journal. Readers
must reject records whose version they do not know.

Event types, in the order a campaign emits them::

    campaign-started    budget spec, worker count, planned chains
    kernel-granted      one grant decision: a wave of chain jobs was
                        admitted to (or denied) the shared pool
    job-retried         a failed/corrupt attempt was re-granted
    job-requeued        a stalled (or interrupt-lost) job was
                        re-granted after missing its deadline
    job-quarantined     a job exhausted its retries and was removed
                        from the campaign (graceful degradation)
    worker-joined       a remote worker connected to the coordinator
    worker-left         a remote worker disconnected (and why)
    chain-completed     one chain job finished (id, kind, counts)
    ranking-updated     running best ranking after a completed chain
    kernel-stopped      no more chains will be scheduled (reason)
    campaign-finished   final verdict (verified, cycles, speedup,
                        per-kernel chain counts and pool occupancy)

The stream is at version 4 (:data:`EVENT_STREAM_VERSION`); a reader
refuses records of any other version. ``kernel-granted`` journals the
scheduler's grant decisions, which makes a ``wallclock`` budget
replayable: a resumed campaign re-reads the decisions, not the clock.

Like every run-directory journal, the file is written through a
:class:`repro.jsonl.Writer`: append-only, one write per record, so a
follower sees it at once and a kill loses nothing. In a sweep the run
directory's writer commits it with the grant decisions (a power loss
loses at most the events since the last commit); on its own, each
record is committed as it is written. A torn trailing line is dropped
on read and healed away on resume.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro import jsonl
from repro.engine.serialize import Json, require_fields
from repro.errors import EngineError

EVENT_STREAM_VERSION = 4

CAMPAIGN_STARTED = "campaign-started"
KERNEL_GRANTED = "kernel-granted"
JOB_RETRIED = "job-retried"
JOB_REQUEUED = "job-requeued"
JOB_QUARANTINED = "job-quarantined"
WORKER_JOINED = "worker-joined"
WORKER_LEFT = "worker-left"
CHAIN_COMPLETED = "chain-completed"
RANKING_UPDATED = "ranking-updated"
KERNEL_STOPPED = "kernel-stopped"
CAMPAIGN_FINISHED = "campaign-finished"

EVENT_TYPES = frozenset({CAMPAIGN_STARTED, KERNEL_GRANTED,
                         JOB_RETRIED, JOB_REQUEUED, JOB_QUARANTINED,
                         WORKER_JOINED, WORKER_LEFT,
                         CHAIN_COMPLETED, RANKING_UPDATED,
                         KERNEL_STOPPED, CAMPAIGN_FINISHED})


@dataclass(frozen=True)
class ProgressEvent:
    """One record of the campaign progress stream.

    Attributes:
        event: one of the ``EVENT_TYPES`` constants.
        kernel: the campaign's target label (``Target.name``).
        seq: 0-based position in this campaign's stream.
        data: event-specific payload, plain JSON throughout.
    """

    event: str
    kernel: str
    seq: int
    data: Json = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.event not in EVENT_TYPES:
            raise EngineError(f"unknown progress event {self.event!r}")


_EVENT_FIELDS = ("v", "event", "kernel", "seq", "data")


def event_to_json(event: ProgressEvent) -> Json:
    return {
        "v": EVENT_STREAM_VERSION,
        "event": event.event,
        "kernel": event.kernel,
        "seq": event.seq,
        "data": dict(event.data),
    }


def event_from_json(data: Json) -> ProgressEvent:
    require_fields(data, _EVENT_FIELDS, "progress event")
    if data["v"] != EVENT_STREAM_VERSION:
        raise EngineError(
            f"progress event version {data['v']!r} is not "
            f"{EVENT_STREAM_VERSION}; refusing to misread the stream")
    return ProgressEvent(event=data["event"], kernel=data["kernel"],
                         seq=data["seq"], data=dict(data["data"]))


def format_event(event: ProgressEvent) -> str:
    """One human-readable progress line (the ``--progress`` output)."""
    data = event.data
    if event.event == CAMPAIGN_STARTED:
        return (f"[{event.kernel}] campaign started: "
                f"budget={data.get('budget')} jobs={data.get('jobs')} "
                f"chains<={data.get('chains_planned')}")
    if event.event == KERNEL_GRANTED:
        verdict = "granted" if data.get("granted") else "denied"
        what = (f"chain {data.get('chain')}"
                if data.get("chain") is not None
                else f"{data.get('wave')} wave")
        return (f"[{event.kernel}] {what} {verdict} "
                f"({data.get('reason')}, {data.get('jobs')} jobs)")
    if event.event in (JOB_RETRIED, JOB_REQUEUED):
        verb = ("retried" if event.event == JOB_RETRIED
                else "requeued")
        return (f"[{event.kernel}] job {data.get('job_id')} {verb} "
                f"(attempt {data.get('attempt')}: "
                f"{data.get('reason')})")
    if event.event == JOB_QUARANTINED:
        return (f"[{event.kernel}] job {data.get('job_id')} "
                f"quarantined after {data.get('attempt')} attempts "
                f"({data.get('reason')})")
    if event.event == WORKER_JOINED:
        return f"[{event.kernel}] worker {data.get('worker')} joined"
    if event.event == WORKER_LEFT:
        return (f"[{event.kernel}] worker {data.get('worker')} left "
                f"({data.get('reason')})")
    if event.event == CHAIN_COMPLETED:
        return (f"[{event.kernel}] chain {data.get('job_id')} done "
                f"({data.get('verified')} verified, "
                f"{data.get('new_testcases')} new testcases)")
    if event.event == RANKING_UPDATED:
        return (f"[{event.kernel}] ranking after "
                f"{data.get('chains_completed')} chains: best "
                f"{data.get('best_cycles')} cycles "
                f"(stable for {data.get('stable_chains')})")
    if event.event == KERNEL_STOPPED:
        return (f"[{event.kernel}] stopped ({data.get('reason')}): "
                f"{data.get('chains_scheduled')} chains scheduled, "
                f"{data.get('chains_saved')} saved")
    assert event.event == CAMPAIGN_FINISHED
    verdict = "verified" if data.get("verified") else "unimproved"
    line = (f"[{event.kernel}] finished {verdict}: "
            f"{data.get('rewrite_cycles')} cycles "
            f"({data.get('speedup')}x)")
    if "occupancy" in data:
        line += (f" [{data.get('chains_scheduled')} chains, "
                 f"occupancy {data.get('occupancy')}]")
    return line


ProgressListener = Callable[[ProgressEvent], None]


class EventLog:
    """Appends progress events to disk and fans them out live.

    Either sink is optional: with no path the stream is listener-only
    (an un-checkpointed run with ``--progress``), with no listener it
    is a silent journal for later consumers. Each record is written
    unbuffered, so a follower (``tail -f``, a remote scheduler) sees
    each event the moment the campaign emits it; ``journals`` decides
    when it is committed (by default, as it is written). An existing
    stream is resumed, never emptied: a fresh run's stream is emptied
    by :meth:`CheckpointStore.start_fresh`.
    """

    def __init__(self, path: str | Path | None = None,
                 listener: ProgressListener | None = None, *,
                 journals: jsonl.Writer | None = None) -> None:
        self.path = None if path is None else Path(path)
        self.listener = listener
        self.journals = journals or jsonl.Writer(commit_each=True)
        self._seq = 0
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # decoded, not just counted: appending onto a stream of
            # another version would hand followers a mixed stream
            self._seq = sum(1 for _ in map(
                event_from_json, self.journals.resume(self.path, "event")))

    def emit(self, event_type: str, kernel: str, **data) -> ProgressEvent:
        """Record one event; returns it for callers that chain state."""
        event = ProgressEvent(event=event_type, kernel=kernel,
                              seq=self._seq, data=data)
        self._seq += 1
        if self.path is not None:
            self.journals.append(self.path, event_to_json(event))
        if self.listener is not None:
            self.listener(event)
        return event


def iter_events(path: str | Path):
    """Stream an event file in O(1) memory (torn tail dropped).

    The iterator the live progress follower and ``engine report`` use:
    a long campaign's stream never has to fit in memory to be read.
    """
    for payload in jsonl.iter_jsonl(path, "event"):
        yield event_from_json(payload)


def read_events(path: str | Path) -> list[ProgressEvent]:
    """Decode a whole event stream; a torn trailing line is dropped."""
    return list(iter_events(path))


def follow_events(path: str | Path, *, poll: Callable[[], bool],
                  interval: float = 0.2):
    """Tail an event stream that another process is appending to.

    Yields each complete event as it lands; between appends, sleeps
    ``interval`` and re-consults ``poll`` — the generator ends when
    ``poll`` returns False and the file holds nothing new. A partial
    trailing line (an append caught mid-write) is buffered until its
    newline arrives, never decoded early.
    """
    import time as _time
    path = Path(path)
    buffer = ""
    position = 0
    live = True
    while True:
        if path.exists():
            with path.open() as stream:
                stream.seek(position)
                chunk = stream.read()
                position = stream.tell()
            buffer += chunk
            while "\n" in buffer:
                line, buffer = buffer.split("\n", 1)
                if line.strip():
                    yield event_from_json(json.loads(line))
        if not live:
            return
        live = poll()
        if not live:
            continue               # one final drain before stopping
        _time.sleep(interval)
