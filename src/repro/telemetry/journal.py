"""The metrics journal: ``RUN_DIR/metrics.jsonl`` and its merged view.

Telemetry is written through a :class:`repro.jsonl.Writer`, like every
run-directory journal: append-only JSONL, one record per line and per
write, so a kill loses nothing. In a sweep it is committed with the run
directory's other journals, so a power loss loses at most the records
since the last commit; on its own, each append is committed. A torn
trailing line is dropped and healed on resume. Records are
versioned (``"v"``). Three record shapes share the file::

    {"v": 1, "record": "chain", "kernel": ..., "job_id": ...,
     "telemetry": {<ChainTelemetry wire form>}}
    {"v": 1, "record": "campaign", "kernel": ...,
     "telemetry": {<merged deterministic wire form>},
     "ranking": {"target_cycles": ..., "candidates": ...,
                 "testcases": ..., "rows": [{"program_key": ...,
                                             "cost": ..., "cycles": ...}]},
     "runtime": {seconds, grant latencies, occupancy timeline}}
    {"v": 1, "record": "minimize", "kernel": ...,
     "telemetry": {<MinimizeResult.to_json() wire form>},
     "shrunk": {"program": ..., "cegis_testcases": [...]}}

(``shrunk`` and ``ranking`` are written by the engine, whose resume
reuses them; ``ranking`` is deterministic, like ``telemetry``.)

One ``chain`` record lands the moment a chain job completes (so an
in-progress run is reportable live); the single ``campaign`` record
lands at finalization with the plan-order merge of every chain; the
single ``minimize`` record lands when the kernel's winning rewrite is
shrunk (``repro minimize``, ``EngineOptions(minimize=True)``). A
resumed run re-opens the journal and appends, and records are
deduplicated by (kernel, job_id) so chains satisfied from the job
journal are backfilled exactly once.

:func:`metrics_document` folds the records into the one merged
document ``repro engine report --json`` emits. Its ``runtime``
sections (wall-clock seconds, the compiled evaluator's process-global
cache counters, scheduler latencies) legitimately differ between runs
and across executors; :func:`deterministic_document` strips them,
and what remains is bit-identical at any worker count — the telemetry
extension of the engine's replay guarantee
(``tests/engine/test_interleave.py`` holds it across ``serial``,
``pool:n=2`` and ``pool:n=4``).
"""

from __future__ import annotations

from pathlib import Path

from repro import jsonl
from repro.telemetry.chain import ChainTelemetry
from repro.telemetry.metrics import Json, TelemetryError

METRICS_VERSION = 1

RECORD_CHAIN = "chain"
RECORD_CAMPAIGN = "campaign"
RECORD_MINIMIZE = "minimize"

#: The (kernel-level) keys campaign/minimize records dedup under.
_CAMPAIGN_KEY = "@campaign"
_MINIMIZE_KEY = "@minimize"


def _require(record: Json, fields: tuple[str, ...],
             what: str) -> None:
    missing = [name for name in fields if name not in record]
    if missing:
        raise TelemetryError(f"corrupt {what}: missing {missing}")


def _validate(record: Json) -> Json:
    _require(record, ("v", "record", "kernel", "telemetry"),
             "metrics record")
    if record["v"] != METRICS_VERSION:
        raise TelemetryError(
            f"metrics record version {record['v']!r} is not "
            f"{METRICS_VERSION}; refusing to misread the journal")
    if record["record"] not in (RECORD_CHAIN, RECORD_CAMPAIGN,
                                RECORD_MINIMIZE):
        raise TelemetryError(
            f"unknown metrics record kind {record['record']!r}")
    if record["record"] == RECORD_CHAIN:
        _require(record, ("job_id",), "chain metrics record")
    return record


def iter_metrics(path: str | Path):
    """Stream-decode a metrics journal (torn trailing line dropped)."""
    for payload in jsonl.iter_jsonl(path, "metrics journal"):
        yield _validate(payload)


def read_metrics(path: str | Path) -> list[Json]:
    return list(iter_metrics(path))


class MetricsLog:
    """Appends telemetry records to one run directory's journal.

    Every record is written before the engine moves on, and committed
    by ``journals`` (by default, as it is written; in a sweep, with
    the run directory's other journals). Opening always appends: it
    heals a torn tail (:func:`repro.jsonl.resume`) and refuses records
    of an unknown version; emptying the journal for a fresh run is
    :meth:`CheckpointStore.start_fresh`'s job. Appends deduplicate by
    (kernel, job_id) so a resume can blindly backfill journal-satisfied
    chains.
    """

    def __init__(self, path: str | Path, *,
                 journals: jsonl.Writer | None = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.journals = journals or jsonl.Writer(commit_each=True)
        #: the journaled ``minimize`` and ``campaign`` records, if any
        self.minimized: Json | None = None
        self.campaign: Json | None = None
        self._seen = set()
        for record in self.journals.resume(self.path, "metrics journal"):
            self._seen.add(self._key(_validate(record)))
            if record["record"] == RECORD_MINIMIZE:
                self.minimized = record
            elif record["record"] == RECORD_CAMPAIGN:
                self.campaign = record

    @staticmethod
    def _key(record: Json) -> tuple[str, str]:
        if record["record"] == RECORD_MINIMIZE:
            return (record["kernel"], _MINIMIZE_KEY)
        return (record["kernel"],
                record.get("job_id", _CAMPAIGN_KEY))

    def record_chain(self, kernel: str, job_id: str,
                     telemetry: Json) -> bool:
        """Journal one chain's telemetry; False if already journaled."""
        return self._append({"v": METRICS_VERSION,
                             "record": RECORD_CHAIN,
                             "kernel": kernel, "job_id": job_id,
                             "telemetry": telemetry})

    def record_campaign(self, kernel: str, telemetry: Json,
                        runtime: Json, ranking: Json | None = None) -> bool:
        """Journal the campaign-level merge; False if already there.

        ``ranking`` carries what a resume needs to skip the final
        re-ranking: the ranked rows, by program key, and the target's
        cycles.
        """
        record = {"v": METRICS_VERSION, "record": RECORD_CAMPAIGN,
                  "kernel": kernel, "telemetry": telemetry,
                  "runtime": runtime}
        if ranking is not None:
            record["ranking"] = ranking
        return self._append(record)

    def record_minimize(self, kernel: str, telemetry: Json,
                        shrunk: Json | None = None) -> bool:
        """Journal the winner-shrink summary; False if already there.

        ``shrunk`` carries what a resume needs to skip the shrink: the
        shrunk program and the refuted candidates' counterexamples.
        """
        record = {"v": METRICS_VERSION, "record": RECORD_MINIMIZE,
                  "kernel": kernel, "telemetry": telemetry}
        if shrunk is not None:
            record["shrunk"] = shrunk
        return self._append(record)

    def _append(self, record: Json) -> bool:
        key = self._key(record)
        if key in self._seen:
            return False
        self._seen.add(key)
        self.journals.append(self.path, record)
        return True


def metrics_document(records: list[Json]) -> Json | None:
    """Fold one run directory's records into the merged document.

    Returns None when the journal holds nothing yet. A finished run's
    ``campaign`` section comes from the journaled plan-order merge; an
    in-progress run synthesizes it from the chains seen so far (the
    merge is order-insensitive by construction, so the two agree).
    """
    chains: dict[str, Json] = {}
    campaign: Json | None = None
    minimize: Json | None = None
    runtime: Json = {}
    kernel = None
    for record in records:
        if kernel is None:
            kernel = record["kernel"]
        elif record["kernel"] != kernel:
            raise TelemetryError(
                f"metrics journal mixes kernels {kernel!r} and "
                f"{record['kernel']!r}; run directories are per-kernel")
        if record["record"] == RECORD_CHAIN:
            chains[record["job_id"]] = record["telemetry"]
        elif record["record"] == RECORD_MINIMIZE:
            minimize = record["telemetry"]
        else:
            campaign = record["telemetry"]
            runtime = dict(record.get("runtime", {}))
    if kernel is None:
        return None
    complete = campaign is not None
    if campaign is None:
        merged = ChainTelemetry()
        for job_id in sorted(chains):
            merged.absorb(ChainTelemetry.from_json(chains[job_id]))
        campaign = merged.deterministic_json()
    return {"v": METRICS_VERSION, "kernel": kernel,
            "complete": complete, "chains": chains,
            "campaign": campaign, "minimize": minimize,
            "runtime": runtime}


def deterministic_document(document: Json) -> Json:
    """The document minus every ``runtime`` section.

    What remains is a pure function of (campaign fingerprint, plan) —
    the projection the jobs-1/2/4 bit-identity tests compare.
    """
    chains = {
        job_id: {key: value for key, value in telemetry.items()
                 if key != "runtime"}
        for job_id, telemetry in document["chains"].items()}
    minimize = document.get("minimize")
    if minimize is not None:
        minimize = {key: value for key, value in minimize.items()
                    if key != "runtime"}
    return {"v": document["v"], "kernel": document["kernel"],
            "complete": document["complete"], "chains": chains,
            "campaign": {key: value
                         for key, value in document["campaign"].items()
                         if key != "runtime"},
            "minimize": minimize}
