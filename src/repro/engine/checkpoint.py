"""Checkpoint store: a run directory that survives interrupts.

Layout::

    <run_dir>/manifest.json     campaign fingerprint + frozen testcases
    <run_dir>/jobs.jsonl        one line per completed job result
    <run_dir>/grants.jsonl      one line per scheduler grant decision
    <run_dir>/recovery.jsonl    one line per retry/requeue/quarantine
    <run_dir>/events.jsonl      campaign progress stream (diagnostics)
    <run_dir>/metrics.jsonl     search telemetry (diagnostics)
    <run_dir>/cex_suite.jsonl   persistent counterexamples (``--harden``)

The manifest freezes everything job results depend on, so a resumed
campaign provably replays the same search, and resuming against a
different campaign is rejected instead of silently mixing results.
Every ``.jsonl`` file is an append-only journal written through the
store's one :class:`repro.jsonl.Writer` (:attr:`CheckpointStore.journals`),
which the sweep commits when it admits a wave, when the kernel
finalizes and when it returns or raises. A kill loses nothing; a power
loss loses at most the records since the last commit, whose jobs re-run
to the same payload; and a grant or recovery decision is durable before
any result it admits. A half-written final line is discarded on load
and healed away before the next append, so a job whose record was torn
simply re-runs.

The manifest carries ``version`` (:data:`MANIFEST_VERSION`; any other
version is rejected, not migrated), the frozen base ``testcases``, and
these fingerprint fields. Resuming under a different value of any of
them is rejected:

* ``target``, ``spec``, ``annotations`` — the program, its live
  registers and its input annotations: every chain searches against
  exactly these.
* ``config`` — the search configuration; it fixes the job plan and
  every chain's seed.
* ``cost`` — the cost-spec string, so a resume cannot re-search under
  another cost function.
* ``strategy`` — the chain exploration strategy, for the same reason.
* ``budget`` — the stopping rule. An adaptive campaign's journal holds
  only the chains its rule scheduled; another rule would re-decide
  which chains exist.
* ``interleave`` — the cross-kernel scheduling policy. Rankings are
  bit-identical either way, but the grant decisions journaled in
  ``grants.jsonl`` were made under it (a ``wallclock`` resume replays
  them instead of re-consulting the clock).
* ``minimize`` — the minimization policy; it changes the reported
  rewrite.
* ``harden`` — the CEGIS flag; it changes the frozen base testcases.
* ``retry`` — the retry policy; it decides which chains are
  quarantined (replayed from ``recovery.jsonl``), i.e. campaign
  membership.
* ``transport`` — ``local`` or ``tcp:wire=N``: the frame vocabulary
  results travelled in. The worker count is deliberately not frozen,
  exactly like ``jobs``: results are worker-count invisible.

``events.jsonl`` and ``metrics.jsonl`` are diagnostic output, not
resume state: the fingerprint never covers them. ``cex_suite.jsonl``
(:mod:`repro.minimize.cegis`) is deliberately *not* emptied by
:meth:`CheckpointStore.start_fresh`: counterexamples accumulate across
fresh runs (the flywheel), while the manifest records exactly which of
them this run's base suite absorbed.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro import jsonl
from repro.engine.serialize import Json, require_fields
from repro.errors import EngineError

MANIFEST_VERSION = 8

_FINGERPRINT_FIELDS = ("target", "spec", "annotations", "config",
                       "cost", "strategy", "budget", "interleave",
                       "minimize", "harden", "retry", "transport")


class CheckpointStore:
    """Journal of completed jobs under one run directory."""

    def __init__(self, run_dir: str | Path) -> None:
        self.run_dir = Path(run_dir)
        #: the run directory's journal writer, shared by its event,
        #: metrics and counterexample logs; the sweep commits it
        self.journals = jsonl.Writer()
        self.manifest_path = self.run_dir / "manifest.json"
        self.journal_path = self.run_dir / "jobs.jsonl"
        self.grants_path = self.run_dir / "grants.jsonl"
        self.recovery_path = self.run_dir / "recovery.jsonl"
        self.events_path = self.run_dir / "events.jsonl"
        self.metrics_path = self.run_dir / "metrics.jsonl"

    def has_manifest(self) -> bool:
        return self.manifest_path.exists()

    def start_fresh(self, manifest: Json) -> None:
        """Initialize the run directory, discarding any prior state.

        The one owner of fresh-start truncation: every journal but the
        counterexample suite is emptied *before* the manifest is
        replaced, so a crash in between leaves the old manifest over
        empty journals (a resume re-runs every job), never the new
        manifest over the previous run's results. A journal that does
        not exist yet is created without an fsync: there is nothing
        stale to outlive a crash, and a missing journal reads as empty.
        """
        require_fields(manifest, _FINGERPRINT_FIELDS + ("testcases",),
                       "manifest")
        self.run_dir.mkdir(parents=True, exist_ok=True)
        for path in (self.journal_path, self.grants_path,
                     self.recovery_path, self.events_path,
                     self.metrics_path):
            if path.exists():
                self.journals.replace(path, [])
            else:
                path.touch()
        payload = dict(manifest)
        payload["version"] = MANIFEST_VERSION
        jsonl.replace_atomically(self.manifest_path,
                                 [json.dumps(payload, sort_keys=True)])

    def load_manifest(self, expected_fingerprint: Json) -> Json:
        """Load and cross-check the manifest against this campaign.

        Args:
            expected_fingerprint: the current campaign's target, spec,
                annotations, and config, serialized; any divergence
                from the stored run aborts the resume.
        """
        if not self.has_manifest():
            raise EngineError(
                f"no campaign to resume under {self.run_dir}")
        manifest = json.loads(self.manifest_path.read_text())
        # version first: an old-format manifest is a migration problem
        # ("version 1 is not 2"), not a corruption problem
        if manifest.get("version") != MANIFEST_VERSION:
            raise EngineError(
                f"manifest version {manifest.get('version')!r} is not "
                f"{MANIFEST_VERSION}; cannot resume")
        require_fields(manifest, _FINGERPRINT_FIELDS + ("testcases",),
                       "manifest")
        for name in _FINGERPRINT_FIELDS:
            if manifest[name] != expected_fingerprint[name]:
                raise EngineError(
                    f"cannot resume: stored campaign differs in {name} "
                    f"(run directory {self.run_dir})")
        return manifest

    def record(self, payload: Json) -> None:
        """Append one completed job result (durable at the next
        commit; a lost one re-runs to the same payload)."""
        self.journals.append(self.journal_path, payload)

    def record_grant(self, payload: Json) -> None:
        """Append one scheduler grant decision; the sweep commits it
        before the wave it admits is submitted."""
        self.journals.append(self.grants_path, payload)

    def record_recovery(self, payload: Json) -> None:
        """Append one recovery decision (retry/requeue/quarantine); the
        sweep commits it before re-granting the job — quarantines
        especially must survive an interrupt, or a resume would hammer
        a poisoned chain all over again."""
        self.journals.append(self.recovery_path, payload)

    def grants(self) -> list[Json]:
        """Journaled grant decisions, in decision order."""
        return list(self.journals.resume(self.grants_path,
                                         "grants journal"))

    def recovery(self) -> list[Json]:
        """Journaled recovery decisions, in decision order."""
        return list(self.journals.resume(self.recovery_path,
                                         "recovery journal"))

    def completed(self) -> dict[str, Json]:
        """All journaled results, keyed by job id.

        A torn trailing line is dropped (and healed away, since the
        resume that called this will append); a torn line anywhere
        else means the journal was edited by hand and is an error.
        """
        results: dict[str, Json] = {}
        for payload in self.journals.resume(self.journal_path, "journal"):
            if "job_id" not in payload:
                raise EngineError(
                    f"journal record without job_id in "
                    f"{self.journal_path}")
            results[payload["job_id"]] = payload
        return results
