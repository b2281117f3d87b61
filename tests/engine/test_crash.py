"""Crash harness: a group-committed run directory resumes bit-identically.

The journals of a sweep are written one record per ``write`` and
fsynced only at commit points (a wave's admission, a kernel's finish,
the sweep's end). Two kinds of crash must each leave a run directory
that resumes to the pristine run's rankings:

* **power loss** — everything since a journal's last fsync may be
  lost. For a random commit index, each journal is cut, independently,
  to a size between the size that index made durable and the size
  written by the next one; the cut may tear a line. No surviving
  result may outlive the grant that admitted it.
* **process kill** — a subprocess sweep is killed with SIGKILL at a
  random journal append or commit; every record appended before it
  must survive.

After either, the resumed run must rank as the pristine one did and
leave every job's result journaled, so no append after a heal is lost.

Both run over an interleaved p01+p03 sweep, once under a fixed budget
and once under an adaptive budget with injected worker crashes, so
grant and recovery decisions are journaled too.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro import jsonl
from repro.engine.campaign import Campaign, EngineOptions
from repro.engine.sweep import run_campaigns
from repro.search.config import SearchConfig
from repro.suite.registry import benchmark
from repro.verifier.validator import Validator

KERNELS = ("p01", "p03")
JOURNALS = ("jobs.jsonl", "grants.jsonl", "recovery.jsonl",
            "events.jsonl", "metrics.jsonl")
SETTINGS = {
    "fixed": dict(budget="fixed"),
    "adaptive-faults": dict(budget="adaptive:stable=2",
                            faults="faults:seed=3,crash=0.3",
                            retries=3),
}
#: crash points tried per setting, drawn from a seeded RNG
POWER_LOSSES = 6
KILLS = 3

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def _campaigns(base: Path, setting: str, *, resume: bool = False):
    campaigns = []
    for index, name in enumerate(KERNELS):
        bench = benchmark(name)
        config = SearchConfig(ell=12, beta=1.0, seed=5 + index,
                              synthesis_proposals=60,
                              optimization_proposals=120,
                              optimization_restarts=2,
                              synthesis_chains=1,
                              optimization_chains=3,
                              testcase_count=4)
        options = EngineOptions(run_dir=base / name, resume=resume,
                                interleave=True, **SETTINGS[setting])
        campaigns.append(Campaign(bench.o0, bench.spec, bench.annotations,
                                  config=config, validator=Validator(),
                                  options=options, name=name))
    return campaigns


def _keys(results):
    return [(tuple((str(r.program), r.cost, r.cycles) for r in result.ranked),
             str(result.rewrite), result.rewrite_cycles,
             result.chains_scheduled, result.chains_saved,
             result.quarantined_jobs)
            for result in results]


def _journal_paths(base: Path) -> list[Path]:
    return [base / kernel / name for kernel in KERNELS for name in JOURNALS]


def _sizes(paths: list[Path]) -> dict[Path, int]:
    return {path: path.stat().st_size if path.exists() else 0
            for path in paths}


class _Pristine:
    """One uninterrupted run: its directory, keys, and commit history."""

    def __init__(self, base: Path, setting: str) -> None:
        self.base = base
        paths = _journal_paths(base)
        durable: dict[Path, int] = {}
        #: after each journal fsync: (durable sizes, written sizes);
        #: the first point is the empty journals start_fresh leaves
        self.points = [({}, dict.fromkeys(paths, 0))]
        #: journal appends and commits in call order (the kill points):
        #: (journal, records appended), with None for a commit
        self.calls: list[tuple[Path | None, int]] = []
        fsync, append, commit = os.fsync, jsonl.Writer.append, \
            jsonl.Writer.commit

        def spy_fsync(fd):
            fsync(fd)
            inode = os.fstat(fd).st_ino
            for path in paths:
                if path.exists() and path.stat().st_ino == inode:
                    durable[path] = os.fstat(fd).st_size
                    self.points.append((dict(durable), _sizes(paths)))

        def counted_append(writer, path, *records):
            self.calls.append((path, len(records)))
            return append(writer, path, *records)

        def counted_commit(writer):
            self.calls.append((None, 0))
            return commit(writer)

        os.fsync = spy_fsync
        jsonl.Writer.append = counted_append
        jsonl.Writer.commit = counted_commit
        try:
            self.keys = _keys(run_campaigns(_campaigns(base, setting)))
        finally:
            os.fsync = fsync
            jsonl.Writer.append, jsonl.Writer.commit = append, commit
        self.final = _sizes(paths)
        self.jobs = _job_ids(base)

    def copy(self, work: Path) -> Path:
        shutil.copytree(self.base, work)
        return work


def _records(path: Path) -> list[dict]:
    return list(jsonl.iter_jsonl(path, "journal"))


def _job_ids(base: Path) -> dict[str, list[str]]:
    return {kernel: [record["job_id"] for record
                     in _records(base / kernel / "jobs.jsonl")]
            for kernel in KERNELS}


def _unadmitted_results(base: Path) -> list[str]:
    """Surviving results whose admitting grant did not survive.

    A synthesis job is admitted by the synthesis wave's
    ``kernel-granted`` event; an optimization job of round ``c`` by the
    event for chain ``c`` (or for the whole wave, under a fixed
    budget) and, under an incremental budget, by grant ``c`` in
    ``grants.jsonl``.
    """
    missing = []
    results = _job_ids(base)
    for kernel in KERNELS:
        run_dir = base / kernel
        events = {(event["data"]["wave"], event["data"]["chain"])
                  for event in _records(run_dir / "events.jsonl")
                  if event["event"] == "kernel-granted"
                  and event["data"]["granted"]}
        grants = {record["chain"] for record
                  in _records(run_dir / "grants.jsonl")
                  if record["granted"]}
        incremental = ("optimization", None) not in events
        for job_id in results[kernel]:
            if job_id.startswith("synth-"):
                admitted = ("synthesis", None) in events
            elif incremental:
                chain = int(job_id.split("-")[1][1:])
                admitted = (("optimization", chain) in events
                            and chain in grants)
            else:
                admitted = True
            if not admitted:
                missing.append(f"{kernel}/{job_id}")
    return missing


@pytest.fixture(scope="module", params=sorted(SETTINGS))
def pristine(request, tmp_path_factory):
    setting = request.param
    base = tmp_path_factory.mktemp(f"pristine-{setting}")
    return setting, _Pristine(base, setting)


def test_waves_are_committed_and_everything_by_the_return(pristine):
    setting, run = pristine
    # a commit per admitted wave and finish, not one at the end only
    assert len(run.points) > 4 * len(KERNELS), setting
    # every journal the sweep wrote is durable once it returned
    assert run.points[-1][0] == {path: size for path, size
                                 in run.final.items() if size}


def test_resume_after_a_power_loss_ranks_identically(pristine, tmp_path):
    setting, run = pristine
    rng = random.Random(f"power/{setting}")
    indices = rng.sample(range(len(run.points)),
                         min(POWER_LOSSES, len(run.points)))
    for index in indices:
        durable = run.points[index][0]
        written = (run.points[index + 1][1] if index + 1 < len(run.points)
                   else run.final)
        work = run.copy(tmp_path / f"power-{index}")
        for path, size in written.items():
            cut = rng.randint(durable.get(path, 0), size)
            target = work / path.relative_to(run.base)
            target.write_bytes(target.read_bytes()[:cut])
        assert _unadmitted_results(work) == [], index
        resumed = run_campaigns(_campaigns(work, setting, resume=True))
        assert _keys(resumed) == run.keys, \
            f"{setting}: a power loss after commit point {index} " \
            f"changed the rankings"
        assert sorted(map(sorted, _job_ids(work).values())) == \
            sorted(map(sorted, run.jobs.values())), index
        shutil.rmtree(work)


_KILLED_RUN = r"""
import os, signal, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from repro import jsonl
from repro.engine.sweep import run_campaigns
from test_crash import _campaigns

base, setting, kill_at = Path(sys.argv[2]), sys.argv[3], int(sys.argv[4])
calls = 0


def killing(method):
    def call(*args, **kwargs):
        global calls
        calls += 1
        if calls == kill_at:
            os.kill(os.getpid(), signal.SIGKILL)
        return method(*args, **kwargs)
    return call


jsonl.Writer.append = killing(jsonl.Writer.append)
jsonl.Writer.commit = killing(jsonl.Writer.commit)
run_campaigns(_campaigns(base, setting))
"""


def test_resume_after_a_kill_ranks_identically(pristine, tmp_path):
    setting, run = pristine
    rng = random.Random(f"kill/{setting}")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for kill_at in sorted(rng.sample(range(1, len(run.calls) + 1), KILLS)):
        work = tmp_path / f"kill-{kill_at}"
        done = subprocess.run(
            [sys.executable, "-c", _KILLED_RUN, str(HERE), str(work),
             setting, str(kill_at)],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == -signal.SIGKILL, done.stderr
        # the run is deterministic, so the pristine run's calls say
        # what was appended before the kill: all of it must be there
        for path in _journal_paths(run.base):
            appended = sum(count for journal, count
                           in run.calls[:kill_at - 1] if journal == path)
            survived = work / path.relative_to(run.base)
            assert len(_records(survived)) == appended, (kill_at, path)
        resumed = run_campaigns(_campaigns(work, setting, resume=True))
        assert _keys(resumed) == run.keys, \
            f"{setting}: a kill at journal call {kill_at} changed " \
            f"the rankings"
        assert _job_ids(work) == run.jobs, kill_at
        shutil.rmtree(work)
