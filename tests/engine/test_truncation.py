"""Journal truncation fuzz: resume heals a torn tail, bit-identically.

Every journal in a run directory (jobs, grants, events, metrics,
recovery) is append-only and written one record per write, committed
at the sweep's commit points, so the only damage a kill or a power loss
can inflict on a journal is a lost suffix ending in a torn *final*
record (``test_crash.py`` cuts whole suffixes). This file proves the
claim exhaustively: the final record of each journal is cut at every
byte boundary (sampled when the record is long), and a resume from the
damaged directory must reproduce the pristine run's rankings exactly —
no crash, no drift, no half-parsed record fused into the stream.

Set ``REPRO_FAULT_RUNS`` to keep the damaged run directories on disk
(the CI fault-matrix job uploads them as artifacts on failure).
"""

import os
import shutil
from pathlib import Path

import pytest

from repro.engine.campaign import Campaign, EngineOptions
from repro.engine.sweep import run_campaigns
from repro.search.config import SearchConfig
from repro.suite.registry import benchmark
from repro.verifier.validator import Validator

JOURNALS = ("jobs.jsonl", "grants.jsonl", "events.jsonl",
            "metrics.jsonl")

#: boundaries sampled per journal when the final record is long; the
#: endpoints (0, 1, len-1, len) are always included.
SAMPLES = 12


def _campaign(base_dir, *, resume=False):
    bench = benchmark("p01")
    config = SearchConfig(ell=12, beta=1.0, seed=5,
                          optimization_proposals=120,
                          optimization_restarts=2,
                          optimization_chains=2,
                          synthesis_chains=0,
                          testcase_count=4)
    # an adaptive budget makes per-chain grant decisions, so the
    # grants journal has records for the fuzz to torture
    options = EngineOptions(run_dir=base_dir / "p01",
                            resume=resume, budget="adaptive:stable=2")
    return Campaign(bench.o0, bench.spec, bench.annotations,
                    config=config, validator=Validator(),
                    options=options, name="p01")


def _key(result):
    return (tuple((str(r.program), r.cost, r.cycles)
                  for r in result.ranked),
            str(result.rewrite), result.rewrite_cycles,
            result.chains_scheduled, result.chains_saved)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """One finished run plus its result key, snapshot for copying."""
    base = tmp_path_factory.mktemp("pristine")
    [result] = run_campaigns([_campaign(base)])
    return base, _key(result)


def _boundaries(record: bytes) -> list[int]:
    """Byte offsets to cut at: every boundary, sampled when long."""
    length = len(record)
    if length + 1 <= SAMPLES + 4:
        return list(range(length + 1))
    stride = length / SAMPLES
    sampled = {int(i * stride) for i in range(1, SAMPLES)}
    return sorted(sampled | {0, 1, length - 1, length})


def _work_dir(tmp_path, label) -> Path:
    root = os.environ.get("REPRO_FAULT_RUNS")
    if not root:
        return tmp_path / label
    path = Path(root) / "truncation" / label
    if path.exists():
        shutil.rmtree(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


@pytest.mark.parametrize("journal", JOURNALS)
def test_resume_heals_every_cut_of_the_final_record(
        journal, pristine, tmp_path):
    base, baseline = pristine
    source = base / "p01" / journal
    content = source.read_bytes()
    assert content.endswith(b"\n"), journal
    head = content[:content.rstrip(b"\n").rfind(b"\n") + 1]
    record = content[len(head):]
    assert record                         # the record being tortured
    for cut in _boundaries(record):
        work = _work_dir(tmp_path, f"{journal}-cut{cut}")
        shutil.copytree(base, work)
        (work / "p01" / journal).write_bytes(head + record[:cut])
        [resumed] = run_campaigns([_campaign(work, resume=True)])
        assert _key(resumed) == baseline, \
            f"{journal} cut at byte {cut} changed the outcome"
        # the heal must leave the journal whole again: every line of
        # the re-read file parses (a fused half-record would not)
        healed = (work / "p01" / journal).read_bytes()
        assert not healed or healed.endswith(b"\n")
        if not os.environ.get("REPRO_FAULT_RUNS"):
            shutil.rmtree(work)           # keep tmp usage bounded


def test_recovery_journal_cut_keeps_quarantine_sticky(tmp_path):
    """The recovery journal heals the same way: a torn final record
    drops cleanly and the surviving quarantines still replay."""
    base = tmp_path / "run"
    [first] = run_campaigns([Campaign(
        benchmark("p01").o0, benchmark("p01").spec,
        benchmark("p01").annotations,
        config=SearchConfig(ell=12, beta=1.0, seed=5,
                            optimization_proposals=120,
                            optimization_restarts=2,
                            optimization_chains=2,
                            synthesis_chains=0, testcase_count=4),
        validator=Validator(),
        options=EngineOptions(run_dir=base / "p01",
                              faults="faults:stall=1.0",
                              job_timeout=0.1, retries=1),
        name="p01")])
    assert first.chains_quarantined == 2
    journal = base / "p01" / "recovery.jsonl"
    content = journal.read_bytes()
    journal.write_bytes(content[:-3])     # tear the last record
    [resumed] = run_campaigns([Campaign(
        benchmark("p01").o0, benchmark("p01").spec,
        benchmark("p01").annotations,
        config=SearchConfig(ell=12, beta=1.0, seed=5,
                            optimization_proposals=120,
                            optimization_restarts=2,
                            optimization_chains=2,
                            synthesis_chains=0, testcase_count=4),
        validator=Validator(),
        options=EngineOptions(run_dir=base / "p01",
                              resume=True, job_timeout=0.1,
                              retries=1),
        name="p01")])
    # the torn quarantine record is gone, so that one chain is retried
    # (and, still stalled-free now, completes); the intact one replays
    assert resumed.chains_quarantined in (1, 2)
    assert set(resumed.quarantined_jobs) <= set(first.quarantined_jobs)
