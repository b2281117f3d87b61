"""Campaign tests: worker-count invariance and checkpoint/resume.

The acceptance bar for the engine: ``pool:n=N`` is bit-identical to
``serial`` with the same seed, and a killed campaign resumed from its
run directory finishes with the same final ranking while re-running
only the chains the journal is missing.
"""

import json

import pytest

import repro.engine.worker as worker_module
from repro import jsonl
from repro.engine.campaign import Campaign, EngineOptions
from repro.engine.checkpoint import (_FINGERPRINT_FIELDS, MANIFEST_VERSION,
                                     CheckpointStore)
from repro.errors import EngineError, RegistryError
from repro.search.config import SearchConfig
from repro.suite.registry import benchmark
from repro.verifier.validator import Validator

CONFIG = SearchConfig(ell=12, beta=1.0, seed=5,
                      optimization_proposals=2500,
                      optimization_restarts=4,
                      optimization_chains=3,
                      synthesis_chains=0,
                      testcase_count=8)


def _campaign(options, config=CONFIG):
    bench = benchmark("p01")
    return Campaign(bench.o0, bench.spec, bench.annotations,
                    config=config, validator=Validator(),
                    options=options)


def _ranking_key(result):
    return [(str(r.program), r.cost, r.cycles) for r in result.ranked]


def test_same_seed_same_result_across_worker_counts():
    serial = _campaign(EngineOptions()).run()
    pooled = _campaign(EngineOptions(executor="pool:n=4")).run()
    assert serial.rewrite is not None
    assert _ranking_key(serial) == _ranking_key(pooled)
    assert str(serial.rewrite) == str(pooled.rewrite)
    assert serial.rewrite_cycles == pooled.rewrite_cycles
    assert len(serial.optimization) == len(pooled.optimization) == 3


def test_resume_after_interrupt_matches_uninterrupted(tmp_path,
                                                      monkeypatch):
    run_dir = tmp_path / "run"
    full = _campaign(EngineOptions(run_dir=run_dir)).run()
    journal = run_dir / "jobs.jsonl"
    lines = journal.read_text().splitlines()
    assert len(lines) == 3                   # one record per chain
    # simulate a kill: last job lost, the one before torn mid-write
    journal.write_text("\n".join(lines[:-2]) + "\n" + lines[-2][:20])

    executed = []
    original = worker_module.run_chain_job

    def counting(context, job):
        executed.append(job.job_id)
        return original(context, job)

    monkeypatch.setattr(worker_module, "run_chain_job", counting)
    resumed = _campaign(
        EngineOptions(run_dir=run_dir, resume=True)).run()
    assert executed == ["opt-c001-s000", "opt-c002-s000"]
    assert _ranking_key(resumed) == _ranking_key(full)
    assert str(resumed.rewrite) == str(full.rewrite)


def test_fresh_run_discards_stale_journal(tmp_path):
    run_dir = tmp_path / "run"
    first = _campaign(EngineOptions(run_dir=run_dir)).run()
    # without --resume the old journal must not leak into a new run
    second = _campaign(EngineOptions(run_dir=run_dir)).run()
    assert _ranking_key(first) == _ranking_key(second)
    journal = (run_dir / "jobs.jsonl").read_text().splitlines()
    assert len(journal) == 3


def test_start_fresh_empties_journals_before_the_manifest(tmp_path,
                                                          monkeypatch):
    """start_fresh owns fresh-start truncation: every journal but the
    counterexample flywheel is empty by the time the manifest lands, so
    a crash in between cannot pair a new manifest with old results."""
    store = CheckpointStore(tmp_path / "run")
    store.run_dir.mkdir()
    journals = ("jobs", "grants", "recovery", "events", "metrics")
    for name in journals + ("cex_suite",):
        (store.run_dir / f"{name}.jsonl").write_text('{"stale": 1}\n')
    at_manifest = {}
    replace = jsonl.replace_atomically

    def spy(path, text):
        if path == store.manifest_path:
            at_manifest.update(
                (name, (store.run_dir / f"{name}.jsonl").read_text())
                for name in journals)
        replace(path, text)

    monkeypatch.setattr(jsonl, "replace_atomically", spy)
    store.start_fresh(dict.fromkeys(_FINGERPRINT_FIELDS + ("testcases",)))
    assert at_manifest == dict.fromkeys(journals, "")
    assert (store.run_dir / "cex_suite.jsonl").read_text() == \
        '{"stale": 1}\n'
    assert json.loads(store.manifest_path.read_text())["version"] == \
        MANIFEST_VERSION


def test_resume_rejects_mismatched_campaign(tmp_path):
    run_dir = tmp_path / "run"
    _campaign(EngineOptions(run_dir=run_dir)).run()
    other = SearchConfig(ell=12, beta=1.0, seed=6,
                         optimization_proposals=2500,
                         optimization_restarts=4,
                         optimization_chains=3,
                         synthesis_chains=0, testcase_count=8)
    with pytest.raises(EngineError, match="differs in config"):
        _campaign(EngineOptions(run_dir=run_dir, resume=True),
                  config=other).run()


def test_resume_without_run_dir_is_rejected():
    with pytest.raises(EngineError):
        EngineOptions(resume=True)


def test_nonpositive_jobs_rejected():
    for bad in ("pool:n=0", "pool:n=1", "tcp:spawn=0"):
        with pytest.raises(RegistryError, match="must be >= "):
            EngineOptions(executor=bad)


def test_resume_with_no_prior_run_is_an_error(tmp_path):
    with pytest.raises(EngineError, match="no campaign to resume"):
        _campaign(EngineOptions(run_dir=tmp_path / "nothing",
                                resume=True)).run()


def test_torn_journal_tail_is_healed_before_appending(tmp_path):
    """A torn trailing line must be truncated on resume, not fused
    with the re-run chain's appended record (which would corrupt the
    journal for every later resume)."""
    run_dir = tmp_path / "run"
    full = _campaign(EngineOptions(run_dir=run_dir)).run()
    journal = run_dir / "jobs.jsonl"
    lines = journal.read_text().splitlines()
    journal.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:30])
    options = EngineOptions(run_dir=run_dir, resume=True)
    first = _campaign(options).run()
    # every journal line must parse again — no fused fragment
    healed = journal.read_text().splitlines()
    assert len(healed) == 3
    for line in healed:
        json.loads(line)
    second = _campaign(options).run()
    assert _ranking_key(first) == _ranking_key(full)
    assert _ranking_key(second) == _ranking_key(full)


def test_corrupt_mid_journal_line_is_an_error(tmp_path):
    run_dir = tmp_path / "run"
    _campaign(EngineOptions(run_dir=run_dir)).run()
    journal = run_dir / "jobs.jsonl"
    lines = journal.read_text().splitlines()
    lines[0] = "{ not json"
    journal.write_text("\n".join(lines) + "\n")
    with pytest.raises(EngineError, match="corrupt journal"):
        CheckpointStore(run_dir).completed()


def test_resume_of_old_manifest_version_names_the_version(tmp_path):
    run_dir = tmp_path / "run"
    _campaign(EngineOptions(run_dir=run_dir)).run()
    manifest_path = run_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["version"] = 1
    del manifest["cost"]                     # a PR-1 era manifest
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(EngineError, match="version 1 is not"):
        _campaign(EngineOptions(run_dir=run_dir,
                                resume=True)).run()


def test_manifest_freezes_testcases(tmp_path):
    run_dir = tmp_path / "run"
    _campaign(EngineOptions(run_dir=run_dir)).run()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert len(manifest["testcases"]) == CONFIG.testcase_count
    assert manifest["version"] == MANIFEST_VERSION
    assert manifest["cost"] == "correctness,latency"
    assert manifest["strategy"] == "mcmc"
    assert manifest["budget"] == "fixed"
    assert manifest["interleave"] == "none"


def test_resume_rejects_changed_budget(tmp_path):
    run_dir = tmp_path / "run"
    _campaign(EngineOptions(run_dir=run_dir)).run()
    with pytest.raises(EngineError, match="differs in budget"):
        _campaign(EngineOptions(run_dir=run_dir, resume=True,
                                budget="adaptive:stable=2")).run()


def test_resume_of_old_manifests_is_a_version_error(tmp_path):
    """A prior-era manifest (missing newer fingerprint fields) must
    fail on version, not on a confusing missing-field message."""
    run_dir = tmp_path / "run"
    _campaign(EngineOptions(run_dir=run_dir)).run()
    manifest_path = run_dir / "manifest.json"
    pristine = manifest_path.read_text()
    for version, dropped in ((2, "budget"), (3, "interleave")):
        manifest = json.loads(pristine)
        manifest["version"] = version
        del manifest[dropped]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(EngineError,
                           match=f"version {version} is not {MANIFEST_VERSION}"):
            _campaign(EngineOptions(run_dir=run_dir,
                                    resume=True)).run()
