"""CEGIS flywheel tests: the persistent counterexample suite and the
``harden=True`` campaign seam.

The property that makes it a *flywheel*: counterexamples survive fresh
restarts (``start_fresh`` truncates journals, not ``cex_suite.jsonl``),
and a fresh hardened campaign folds them into its frozen base suite —
so each run on a kernel starts where the last one's refutations ended.
"""

import json

import pytest

from repro.engine.campaign import Campaign, EngineOptions
from repro.engine.checkpoint import MANIFEST_VERSION
from repro.engine.serialize import testcase_to_json as _testcase_json
from repro.engine.sweep import KernelSchedule
from repro.errors import EngineError
from repro.minimize import cegis
from repro.minimize.cegis import CounterexampleSuite, suite_path
from repro.search.config import SearchConfig
from repro.suite.registry import benchmark
from repro.testgen.generator import TestcaseGenerator
from repro.verifier.validator import Validator

CONFIG = SearchConfig(ell=12, beta=1.0, seed=5,
                      optimization_proposals=400,
                      optimization_restarts=2,
                      optimization_chains=2,
                      synthesis_chains=0,
                      testcase_count=4)


def _campaign(options, name="p01"):
    bench = benchmark(name)
    return Campaign(bench.o0, bench.spec, bench.annotations,
                    config=CONFIG, validator=Validator(),
                    options=options, name=name)


def _testcases(count, *, seed):
    bench = benchmark("p01")
    return TestcaseGenerator(bench.o0, bench.spec, bench.annotations,
                             seed=seed).generate(count)


# -- the persistent suite -----------------------------------------------------

def test_suite_round_trips_and_dedups_by_input_key(tmp_path):
    path = tmp_path / "cex_suite.jsonl"
    first, second = _testcases(2, seed=7)
    suite = CounterexampleSuite(path)
    assert suite.append([first, second]) == 2
    assert suite.append([first]) == 0          # input-key duplicate
    reloaded = CounterexampleSuite(path)
    assert reloaded.testcases() == [first, second]
    assert reloaded.append([second]) == 0      # dedup survives reload


def test_note_marks_covered_without_persisting(tmp_path):
    suite = CounterexampleSuite(tmp_path / "cex_suite.jsonl")
    (testcase,) = _testcases(1, seed=7)
    suite.note([testcase])
    assert suite.append([testcase]) == 0
    assert suite.testcases() == []
    assert not suite.path.exists()


def test_torn_trailing_line_is_tolerated(tmp_path):
    path = tmp_path / "cex_suite.jsonl"
    suite = CounterexampleSuite(path)
    suite.append(_testcases(2, seed=7))
    with path.open("a") as handle:
        handle.write('{"v": 1, "testcase": {"inp')   # crash mid-write
    assert len(CounterexampleSuite(path).testcases()) == 2


def test_appends_after_a_torn_tail_lose_nothing(tmp_path):
    """A crash mid-append leaves a fragment; the next appends must not
    fuse onto it (losing that counterexample, then corrupting every
    later read of the suite)."""
    path = tmp_path / "cex_suite.jsonl"
    first, second, third, fourth = _testcases(4, seed=7)
    CounterexampleSuite(path).append([first, second])
    with path.open("a") as handle:
        handle.write('{"v": 1, "testcase": {"inp')   # crash mid-write
    suite = CounterexampleSuite(path)
    assert suite.append([third]) == 1
    assert suite.append([fourth]) == 1
    assert CounterexampleSuite(path).testcases() == \
        [first, second, third, fourth]


def test_future_record_versions_are_skipped_not_fatal(tmp_path):
    path = tmp_path / "cex_suite.jsonl"
    suite = CounterexampleSuite(path)
    suite.append(_testcases(1, seed=7))
    with path.open("a") as handle:
        handle.write(json.dumps({"v": 99, "testcase": {}}) + "\n")
    assert len(CounterexampleSuite(path).testcases()) == 1


# -- the harden seam ----------------------------------------------------------

def test_harden_requires_a_run_dir():
    with pytest.raises(EngineError, match="harden"):
        EngineOptions(harden=True)


def test_hardened_fresh_campaign_seeds_from_the_persisted_suite(tmp_path):
    run_dir = tmp_path / "p01"
    seeded = _testcases(1, seed=99)
    CounterexampleSuite.for_run_dir(run_dir).append(seeded)
    result = _campaign(EngineOptions(run_dir=run_dir,
                                     harden=True)).run()
    assert result.rewrite is not None
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["version"] == MANIFEST_VERSION
    assert manifest["harden"] is True
    assert manifest["minimize"] == "off"
    # the frozen base suite is the sampled suite plus the persisted cex
    assert len(manifest["testcases"]) == CONFIG.testcase_count + 1
    assert _testcase_json(seeded[0]) in manifest["testcases"]
    # start_fresh truncated the journals but NOT the flywheel file
    assert suite_path(run_dir).exists()
    assert CounterexampleSuite.for_run_dir(run_dir).testcases() == seeded


def test_unhardened_campaign_ignores_the_persisted_suite(tmp_path):
    run_dir = tmp_path / "p01"
    CounterexampleSuite.for_run_dir(run_dir).append(
        _testcases(1, seed=99))
    _campaign(EngineOptions(run_dir=run_dir)).run()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["harden"] is False
    assert len(manifest["testcases"]) == CONFIG.testcase_count


def test_resume_rejects_a_changed_minimize_policy(tmp_path):
    run_dir = tmp_path / "p01"
    _campaign(EngineOptions(run_dir=run_dir)).run()
    with pytest.raises(EngineError, match="differs in minimize"):
        _campaign(EngineOptions(run_dir=run_dir, resume=True,
                                minimize=True)).run()


def test_resume_rejects_a_changed_harden_policy(tmp_path):
    run_dir = tmp_path / "p01"
    _campaign(EngineOptions(run_dir=run_dir)).run()
    with pytest.raises(EngineError, match="differs in harden"):
        _campaign(EngineOptions(run_dir=run_dir, resume=True,
                                harden=True)).run()


def test_hardened_resume_replays_the_manifest_suite(tmp_path):
    """Resume reads testcases from the manifest, so a hardened resume
    is bit-compatible with the fresh run it continues."""
    run_dir = tmp_path / "p01"
    CounterexampleSuite.for_run_dir(run_dir).append(
        _testcases(1, seed=99))
    options = EngineOptions(run_dir=run_dir, harden=True)
    full = _campaign(options).run()
    resumed = _campaign(EngineOptions(run_dir=run_dir,
                                      resume=True, harden=True)).run()
    assert [(str(r.program), r.cycles) for r in resumed.ranked] \
        == [(str(r.program), r.cycles) for r in full.ranked]


def test_a_fresh_hardened_campaign_decodes_the_suite_once(tmp_path,
                                                          monkeypatch):
    """The fresh start hands the suite it opened to the schedule, so
    each persisted record is decoded once; a resume opens the suite
    itself and still sees every record."""
    run_dir = tmp_path / "p01"
    seeded = _testcases(3, seed=99)
    CounterexampleSuite.for_run_dir(run_dir).append(seeded)
    decoded, decode = [], cegis.testcase_from_json

    def counted(data):
        decoded.append(data)
        return decode(data)

    monkeypatch.setattr(cegis, "testcase_from_json", counted)
    _campaign(EngineOptions(run_dir=run_dir, harden=True)).run()
    assert len(decoded) == len(seeded)
    records = sum(1 for _ in suite_path(run_dir).open())
    schedule = KernelSchedule(_campaign(EngineOptions(
        run_dir=run_dir, resume=True, harden=True)))
    try:
        assert len(decoded) == len(seeded) + records
        assert schedule.cex_suite.testcases()[:len(seeded)] == seeded
    finally:
        schedule.journals.close()
