"""Campaigns run on the one compiled evaluator.

The reference interpreter is the oracle the compiled path is tested
against (``tests/emulator``), not a campaign setting: the cost spec
carries no evaluator, results are worker-count invisible, and a run
directory written while the spec still could name one is refused on
resume rather than silently re-searched.
"""

import json

import pytest

from repro.engine.campaign import Campaign, EngineOptions
from repro.errors import EngineError
from repro.search.config import SearchConfig
from repro.suite.registry import benchmark
from repro.verifier.validator import Validator

CONFIG = SearchConfig(ell=12, beta=1.0, seed=9,
                      optimization_proposals=1200,
                      optimization_restarts=3,
                      optimization_chains=2,
                      synthesis_chains=0,
                      testcase_count=6)


def _campaign(options):
    bench = benchmark("p01")
    return Campaign(bench.o0, bench.spec, bench.annotations,
                    config=CONFIG, validator=Validator(),
                    options=options)


def _ranking_key(result):
    return [(str(r.program), r.cost, r.cycles) for r in result.ranked]


def test_jobs_two_matches_jobs_one():
    serial = _campaign(EngineOptions()).run()
    pooled = _campaign(EngineOptions(executor="pool:n=2")).run()
    assert _ranking_key(serial) == _ranking_key(pooled)
    assert str(serial.rewrite) == str(pooled.rewrite)


def test_resume_rejects_a_manifest_naming_an_evaluator(tmp_path):
    run_dir = tmp_path / "run"
    _campaign(EngineOptions(run_dir=run_dir)).run()
    manifest_path = run_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["cost"] == "correctness,latency"
    manifest["cost"] = "correctness,latency,evaluator=reference"
    manifest_path.write_text(json.dumps(manifest, sort_keys=True) + "\n")
    with pytest.raises(EngineError, match="differs in cost"):
        _campaign(EngineOptions(run_dir=run_dir,
                                resume=True)).run()
