"""``Validator.prove``: the memo of proofs in front of ``validate``.

A proof is a pure function of the printed query, so answering a repeat
from memory must change nothing a campaign reports: the same
``validations`` (a budget spends them), the same ranking, the same
counterexample-derived testcases. Only the number of real proofs falls.
"""

import json

import pytest

from repro.api.session import Session
from repro.api.targets import Target
from repro.engine.campaign import EngineOptions
from repro.errors import SolverTimeoutError
from repro.search.config import SearchConfig
from repro.suite.registry import benchmark
from repro.telemetry import load_document
from repro.telemetry.journal import deterministic_document
from repro.testgen.generator import TestcaseGenerator
from repro.verifier import validator as validator_module
from repro.verifier.validator import LiveSpec, Validator
from repro.x86.parser import parse_program

#: Eight short chains on p01: they converge on a few rewrites, so most
#: validator queries repeat an earlier one.
CONFIG = SearchConfig(ell=12, testcase_count=16, optimization_restarts=4,
                      seed=1, synthesis_proposals=60,
                      optimization_proposals=60, synthesis_chains=4,
                      optimization_chains=4)


def _campaign(run_dir):
    """(validations per job, ranking) of one checkpointed p01 run."""
    result = Session(Target.from_suite("p01"), config=CONFIG,
                     engine=EngineOptions(run_dir=str(run_dir))).run()
    journal = (run_dir / "jobs.jsonl").read_text().splitlines()
    validations = {record["job_id"]: record["validations"]
                   for record in map(json.loads, journal)}
    ranking = [(str(r.program), r.cost, r.cycles)
               for r in result.stoke.ranked]
    return validations, ranking


def test_campaign_proves_each_distinct_query_once(tmp_path, monkeypatch):
    queries = []
    proof = Validator.validate

    def counted(self, target, rewrite, spec):
        queries.append((validator_module._printed(target),
                        validator_module._printed(rewrite), spec))
        return proof(self, target, rewrite, spec)

    monkeypatch.setattr(Validator, "validate", counted)
    memo_validations, memo_ranking = _campaign(tmp_path / "memo")
    proven = list(queries)
    assert proven and len(proven) == len(set(proven))

    # every query proven afresh, as before the memo existed
    queries.clear()
    monkeypatch.setattr(Validator, "prove", Validator.validate)
    fresh_validations, fresh_ranking = _campaign(tmp_path / "fresh")
    assert len(queries) > len(proven)          # the memo had repeats
    assert set(queries) == set(proven)
    assert memo_validations == fresh_validations
    assert sum(memo_validations.values()) == len(queries)
    assert memo_ranking == fresh_ranking


def test_chains_record_their_validator_work(tmp_path):
    validations, _ranking = _campaign(tmp_path)
    document = load_document(tmp_path)
    counts = [chain["runtime"]["validator"]
              for chain in document["chains"].values()]
    assert len(counts) == len(validations)
    for count in counts:
        assert set(count) == {"proofs", "memo_hits", "seconds"}
        assert count["proofs"] >= 0 and count["memo_hits"] >= 0
        assert count["seconds"] >= 0
    # every query a chain charged was either proven or remembered
    assert sum(c["proofs"] + c["memo_hits"] for c in counts) == \
        sum(validations.values())
    # runtime only: the deterministic document never carries it
    assert "validator" not in json.dumps(deterministic_document(document))


def _refutation():
    bench = benchmark("p01")
    return bench, parse_program("movl edi, eax")


def test_cached_refutation_yields_the_fresh_testcase():
    bench, wrong = _refutation()
    validator = Validator()
    first = validator.prove(bench.o0, wrong, bench.spec)
    cached = validator.prove(bench.o0, wrong, bench.spec)
    assert cached is first and not cached.equivalent
    assert validator.counters()["proofs"] == 1
    assert validator.counters()["memo_hits"] == 1
    fresh = Validator().validate(bench.o0, wrong, bench.spec)

    def testcase(outcome):
        generator = TestcaseGenerator(bench.o0, bench.spec,
                                      bench.annotations, seed=3)
        return generator.from_counterexample(outcome.counterexample)

    assert testcase(cached) == testcase(fresh)


def test_memo_key_covers_slots_and_spec():
    bench, wrong = _refutation()
    validator = Validator()
    validator.prove(bench.o0, wrong, bench.spec)
    # the padded rewrite prints an extra slot: a distinct query
    validator.prove(bench.o0, wrong.padded(4), bench.spec)
    narrower = LiveSpec(live_in=bench.spec.live_in, live_out=())
    assert validator.prove(bench.o0, wrong, narrower).equivalent
    assert validator.counters()["proofs"] == 3
    assert validator.counters()["memo_hits"] == 0


def test_timeouts_are_not_remembered(monkeypatch):
    bench, wrong = _refutation()
    validator = Validator()
    attempts = []

    def timeout(self, target, rewrite, spec):
        attempts.append(1)
        raise SolverTimeoutError("conflict budget exhausted")

    monkeypatch.setattr(Validator, "validate", timeout)
    for _ in range(2):
        with pytest.raises(SolverTimeoutError):
            validator.prove(bench.o0, wrong, bench.spec)
    assert len(attempts) == 2
    assert validator.counters()["proofs"] == 0
