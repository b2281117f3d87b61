"""The metrics journal: durability, dedup, and the merged document."""

import json

import pytest

from repro.telemetry import (ChainTelemetry, METRICS_VERSION,
                             MetricsLog, deterministic_document,
                             metrics_document, read_metrics)
from repro.telemetry.metrics import TelemetryError


def _sample_chain(steps=10, kind="opcode"):
    telemetry = ChainTelemetry()
    cost = 100
    for step in range(steps):
        accepted = step % 2 == 0
        if accepted:
            cost -= 1
        telemetry.record_proposal(
            telemetry.move_row(kind), accepted=accepted,
            delta=-1 if accepted else 3, bounded=False,
            testcases=step % 4, step=step, cost=cost, best=cost)
    telemetry.seal(steps - 1, cost, cost)
    return telemetry


def _log_two_chains(path):
    log = MetricsLog(path)
    assert log.record_chain("p01", "opt-c000-s000",
                            _sample_chain(8).to_json())
    assert log.record_chain("p01", "opt-c001-s000",
                            _sample_chain(6, kind="swap").to_json())
    return log


def test_records_roundtrip_and_dedup(tmp_path):
    path = tmp_path / "metrics.jsonl"
    log = _log_two_chains(path)
    # dedup: the same chain journals once, even across appends
    assert not log.record_chain("p01", "opt-c000-s000",
                                _sample_chain(8).to_json())
    records = read_metrics(path)
    assert [r["job_id"] for r in records] == ["opt-c000-s000",
                                              "opt-c001-s000"]
    assert all(r["v"] == METRICS_VERSION for r in records)


def test_append_mode_heals_torn_tail_and_remembers_keys(tmp_path):
    path = tmp_path / "metrics.jsonl"
    _log_two_chains(path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:25])
    log = MetricsLog(path)
    # the torn record is gone and can be re-journaled ...
    assert len(path.read_text().splitlines()) == 1
    assert log.record_chain("p01", "opt-c001-s000",
                            _sample_chain(6, kind="swap").to_json())
    # ... while the surviving one still dedups
    assert not log.record_chain("p01", "opt-c000-s000",
                                _sample_chain(8).to_json())
    assert len(read_metrics(path)) == 2


def test_version_gate_refuses_future_records(tmp_path):
    path = tmp_path / "metrics.jsonl"
    record = {"v": METRICS_VERSION + 1, "record": "chain",
              "kernel": "p01", "job_id": "x", "telemetry": {}}
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(TelemetryError, match="version"):
        read_metrics(path)


def test_document_synthesizes_campaign_until_complete(tmp_path):
    path = tmp_path / "metrics.jsonl"
    log = _log_two_chains(path)
    partial = metrics_document(read_metrics(path))
    assert partial["complete"] is False
    assert partial["campaign"]["proposals"] == 14   # 8 + 6 absorbed
    # finalization journals the plan-order merge; the documents agree
    merged = ChainTelemetry()
    merged.absorb(_sample_chain(8))
    merged.absorb(_sample_chain(6, kind="swap"))
    log.record_campaign("p01", merged.deterministic_json(),
                        {"seconds": 2.0})
    final = metrics_document(read_metrics(path))
    assert final["complete"] is True
    assert final["runtime"] == {"seconds": 2.0}
    assert deterministic_document(final)["campaign"] == \
        deterministic_document(partial)["campaign"]


def test_reopening_keeps_the_campaign_record_and_its_ranking(tmp_path):
    path = tmp_path / "metrics.jsonl"
    log = _log_two_chains(path)
    assert log.campaign is None
    ranking = {"target_cycles": 24, "candidates": 2, "testcases": 4,
               "rows": [{"program_key": "k", "cost": 1, "cycles": 9}]}
    assert log.record_campaign("p01", {}, {"seconds": 1.0}, ranking)
    assert log.campaign is None          # kept from the journal only
    reopened = MetricsLog(path)
    assert reopened.campaign["ranking"] == ranking
    assert not reopened.record_campaign("p01", {}, {"seconds": 2.0})
    # the ranking is not a telemetry section: the document is unchanged
    document = metrics_document(read_metrics(path))
    assert document["campaign"] == {} and "ranking" not in document


def test_document_is_none_for_an_empty_journal(tmp_path):
    path = tmp_path / "metrics.jsonl"
    MetricsLog(path)
    assert metrics_document(read_metrics(path)) is None


def test_document_rejects_mixed_kernels(tmp_path):
    path = tmp_path / "metrics.jsonl"
    log = MetricsLog(path)
    log.record_chain("p01", "a", _sample_chain(4).to_json())
    log.record_chain("p03", "b", _sample_chain(4).to_json())
    with pytest.raises(TelemetryError, match="mixes kernels"):
        metrics_document(read_metrics(path))


def test_deterministic_document_strips_every_runtime(tmp_path):
    path = tmp_path / "metrics.jsonl"
    log = MetricsLog(path)
    chain = _sample_chain(4)
    chain.runtime["seconds"] = 9.9
    chain.runtime["evaluator"] = {"tier_ups": 3}
    log.record_chain("p01", "a", chain.to_json())
    document = metrics_document(read_metrics(path))
    stripped = deterministic_document(document)
    assert "runtime" not in stripped
    assert "runtime" not in stripped["chains"]["a"]
    assert "runtime" not in stripped["campaign"]
    # and it is pure JSON, stable under a dumps round-trip
    assert json.loads(json.dumps(stripped)) == stripped
