"""Progress-stream tests: event schema, the JSONL log, and the
fixed-budget path's bit-identity with a from-parts "legacy" pipeline.
"""

import json

import pytest

from repro.engine import aggregator, scheduler, worker
from repro.engine.campaign import Campaign, EngineOptions
from repro.engine.events import (CAMPAIGN_FINISHED, CAMPAIGN_STARTED,
                                 CHAIN_COMPLETED, EventLog,
                                 EVENT_STREAM_VERSION, KERNEL_GRANTED,
                                 KERNEL_STOPPED, ProgressEvent,
                                 RANKING_UPDATED, event_from_json,
                                 event_to_json, format_event,
                                 read_events)
from repro.engine.jobs import result_from_json
from repro.engine.worker import CampaignContext
from repro.errors import EngineError
from repro.search.config import SearchConfig
from repro.suite.registry import benchmark
from repro.testgen.generator import TestcaseGenerator
from repro.verifier.validator import Validator

CONFIG = SearchConfig(ell=12, beta=1.0, seed=5,
                      optimization_proposals=2000,
                      optimization_restarts=3,
                      optimization_chains=2,
                      synthesis_chains=0,
                      testcase_count=8)


def _campaign(options, kernel="p01"):
    bench = benchmark(kernel)
    return Campaign(bench.o0, bench.spec, bench.annotations,
                    config=CONFIG, validator=Validator(),
                    options=options, name=kernel)


# -- schema -------------------------------------------------------------------

def test_event_round_trips_through_json():
    event = ProgressEvent(event=RANKING_UPDATED, kernel="p07", seq=4,
                          data={"chains_completed": 3, "best_cycles": 9,
                                "stable_chains": 1})
    payload = event_to_json(event)
    assert payload["v"] == EVENT_STREAM_VERSION
    decoded = event_from_json(json.loads(json.dumps(payload)))
    assert decoded == event


def test_unknown_event_version_is_rejected():
    payload = event_to_json(ProgressEvent(
        event=CHAIN_COMPLETED, kernel="p01", seq=0, data={}))
    payload["v"] = 99
    with pytest.raises(EngineError, match="version 99"):
        event_from_json(payload)


def test_unknown_event_type_is_rejected():
    with pytest.raises(EngineError, match="unknown progress event"):
        ProgressEvent(event="telemetry", kernel="p01", seq=0)


def test_every_event_type_formats_to_one_line():
    for event_type in (CAMPAIGN_STARTED, KERNEL_GRANTED,
                       CHAIN_COMPLETED, RANKING_UPDATED,
                       KERNEL_STOPPED, CAMPAIGN_FINISHED):
        line = format_event(ProgressEvent(event=event_type,
                                          kernel="p01", seq=0))
        assert line.startswith("[p01] ") and "\n" not in line


def test_kernel_granted_round_trips_through_json():
    for data in ({"wave": "optimization", "chain": 3, "granted": True,
                  "reason": "scheduled", "jobs": 2},
                 {"wave": "optimization", "chain": 4, "granted": False,
                  "reason": "deadline", "jobs": 0},
                 {"wave": "synthesis", "chain": None, "granted": True,
                  "reason": "scheduled", "jobs": 1}):
        event = ProgressEvent(event=KERNEL_GRANTED, kernel="mont",
                              seq=2, data=data)
        payload = json.loads(json.dumps(event_to_json(event)))
        assert event_from_json(payload) == event
        assert "granted" in format_event(event) or \
            "denied" in format_event(event)


def test_extended_campaign_finished_round_trips_through_json():
    event = ProgressEvent(event=CAMPAIGN_FINISHED, kernel="p07", seq=9,
                          data={"verified": True, "rewrite_cycles": 3,
                                "speedup": 2.5, "chains_scheduled": 4,
                                "chains_saved": 2, "occupancy": 0.6667})
    payload = json.loads(json.dumps(event_to_json(event)))
    decoded = event_from_json(payload)
    assert decoded == event
    assert decoded.data["occupancy"] == 0.6667
    line = format_event(decoded)
    assert "occupancy 0.6667" in line and "4 chains" in line


def test_new_event_types_survive_the_torn_tail_path(tmp_path):
    """kernel-granted and the extended campaign-finished through the
    JSONL log, with the last record torn mid-write."""
    path = tmp_path / "events.jsonl"
    log = EventLog(path)
    log.emit(KERNEL_GRANTED, "p01", wave="optimization", chain=0,
             granted=True, reason="scheduled", jobs=2)
    log.emit(CAMPAIGN_FINISHED, "p01", verified=True, rewrite_cycles=2,
             speedup=2.0, chains_scheduled=1, chains_saved=0,
             occupancy=1.0)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:17])
    survivors = read_events(path)
    assert [e.event for e in survivors] == [KERNEL_GRANTED]
    assert survivors[0].data["reason"] == "scheduled"
    # appending after the tear truncates the fragment first
    resumed = EventLog(path)
    resumed.emit(KERNEL_GRANTED, "p01", wave="optimization", chain=1,
                 granted=False, reason="deadline", jobs=0)
    events = read_events(path)
    assert [e.event for e in events] == [KERNEL_GRANTED,
                                         KERNEL_GRANTED]
    assert events[-1].data["granted"] is False


# -- the log ------------------------------------------------------------------

def test_event_log_appends_and_reads_back(tmp_path):
    path = tmp_path / "events.jsonl"
    seen = []
    log = EventLog(path, listener=seen.append)
    log.emit(CAMPAIGN_STARTED, "p01", budget="fixed", jobs=1,
             chains_planned=2)
    log.emit(CHAIN_COMPLETED, "p01", job_id="opt-c000-s000",
             kind="optimization", verified=1, new_testcases=0)
    events = read_events(path)
    assert events == seen
    assert [e.seq for e in events] == [0, 1]


def test_event_log_drops_torn_tail(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(path)
    log.emit(CAMPAIGN_STARTED, "p01")
    log.emit(KERNEL_STOPPED, "p01", reason="exhausted")
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:10])
    assert [e.event for e in read_events(path)] == [CAMPAIGN_STARTED]


def test_event_log_resume_continues_sequence(tmp_path):
    path = tmp_path / "events.jsonl"
    EventLog(path).emit(CAMPAIGN_STARTED, "p01")
    resumed = EventLog(path)
    event = resumed.emit(KERNEL_STOPPED, "p01", reason="exhausted")
    assert event.seq == 1
    assert len(read_events(path)) == 2


def test_event_log_resume_truncates_torn_tail(tmp_path):
    """An append after an interrupted emit must not fuse the new
    record with the torn fragment (which would corrupt the stream)."""
    path = tmp_path / "events.jsonl"
    log = EventLog(path)
    log.emit(CAMPAIGN_STARTED, "p01")
    log.emit(CHAIN_COMPLETED, "p01", job_id="opt-c000-s000",
             kind="optimization", verified=1, new_testcases=0)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:10])
    resumed = EventLog(path)
    resumed.emit(KERNEL_STOPPED, "p01", reason="exhausted")
    resumed.emit(CAMPAIGN_FINISHED, "p01", verified=True,
                 rewrite_cycles=2, speedup=2.0)
    events = read_events(path)
    assert [e.event for e in events] == \
        [CAMPAIGN_STARTED, KERNEL_STOPPED, CAMPAIGN_FINISHED]
    assert [e.seq for e in events] == [0, 1, 2]


def test_event_log_refuses_to_append_to_a_foreign_stream(tmp_path):
    """Resuming decodes the stream, so events are never appended onto
    one of another version (or one with malformed records)."""
    path = tmp_path / "events.jsonl"
    EventLog(path).emit(CAMPAIGN_STARTED, "p01")
    record = json.loads(path.read_text())
    record["v"] = EVENT_STREAM_VERSION + 1
    foreign = json.dumps(record) + "\n"
    path.write_text(foreign)
    with pytest.raises(EngineError, match="refusing to misread"):
        EventLog(path)
    path.write_text(foreign.replace('"seq"', '"sequence"'))
    with pytest.raises(EngineError, match="missing"):
        EventLog(path)
    assert path.read_text() == foreign.replace('"seq"', '"sequence"')


# -- campaigns stream ---------------------------------------------------------

def test_campaign_streams_events_to_run_dir(tmp_path):
    run_dir = tmp_path / "run"
    _campaign(EngineOptions(run_dir=run_dir)).run()
    events = read_events(run_dir / "events.jsonl")
    kinds = [e.event for e in events]
    assert kinds[0] == CAMPAIGN_STARTED
    assert kinds[-2:] == [KERNEL_STOPPED, CAMPAIGN_FINISHED]
    assert kinds.count(CHAIN_COMPLETED) == CONFIG.optimization_chains
    # a fixed budget admits its whole optimization plan as one grant
    granted = [e for e in events if e.event == KERNEL_GRANTED]
    assert len(granted) == 1
    assert granted[0].data == {"wave": "optimization", "chain": None,
                               "granted": True, "reason": "scheduled",
                               "jobs": CONFIG.optimization_chains}
    finished = events[-1]
    assert finished.data["chains_scheduled"] == 2
    assert finished.data["occupancy"] == 1.0
    assert all(e.kernel == "p01" for e in events)
    assert [e.seq for e in events] == list(range(len(events)))
    stopped = events[-2]
    assert stopped.data == {"reason": "exhausted",
                            "chains_scheduled": 2, "chains_saved": 0}


def test_campaign_streams_to_listener_without_run_dir():
    seen = []
    _campaign(EngineOptions(progress=seen.append)).run()
    assert [e.event for e in seen][0] == CAMPAIGN_STARTED
    assert [e.event for e in seen][-1] == CAMPAIGN_FINISHED


@pytest.mark.parametrize("executor,workers",
                         [("serial", 1), ("pool:n=2", 2)])
def test_campaign_started_reports_the_worker_count(executor, workers):
    """The event's ``jobs`` key is the executor's real worker count."""
    seen = []
    _campaign(EngineOptions(executor=executor,
                            progress=seen.append)).run()
    started = seen[0]
    assert started.event == CAMPAIGN_STARTED
    assert started.data["jobs"] == workers
    assert f"jobs={workers}" in format_event(started)


def test_fresh_run_truncates_stale_event_stream(tmp_path):
    run_dir = tmp_path / "run"
    _campaign(EngineOptions(run_dir=run_dir)).run()
    first = read_events(run_dir / "events.jsonl")
    _campaign(EngineOptions(run_dir=run_dir)).run()
    second = read_events(run_dir / "events.jsonl")
    assert len(first) == len(second)        # not doubled


def test_adaptive_events_record_ranking_stability(tmp_path):
    run_dir = tmp_path / "run"
    config = SearchConfig(ell=12, beta=1.0, seed=5,
                          optimization_proposals=2500,
                          optimization_restarts=4,
                          optimization_chains=6,
                          synthesis_chains=0, testcase_count=8)
    bench = benchmark("p01")
    Campaign(bench.o0, bench.spec, bench.annotations, config=config,
             validator=Validator(),
             options=EngineOptions(run_dir=run_dir,
                                   budget="adaptive:stable=2"),
             name="p01").run()
    events = read_events(run_dir / "events.jsonl")
    rankings = [e for e in events if e.event == RANKING_UPDATED]
    assert [r.data["chains_completed"] for r in rankings] == \
        list(range(1, len(rankings) + 1))
    stopped = next(e for e in events if e.event == KERNEL_STOPPED)
    assert stopped.data["reason"] == "stable"
    assert stopped.data["chains_saved"] > 0


# -- fixed budget vs the legacy pipeline --------------------------------------

def _legacy_pipeline():
    """The pre-budget engine, reassembled from parts: precompute the
    full plan, run every job, aggregate in plan order."""
    bench = benchmark("p01")
    generator = TestcaseGenerator(bench.o0, bench.spec,
                                  bench.annotations, seed=CONFIG.seed)
    testcases = generator.generate(CONFIG.testcase_count)
    context = CampaignContext(target=bench.o0, spec=bench.spec,
                              annotations=bench.annotations,
                              config=CONFIG, testcases=testcases,
                              validator=Validator())
    starts = aggregator.synthesis_starts(bench.o0, [])
    plan = scheduler.optimization_jobs(CONFIG, starts)
    results = [result_from_json(worker.run_chain_job(context, job))
               for job in plan]
    merged = aggregator.merge_testcases(testcases, results)
    return aggregator.final_ranking(bench.o0, CONFIG, merged, results)


@pytest.mark.parametrize("executor", ["serial", "pool:n=2"],
                         ids=["1", "2"])
def test_fixed_budget_matches_legacy_path(executor):
    legacy = _legacy_pipeline()
    result = _campaign(EngineOptions(executor=executor,
                                     budget="fixed")).run()
    assert [(str(r.program), r.cost, r.cycles) for r in result.ranked] \
        == [(str(r.program), r.cost, r.cycles) for r in legacy]
