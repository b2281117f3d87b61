"""Distributed campaign execution, end to end over loopback TCP.

The acceptance bar (ISSUE 9): a campaign run over socket workers —
including one whose worker is killed mid-run, and one with the fault
injector wrapped around the real sockets — ranks bit-identically to
a serial run, with lost chains recovered through the same
retry/requeue/quarantine machinery, membership streamed as v4 events,
and the transport frozen in the v8 manifest.

Set ``REPRO_FAULT_RUNS`` to keep run directories on disk (the CI
distributed-smoke job uploads them as artifacts on failure).
"""

import json
import os
import signal
import socket
import threading
from pathlib import Path

import pytest

from repro import cli
from repro.engine.campaign import Campaign, EngineOptions
from repro.engine.events import (CHAIN_COMPLETED, JOB_REQUEUED,
                                 JOB_RETRIED, WORKER_JOINED,
                                 WORKER_LEFT, ProgressEvent,
                                 format_event, read_events)
from repro.engine.executor import ExecutorSpec
from repro.engine.remote import RemoteExecutor, run_worker
from repro.engine.sweep import run_campaigns
from repro.engine.transport import HELLO, WIRE_VERSION, send_frame
from repro.errors import EngineError, RegistryError, TransportError
from repro.search.config import SearchConfig
from repro.suite.registry import benchmark
from repro.telemetry import load_document
from repro.telemetry.report import occupancy_lines
from repro.verifier.validator import Validator

KERNELS = ("p01", "p03")


def _run_base(tmp_path, label):
    root = os.environ.get("REPRO_FAULT_RUNS")
    if not root:
        return tmp_path
    base = Path(root) / "distributed" / label
    base.mkdir(parents=True, exist_ok=True)
    return base


def _campaigns(*, base_dir=None, resume=False, executor="serial",
               faults=None,
               job_timeout=None, retries=None, progress=None):
    campaigns = []
    for index, name in enumerate(KERNELS):
        bench = benchmark(name)
        config = SearchConfig(ell=12, beta=1.0, seed=5 + index,
                              optimization_proposals=300,
                              optimization_restarts=3,
                              optimization_chains=2,
                              synthesis_chains=0,
                              testcase_count=4)
        run_dir = None if base_dir is None else base_dir / name
        options = EngineOptions(executor=executor, run_dir=run_dir,
                                resume=resume, interleave=True,
                                faults=faults, job_timeout=job_timeout,
                                retries=retries, progress=progress)
        campaigns.append(Campaign(bench.o0, bench.spec,
                                  bench.annotations, config=config,
                                  validator=Validator(),
                                  options=options, name=name))
    return campaigns


def _key(result):
    return (tuple((str(r.program), r.cost, r.cycles)
                  for r in result.ranked),
            str(result.rewrite), result.rewrite_cycles,
            result.chains_scheduled, result.chains_saved)


_BASELINE: list | None = None


def _baseline():
    global _BASELINE
    if _BASELINE is None:
        _BASELINE = [_key(result)
                     for result in run_campaigns(_campaigns())]
    return _BASELINE


# -- the headline: tcp:spawn=N is bit-identical to serial --------------------

@pytest.mark.parametrize("workers", [1, 2, 3])
def test_loopback_workers_rank_bit_identical(workers, tmp_path):
    base = _run_base(tmp_path, f"loopback-w{workers}")
    results = run_campaigns(_campaigns(base_dir=base,
                                       executor=f"tcp:spawn={workers}",
                                       job_timeout=120.0))
    assert [_key(result) for result in results] == _baseline()
    for result in results:
        assert result.chains_quarantined == 0
    # the v8 manifest froze the transport, and the v4 event stream
    # recorded every worker arrival
    for name in KERNELS:
        manifest = json.loads(
            (base / name / "manifest.json").read_text())
        assert manifest["version"] == 8
        assert manifest["transport"] == f"tcp:wire={WIRE_VERSION}"
        events = read_events(base / name / "events.jsonl")
        joined = [e for e in events if e.event == WORKER_JOINED]
        # every join is evented; a straggler that connects as the
        # campaign drains may legitimately miss it
        assert 1 <= len(joined) <= workers


def test_worker_killed_mid_run_recovers_bit_identical(tmp_path):
    """Kill a busy worker process after the first completed chain: its
    in-flight chain surfaces as a crash, retries on a surviving
    worker, and the final rankings do not move by one bit."""
    base = _run_base(tmp_path, "kill-one")
    state: dict = {}

    def factory(contexts):
        state["executor"] = RemoteExecutor(contexts, spawn=2)
        return state["executor"]

    def assassin(event):
        if event.event != CHAIN_COMPLETED or "victim" in state:
            return
        executor = state["executor"]
        for worker_id, link in executor._workers.items():
            if link.busy is None:
                continue
            pid = int(worker_id.split("-", 1)[1].split("#", 1)[0])
            os.kill(pid, signal.SIGKILL)
            state["victim"] = worker_id
            return

    results = run_campaigns(
        _campaigns(base_dir=base, executor="tcp:spawn=2",
                   job_timeout=120.0, retries=3, progress=assassin),
        executor_factory=factory)
    assert "victim" in state, "no busy worker to kill — test is moot"
    assert [_key(result) for result in results] == _baseline()
    for result in results:
        assert result.chains_quarantined == 0
    events = [e for name in KERNELS
              for e in read_events(base / name / "events.jsonl")]
    # the kill left a paper trail: the worker's departure (with the
    # connection-loss reason) and at least one recovery re-grant
    left = [e for e in events if e.event == WORKER_LEFT
            and e.data["worker"] == state["victim"]]
    assert left
    assert any(e.event in (JOB_RETRIED, JOB_REQUEUED) for e in events)


def test_factory_transport_must_match_the_options(tmp_path):
    """A tcp executor under ``serial`` options would journal
    ``transport: local``; the sweep refuses it, naming both transports,
    before any job is submitted."""
    built = []

    def factory(contexts):
        built.append(RemoteExecutor(contexts, spawn=0))
        return built[0]

    with pytest.raises(EngineError) as info:
        run_campaigns(_campaigns(base_dir=tmp_path), executor_factory=factory)
    message = str(info.value)
    assert f"tcp:wire={WIRE_VERSION}" in message and "local" in message
    assert built[0]._listener is None          # terminated, not leaked
    for name in KERNELS:
        assert (tmp_path / name / "jobs.jsonl").read_text() == ""


@pytest.mark.parametrize("faults", [
    "faults:seed=0,crash=0.25,dup=0.25,corrupt=0.2",
    "faults:seed=1,crash=0.3,dup=0.3,stall=0.2,corrupt=0.2",
])
def test_fault_injection_over_real_sockets_ranks_bit_identical(
        faults, tmp_path):
    """The CI fault matrix's ``tcp:spawn=2`` leg: FaultInjectingExecutor
    wrapped (by the sweep, as in production) around a RemoteExecutor
    with two loopback worker subprocesses."""
    base = _run_base(tmp_path, f"fault-{faults.split('seed=')[1][0]}")
    results = run_campaigns(
        _campaigns(base_dir=base, executor="tcp:spawn=2", faults=faults,
                   job_timeout=5.0, retries=8))
    assert [_key(result) for result in results] == _baseline()
    for result in results:
        assert result.chains_quarantined == 0


# -- membership, telemetry, reporting -----------------------------------------

def test_worker_occupancy_lands_in_the_runtime_section(tmp_path):
    run_campaigns(_campaigns(base_dir=tmp_path, executor="tcp:spawn=2",
                             job_timeout=120.0))
    delivered = 0
    completed = 0
    for name in KERNELS:
        document = load_document(tmp_path / name)
        workers = document["runtime"]["workers"]
        assert workers                      # distributed run: nonempty
        assert all(count >= 1 for count in workers.values())
        delivered += sum(workers.values())
        completed += sum(
            1 for e in read_events(tmp_path / name / "events.jsonl")
            if e.event == CHAIN_COMPLETED)
        rendered = "\n".join(occupancy_lines(document))
        assert "workers: " in rendered and "over TCP" in rendered
    # every completed chain was credited to exactly one worker
    assert delivered == completed


def test_membership_events_render_and_round_trip():
    joined = ProgressEvent(event=WORKER_JOINED, kernel="p01", seq=1,
                           data={"worker": "pid-42"})
    left = ProgressEvent(event=WORKER_LEFT, kernel="p01", seq=2,
                         data={"worker": "pid-42",
                               "reason": "connection closed"})
    assert "pid-42" in format_event(joined)
    assert "joined" in format_event(joined)
    assert "connection closed" in format_event(left)


def test_wire_version_mismatch_refuses_the_worker_not_the_campaign():
    """A worker speaking a future wire version is turned away with a
    membership notice; an honest worker still completes the job."""
    # build the context exactly the way the sweep does
    from repro.engine.sweep import KernelSchedule
    schedule = KernelSchedule(_campaigns()[0])
    executor = RemoteExecutor({"p01": schedule.context})
    try:
        jobs = schedule.next_grant(0.0)
        assert jobs
        executor.submit("p01", jobs)

        def impostor():
            sock = socket.create_connection(executor.address,
                                            timeout=10.0)
            try:
                send_frame(sock, {"type": HELLO, "wire": 99,
                                  "worker": "fancy"})
                # the coordinator hangs up instead of sending context
                assert sock.recv(1) == b""
            finally:
                sock.close()

        threading.Thread(target=impostor, daemon=True).start()

        def honest():
            try:
                run_worker(*executor.address, heartbeat=0.5)
            except TransportError:
                pass

        threading.Thread(target=honest, daemon=True).start()
        for _ in jobs:
            kernel, payload = executor.next_result(timeout=120.0)
            assert kernel == "p01"
        refusals = [notice for notice in executor.drain_notices()
                    if notice[0] == "left" and notice[1] == "fancy"]
        assert refusals
        assert "refused: wire version 99" in refusals[0][2]
    finally:
        executor.terminate()


def test_all_spawned_workers_dead_is_a_transport_error():
    """Total worker death must raise (exit 7, resumable), not hang."""
    schedule_campaign = _campaigns()[0]
    from repro.engine.sweep import KernelSchedule
    schedule = KernelSchedule(schedule_campaign)
    executor = RemoteExecutor({"p01": schedule.context})

    class DeadProc:
        returncode = 1
        pid = -1

        def poll(self):
            return self.returncode

        def kill(self):
            pass

        def wait(self, timeout=None):
            return self.returncode

    try:
        executor.submit("p01", schedule.next_grant(0.0))
        executor._procs = [DeadProc(), DeadProc()]
        with pytest.raises(TransportError,
                           match="spawned workers exited"):
            executor.next_result(timeout=30.0)
    finally:
        executor._procs = []
        executor.terminate()


# -- options, manifest, CLI ---------------------------------------------------

def test_workers_option_is_validated():
    with pytest.raises(RegistryError, match="spawn must be >= 1"):
        EngineOptions(executor="tcp:spawn=0")
    with pytest.raises(RegistryError, match="takes no parameters"):
        EngineOptions(executor="serial:spawn=2")
    assert EngineOptions(executor="tcp:spawn=2").transport_policy == \
        f"tcp:wire={WIRE_VERSION}"
    assert EngineOptions(executor="pool:n=2").transport_policy == "local"
    assert EngineOptions().transport_policy == "local"


def test_sweep_rejects_mismatched_worker_counts():
    campaigns = _campaigns()
    object.__setattr__(campaigns[1].options, "executor",
                       ExecutorSpec.parse("tcp:spawn=2"))
    with pytest.raises(EngineError, match="share an executor"):
        run_campaigns(campaigns)


def test_resume_rejects_a_transport_switch(tmp_path):
    run_campaigns(_campaigns(base_dir=tmp_path, job_timeout=120.0))
    manifest = json.loads(
        (tmp_path / "p01" / "manifest.json").read_text())
    assert manifest["version"] == 8
    assert manifest["transport"] == "local"
    with pytest.raises(EngineError, match="differs in transport"):
        run_campaigns(_campaigns(base_dir=tmp_path, resume=True,
                                 executor="tcp:spawn=2",
                                 job_timeout=120.0))


def test_cli_worker_verb_maps_errors_to_the_taxonomy(capsys):
    assert cli.main(["engine", "worker", "--connect",
                     "not-an-endpoint"]) == 2
    assert "endpoint" in capsys.readouterr().err
    # a coordinator that is not there: transport failure, exit 7
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    free_port = probe.getsockname()[1]
    probe.close()
    assert cli.main(["engine", "worker", "--connect",
                     f"127.0.0.1:{free_port}"]) == 7
    assert "cannot connect" in capsys.readouterr().err


def test_cli_campaign_with_workers_round_trips(tmp_path, capsys):
    """The full CLI path: ``--executor tcp:spawn=2`` spawns real
    ``repro engine worker`` subprocesses and the report renders their occupancy."""
    run_dir = tmp_path / "run"
    code = cli.main(["engine", "campaign", "p01", "--chains", "2",
                     "--executor", "tcp:spawn=2", "--job-timeout", "120",
                     "--run-dir", str(run_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "p01" in out
    assert "(executor=tcp:spawn=2," in out
    report = cli.main(["engine", "report", str(run_dir)])
    assert report == 0
    assert "workers: " in capsys.readouterr().out


def test_cli_rejects_workers_with_jobs(capsys):
    """One executor spec replaced the two flags: neither parses."""
    for command in (["engine", "campaign", "p01"], ["optimize", "p01"]):
        for retired in ("--jobs", "--workers"):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(command + ["--executor", "tcp:spawn=2",
                                    retired, "2"])
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: {retired} 2" in \
                capsys.readouterr().err
