"""CLI tests for the engine flags and the optimize exit-path fix."""

import json

import repro.cli as cli
from repro.api.session import Result
from repro.engine.campaign import CampaignResult
from repro.engine.checkpoint import MANIFEST_VERSION
from repro.suite.runner import BenchmarkOutcome
from repro.x86.parser import parse_program


def test_optimize_with_jobs_and_run_dir(tmp_path, capsys):
    code = cli.main(["optimize", "p01", "--proposals", "400",
                     "--testcases", "4", "--restarts", "2",
                     "--executor", "pool:n=2", "--run-dir",
                     str(tmp_path / "run")])
    assert code == 0
    assert (tmp_path / "run" / "jobs.jsonl").exists()
    out = capsys.readouterr().out
    assert "rewrite" in out or "target" in out


def test_optimize_resume_reuses_journal(tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    args = ["optimize", "p01", "--proposals", "400", "--testcases",
            "4", "--restarts", "2", "--run-dir", run_dir]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    # everything is journaled, so the resume re-runs nothing and must
    # reproduce the run verbatim (timings aside)
    assert cli.main(args + ["--resume"]) == 0
    second = capsys.readouterr().out
    assert first.splitlines()[1:] == second.splitlines()[1:]


def test_optimize_reports_target_and_exits_zero_when_unimproved(
        monkeypatch, capsys):
    target = parse_program("movq rdi, rax")

    class StubSession:
        def __init__(self, *args, **kwargs):
            pass

        def run(self):
            stoke = CampaignResult(target=target, rewrite=None,
                                   verified=False, target_cycles=123,
                                   rewrite_cycles=123)
            return Result(name="p01", verified=False,
                          target_asm=str(target), rewrite_asm=None,
                          target_cycles=123, rewrite_cycles=123,
                          speedup=1.0, seconds=0.0,
                          cost="correctness,latency", strategy="mcmc",
                          proposals_per_second=0.0,
                          testcases_per_proposal=0.0,
                          stoke=stoke)

    monkeypatch.setattr(cli, "Session", StubSession)
    code = cli.main(["optimize", "p01", "--proposals", "100"])
    assert code == 0
    out = capsys.readouterr().out
    assert "123" in out                       # the target's cycles
    assert "no rewrite beat the target" in out


def test_engine_campaign_sweeps_selected_kernels(tmp_path, capsys):
    code = cli.main(["engine", "campaign", "p01", "p03",
                     "--executor", "pool:n=2", "--run-dir",
                     str(tmp_path / "sweep")])
    assert code == 0
    out = capsys.readouterr().out
    assert "p01" in out and "p03" in out
    assert "campaign done: " in out
    assert "(executor=pool:n=2, budget=fixed, " in out
    assert (tmp_path / "sweep" / "p01" / "manifest.json").exists()
    assert (tmp_path / "sweep" / "p03" / "jobs.jsonl").exists()


def test_engine_campaign_resume_requires_run_dir(capsys):
    assert cli.main(["engine", "campaign", "p01", "--resume"]) == 2
    assert "--resume requires --run-dir" in capsys.readouterr().err


def test_engine_campaign_progress_streams_per_kernel_events(tmp_path,
                                                            capsys):
    code = cli.main(["engine", "campaign", "p01", "p03",
                     "--progress", "--chains", "2",
                     "--budget", "adaptive:stable=1", "--executor", "pool:n=2",
                     "--run-dir", str(tmp_path / "sweep")])
    assert code == 0
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    for kernel in ("p01", "p03"):
        assert any(line.startswith(f"[{kernel}] campaign started")
                   for line in err)
        assert any(f"[{kernel}] chain opt-" in line for line in err)
        assert any(line.startswith(f"[{kernel}] finished")
                   for line in err)
        events = (tmp_path / "sweep" / kernel /
                  "events.jsonl").read_text().splitlines()
        assert events                        # stream journaled too
    assert "budget=adaptive:stable=1" in captured.out


def test_engine_campaign_rejects_bad_budget(capsys):
    assert cli.main(["engine", "campaign", "p01",
                     "--budget", "turbo"]) == 2
    assert "unknown budget" in capsys.readouterr().err


def test_engine_flags_reject_bad_executor_specs(capsys):
    """Each bad spec exits 2 with a message naming the bad part."""
    for spec, part in (("pool:n=1", "n must be >= 2"),
                       ("tcp:spawn=0", "spawn must be >= 1"),
                       ("gpu", "unknown executor 'gpu'"),
                       ("pool:x=2", "bad executor parameter 'x=2'")):
        for command in (["engine", "campaign", "p01"],
                        ["optimize", "p01"]):
            assert cli.main(command + ["--executor", spec]) == 2
            assert part in capsys.readouterr().err


def test_engine_campaign_rejects_unknown_kernel_before_running_any(
        monkeypatch, capsys):
    """A typo anywhere in the sweep list exits 2 with suggestions
    *before* any kernel burns its chains."""
    ran = []
    monkeypatch.setattr(
        cli, "evaluate_benchmark",
        lambda bench, **kwargs: ran.append(bench.name))
    code = cli.main(["engine", "campaign", "p01", "p02", "saxpu"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown kernel 'saxpu'" in err
    assert "did you mean saxpy?" in err
    assert ran == []                    # p01/p02 never started


def test_engine_campaign_interleave_matches_sequential(tmp_path,
                                                       capsys):
    args = ["engine", "campaign", "p01", "p03", "--executor", "pool:n=2",
            "--chains", "2", "--budget", "adaptive:stable=1"]
    assert cli.main(args) == 0
    sequential = capsys.readouterr().out
    assert cli.main(args + ["--interleave"]) == 0
    interleaved = capsys.readouterr().out

    def deterministic(line):
        # drop the wall-clock-derived "[... prop/s, ...]" bracket; the
        # speedups, verdicts, and chain counts must match exactly
        return line.split("  [")[0]

    seq_lines = sequential.splitlines()
    int_lines = interleaved.splitlines()
    assert [deterministic(line) for line in int_lines[:-1]] == \
        [deterministic(line) for line in seq_lines[:-1]]
    assert "interleaved, " in int_lines[-1]
    for marker in ("2/2 kernels improved", "chains scheduled"):
        assert marker in int_lines[-1] and marker in seq_lines[-1]


def test_engine_campaign_interleave_journals_current_manifests(tmp_path):
    code = cli.main(["engine", "campaign", "p01", "p03",
                     "--interleave", "--executor", "pool:n=2",
                     "--run-dir", str(tmp_path / "sweep")])
    assert code == 0
    for kernel in ("p01", "p03"):
        manifest = json.loads(
            (tmp_path / "sweep" / kernel / "manifest.json").read_text())
        assert manifest["version"] == MANIFEST_VERSION
        assert manifest["interleave"] == "roundrobin"
        assert (tmp_path / "sweep" / kernel / "metrics.jsonl").exists()


def test_engine_report_renders_a_finished_sweep(tmp_path, capsys):
    sweep = str(tmp_path / "sweep")
    assert cli.main(["engine", "campaign", "p01", "p03", "--executor", "pool:n=2",
                     "--run-dir", sweep]) == 0
    capsys.readouterr()
    assert cli.main(["engine", "report", sweep]) == 0
    out = capsys.readouterr().out
    assert "campaign summary" in out
    for kernel in ("p01", "p03"):
        assert f"[{kernel}] best-cost trajectory (Fig. 4)" in out
        assert f"[{kernel}] acceptance by move" in out
        assert f"[{kernel}] testcases per proposal (Fig. 5)" in out
        assert f"[{kernel}] scheduler" in out
    assert "finished" in out


def test_engine_report_json_contract(tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    assert cli.main(["optimize", "p01", "--proposals", "400",
                     "--testcases", "4", "--restarts", "2",
                     "--run-dir", run_dir]) == 0
    capsys.readouterr()
    # one run dir -> one document, not a singleton list
    assert cli.main(["engine", "report", run_dir, "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["kernel"] == "p01"
    assert document["complete"] is True
    assert document["chains"]
    assert document["campaign"]["proposals"] > 0
    assert "seconds" in document["runtime"]


def test_engine_report_error_exits(tmp_path, capsys):
    # nothing that looks like a run directory -> usage error
    assert cli.main(["engine", "report",
                     str(tmp_path / "missing")]) == 2
    assert "no run directories" in capsys.readouterr().err
    # a run dir with journals but no telemetry yet -> exit 1
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "events.jsonl").write_text("")
    assert cli.main(["engine", "report", str(bare)]) == 1
    assert "no telemetry journaled yet" in capsys.readouterr().err


class _PipeStream:
    """A block-buffered pipe stand-in that records explicit flushes."""

    def __init__(self):
        self.writes = []
        self.flushes = 0

    def write(self, text):
        self.writes.append(text)

    def flush(self):
        self.flushes += 1

    def isatty(self):
        return False


def test_progress_output_is_line_flushed_under_a_pipe(monkeypatch):
    """Piped --progress must not stall in stdio buffers: every event
    line is followed by an explicit flush."""
    stream = _PipeStream()
    monkeypatch.setattr(cli.sys, "stderr", stream)
    listener = cli._progress_listener(
        type("Args", (), {"progress": True})())
    from repro.engine.events import CHAIN_COMPLETED, ProgressEvent
    for seq in range(3):
        listener(ProgressEvent(event=CHAIN_COMPLETED, kernel="p01",
                               seq=seq))
    lines = [w for w in stream.writes if w.strip()]
    assert len(lines) == 3
    assert stream.flushes >= 3          # one flush per emitted line
    assert all(w.endswith("\n") for w in lines)


def test_optimize_accepts_budget_flag(capsys):
    code = cli.main(["optimize", "p01", "--proposals", "400",
                     "--testcases", "4", "--restarts", "2",
                     "--chains", "3", "--budget", "adaptive:stable=1",
                     "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["budget"] == "adaptive:stable=1"
    assert 1 <= payload["chains_scheduled"] <= 3
    assert payload["chains_scheduled"] + payload["chains_saved"] == 3


def test_campaign_summary_rate_formatting_matches_json(monkeypatch,
                                                       capsys):
    outcome = BenchmarkOutcome(
        name="p01", o0_cycles=10, gcc_speedup=1.0, icc_speedup=1.0,
        stoke_speedup=1.0, stoke_verified=True,
        proposals_per_second=1234.56, testcases_per_proposal=1.234,
        chains_scheduled=1)
    monkeypatch.setattr(cli, "evaluate_benchmark",
                        lambda *args, **kwargs: outcome)
    assert cli.main(["engine", "campaign", "p01"]) == 0
    out = capsys.readouterr().out
    # summary and per-kernel row both show --json's round(value, 1)
    json_value = round(outcome.proposals_per_second, 1)
    assert f"{json_value:,} proposals/s" in out
    assert f"{json_value:,} prop/s" in out
    assert "1 chains scheduled, 0 saved" in out
