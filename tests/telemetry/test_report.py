"""The run-dir report renderer: sparklines, discovery, sections."""

from repro.telemetry import (ChainTelemetry, MetricsLog,
                             discover_run_dirs, load_document,
                             render_report, sparkline)
from repro.telemetry.report import summary_table


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
    telemetry.runtime["seconds"] = 0.25
    return telemetry


def _journal_run(run_dir, kernel="p01", complete=True):
    run_dir.mkdir(parents=True, exist_ok=True)
    log = MetricsLog(run_dir / "metrics.jsonl")
    first, second = _sample_chain(8), _sample_chain(12, kind="swap")
    log.record_chain(kernel, "opt-c000-s000", first.to_json())
    log.record_chain(kernel, "opt-c001-s000", second.to_json())
    if complete:
        merged = ChainTelemetry()
        merged.absorb(first)
        merged.absorb(second)
        log.record_campaign(
            kernel, merged.deterministic_json(),
            {"seconds": 0.5,
             "grant_latency": {"count": 2, "mean": 0.2, "max": 0.3},
             "occupancy": {"capacity": 256, "stride": 1,
                           "points": [[0.0, 1.0], [0.1, 2.0],
                                      [0.4, 0.0]]}})
    return run_dir


def test_sparkline_scales_and_downsamples():
    assert sparkline([]) == ""
    assert sparkline([5, 5, 5]) == "▁" * 3
    line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
    assert line[0] == "▁" and line[-1] == "█"
    assert len(sparkline(list(range(1000)), width=48)) == 48


def test_discover_run_dirs_accepts_run_or_base(tmp_path):
    run = _journal_run(tmp_path / "sweep" / "p01")
    _journal_run(tmp_path / "sweep" / "p03", kernel="p03")
    (tmp_path / "sweep" / "notes.txt").write_text("ignored")
    # a single kernel's run dir resolves to itself
    assert discover_run_dirs(run) == [run]
    # a sweep base dir resolves to its kernel children, sorted
    assert discover_run_dirs(tmp_path / "sweep") == \
        [tmp_path / "sweep" / "p01", tmp_path / "sweep" / "p03"]
    assert discover_run_dirs(tmp_path / "empty") == []


def test_summary_table_reports_state(tmp_path):
    finished = load_document(_journal_run(tmp_path / "a"))
    running = load_document(
        _journal_run(tmp_path / "b", kernel="p03", complete=False))
    lines = summary_table([finished, running])
    assert "kernel" in lines[0]
    assert "finished" in lines[1] and "p01" in lines[1]
    assert "running" in lines[2] and "p03" in lines[2]


def test_render_report_has_every_section(tmp_path):
    document = load_document(_journal_run(tmp_path / "p01"))
    report = render_report([document])
    assert "campaign summary" in report
    assert "[p01] best-cost trajectory (Fig. 4)" in report
    assert "[p01] acceptance by move" in report
    assert "[p01] testcases per proposal (Fig. 5)" in report
    assert "[p01] scheduler" in report
    # the best chain is named with its start/end costs
    assert "chain opt-c001-s000" in report
    assert "grant→completion latency" in report
    assert "in-flight jobs over time" in report
    # per-move rows render from the merged campaign telemetry
    assert "opcode" in report and "swap" in report


def test_render_report_sums_validator_work(tmp_path):
    run_dir = tmp_path / "p01"
    run_dir.mkdir()
    log = MetricsLog(run_dir / "metrics.jsonl")
    for job_id, proofs, hits in (("opt-c000-s000", 3, 1),
                                 ("opt-c001-s000", 2, 4)):
        chain = _sample_chain()
        chain.runtime["validator"] = {"proofs": proofs,
                                      "memo_hits": hits, "seconds": 0.5}
        log.record_chain("p01", job_id, chain.to_json())
    report = render_report([load_document(run_dir)])
    assert "[p01] validation: 5 proofs, 5 memo hits, 1.00s proving" \
        in report


def test_render_report_degrades_without_traces(tmp_path):
    run_dir = tmp_path / "p01"
    run_dir.mkdir()
    log = MetricsLog(run_dir / "metrics.jsonl")
    bare = ChainTelemetry()
    bare.seal(0, 10, 10)
    log.record_chain("p01", "synth-000", bare.to_json())
    report = render_report([load_document(run_dir)])
    assert "(no proposals recorded)" in report
    assert "(no scheduler runtime recorded yet)" in report
    assert "[p01] validation: 0 proofs, 0 memo hits" in report
