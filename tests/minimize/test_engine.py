"""Winner minimization in the engine: ``EngineOptions(minimize=...)``
applied once, as each kernel's campaign finalizes, for every caller."""

import repro.suite.runner as runner
from repro import cli
from repro.api import EngineOptions, Session, Target
from repro.perfsim.model import actual_runtime
from repro.search.config import SearchConfig
from repro.suite.registry import benchmark
from repro.telemetry import RECORD_MINIMIZE, read_metrics
from repro.verifier.validator import Validator
from repro.x86.printer import format_program


def _config(seed=5):
    # a short search leaves a winner with slack for the passes to shrink
    return SearchConfig(ell=12, beta=1.0, seed=seed,
                        optimization_proposals=200,
                        optimization_restarts=2, optimization_chains=1,
                        synthesis_chains=0, testcase_count=4)


def _minimize_records(run_dir):
    return [record for record in read_metrics(run_dir / "metrics.jsonl")
            if record["record"] == RECORD_MINIMIZE]


def _deterministic(report):
    return {key: value for key, value in report.items()
            if key != "runtime"}


def test_session_minimize_is_identical_across_executors():
    results = {}
    for executor in ("serial", "pool:n=2"):
        session = Session(Target.from_suite("p01"), config=_config(),
                          engine=EngineOptions(executor=executor,
                                               minimize=True))
        results[executor] = session.run()
    serial, pooled = results["serial"], results["pool:n=2"]
    assert serial.minimize is not None
    assert serial.minimize["instructions_removed"] > 0
    assert _deterministic(pooled.minimize) == \
        _deterministic(serial.minimize)
    assert pooled.rewrite_asm == serial.rewrite_asm
    # the Result only formats what the engine shrank
    stoke = serial.stoke
    assert stoke.rewrite is stoke.minimize.program
    assert serial.rewrite_asm == format_program(stoke.rewrite)
    assert serial.rewrite_cycles == actual_runtime(stoke.rewrite) \
        < actual_runtime(stoke.minimize.original)


def test_runner_rows_report_the_shrunk_rewrite(monkeypatch):
    monkeypatch.setattr(runner, "search_config",
                        lambda bench, seed, **_: _config(seed))
    bench = benchmark("p01")
    engine = EngineOptions(minimize=True)
    result = runner.run_stoke(bench, seed=5, engine=engine)
    outcome = runner.evaluate_benchmark(bench, seed=5, engine=engine)
    o0_cycles = actual_runtime(bench.o0.compact())
    assert result.minimize is not None
    assert result.rewrite_cycles == actual_runtime(result.minimize.program)
    assert outcome.stoke_speedup == o0_cycles / result.rewrite_cycles
    assert outcome.stoke_speedup > \
        o0_cycles / actual_runtime(result.minimize.original)


def test_interleaved_and_sequential_sweeps_minimize_alike(
        monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(runner, "search_config",
                        lambda bench, seed, **_: _config(seed))
    rows = {}
    for mode in ("sequential", "interleaved"):
        args = ["engine", "campaign", "p01", "p03", "--minimize",
                "--run-dir", str(tmp_path / mode)]
        if mode == "interleaved":
            args.append("--interleave")
        assert cli.main(args) == 0
        # drop the wall-clock "[... prop/s ...]" bracket and the summary
        rows[mode] = [line.split("  [")[0] for line in
                      capsys.readouterr().out.splitlines()[:-1]]
        for kernel in ("p01", "p03"):
            records = _minimize_records(tmp_path / mode / kernel)
            assert len(records) == 1
            assert records[0]["telemetry"]["instructions_removed"] > 0
    assert rows["interleaved"] == rows["sequential"]
    assert len(rows["sequential"]) == 2


def test_resuming_a_finished_minimize_campaign_adds_no_record(tmp_path):
    def run(resume):
        return Session(Target.from_suite("p03"), config=_config(),
                       engine=EngineOptions(run_dir=tmp_path,
                                            resume=resume,
                                            minimize=True)).run()

    first = run(resume=False)
    again = run(resume=True)
    assert again.rewrite_asm == first.rewrite_asm
    assert _deterministic(again.minimize) == \
        _deterministic(first.minimize)
    records = _minimize_records(tmp_path)
    assert len(records) == 1
    assert _deterministic(records[0]["telemetry"]) == \
        _deterministic(first.minimize)



def test_resuming_a_finished_minimize_campaign_proves_nothing(
        monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(runner, "search_config",
                        lambda bench, seed, **_: _config(seed))
    args = ["engine", "campaign", "p01", "p03", "--minimize",
            "--run-dir", str(tmp_path)]
    rows = []
    for resume in (False, True):
        assert cli.main(args + ["--resume"] * resume) == 0
        rows.append([line.split("  [")[0] for line in
                     capsys.readouterr().out.splitlines()[:-1]])
        if not resume:
            calls, proof = [], Validator.validate

            def counted(self, *query):
                calls.append(query)
                return proof(self, *query)
            monkeypatch.setattr(Validator, "validate", counted)
    assert calls == []
    assert rows[1] == rows[0] and len(rows[0]) == 2
    for kernel in ("p01", "p03"):
        record, = _minimize_records(tmp_path / kernel)
        assert record["shrunk"]["program"]["slots"]
