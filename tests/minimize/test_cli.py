"""CLI tests for ``repro minimize``: shrink, determinism, flywheel.

The acceptance bar for the CLI surface: the ``--json`` report is
bit-identical from run to run (minimization runs in this process and
its report carries no wall-clock), and a run directory turns
refutations into a persistent, warm-startable suite.
"""

import json

import repro.cli as cli
from repro.minimize.cegis import suite_path
from repro.telemetry import RECORD_MINIMIZE


def _json_run(capsys, args):
    assert cli.main(args) == 0
    out = capsys.readouterr().out
    return out, json.loads(out)


def test_minimize_shrinks_a_suite_kernel(capsys):
    assert cli.main(["minimize", "p01"]) == 0
    out = capsys.readouterr().out
    assert "minimized p01:" in out
    assert "verify calls" in out


def test_minimize_json_is_deterministic(capsys):
    outputs = []
    for _run in range(2):
        out, report = _json_run(capsys, ["minimize", "p01", "--json"])
        outputs.append(out)
        assert report["verified"] is True
        assert report["instructions_removed"] > 0
        assert report["kernel"] == "p01"
        assert "runtime" not in report        # wall-clock excluded
    assert outputs[0] == outputs[1]


def test_minimize_run_dir_builds_the_flywheel(tmp_path, capsys):
    """First run refutes and persists counterexamples; the second run
    starts from them, so it reaches the same fixed point with no
    refutations and fewer validator queries."""
    run_dir = tmp_path / "p03"
    args = ["minimize", "p03", "--testcases", "0",
            "--run-dir", str(run_dir), "--json"]
    _out, cold = _json_run(capsys, args)
    assert cold["refuted"] > 0
    assert cold["cegis_testcases"] > 0
    persisted = suite_path(run_dir).read_text().splitlines()
    assert len(persisted) == cold["cegis_testcases"]

    _out, warm = _json_run(capsys, args)
    assert warm["refuted"] == 0
    assert warm["cegis_testcases"] == 0
    assert warm["verify_calls"] < cold["verify_calls"]
    assert warm["rewrite_asm"] == cold["rewrite_asm"]
    # nothing novel: the suite file did not grow
    assert suite_path(run_dir).read_text().splitlines() == persisted

    # ... and the run journaled a minimize telemetry record
    records = [json.loads(line) for line in
               (run_dir / "metrics.jsonl").read_text().splitlines()]
    minimize = [r for r in records if r["record"] == RECORD_MINIMIZE]
    assert minimize and minimize[0]["kernel"] == "p03"
    assert minimize[0]["telemetry"]["verified"] is True


def test_minimize_accepts_a_rewrite_file(tmp_path, capsys):
    rewrite = tmp_path / "rewrite.s"
    _out, baseline = _json_run(capsys, ["minimize", "p01", "--json"])
    rewrite.write_text(baseline["original_asm"])
    _out, report = _json_run(capsys, ["minimize", "p01", "--json",
                                      "--rewrite", str(rewrite)])
    assert report["rewrite_asm"] == baseline["rewrite_asm"]


def test_minimize_rejects_a_missing_rewrite_file(tmp_path, capsys):
    code = cli.main(["minimize", "p01",
                     "--rewrite", str(tmp_path / "missing.s")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_minimize_rejects_an_unknown_pass(capsys):
    assert cli.main(["minimize", "p01", "--passes", "delte"]) == 2
    assert "minimize pass" in capsys.readouterr().err


def test_minimize_rejects_an_unknown_kernel(capsys):
    assert cli.main(["minimize", "p0x"]) == 2
