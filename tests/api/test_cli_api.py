"""CLI surface of the new API: optimize-file, --cost/--strategy,
--version, and clean unknown-name errors."""

import json

import pytest

import repro.cli as cli

LISTING = "movq rdi, -8(rsp)\nmovq -8(rsp), rax\naddq rsi, rax\n"

FAST_ARGS = ["--proposals", "800", "--testcases", "4",
             "--restarts", "2"]


def test_version_flag_prints_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("repro ")
    assert out.split()[1][0].isdigit()


def test_unknown_kernel_exits_2_with_suggestions(capsys):
    assert cli.main(["optimize", "p99"] + FAST_ARGS) == 2
    err = capsys.readouterr().err
    assert "unknown kernel 'p99'" in err
    assert "did you mean" in err
    assert "Traceback" not in err


def test_unknown_kernel_in_show_and_speedups(capsys):
    assert cli.main(["show", "mnot"]) == 2
    assert "did you mean" in capsys.readouterr().err
    assert cli.main(["speedups", "p01x"]) == 2
    assert "unknown kernel" in capsys.readouterr().err


def test_unknown_cost_term_exits_2(capsys):
    code = cli.main(["optimize", "p01", "--cost", "correctness,latncy"]
                    + FAST_ARGS)
    assert code == 2
    assert "unknown cost term" in capsys.readouterr().err


def test_unknown_strategy_exits_2(capsys):
    code = cli.main(["optimize", "p01", "--strategy", "genetic"]
                    + FAST_ARGS)
    assert code == 2
    assert "unknown strategy" in capsys.readouterr().err


def test_optimize_with_cost_and_strategy_flags(capsys):
    code = cli.main(["optimize", "p01", "--cost",
                     "correctness,latency,size", "--strategy", "greedy"]
                    + FAST_ARGS)
    assert code == 0
    out = capsys.readouterr().out
    assert "rewrite" in out or "target" in out


def test_optimize_json_report(capsys):
    code = cli.main(["optimize", "p01", "--json"] + FAST_ARGS)
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "p01"
    assert payload["cost"] == "correctness,latency"
    assert payload["strategy"] == "mcmc"
    assert payload["proposals_per_second"] > 0


def test_optimize_evaluator_flag(capsys):
    # the flag is retired: no subcommand accepts it
    for argv in (["optimize", "p01"],
                 ["optimize-file", "kernel.s", "--live-in", "rdi",
                  "--live-out", "rax"],
                 ["engine", "campaign", "p01"]):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv + ["--evaluator", "reference"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --evaluator" \
            in capsys.readouterr().err


def test_optimize_file_end_to_end(tmp_path, capsys):
    path = tmp_path / "kernel.s"
    path.write_text(LISTING)
    code = cli.main(["optimize-file", str(path),
                     "--live-in", "rdi,rsi", "--live-out", "rax",
                     "--json", "--proposals", "2000",
                     "--testcases", "8"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "kernel"
    assert payload["verified"] is True
    # the stack round-trip is dead weight; the search must beat it
    assert payload["rewrite_cycles"] < payload["target_cycles"]


def test_optimize_file_bad_live_spec_exits_2(tmp_path, capsys):
    path = tmp_path / "kernel.s"
    path.write_text(LISTING)
    code = cli.main(["optimize-file", str(path),
                     "--live-in", "rdi,banana", "--live-out", "rax"]
                    + FAST_ARGS)
    assert code == 2
    assert "not a register name" in capsys.readouterr().err


def test_optimize_file_missing_file_exits_2(tmp_path, capsys):
    code = cli.main(["optimize-file", str(tmp_path / "nope.s"),
                     "--live-in", "rdi", "--live-out", "rax"]
                    + FAST_ARGS)
    assert code == 2
    assert "cannot read" in capsys.readouterr().err
