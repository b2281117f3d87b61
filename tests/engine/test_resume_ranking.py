"""A resumed finished kernel takes its ranking from the campaign record.

The ``campaign`` record in ``metrics.jsonl`` journals the final ranking
(each row's program key, cost and cycles, plus the target's cycles).
A resume of a finished run resolves the rows against the decoded
verified pool, so it scores, lowers and simulates nothing, and must
still return exactly the rows of the run it resumes. A record that is
missing, torn, names a program the pool does not hold, ranked a pool
of another size, or predates ranking rows sends the resume through
:func:`~repro.engine.aggregator.final_ranking`, with the same rows.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.cost import function
from repro.engine import aggregator, sweep
from repro.engine.campaign import Campaign, EngineOptions
from repro.engine.sweep import run_campaigns
from repro.search import ranker
from repro.search.config import SearchConfig
from repro.suite.registry import benchmark
from repro.verifier.validator import Validator

KERNELS = ("p01", "p03")


def _campaigns(base: Path, *, minimize: bool, resume: bool = False):
    campaigns = []
    for index, name in enumerate(KERNELS):
        bench = benchmark(name)
        config = SearchConfig(ell=12, beta=1.0, seed=5 + index,
                              synthesis_proposals=60,
                              optimization_proposals=120,
                              optimization_restarts=2,
                              synthesis_chains=1,
                              optimization_chains=3,
                              testcase_count=4)
        options = EngineOptions(run_dir=base / name, resume=resume,
                                interleave=True, minimize=minimize)
        campaigns.append(Campaign(bench.o0, bench.spec, bench.annotations,
                                  config=config, validator=Validator(),
                                  options=options, name=name))
    return campaigns


def _rows(results):
    return [(tuple((str(r.program), r.cost, r.cycles) for r in result.ranked),
             str(result.rewrite), result.rewrite_cycles,
             result.target_cycles, result.verified,
             result.chains_scheduled, len(result.testcases),
             None if result.minimize is None
             else str(result.minimize.program))
            for result in results]


def _metrics(run_dir: Path) -> list[dict]:
    return [json.loads(line) for line
            in (run_dir / "metrics.jsonl").read_text().splitlines()]


def _campaign_record(run_dir: Path) -> dict:
    (record,) = [record for record in _metrics(run_dir)
                 if record["record"] == "campaign"]
    return record


class _Finished:
    """One finished p01+p03 sweep: its directory and its rows."""

    def __init__(self, base: Path, minimize: bool) -> None:
        self.base = base
        self.minimize = minimize
        self.rows = _rows(run_campaigns(_campaigns(base,
                                                   minimize=minimize)))

    def copy(self, work: Path) -> Path:
        shutil.copytree(self.base, work)
        return work

    def resume(self, work: Path):
        return run_campaigns(_campaigns(work, minimize=self.minimize,
                                        resume=True))


@pytest.fixture(scope="module", params=["plain", "minimize"])
def finished(request, tmp_path_factory):
    minimize = request.param == "minimize"
    return _Finished(tmp_path_factory.mktemp(f"finished-{request.param}"),
                     minimize)


@pytest.fixture(scope="module")
def finished_plain(tmp_path_factory):
    return _Finished(tmp_path_factory.mktemp("finished-plain"), False)


@pytest.fixture
def work(monkeypatch):
    """Counts of the ranking's work, made from here on."""
    counts = dict.fromkeys(("evaluate", "compile_program", "actual_runtime",
                            "final_ranking", "target_cycles"), 0)

    def counted(name, method):
        def call(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        return call

    monkeypatch.setattr(function.CostFunction, "evaluate",
                        counted("evaluate", function.CostFunction.evaluate))
    monkeypatch.setattr(function, "compile_program",
                        counted("compile_program", function.compile_program))
    monkeypatch.setattr(ranker, "actual_runtime",
                        counted("actual_runtime", ranker.actual_runtime))
    monkeypatch.setattr(aggregator, "final_ranking",
                        counted("final_ranking", aggregator.final_ranking))
    monkeypatch.setattr(sweep, "actual_runtime",
                        counted("target_cycles", sweep.actual_runtime))
    return counts


def test_the_campaign_record_journals_the_ranking(finished_plain,
                                                  tmp_path):
    results = finished_plain.resume(finished_plain.copy(tmp_path / "run"))
    for name, result in zip(KERNELS, results):
        ranking = _campaign_record(finished_plain.base / name)["ranking"]
        assert ranking["target_cycles"] == result.target_cycles
        assert ranking["testcases"] == len(result.testcases)
        assert [(row["cost"], row["cycles"]) for row in ranking["rows"]] \
            == [(r.cost, r.cycles) for r in result.ranked]
        assert [bool(row.get("target")) for row in ranking["rows"]] \
            == [r.program is result.target for r in result.ranked]


def test_a_finished_run_resumes_without_ranking_again(finished, tmp_path,
                                                      work):
    run = finished.copy(tmp_path / "run")
    journaled = {name: (run / name / "metrics.jsonl").read_bytes()
                 for name in KERNELS}
    assert _rows(finished.resume(run)) == finished.rows
    assert work["evaluate"] == work["compile_program"] == 0
    assert work["actual_runtime"] == work["final_ranking"] == 0
    if not finished.minimize:
        assert work["target_cycles"] == 0
    # nothing is re-merged or journaled again
    assert {name: (run / name / "metrics.jsonl").read_bytes()
            for name in KERNELS} == journaled


def _remove(lines: list[str], index: int) -> list[str]:
    return lines[:index] + lines[index + 1:]


def _cut(lines: list[str], index: int) -> list[str]:
    assert index == len(lines) - 1      # the record is the journal's tail
    return lines[:index] + [lines[index][:len(lines[index]) // 2]]


def _edit(change):
    def damage(lines: list[str], index: int) -> list[str]:
        record = json.loads(lines[index])
        change(record["ranking"])
        return (lines[:index] + [json.dumps(record, sort_keys=True)]
                + lines[index + 1:])
    return damage


def _alter_key(ranking: dict) -> None:
    ranking["rows"][0]["program_key"] = \
        ranking["rows"][0]["program_key"].replace("movl", "movq", 1)


def _resize(ranking: dict) -> None:
    ranking["candidates"] += 1


DAMAGE = {
    "removed": _remove,
    "cut": _cut,
    "key-altered": _edit(_alter_key),
    "resized": _edit(_resize),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_a_damaged_record_falls_back_to_ranking(finished_plain, tmp_path,
                                                damage, work):
    run = finished_plain.copy(tmp_path / "run")
    for name in KERNELS:
        path = run / name / "metrics.jsonl"
        lines = path.read_text().splitlines()
        (index,) = [i for i, line in enumerate(lines)
                    if json.loads(line)["record"] == "campaign"]
        damaged = DAMAGE[damage](lines, index)
        path.write_text("\n".join(damaged)
                        + ("" if damage == "cut" else "\n"))
    assert _rows(finished_plain.resume(run)) == finished_plain.rows
    assert work["final_ranking"] == len(KERNELS)
    if damage in ("removed", "cut"):
        # the finish journals a whole record again, ranking included
        for name in KERNELS:
            assert _campaign_record(run / name)["ranking"] == \
                _campaign_record(finished_plain.base / name)["ranking"]


def test_a_run_journaled_before_ranking_rows_resumes_as_before(
        finished_plain, tmp_path, work):
    run = finished_plain.copy(tmp_path / "run")
    for name in KERNELS:
        path = run / name / "metrics.jsonl"
        records = _metrics(run / name)
        for record in records:
            record.pop("ranking", None)
        path.write_text("".join(json.dumps(record, sort_keys=True) + "\n"
                                for record in records))
    assert _rows(finished_plain.resume(run)) == finished_plain.rows
    assert work["final_ranking"] == len(KERNELS)
    assert work["target_cycles"] == len(KERNELS)
    # the journal is left as it was: the record exists, so nothing is
    # appended and every later resume ranks again, as before
    for name in KERNELS:
        assert "ranking" not in _campaign_record(run / name)
