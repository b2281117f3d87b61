"""The repository's benchmark: the STOKE pipeline end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search-p01 --seed 0 \\
        --seconds 25 --trace 0

A run repeats passes over the workload's instances for ``--seconds``
(the first pass always completes). A pass runs every instance once and
then resumes each finished run directory a few times; each session and
each resume runs in a fresh interpreter (``child.py``). A timing is the
sum over instances of the median of that instance's samples, so a
stall of the shared host moves few samples and no median. With
``--trace 0`` the last output line reports the end-to-end metrics of
untraced runs; with ``--trace 1`` every instance runs untraced and
traced, and the line reports per-layer metrics of the traced runs plus
the tracing overhead.

The run fails (``correct: false``) when a final rewrite is unverified
or disagrees with the kernel's Python reference on the reference
emulator, when a resume ranks differently from its fresh run, or when
the work counters (proposals, testcases, validator queries, SAT
calls, CNF sizes, chains, rewrite text) differ between runs of the
same instance: within this run, traced or not, and against earlier
runs of the same seed on the same source tree (kept in
``.perfbench/``), because a timing change that moved the work is not
a speed-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS
from workloads import WORKLOADS, geomean

BENCH_DIR = Path(__file__).resolve().parent
#: Every run, its children included, ends well inside 180 seconds.
HARD_LIMIT_S = 165.0


class BenchError(Exception):
    """A run that cannot produce a result."""


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Runner:
    """Starts children and keeps the run inside its time limit."""

    def __init__(self, root: Path, runs: Path, workload, deadline: float):
        self.root = root
        self.runs = runs
        self.workload = workload
        self.deadline = deadline
        self._dirs = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        return self.runs / str(self._dirs)

    def child(self, mode: str, instance_seed: int, run_dir: Path,
              check_seed: int, trace: bool = False) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the run finished")
        spec = {"root": str(self.root), "workload": self.workload.name,
                "mode": mode, "instance_seed": instance_seed,
                "run_dir": str(run_dir), "check_seed": check_seed,
                "trace": trace, "spawn_ns": time.monotonic_ns()}
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"),
                 json.dumps(spec)],
                cwd=self.root, capture_output=True, text=True,
                timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} of instance {instance_seed} did not "
                             "finish in time") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} of instance {instance_seed} failed:\n"
                             f"{proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def pass_steps(instances: int, variants: list[bool], resumes: int):
    """(mode, instance index, traced) of one pass, in run order.

    Every instance runs first; then its run directory is resumed in
    rounds over all instances, so one stall hits few samples of each.
    Traced instances are resumed once, for the resume's layer shares.
    """
    for index in range(instances):
        for traced in variants:
            yield "run", index, traced
    for round_ in range(resumes):
        for index in range(instances):
            for traced in variants:
                if not (traced and round_):
                    yield "resume", index, traced


def measure(runner: Runner, seeds: list[int], seed: int, trace: bool,
            end: float) -> dict:
    """Samples per variant and instance: ``samples[traced][i]`` holds
    the ``"run"`` and ``"resume"`` records of instance ``i``.

    The first pass always completes; after it, a child starts only if
    the last child of the same kind ended in time to fit before ``end``.
    """
    variants = [False, True] if trace else [False]
    samples = {traced: [{"run": [], "resume": []} for _ in seeds]
               for traced in variants}
    took: dict[tuple, float] = {}
    first = True
    while True:
        dirs = {}
        for mode, index, traced in pass_steps(len(seeds), variants,
                                              runner.workload.resumes):
            step = (mode, index, traced)
            if not first and time.monotonic() + took[step] > end:
                return samples
            if mode == "run":
                dirs[index, traced] = runner.fresh_dir()
            started = time.monotonic()
            samples[traced][index][mode].append(runner.child(
                mode, seeds[index], dirs[index, traced],
                seed * 1000 + index, traced))
            took[step] = time.monotonic() - started
        for run_dir in dirs.values():
            shutil.rmtree(run_dir, ignore_errors=True)
        first = False


# -- correctness ---------------------------------------------------------------

def work_of(record: dict) -> dict:
    """The counters that must repeat exactly for one instance."""
    work = record["work"]
    kernels = record["kernels"]
    return {
        "proposals": [k["proposals"] for k in kernels],
        "testcases": [k["testcases"] for k in kernels],
        "chains": [k["chains_scheduled"] for k in kernels],
        "rewrites": [k["rewrite"] for k in kernels],
        "queries": work["queries"],
        "sat_calls": work["sat_calls"],
        "cnf_vars": work["cnf_vars"],
        "cnf_clauses": work["cnf_clauses"],
    }


def ranking_of(record: dict) -> dict:
    work = work_of(record)
    return {key: work[key]
            for key in ("proposals", "testcases", "chains", "rewrites")}


def source_digest(root: Path) -> str:
    """Digest of the program's and the benchmark's sources: stored work
    counters hold only while neither changes."""
    digest = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"),
                        *BENCH_DIR.glob("*.py")]):
        digest.update(os.path.relpath(path, root).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check(samples: dict, seeds: list[int], history: Path,
          source: str) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every record of the run."""
    attempted = failed = 0
    problems: list[str] = []
    expected: dict[int, dict] = {}
    if history.exists():
        stored = json.loads(history.read_text())
        if stored.get("source") == source:
            expected = {int(k): v for k, v in stored["work"].items()}
    for instances in samples.values():
        for instance_seed, records in zip(seeds, instances):
            for record in records["run"] + records["resume"]:
                for kernel in record["kernels"]:
                    attempted += 1
                    if not kernel["verified"] or kernel["mismatches"]:
                        failed += 1
                        problems.append(
                            f"{kernel['kernel']} (instance "
                            f"{instance_seed}): rewrite unverified or "
                            "wrong on the reference emulator")
            ranking = ranking_of(records["run"][0])
            for resume in records["resume"]:
                if ranking_of(resume) != ranking:
                    failed += 1
                    problems.append(f"instance {instance_seed}: resume "
                                    "ranked differently from the run")
            for run in records["run"]:
                work = work_of(run)
                if expected.setdefault(instance_seed, work) != work:
                    failed += 1
                    problems.append(f"instance {instance_seed}: work "
                                    "counters differ between runs")
    history.parent.mkdir(parents=True, exist_ok=True)
    history.write_text(json.dumps(
        {"source": source, "work": {str(k): v for k, v in expected.items()}},
        sort_keys=True))
    return attempted, failed, problems


# -- metrics -------------------------------------------------------------------

def _sum_of_medians(instances: list[dict], mode: str, value) -> float:
    """Sum over instances of the median of ``value(record)`` over the
    instance's ``mode`` records."""
    return sum(_median([value(record) for record in records[mode]])
               for records in instances)


def _wall(record: dict) -> float:
    return record["wall_s"]


def end_to_end(samples: dict) -> dict:
    instances = samples[False]
    firsts = [records["run"][0] for records in instances]
    proposals = sum(k["proposals"] for r in firsts for k in r["kernels"])
    chain_s = _sum_of_medians(
        instances, "run",
        lambda r: sum(k["chain_seconds"] for k in r["kernels"]))
    records = [r for rs in instances for r in rs["run"] + rs["resume"]]
    return {
        "setup_s": (_median([r["setup_s"] for r in records]), "s"),
        "wall_s": (_sum_of_medians(instances, "run", _wall), "s"),
        "proposals_per_s": (_ratio(proposals, chain_s), "1/s"),
        "resume_s": (_sum_of_medians(instances, "resume", _wall), "s"),
        "speedup_vs_gcc": (geomean([k["gcc_cycles"] / k["rewrite_cycles"]
                                    for r in firsts
                                    for k in r["kernels"]]), "ratio"),
        "peak_rss_mb": (_median([r["rss_mb"] for rs in instances
                                 for r in rs["run"]]), "MB"),
    }


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer(samples: dict) -> dict:
    traced = samples[True]
    wall = _sum_of_medians(traced, "run", _wall)
    resume_wall = _sum_of_medians(traced, "resume", _wall)
    metrics = {}
    total_s = 0.0
    for layer in LAYERS:
        seconds = _sum_of_medians(
            traced, "run", lambda r: r["trace"]["self_ns"][layer] / 1e9)
        calls = _sum_of_medians(
            traced, "run", lambda r: r["trace"]["calls"][layer])
        total_s += seconds
        metrics[f"{layer}.s"] = (seconds, "s")
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.us_per_call"] = (_ratio(seconds * 1e6, calls),
                                           "us")
        metrics[f"{layer}.share"] = (_ratio(seconds, wall), "ratio")
    metrics["other.s"] = (wall - total_s, "s")
    metrics["other.share"] = (_ratio(wall - total_s, wall), "ratio")

    firsts = [records["run"][0] for records in traced]
    kernels = [k for r in firsts for k in r["kernels"]]
    work = {key: sum(r["work"][key] for r in firsts)
            for key in firsts[0]["work"]}
    evaluator = {key: sum(r["evaluator"][key] for r in firsts)
                 for key in firsts[0]["evaluator"]}
    proposals = sum(k["proposals"] for k in kernels)
    hits = evaluator["instance_hits"] + evaluator["structural_hits"]
    jobs = [ns / 1e9 for records in traced for r in records["run"]
            for ns in r["trace"]["spans_ns"]["engine.job"]]

    def resume_share(layer):
        return _ratio(_sum_of_medians(
            traced, "resume",
            lambda r: r["trace"]["self_ns"][layer] / 1e9), resume_wall)

    metrics.update({
        "search.accept_ratio": (
            _ratio(sum(k["accepted"] for k in kernels), proposals),
            "ratio"),
        "emulator.lower.cache_hit_ratio": (
            _ratio(hits, hits + evaluator["tier_ups"]
                   + evaluator["cold_fallbacks"]), "ratio"),
        "emulator.tier_ups": (evaluator["tier_ups"], "count"),
        "cost.testcases_per_proposal": (
            _ratio(sum(k["testcases"] for k in kernels), proposals),
            "count"),
        "verifier.queries": (work["queries"], "count"),
        "verifier.equivalent_ratio": (
            _ratio(work["equivalent"], work["queries"]), "ratio"),
        "verifier.no_sat_ratio": (
            _ratio(work["queries"] - work["sat_calls"], work["queries"]),
            "ratio"),
        "smt.cnf_vars": (_ratio(work["cnf_vars"], work["sat_calls"]),
                         "count"),
        "smt.cnf_clauses": (_ratio(work["cnf_clauses"], work["sat_calls"]),
                            "count"),
        "engine.job.p50_s": (_quantile(jobs, 0.5), "s"),
        "engine.job.p90_s": (_quantile(jobs, 0.9), "s"),
        "engine.journal.bytes": (
            _sum_of_medians(traced, "run", lambda r: r["journal_bytes"]),
            "bytes"),
        "resume.engine.decode.share": (resume_share("engine.decode"),
                                       "ratio"),
        "resume.engine.aggregate.share": (resume_share("engine.aggregate"),
                                          "ratio"),
        "trace_overhead": (
            _ratio(wall, _sum_of_medians(samples[False], "run", _wall)),
            "ratio"),
    })
    return metrics


# -- driver --------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree under {root / 'src'}; run from "
              "the repository root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    state = root / ".perfbench"
    runs = state / "runs" / str(os.getpid())
    runner = Runner(root, runs, workload, started + HARD_LIMIT_S)
    seeds = workload.instance_seeds(args.seed)
    trace = bool(args.trace)
    try:
        # untimed: byte-compiles the sources and warms the file cache
        runner.child("warm", seeds[0], runner.fresh_dir(), 0)
        samples = measure(runner, seeds, args.seed, trace,
                          time.monotonic() + args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runs, ignore_errors=True)
    history = state / "work" / f"{workload.name}-{args.seed}.json"
    attempted, failed, problems = check(samples, seeds, history,
                                        source_digest(root))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = per_layer(samples) if trace else end_to_end(samples)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
