"""One workload instance in a fresh interpreter: set up, run, report.

``run.py`` starts this script once per session (and once per resume),
so the evaluator's process-global compile caches start cold every
time, as they do for a user invoking the CLI. The single argument is a
JSON spec; the last line of output is a JSON record of timings, work
counters, output-check results and, when traced, per-layer spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _run_dir_bytes(run_dir: Path) -> int:
    return sum(path.stat().st_size for path in run_dir.rglob("*")
               if path.is_file())


def main(spec: dict) -> dict:
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS, output_mismatches

    from repro.api import EngineOptions, Session, Target
    workload = WORKLOADS[spec["workload"]]
    config = workload.config(spec["instance_seed"])
    run_dir = Path(spec["run_dir"])
    resume = spec["mode"] == "resume"
    sessions = [
        Session(Target.from_suite(kernel), config=config,
                engine=EngineOptions(
                    run_dir=run_dir / kernel if workload.sweep else run_dir,
                    resume=resume, interleave=workload.sweep))
        for kernel in workload.kernels]
    campaigns = ([session.campaign() for session in sessions]
                 if workload.sweep else [])
    # the parent read the same system-wide monotonic clock (Linux
    # CLOCK_MONOTONIC) just before starting this interpreter
    setup_ns = time.monotonic_ns() - spec["spawn_ns"]
    if spec["mode"] == "warm":
        return {}

    from pace import REFERENCE_S, calibrate
    from spans import Patches, Tracer, WorkCounters

    from repro.emulator.compile import evaluator_counters
    from repro.engine.sweep import run_campaigns
    patches = Patches()
    counters = WorkCounters()
    counters.install(patches)
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install(patches)
    evaluator_before = evaluator_counters()
    pace_before = calibrate()
    start = time.perf_counter_ns()
    try:
        if workload.sweep:
            outcomes = run_campaigns(campaigns)
            results = [session.wrap(campaign, outcome) for session,
                       campaign, outcome in zip(sessions, campaigns,
                                                outcomes)]
        else:
            results = [sessions[0].run()]
    finally:
        wall_ns = time.perf_counter_ns() - start
        patches.restore()
    evaluator_after = evaluator_counters()
    # every time reported below is in seconds at the reference pace
    pace = (pace_before + calibrate()) / 2 / REFERENCE_S

    from repro.perfsim.model import actual_runtime
    from repro.suite.registry import benchmark
    kernels = []
    for kernel, result in zip(workload.kernels, results):
        stats = [phase.chain.stats for phase in
                 result.stoke.synthesis + result.stoke.optimization
                 if phase.chain is not None]
        # a session that finds nothing faster keeps the target, which is
        # then its answer; a rewrite it returns must be verified
        program = result.stoke.rewrite
        kernels.append({
            "kernel": kernel,
            "verified": program is None or result.verified,
            "rewrite": result.rewrite_asm,
            "rewrite_cycles": result.rewrite_cycles,
            "gcc_cycles": actual_runtime(benchmark(kernel).gcc.compact()),
            "proposals": sum(s.proposals for s in stats),
            "testcases": sum(s.testcases_evaluated for s in stats),
            "chain_seconds": sum(s.seconds for s in stats) / pace,
            "proposals_per_second": result.proposals_per_second,
            "accepted": (result.telemetry or {}).get("accepted", 0),
            "chains_scheduled": result.chains_scheduled,
            "mismatches": output_mismatches(
                kernel, result.stoke.target if program is None else program,
                spec["check_seed"]),
        })
    record = {
        "setup_s": setup_ns / 1e9 / pace,
        "wall_s": wall_ns / 1e9 / pace,
        "pace": pace,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "kernels": kernels,
        "work": counters.to_json(),
        "evaluator": {name: evaluator_after[name] - before
                      for name, before in evaluator_before.items()},
        "journal_bytes": _run_dir_bytes(run_dir),
    }
    if tracer is not None:
        record["trace"] = tracer.to_json(pace)
    return record


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
