"""Command-line interface: superoptimize kernels from a shell.

Usage::

    python -m repro.cli list                      # show the suite
    python -m repro.cli show mont                 # print a kernel's codegens
    python -m repro.cli optimize p01 --proposals 40000 --executor pool:n=4
    python -m repro.cli optimize p01 --cost correctness,latency:2 \\
        --strategy anneal
    python -m repro.cli optimize-file kernel.s --live-in rdi,rsi \\
        --live-out rax
    python -m repro.cli validate p01              # prove gcc == o0
    python -m repro.cli minimize p01              # shrink, re-verified
    python -m repro.cli minimize p01 --rewrite rewrite.s --json
    python -m repro.cli speedups p01 p03 p06      # Figure 10 rows
    python -m repro.cli engine campaign --executor pool:n=8 --run-dir runs/sweep
    python -m repro.cli engine campaign --executor pool:n=8 --chains 8 \\
        --budget adaptive:stable=2 --progress
    python -m repro.cli engine campaign p01 p03 --interleave \\
        --executor tcp:spawn=2 --job-timeout 30  # 2 loopback TCP workers
    python -m repro.cli engine worker --connect HOST:PORT  # join a campaign
    python -m repro.cli engine report runs/sweep     # run-dir analytics
    python -m repro.cli engine report runs/sweep/p01 --json

(Installed as the ``repro`` console script.)
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from repro.api.session import Result, Session
from repro.api.targets import Target
from repro.cost.terms import available_cost_terms
from repro.engine.budget import BudgetSpec, available_budgets
from repro.engine.campaign import EngineOptions
from repro.engine.events import format_event
from repro.errors import ReproError
from repro.minimize import (CounterexampleSuite, DEFAULT_PASSES,
                            Minimizer, available_passes)
from repro.perfsim.model import actual_runtime
from repro.search.config import SearchConfig
from repro.search.strategies import available_strategies
from repro.suite.registry import all_benchmarks, benchmark
from repro.suite.runner import evaluate_benchmark, format_rate
from repro.verifier.validator import Validator
from repro.x86.latency import program_latency


def _package_version() -> str:
    """The installed distribution version, or the source tree's."""
    try:
        from importlib.metadata import PackageNotFoundError, version
        return version("repro-stoke")
    except PackageNotFoundError:
        import repro
        return repro.__version__


def _cmd_list(_args: argparse.Namespace) -> int:
    for bench in all_benchmarks():
        star = "*" if bench.starred else " "
        timeout = " (synthesis times out)" if bench.synthesis_timeout \
            else ""
        print(f"  {bench.name:>6}{star}  {bench.description}{timeout}")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    bench = benchmark(args.kernel)
    for flavor in ("o0", "gcc", "icc"):
        prog = getattr(bench, flavor)
        print(f"--- {flavor} ({prog.instruction_count} instructions, "
              f"H={program_latency(prog)}, "
              f"{actual_runtime(prog.compact())} modeled cycles)")
        print(prog)
    if bench.paper_stoke is not None:
        prog = bench.paper_stoke
        print(f"--- paper's STOKE rewrite ({prog.instruction_count} "
              f"instructions, {actual_runtime(prog.compact())} cycles)")
        print(prog)
    return 0


def _emit_line(text: str, stream=None) -> None:
    """Write one progress/report line and flush it immediately.

    Progress output must stay live when piped (``| tee``, a log
    collector): pipes make stdio block-buffered, so every line is
    written *and flushed* explicitly instead of trusting the stream's
    buffering mode.
    """
    stream = sys.stderr if stream is None else stream
    stream.write(text + "\n")
    stream.flush()


def _progress_listener(args: argparse.Namespace):
    """The stderr event printer behind ``--progress`` (None if unset)."""
    if not getattr(args, "progress", False):
        return None

    def listener(event):
        _emit_line(format_event(event))
    return listener


def _engine_options(args: argparse.Namespace) -> EngineOptions:
    return EngineOptions(executor=args.executor, run_dir=args.run_dir,
                         resume=args.resume,
                         budget=BudgetSpec.parse(args.budget),
                         interleave=getattr(args, "interleave", False),
                         minimize=getattr(args, "minimize", None),
                         harden=getattr(args, "harden", False),
                         job_timeout=getattr(args, "job_timeout", None),
                         retries=getattr(args, "retries", None),
                         faults=getattr(args, "faults", None),
                         progress=_progress_listener(args))


def _search_config(args: argparse.Namespace,
                   target_length: int) -> SearchConfig:
    return SearchConfig(
        ell=min(50, max(8, target_length + 4)),
        beta=args.beta,
        seed=args.seed,
        optimization_proposals=args.proposals,
        optimization_restarts=args.restarts,
        optimization_chains=args.chains,
        synthesis_chains=1 if args.synthesis else 0,
        synthesis_proposals=args.proposals,
        testcase_count=args.testcases,
    )


def _report(result: Result, as_json: bool) -> int:
    if as_json:
        print(json.dumps(result.to_json(), indent=2, sort_keys=True))
        return 0
    if result.rewrite_asm is None:
        # the target is documented as an always-valid answer, so an
        # unimproved search is a report, not a failure
        print(f"no rewrite beat the target; keeping it "
              f"({result.target_cycles} modeled cycles, "
              f"{result.seconds:.1f}s)")
        return 0
    rewrite = result.stoke.rewrite
    assert rewrite is not None
    print(f"verified rewrite ({rewrite.instruction_count} "
          f"instructions, {result.speedup:.2f}x modeled speedup, "
          f"{result.seconds:.1f}s):")
    print(result.rewrite_asm)
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    target = Target.from_suite(args.kernel)
    session = Session(target,
                      config=_search_config(args, len(target.program)),
                      cost=args.cost, strategy=args.strategy,
                      engine=_engine_options(args))
    return _report(session.run(), args.json)


def _cmd_optimize_file(args: argparse.Namespace) -> int:
    """Optimize a ``.s`` listing from outside the built-in suite."""
    target = Target.from_file(args.path, live_in=args.live_in,
                              live_out=args.live_out)
    session = Session(target,
                      config=_search_config(args, len(target.program)),
                      cost=args.cost, strategy=args.strategy,
                      engine=_engine_options(args))
    return _report(session.run(), args.json)


def _cmd_validate(args: argparse.Namespace) -> int:
    bench = benchmark(args.kernel)
    outcome = Validator().validate(bench.o0, bench.gcc, bench.spec)
    print(f"gcc -O3 equivalent to llvm -O0: {outcome.equivalent} "
          f"({outcome.num_clauses} clauses, {outcome.conflicts} conflicts, "
          f"{outcome.seconds:.1f}s)")
    return 0 if outcome.equivalent else 1


def _cmd_minimize(args: argparse.Namespace) -> int:
    """Shrink a rewrite against a suite kernel's target and live spec.

    Minimization runs entirely in this process, so the ``--json``
    report — the :meth:`MinimizeResult.to_json` document minus its
    ``runtime`` section, plus both programs — is bit-identical from run
    to run, seeds being equal.
    """
    from repro.testgen.generator import TestcaseGenerator
    from repro.testgen.suite import append_unique
    from repro.x86.parser import parse_program
    from repro.x86.printer import format_program
    target = Target.from_suite(args.kernel)
    if args.rewrite is None:
        rewrite = target.program
    else:
        path = Path(args.rewrite)
        try:
            rewrite = parse_program(path.read_text())
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
    generator = TestcaseGenerator(target.program, target.spec,
                                  target.annotations, seed=args.seed)
    testcases = generator.generate(args.testcases)
    suite = None
    if args.run_dir is not None:
        suite = CounterexampleSuite.for_run_dir(args.run_dir)
        append_unique(testcases, suite.testcases())
        suite.note(testcases)
    minimizer = Minimizer(target.program, target.spec,
                          target.annotations, spec_passes=args.passes)
    result = minimizer.minimize(rewrite, testcases=testcases)
    if suite is not None:
        suite.append(result.cegis_testcases)
        from repro.telemetry import MetricsLog
        log = MetricsLog(Path(args.run_dir) / "metrics.jsonl")
        log.record_minimize(target.name, result.to_json())
    if args.json:
        report = {key: value for key, value in result.to_json().items()
                  if key != "runtime"}
        report["kernel"] = target.name
        report["original_asm"] = format_program(result.original)
        report["rewrite_asm"] = format_program(result.program)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"minimized {target.name}: "
          f"{result.original.instruction_count} -> "
          f"{result.program.instruction_count} instructions "
          f"(measure {result.measure_before} -> {result.measure_after}, "
          f"{result.verify_calls} verify calls, {result.refuted} "
          f"refuted, {len(result.cegis_testcases)} counterexamples, "
          f"{result.seconds:.1f}s)")
    print(format_program(result.program))
    return 0


def _cmd_speedups(args: argparse.Namespace) -> int:
    for index, name in enumerate(args.kernels):
        outcome = evaluate_benchmark(benchmark(name), seed=17 + index)
        print(outcome.row())
    return 0


def _cmd_engine_campaign(args: argparse.Namespace) -> int:
    """Sweep the suite as one resumable, parallel campaign."""
    from repro.engine.checkpoint import CheckpointStore
    from repro.suite.runner import evaluate_campaign
    if args.resume and not args.run_dir:
        print("--resume requires --run-dir", file=sys.stderr)
        return 2
    names = args.kernels or [b.name for b in all_benchmarks()]
    # validate every name before any kernel runs: a typo at position N
    # must not cost N-1 kernels of finished work before exiting 2
    benches = [benchmark(name) for name in names]
    base_dir = Path(args.run_dir) if args.run_dir else None
    options = _engine_options(args)

    def engine_for(bench) -> EngineOptions:
        run_dir = None if base_dir is None else base_dir / bench.name
        # a sweep interrupted mid-kernel leaves later kernels with no
        # journal yet; resume what exists, start the rest fresh
        resume = (args.resume and run_dir is not None and
                  CheckpointStore(run_dir).has_manifest())
        return dataclasses.replace(options, run_dir=run_dir,
                                   resume=resume)

    if args.interleave:
        rows = evaluate_campaign(benches, seed=args.seed,
                                 synthesis=args.synthesis,
                                 chains=args.chains,
                                 engine_for=engine_for)
        for outcome in rows:
            _emit_line(outcome.row(), sys.stdout)
    else:
        rows = []
        for index, bench in enumerate(benches):
            outcome = evaluate_benchmark(bench, seed=args.seed + index,
                                         synthesis=args.synthesis,
                                         chains=args.chains,
                                         engine=engine_for(bench))
            rows.append(outcome)
            _emit_line(outcome.row(), sys.stdout)
    improved = sum(1 for row in rows if row.stoke_speedup > 1.0)
    mean_pps = (sum(row.proposals_per_second for row in rows) /
                len(rows)) if rows else 0.0
    mean_tpp = (sum(row.testcases_per_proposal for row in rows) /
                len(rows)) if rows else 0.0
    scheduled = sum(row.chains_scheduled for row in rows)
    saved = sum(row.chains_saved for row in rows)
    quarantined = sum(row.chains_quarantined for row in rows)
    # quarantined chains are graceful degradation, but never silent
    tail = (f", {quarantined} quarantined" if quarantined else "")
    _emit_line(
        f"campaign done: {improved}/{len(rows)} kernels improved "
        f"(executor={options.executor.spec_string()}, "
        f"budget={options.budget.spec_string()}, "
        f"{'interleaved, ' if args.interleave else ''}"
        f"{format_rate(mean_pps)} proposals/s, "
        f"{mean_tpp:.2f} testcases/proposal, "
        f"{scheduled} chains scheduled, {saved} saved{tail})",
        sys.stdout)
    return 0


def _cmd_engine_worker(args: argparse.Namespace) -> int:
    """Join a running campaign's coordinator as one socket worker.

    Runs granted chains until the coordinator says goodbye (exit 0).
    Transport failures — an unreachable coordinator, a wire-version
    mismatch, a frame torn mid-stream — exit 7
    (:class:`~repro.errors.TransportError`); a worker refused at
    hello is hung up on cleanly and also exits 0, having run nothing.
    """
    from repro.engine.remote import run_worker
    from repro.engine.transport import parse_endpoint
    host, port = parse_endpoint(args.connect)
    completed = run_worker(host, port, heartbeat=args.heartbeat,
                           max_jobs=args.max_jobs, name=args.name)
    _emit_line(f"worker done: {completed} chains completed")
    return 0


def _follow_run(run_dir: Path) -> None:
    """Tail one run's event stream until its campaign finishes."""
    from repro.engine.events import CAMPAIGN_FINISHED, follow_events
    finished = False
    for event in follow_events(run_dir / "events.jsonl",
                               poll=lambda: not finished):
        _emit_line(format_event(event))
        if event.event == CAMPAIGN_FINISHED:
            finished = True


def _cmd_engine_report(args: argparse.Namespace) -> int:
    """Render run-dir analytics from the journals alone.

    Works on finished *and* in-progress runs: the metrics journal gets
    one record per completed chain, so a live campaign's report shows
    everything journaled so far (``complete: false`` in ``--json``).
    """
    from repro.telemetry import (discover_run_dirs, load_document,
                                 render_report)
    base = Path(args.run_dir)
    run_dirs = discover_run_dirs(base)
    if not run_dirs:
        print(f"error: no run directories under {base}",
              file=sys.stderr)
        return 2
    if args.follow:
        if len(run_dirs) != 1:
            print("error: --follow needs a single kernel's run "
                  "directory", file=sys.stderr)
            return 2
        _follow_run(run_dirs[0])
    documents = [doc for doc in (load_document(run_dir)
                                 for run_dir in run_dirs)
                 if doc is not None]
    if not documents:
        print(f"error: no telemetry journaled yet under {base}",
              file=sys.stderr)
        return 1
    if args.json:
        payload = documents[0] if len(documents) == 1 else documents
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(render_report(documents))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {_package_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list suite kernels") \
        .set_defaults(fn=_cmd_list)

    show = sub.add_parser("show", help="print a kernel's compilations")
    show.add_argument("kernel")
    show.set_defaults(fn=_cmd_show)

    optimize = sub.add_parser("optimize", help="run the STOKE pipeline")
    optimize.add_argument("kernel")
    _add_search_arguments(optimize)
    _add_engine_arguments(optimize)
    optimize.set_defaults(fn=_cmd_optimize)

    optimize_file = sub.add_parser(
        "optimize-file",
        help="optimize a .s listing with an explicit live spec")
    optimize_file.add_argument("path", help="assembly listing to read")
    optimize_file.add_argument(
        "--live-in", required=True,
        help="comma-separated input registers, e.g. rdi,rsi")
    optimize_file.add_argument(
        "--live-out", required=True,
        help="comma-separated output registers, e.g. rax")
    _add_search_arguments(optimize_file)
    _add_engine_arguments(optimize_file)
    optimize_file.set_defaults(fn=_cmd_optimize_file)

    validate = sub.add_parser("validate",
                              help="prove gcc -O3 equals llvm -O0")
    validate.add_argument("kernel")
    validate.set_defaults(fn=_cmd_validate)

    minimize = sub.add_parser(
        "minimize",
        help="shrink a rewrite, re-verifying every accepted step")
    minimize.add_argument("kernel",
                          help="suite kernel supplying the target and "
                               "live spec")
    minimize.add_argument(
        "--rewrite", default=None, metavar="FILE",
        help=".s listing to shrink (default: the kernel's own "
             "unoptimized codegen — shows what deletion alone finds)")
    minimize.add_argument(
        "--passes", default=None, metavar="LIST",
        help="comma-separated shrink passes, in application order "
             f"(default: {','.join(DEFAULT_PASSES)}; "
             f"available: {', '.join(available_passes())})")
    minimize.add_argument("--testcases", type=int, default=16,
                          help="base suite size for the emulator "
                               "prefilter (0 = validator only, which "
                               "maximizes CEGIS counterexamples)")
    minimize.add_argument("--seed", type=int, default=0)
    minimize.add_argument(
        "--run-dir", default=None,
        help="run directory: merges its persistent counterexample "
             "suite into the prefilter, appends newly found "
             "counterexamples back, and journals a minimize record "
             "to metrics.jsonl")
    minimize.add_argument("--json", action="store_true",
                          help="emit the deterministic shrink report "
                               "(runtime stripped) plus the programs")
    minimize.set_defaults(fn=_cmd_minimize)

    speedups = sub.add_parser("speedups", help="Figure 10 rows")
    speedups.add_argument("kernels", nargs="+")
    speedups.set_defaults(fn=_cmd_speedups)

    engine = sub.add_parser("engine",
                            help="parallel, resumable search campaigns")
    engine_sub = engine.add_subparsers(dest="engine_command",
                                       required=True)
    campaign = engine_sub.add_parser(
        "campaign", help="sweep kernels as one checkpointed campaign")
    campaign.add_argument("kernels", nargs="*",
                          help="kernels to sweep (default: whole suite)")
    campaign.add_argument("--seed", type=int, default=17)
    campaign.add_argument("--synthesis", action="store_true",
                          help="also run the synthesis phase")
    campaign.add_argument(
        "--progress", action="store_true",
        help="stream live per-chain progress events to stderr")
    campaign.add_argument(
        "--chains", type=int, default=1,
        help="optimization chains per kernel (adaptive budgets may "
             "schedule fewer)")
    campaign.add_argument(
        "--interleave", action="store_true",
        help="grant chain rounds from all kernels to one shared pool "
             "round-robin (identical results for ranking-driven "
             "budgets, better pool occupancy; a wallclock deadline "
             "becomes sweep-wide instead of per-kernel)")
    _add_engine_arguments(campaign)
    campaign.set_defaults(fn=_cmd_engine_campaign)

    worker = engine_sub.add_parser(
        "worker",
        help="join a running campaign's coordinator over TCP")
    worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the coordinator's address (printed by the campaign, or "
             "chosen when constructing a RemoteExecutor)")
    worker.add_argument(
        "--heartbeat", type=float, default=5.0, metavar="SECONDS",
        help="idle-liveness interval; while running a chain the "
             "worker is silent (use --job-timeout on the campaign "
             "side for job-level liveness)")
    worker.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="leave after completing N chains (default: stay until "
             "the coordinator says goodbye)")
    worker.add_argument(
        "--name", default=None,
        help="worker label in events and per-worker telemetry "
             "(default: pid-<pid>)")
    worker.set_defaults(fn=_cmd_engine_worker)

    report = engine_sub.add_parser(
        "report",
        help="analyze a run directory's telemetry journals")
    report.add_argument(
        "run_dir",
        help="a campaign run directory, or a sweep base directory "
             "holding one run directory per kernel")
    report.add_argument("--json", action="store_true",
                        help="emit the merged metrics document(s)")
    report.add_argument(
        "--follow", action="store_true",
        help="tail the live event stream until the campaign finishes, "
             "then render the report")
    report.set_defaults(fn=_cmd_engine_report)
    return parser


def _add_search_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--proposals", type=int, default=40_000)
    parser.add_argument("--restarts", type=int, default=10)
    parser.add_argument("--chains", type=int, default=1,
                        help="independent optimization chains")
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--testcases", type=int, default=16)
    parser.add_argument("--synthesis", action="store_true",
                        help="also run the synthesis phase")
    parser.add_argument(
        "--cost", default=None, metavar="SPEC",
        help="cost terms with optional weights, e.g. "
             "correctness,latency:2 "
             f"(available: {', '.join(available_cost_terms())})")
    parser.add_argument(
        "--strategy", default=None,
        help="search strategy "
             f"(available: {', '.join(available_strategies())})")
    parser.add_argument("--json", action="store_true",
                        help="print the result as JSON")


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--executor", default="serial", metavar="SPEC",
        help="where chains run: serial (this process, the default), "
             "pool:n=N (N >= 2 local worker processes) or tcp:spawn=N "
             "(a TCP coordinator with N >= 1 loopback workers; remote "
             "hosts can join with 'repro engine worker'); results are "
             "bit-identical on every executor")
    parser.add_argument("--run-dir", default=None,
                        help="checkpoint directory for this run")
    parser.add_argument("--resume", action="store_true",
                        help="resume a journaled run from --run-dir")
    parser.add_argument(
        "--budget", default="fixed", metavar="SPEC",
        help="chain budget: fixed (run every configured chain), "
             "adaptive:stable=K (stop a kernel once its best ranking "
             "is unchanged for K chains), plateau:eps=E,stable=K "
             "(stop once best cycles improved by less than E over K "
             "chains), wallclock:secs=S (deny new chain grants "
             "after S seconds), or validations:n=K (stop once "
             "completed chains have spent K validator queries) "
             f"(available: {', '.join(available_budgets())})")
    parser.add_argument(
        "--minimize", nargs="?", const=True, default=False,
        metavar="PASSES",
        help="shrink the winning rewrite before reporting it, "
             "re-verifying every accepted step (optionally a "
             "comma-separated pass list; default passes: "
             f"{','.join(DEFAULT_PASSES)})")
    parser.add_argument(
        "--harden", action="store_true",
        help="seed base testcases from the run directory's persistent "
             "counterexample suite and persist new counterexamples "
             "back (requires --run-dir)")
    parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt job deadline; a job whose result has not "
             "arrived in time is re-granted with capped exponential "
             "backoff (default: no deadline)")
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="re-grants allowed per job after its first attempt "
             "before the job is quarantined (default: 3)")
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject deterministic executor faults for testing: "
             "faults:seed=S,crash=P,dup=P,stall=P,corrupt=P "
             "(probabilities per attempt; stall>0 requires "
             "--job-timeout)")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:      # e.g. `repro list | head`
        return 0
    except ReproError as exc:    # bad flags, unknown names, ...
        # subsystem errors carry distinct exit codes (see errors.py):
        # 2 usage/config, 3 worker crash, 4 job timeout, 5 stale
        # grant, 6 corrupt payload, 7 transport — so a supervisor can
        # tell a crashed worker from a corrupt run dir (or a network
        # failure worth a --resume) without parsing stderr
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
