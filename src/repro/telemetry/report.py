"""Render a run directory's journals as human-readable analytics.

``repro engine report <run-dir>`` works entirely from the journals —
``metrics.jsonl`` for the telemetry document, ``events.jsonl`` for
chain counts — with no re-execution, so a finished run, an in-progress
run, and a run on another machine all render the same way. The
renderer accepts either one kernel's run directory or a sweep base
directory (``engine campaign --run-dir`` writes one subdirectory per
kernel) and prints, per the paper's diagnostics:

* a campaign summary table (proposals, acceptance rate, testcases per
  proposal, chain counts);
* a best-cost trajectory sparkline per kernel (Fig. 4);
* the acceptance-rate-by-move table (§3.2's proposal distribution);
* the testcases-evaluated-per-proposal histogram (Fig. 5, the Eq. 14
  short-circuit's payoff);
* the worker-occupancy timeline and grant-latency summary from the
  scheduler's runtime section.

Everything here is pure string-building over the merged document from
:func:`repro.telemetry.journal.metrics_document`; the CLI verb is a
thin wrapper.
"""

from __future__ import annotations

from pathlib import Path

from repro.telemetry.chain import ChainTelemetry
from repro.telemetry.journal import metrics_document, read_metrics
from repro.telemetry.metrics import Json, safe_rate

_TICKS = "▁▂▃▄▅▆▇█"
_BAR = "█"


def discover_run_dirs(base: str | Path) -> list[Path]:
    """Run directories under ``base``: itself, or its kernel subdirs."""
    base = Path(base)
    if _is_run_dir(base):
        return [base]
    if base.is_dir():
        return sorted(child for child in base.iterdir()
                      if _is_run_dir(child))
    return []


def _is_run_dir(path: Path) -> bool:
    return (path / "metrics.jsonl").exists() or \
        (path / "events.jsonl").exists()


def load_document(run_dir: str | Path) -> Json | None:
    """The merged metrics document for one run directory, or None."""
    return metrics_document(read_metrics(Path(run_dir) /
                                         "metrics.jsonl"))


def sparkline(values: list, width: int = 48) -> str:
    """A unicode sparkline, downsampled to at most ``width`` chars."""
    if not values:
        return ""
    if len(values) > width:
        stride = len(values) / width
        values = [values[int(i * stride)] for i in range(width)]
    lo, hi = min(values), max(values)
    if hi == lo:
        return _TICKS[0] * len(values)
    scale = (len(_TICKS) - 1) / (hi - lo)
    return "".join(_TICKS[int((v - lo) * scale)] for v in values)


def _bar(count: int, peak: int, width: int = 32) -> str:
    if peak <= 0:
        return ""
    return _BAR * max(1, round(count / peak * width)) if count else ""


def _campaign_telemetry(document: Json) -> ChainTelemetry:
    return ChainTelemetry.from_json(
        {**document["campaign"], "runtime": {}})


def _best_trace(document: Json) -> tuple[str | None, list]:
    """(job_id, best-cost ys) of the chain that reached the minimum."""
    best_id, best_ys, best_final = None, [], None
    for job_id in sorted(document["chains"]):
        points = document["chains"][job_id]["best_trace"]["points"]
        if not points:
            continue
        final = points[-1][1]
        if best_final is None or final < best_final:
            best_id, best_final = job_id, final
            best_ys = [y for _x, y in points]
    return best_id, best_ys


def summary_table(documents: list[Json]) -> list[str]:
    lines = [f"{'kernel':>8}  {'chains':>6}  {'proposals':>10}  "
             f"{'accept%':>8}  {'tc/prop':>8}  {'prop/s':>10}  state"]
    for document in documents:
        merged = _campaign_telemetry(document)
        seconds = sum(
            telemetry.get("runtime", {}).get("seconds", 0.0)
            for telemetry in document["chains"].values())
        rate = safe_rate(merged.proposals, seconds)
        lines.append(
            f"{document['kernel']:>8}  {len(document['chains']):>6}  "
            f"{merged.proposals:>10,}  "
            f"{100 * merged.acceptance_rate():>7.2f}%  "
            f"{merged.testcases_per_proposal:>8.2f}  {rate:>10,.0f}  "
            f"{'finished' if document['complete'] else 'running'}")
    return lines


def move_table(document: Json) -> list[str]:
    merged = _campaign_telemetry(document)
    lines = [f"  {'move':>12}  {'proposed':>9}  {'accepted':>9}  "
             f"{'accept%':>8}  {'bounded':>8}  {'Δcost(acc)':>11}"]
    for kind, row in merged.move_table():
        accept = (100 * row["accepted"] / row["proposed"]
                  if row["proposed"] else 0.0)
        lines.append(
            f"  {kind:>12}  {row['proposed']:>9,}  "
            f"{row['accepted']:>9,}  {accept:>7.2f}%  "
            f"{row['bounded']:>8,}  {row['accepted_delta']:>+11,}")
    return lines


def testcase_histogram(document: Json, width: int = 32) -> list[str]:
    merged = _campaign_telemetry(document)
    pairs = merged.testcase_hist.nonzero()
    if not pairs:
        return ["  (no proposals recorded)"]
    peak = max(count for _value, count in pairs)
    cap = merged.testcase_hist.cap
    lines = []
    for value, count in pairs:
        label = f"{value}" if value < cap else f">={cap}"
        lines.append(f"  {label:>5} tc  {count:>9,}  "
                     f"{_bar(count, peak, width)}")
    lines.append(f"  mean {merged.testcases_per_proposal:.2f} testcases "
                 f"per proposal (Eq. 14 short-circuit)")
    return lines


def occupancy_lines(document: Json) -> list[str]:
    runtime = document["runtime"]
    lines = []
    occupancy = runtime.get("occupancy", {}).get("points", [])
    if occupancy:
        lines.append("  in-flight jobs over time:  " +
                     sparkline([y for _x, y in occupancy]))
    latency = runtime.get("grant_latency")
    if latency and latency.get("count"):
        lines.append(
            f"  grant→completion latency: mean "
            f"{latency['mean']:.3f}s, max {latency['max']:.3f}s over "
            f"{latency['count']} chains")
    recovery = runtime.get("recovery", {})
    if any(recovery.values()):
        # only shown when the run actually fought failures; a clean
        # run's report stays exactly as before
        lines.append(
            f"  recovery: {recovery.get('retried', 0)} retried, "
            f"{recovery.get('requeued', 0)} requeued, "
            f"{recovery.get('quarantined', 0)} quarantined, "
            f"{recovery.get('duplicates', 0)} duplicates dropped, "
            f"{recovery.get('stale', 0)} stale results ignored")
    workers = runtime.get("workers", {})
    if workers:
        # distributed runs only: which remote worker delivered how
        # many chains (worker identity is runtime state — the
        # deterministic sections are worker-count invisible)
        total = sum(workers.values())
        shares = ", ".join(
            f"{name} {count} ({100 * count / total:.0f}%)"
            for name, count in sorted(workers.items()))
        lines.append(f"  workers: {len(workers)} over TCP — {shares}")
    if not lines:
        lines.append("  (no scheduler runtime recorded yet)")
    return lines


def render_report(documents: list[Json]) -> str:
    """The full multi-section report for one or many kernels."""
    out: list[str] = ["campaign summary"]
    out.extend(summary_table(documents))
    for document in documents:
        kernel = document["kernel"]
        out.append("")
        out.append(f"[{kernel}] best-cost trajectory (Fig. 4)")
        job_id, ys = _best_trace(document)
        if ys:
            out.append(f"  {sparkline(ys)}")
            out.append(f"  chain {job_id}: cost {ys[0]} → {ys[-1]} "
                       f"over {len(document['chains'])} chains")
        else:
            out.append("  (no trace recorded yet)")
        out.append(f"[{kernel}] acceptance by move")
        out.extend(move_table(document))
        out.append(f"[{kernel}] testcases per proposal (Fig. 5)")
        out.extend(testcase_histogram(document))
        out.append(f"[{kernel}] scheduler")
        out.extend(occupancy_lines(document))
    return "\n".join(out)
