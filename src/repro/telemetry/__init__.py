"""Search telemetry: deterministic metrics, per-chain diagnostics,
and run-directory analytics.

The subsystem has three layers, bottom-up:

* :mod:`repro.telemetry.metrics` — fixed-bucket histograms and
  deterministically-downsampled series; every merge is bit-identical
  at any worker count.
* :mod:`repro.telemetry.chain` — :class:`ChainTelemetry`, what one
  MCMC chain records about itself (per-move acceptance, cost deltas,
  the Fig. 4 cost trace, the Fig. 5 testcases histogram) plus an
  explicitly nondeterministic ``runtime`` section.
* :mod:`repro.telemetry.journal` / :mod:`repro.telemetry.report` —
  the ``metrics.jsonl`` journal, the merged metrics document, and the
  ``repro engine report`` renderer.

See ``docs/TELEMETRY.md`` for the schema and usage.
"""

from repro.telemetry.chain import ChainTelemetry
from repro.telemetry.journal import (METRICS_VERSION, MetricsLog,
                                     RECORD_CAMPAIGN, RECORD_CHAIN,
                                     RECORD_MINIMIZE,
                                     deterministic_document,
                                     iter_metrics, metrics_document,
                                     read_metrics)
from repro.telemetry.metrics import (Histogram, Series, TelemetryError,
                                     safe_rate)
from repro.telemetry.report import (discover_run_dirs, load_document,
                                    render_report, sparkline)

__all__ = ["ChainTelemetry", "Histogram",
           "METRICS_VERSION", "MetricsLog", "RECORD_CAMPAIGN",
           "RECORD_CHAIN", "RECORD_MINIMIZE", "Series",
           "TelemetryError", "deterministic_document",
           "discover_run_dirs", "iter_metrics", "load_document",
           "metrics_document", "read_metrics", "render_report",
           "safe_rate", "sparkline"]
