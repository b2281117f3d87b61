"""Shared experiment runner: the code behind every figure's bench.

Budgets are deliberately configurable: the paper ran 30-minute budgets
on an 80-core cluster; this reproduction runs seconds-to-minutes on one
interpreter. Set ``REPRO_BUDGET=full`` for longer searches.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from repro.engine.campaign import (Campaign, CampaignResult,
                                   EngineOptions)
from repro.perfsim.model import actual_runtime
from repro.search.config import SearchConfig
from repro.suite.registry import Benchmark
from repro.verifier.validator import Validator


def budget_scale() -> float:
    """Proposal-budget multiplier from the REPRO_BUDGET env var."""
    setting = os.environ.get("REPRO_BUDGET", "small")
    return {"small": 1.0, "medium": 4.0, "full": 16.0}.get(setting, 1.0)


def search_config(bench: Benchmark, *, seed: int = 0,
                  synthesis: bool = False,
                  chains: int = 1) -> SearchConfig:
    """A practical configuration for one benchmark.

    beta is raised above the paper's 0.1 because this reproduction uses
    fewer testcases and a single chain (see EXPERIMENTS.md); ell tracks
    the target size instead of the paper's fixed 50 to keep proposal
    budgets laptop-sized.
    """
    scale = budget_scale()
    ell = min(50, max(8, len(bench.o0) + 4))
    # longer rewrites dilute per-instruction proposal density; grow the
    # budget with ell so large kernels get comparable coverage
    length_factor = min(3.0, max(1.0, ell / 12))
    proposals = int(30_000 * scale * length_factor)
    return SearchConfig(
        ell=ell,
        beta=1.0,
        seed=seed,
        synthesis_proposals=proposals,
        optimization_proposals=proposals,
        optimization_restarts=10,
        synthesis_chains=1 if synthesis else 0,
        optimization_chains=chains,
        testcase_count=16,
    )


def format_rate(value: float) -> str:
    """Proposals/second, formatted once for every report surface.

    The CLI summary, the per-kernel rows, and the ``--json`` payload
    (which uses ``round(value, 1)``) all agree on one decimal place, so
    the same run never shows two different throughput numbers.

    ``safe_rate`` clamps a sub-resolution elapsed time instead of
    dividing by zero, so a rate can be astronomically large (and a
    non-finite value from any other source must not crash a report):
    both render as a plain order-of-magnitude marker.
    """
    import math
    if not math.isfinite(value):
        return "inf"
    if value >= 1e9:
        return f">{1e9:,.0f}"
    return f"{value:,.1f}"


@dataclass
class BenchmarkOutcome:
    """Speedups over llvm -O0 for one kernel (a Figure 10 column)."""

    name: str
    o0_cycles: int
    gcc_speedup: float
    icc_speedup: float
    stoke_speedup: float
    stoke_verified: bool
    synthesis_seconds: float = 0.0
    optimization_seconds: float = 0.0
    synthesis_succeeded: bool = False
    proposals_per_second: float = 0.0
    testcases_per_proposal: float = 0.0
    chains_scheduled: int = 0
    chains_saved: int = 0
    chains_quarantined: int = 0

    def row(self) -> str:
        star = "*" if self.stoke_speedup > max(self.gcc_speedup,
                                               self.icc_speedup) else " "
        return (f"{self.name:>6}{star} o0=1.00x  "
                f"gcc={self.gcc_speedup:4.2f}x  "
                f"icc={self.icc_speedup:4.2f}x  "
                f"stoke={self.stoke_speedup:4.2f}x  "
                f"[{format_rate(self.proposals_per_second):>9} prop/s, "
                f"{self.testcases_per_proposal:4.2f} tc/prop]"
                f"{'' if self.stoke_verified else '  (unverified)'}")


def _campaign(bench: Benchmark, *, seed: int, synthesis: bool,
              chains: int, engine: EngineOptions | None) -> Campaign:
    """The campaign for one benchmark's O0 target, named after the
    kernel so progress events carry its name."""
    config = search_config(bench, seed=seed, synthesis=synthesis,
                           chains=chains)
    return Campaign(bench.o0, bench.spec, bench.annotations,
                    config=config, validator=Validator(),
                    options=engine, name=bench.name)


def run_stoke(bench: Benchmark, *, seed: int = 0,
              synthesis: bool = False,
              chains: int = 1,
              engine: EngineOptions | None = None) -> CampaignResult:
    """Run the full pipeline on one benchmark's O0 target: the
    one-kernel sweep."""
    return _campaign(bench, seed=seed, synthesis=synthesis,
                     chains=chains, engine=engine).run()


def _outcome(bench: Benchmark,
             result: CampaignResult) -> BenchmarkOutcome:
    """The Figure 10 column for one kernel's campaign result."""
    o0_cycles = actual_runtime(bench.o0.compact())
    gcc_cycles = actual_runtime(bench.gcc.compact())
    icc_cycles = actual_runtime(bench.icc.compact())
    stoke_cycles = result.rewrite_cycles
    return BenchmarkOutcome(
        name=bench.name,
        o0_cycles=o0_cycles,
        gcc_speedup=o0_cycles / gcc_cycles if gcc_cycles else 1.0,
        icc_speedup=o0_cycles / icc_cycles if icc_cycles else 1.0,
        stoke_speedup=o0_cycles / stoke_cycles if stoke_cycles else 1.0,
        stoke_verified=result.verified,
        synthesis_seconds=result.synthesis_seconds,
        optimization_seconds=result.optimization_seconds,
        synthesis_succeeded=result.synthesis_succeeded,
        proposals_per_second=result.proposals_per_second,
        testcases_per_proposal=result.testcases_per_proposal,
        chains_scheduled=result.chains_scheduled,
        chains_saved=result.chains_saved,
        chains_quarantined=result.chains_quarantined,
    )


def evaluate_benchmark(bench: Benchmark, *, seed: int = 0,
                       synthesis: bool = False,
                       chains: int = 1,
                       engine: EngineOptions | None = None) \
        -> BenchmarkOutcome:
    """Measure the Figure 10 column for one kernel: the one-kernel
    case of :func:`evaluate_campaign`."""
    return evaluate_campaign(
        [bench], seed=seed, synthesis=synthesis, chains=chains,
        engine_for=lambda _bench: engine or EngineOptions())[0]


def evaluate_campaign(benches: list[Benchmark], *, seed: int = 0,
                      synthesis: bool = False, chains: int = 1,
                      engine_for: Callable[[Benchmark],
                                           EngineOptions] | None = None) \
        -> list[BenchmarkOutcome]:
    """Measure many kernels as one interleaved, shared-pool campaign.

    The cross-kernel scheduler grants chain rounds round-robin across
    every kernel, so a ``pool:n=N`` executor stays saturated until the
    last kernel stops — per-kernel results are bit-identical to running
    :func:`evaluate_benchmark` kernel by kernel. Per-kernel seeds
    follow the sequential sweep's scheme (``seed + index``) so the two
    paths stay comparable; ``engine_for`` supplies each kernel's
    options (run directory, resume, budget) like the sequential loop
    would — for more than one kernel they must carry
    ``interleave=True``, since this *is* the interleaving scheduler
    and each kernel's manifest records that.
    """
    from repro.engine.sweep import run_campaigns
    engine_for = engine_for or (
        lambda bench: EngineOptions(interleave=True))
    results = run_campaigns([
        _campaign(bench, seed=seed + index, synthesis=synthesis,
                  chains=chains, engine=engine_for(bench))
        for index, bench in enumerate(benches)])
    return [_outcome(bench, result)
            for bench, result in zip(benches, results)]
