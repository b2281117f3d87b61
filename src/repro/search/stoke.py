"""The STOKE pipeline (Figure 9).

A target binary and annotations go in; testcases are generated by
instrumented execution; synthesis chains look for algorithmically
distinct equivalent programs; optimization chains refine the target and
every synthesized rewrite; the results are re-ranked by modeled runtime
and the best verified rewrite comes out.

Execution is delegated to :mod:`repro.engine` via
:class:`repro.api.session.Session`: every chain is an independent job,
so the pipeline can run across worker processes, stream progress
events, stop scheduling chains for a kernel once its ranking has
stabilized (adaptive budgets), and checkpoint/resume long campaigns —
all without changing the result a given configuration produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.search.config import SearchConfig
from repro.search.phases import PhaseResult
from repro.search.ranker import RankedRewrite
from repro.telemetry.chain import ChainTelemetry
from repro.telemetry.metrics import safe_rate
from repro.testgen.annotations import Annotations
from repro.testgen.testcase import Testcase
from repro.verifier.validator import LiveSpec, Validator
from repro.x86.program import Program

if TYPE_CHECKING:                              # avoid a circular import
    from repro.engine.campaign import EngineOptions


@dataclass
class StokeResult:
    """Everything the pipeline produced.

    Attributes:
        rewrite: the best verified rewrite (None if none was found —
            the target itself always remains a valid answer).
        verified: True when ``rewrite`` passed the sound validator.
        target_cycles / rewrite_cycles: modeled runtimes for reporting.
        synthesis / optimization: per-chain phase diagnostics.
        testcases: the final (possibly counterexample-refined) suite.
        seconds: wall-clock time of the whole run.
        chains_scheduled: chains the engine actually ran (synthesis
            plus optimization chain rounds).
        chains_saved: configured chains an adaptive budget skipped
            because the ranking had stabilized (0 under ``fixed``).
        chains_quarantined: chain jobs abandoned after exhausting
            their retry budget (0 on a healthy run); the campaign
            degrades gracefully, aggregating over the survivors.
        quarantined_jobs: the abandoned jobs' ids, sorted — always
            reported, never silently dropped.
    """

    target: Program
    rewrite: Program | None
    verified: bool
    target_cycles: int
    rewrite_cycles: int
    ranked: list[RankedRewrite] = field(default_factory=list)
    synthesis: list[PhaseResult] = field(default_factory=list)
    optimization: list[PhaseResult] = field(default_factory=list)
    testcases: list[Testcase] = field(default_factory=list)
    seconds: float = 0.0
    synthesis_seconds: float = 0.0
    optimization_seconds: float = 0.0
    chains_scheduled: int = 0
    chains_saved: int = 0
    chains_quarantined: int = 0
    quarantined_jobs: list[str] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """Modeled target/rewrite cycle ratio (>1 means improvement)."""
        if self.rewrite is None or self.rewrite_cycles == 0:
            return 1.0
        return self.target_cycles / self.rewrite_cycles

    @property
    def synthesis_succeeded(self) -> bool:
        return any(phase.verified for phase in self.synthesis)

    # -- inner-loop throughput (aggregated over every chain) -------------

    def _chain_totals(self) -> tuple[int, int, float]:
        proposals = testcases = 0
        seconds = 0.0
        for phase in self.synthesis + self.optimization:
            if phase.chain is None:
                continue
            stats = phase.chain.stats
            proposals += stats.proposals
            testcases += stats.testcases_evaluated
            seconds += stats.seconds
        return proposals, testcases, seconds

    @property
    def total_proposals(self) -> int:
        """Proposals evaluated across all chains of the run."""
        return self._chain_totals()[0]

    @property
    def proposals_per_second(self) -> float:
        """Aggregate inner-loop throughput (chain time, not wall).

        Finite even when every chain finished under the clock's
        resolution (``safe_rate`` clamps the denominator).
        """
        proposals, _testcases, seconds = self._chain_totals()
        return safe_rate(proposals, seconds)

    @property
    def testcases_per_proposal(self) -> float:
        """Mean testcases evaluated per proposal (Figure 5's y-axis)."""
        proposals, testcases, _seconds = self._chain_totals()
        return testcases / proposals if proposals else 0.0

    def merged_telemetry(self) -> ChainTelemetry:
        """Every chain's search telemetry absorbed into one aggregate
        (counters only: traces are per chain)."""
        merged = ChainTelemetry()
        for phase in self.synthesis + self.optimization:
            if phase.chain is not None:
                merged.absorb(phase.chain.stats)
        return merged


class Stoke:
    """Back-compat facade: the paper's pipeline with every default.

    A thin shim over :class:`repro.api.session.Session` pinned to the
    default cost spec (``correctness,latency``) and strategy
    (``mcmc``), so results are bit-identical to the pre-API pipeline.
    New code should use :class:`~repro.api.session.Session`, which
    additionally exposes the cost/strategy seams.
    """

    def __init__(self, target: Program, spec: LiveSpec,
                 annotations: Annotations | None = None, *,
                 config: SearchConfig | None = None,
                 validator: Validator | None = None,
                 engine: EngineOptions | None = None,
                 evaluator: str | None = None) -> None:
        self.target = target
        self.spec = spec
        self.annotations = annotations or Annotations()
        self.config = config or SearchConfig()
        self.validator = validator if validator is not None else Validator()
        self.engine = engine
        self.evaluator = evaluator

    def run(self) -> StokeResult:
        """Execute the full pipeline of Figure 9 as a campaign."""
        from repro.api.session import Session
        from repro.api.targets import Target
        session = Session(
            Target(program=self.target, spec=self.spec,
                   annotations=self.annotations),
            config=self.config, validator=self.validator,
            engine=self.engine, evaluator=self.evaluator)
        return session.run().stoke
