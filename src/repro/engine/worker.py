"""Chain-job execution: what runs inside each worker.

A worker rebuilds the search machinery from a :class:`CampaignContext`
and runs one phase over one chain. Every job gets its *own* cost
function seeded from the campaign's base testcase suite, so
counterexample refinement stays job-local and results depend only on
(context, job) — never on which process ran the job or in what order.
That independence is what makes every executor bit-identical to ``serial``
and lets the aggregator replay journaled results on resume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cost.function import CostFunction, Phase
from repro.cost.terms import CostSpec
from repro.engine import serialize
from repro.engine.jobs import ChainJob, JobResult, SYNTHESIS, result_to_json
from repro.engine.serialize import Json
from repro.errors import EngineError
from repro.search.config import SearchConfig
from repro.search.phases import OptimizationPhase, SynthesisPhase
from repro.search.strategies import StrategySpec
from repro.testgen.annotations import Annotations
from repro.testgen.generator import TestcaseGenerator
from repro.testgen.testcase import Testcase
from repro.verifier.validator import LiveSpec, Validator
from repro.x86.program import Program


@dataclass
class CampaignContext:
    """Everything a worker needs, shared by all jobs of a campaign.

    The cost function and search strategy travel as *specs* — registry
    keys, not instances — so every worker process rebuilds identical
    machinery from the same names and ``pool:n=N`` stays bit-identical
    to ``serial`` under any cost/strategy combination.

    The ``validator`` instance is used directly by the same-process
    executor; the process-pool executor reconstructs an equivalent
    ``Validator`` from its parameters on the far side, so a campaign
    that relies on a custom Validator subclass must run ``serial``.
    """

    target: Program
    spec: LiveSpec
    annotations: Annotations
    config: SearchConfig
    testcases: list[Testcase]
    validator: Validator | None
    cost: CostSpec = field(default_factory=CostSpec)
    strategy: StrategySpec = field(default_factory=StrategySpec)


def context_to_json(context: CampaignContext) -> Json:
    validator = context.validator
    return {
        "target": serialize.program_to_json(context.target),
        "spec": serialize.spec_to_json(context.spec),
        "annotations": serialize.annotations_to_json(context.annotations),
        "config": serialize.config_to_json(context.config),
        "testcases": [serialize.testcase_to_json(tc)
                      for tc in context.testcases],
        "validator": (None if validator is None else
                      {"uf_width": validator.uf_width,
                       "max_conflicts": validator.max_conflicts}),
        "cost": context.cost.spec_string(),
        "strategy": context.strategy.spec_string(),
    }


def context_from_json(data: Json) -> CampaignContext:
    params = data["validator"]
    return CampaignContext(
        target=serialize.program_from_json(data["target"]),
        spec=serialize.spec_from_json(data["spec"]),
        annotations=serialize.annotations_from_json(data["annotations"]),
        config=serialize.config_from_json(data["config"]),
        testcases=[serialize.testcase_from_json(tc)
                   for tc in data["testcases"]],
        validator=None if params is None else Validator(**params),
        cost=CostSpec.parse(data["cost"]),
        strategy=StrategySpec.parse(data["strategy"]),
    )


def _delta(before: Json, after: Json) -> Json:
    return {name: after[name] - start for name, start in before.items()}


def run_chain_job(context: CampaignContext, job: ChainJob) -> Json:
    """Run one chain and return its plain-JSON result payload."""
    from repro.emulator.compile import evaluator_counters
    config = context.config
    generator = TestcaseGenerator(context.target, context.spec,
                                  context.annotations, seed=config.seed)
    base_count = len(context.testcases)
    validator = context.validator
    counters_before = evaluator_counters()
    proofs_before = validator.counters() if validator is not None \
        else None
    synthesis = job.kind == SYNTHESIS
    cost_fn = CostFunction(
        context.testcases, context.target,
        phase=Phase.SYNTHESIS if synthesis else Phase.OPTIMIZATION,
        weights=config.weights, improved=config.improved_cost,
        terms=context.cost.instantiate())
    strategy = context.strategy.build()
    if synthesis:
        phase = SynthesisPhase(context.target, context.spec, cost_fn,
                               generator, context.validator, config,
                               strategy=strategy)
        outcome = phase.run(seed=job.seed)
    else:
        if job.start is None:
            raise EngineError(f"optimization job {job.job_id} "
                              "has no starting program")
        phase = OptimizationPhase(context.target, context.spec, cost_fn,
                                  generator, context.validator, config,
                                  strategy=strategy)
        outcome = phase.run(job.start, seed=job.seed)
    if outcome.chain is not None:
        # the counter deltas are this job's share of the process-global
        # evaluator caches and of the per-process validator memo;
        # nondeterministic across pool placements, so they file under
        # the chain's runtime section
        runtime = outcome.chain.stats.runtime
        runtime["evaluator"] = _delta(counters_before,
                                      evaluator_counters())
        if validator is not None:
            runtime["validator"] = _delta(proofs_before,
                                          validator.counters())
    result = JobResult(
        job_id=job.job_id,
        kind=job.kind,
        verified=list(outcome.verified),
        candidates=list(outcome.candidates),
        chain=outcome.chain,
        validations=outcome.validations,
        new_testcases=cost_fn.testcases[base_count:],
    )
    return result_to_json(result)
