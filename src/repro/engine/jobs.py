"""Job and result records: the unit of work the engine schedules.

A :class:`ChainJob` names one independent MCMC chain — a synthesis
chain, or an optimization chain over one starting program — with a
deterministic seed. A :class:`JobResult` is everything the chain
produced, decoded from the plain-JSON payload a worker (or the
checkpoint journal) hands back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine import serialize
from repro.engine.serialize import Json
from repro.search.mcmc import ChainResult
from repro.search.phases import PhaseResult
from repro.testgen.testcase import Testcase
from repro.x86.program import Program

SYNTHESIS = "synthesis"
OPTIMIZATION = "optimization"


@dataclass(frozen=True)
class ChainJob:
    """One schedulable chain.

    Attributes:
        job_id: stable identifier, also the checkpoint journal key.
        kind: SYNTHESIS or OPTIMIZATION.
        seed: RNG seed for the chain (mirrors the serial pipeline's
            seeding scheme so campaigns are reproducible).
        start: starting program for optimization chains; None for
            synthesis chains, which start from a random program.
    """

    job_id: str
    kind: str
    seed: int
    start: Program | None = None


def job_to_json(job: ChainJob) -> Json:
    return {
        "job_id": job.job_id,
        "kind": job.kind,
        "seed": job.seed,
        "start": (None if job.start is None
                  else serialize.program_to_json(job.start)),
    }


def job_from_json(data: Json) -> ChainJob:
    return ChainJob(
        job_id=data["job_id"],
        kind=data["kind"],
        seed=data["seed"],
        start=(None if data["start"] is None
               else serialize.program_from_json(data["start"])),
    )


@dataclass
class JobResult:
    """Decoded outcome of one chain job.

    Attributes:
        verified: programs proven equivalent by the job's validator.
        candidates: zero-test-cost rewrites that were not validated,
            with their job-local costs (diagnostics only).
        chain: merged chain diagnostics.
        validations: validator calls the job made.
        new_testcases: counterexample testcases discovered by the job's
            refinement loop; the aggregator merges these into the
            campaign-wide suite.
    """

    job_id: str
    kind: str
    verified: list[Program] = field(default_factory=list)
    candidates: list[tuple[int, Program]] = field(default_factory=list)
    chain: ChainResult | None = None
    validations: int = 0
    new_testcases: list[Testcase] = field(default_factory=list)

    def phase_result(self) -> PhaseResult:
        """This job's view as one phase of a :class:`CampaignResult`."""
        return PhaseResult(verified=list(self.verified),
                           candidates=list(self.candidates),
                           chain=self.chain,
                           validations=self.validations)


_RESULT_FIELDS = ("job_id", "kind", "verified", "candidates", "chain",
                  "validations", "new_testcases")


def payload_problem(payload: Json) -> str | None:
    """Why a result payload is structurally unusable, or None if fine.

    This is the corruption gate the recovery layer applies before a
    payload can complete a job: a damaged payload (a fault-injected
    one, or a torn/bit-rotted journal record that still parsed as
    JSON) is detected here and the job retried, instead of crashing
    the decoder mid-aggregation.
    """
    if not isinstance(payload, dict):
        return f"payload is {type(payload).__name__}, not an object"
    missing = [name for name in _RESULT_FIELDS if name not in payload]
    if missing:
        return f"payload missing fields: {', '.join(missing)}"
    if not isinstance(payload["job_id"], str) or not payload["job_id"]:
        return "payload job_id is not a non-empty string"
    if payload["kind"] not in (SYNTHESIS, OPTIMIZATION):
        return f"payload kind {payload['kind']!r} is not a job kind"
    return None


def result_to_json(result: JobResult) -> Json:
    return {
        "job_id": result.job_id,
        "kind": result.kind,
        "verified": [serialize.program_to_json(prog)
                     for prog in result.verified],
        "candidates": [[cost, serialize.program_to_json(prog)]
                       for cost, prog in result.candidates],
        "chain": serialize.chain_to_json(result.chain),
        "validations": result.validations,
        "new_testcases": [serialize.testcase_to_json(tc)
                          for tc in result.new_testcases],
    }


def result_from_json(data: Json) -> JobResult:
    serialize.require_fields(data, _RESULT_FIELDS, "job result")
    return JobResult(
        job_id=data["job_id"],
        kind=data["kind"],
        verified=[serialize.program_from_json(prog)
                  for prog in data["verified"]],
        candidates=[(cost, serialize.program_from_json(prog))
                    for cost, prog in data["candidates"]],
        chain=serialize.chain_from_json(data["chain"]),
        validations=data["validations"],
        new_testcases=[serialize.testcase_from_json(tc)
                       for tc in data["new_testcases"]],
    )
