"""The executor contract, pinned against every executor at once.

Four implementations stand behind the sweep driver's
submit/next_result protocol: :class:`SerialExecutor`,
:class:`ProcessPoolExecutor`, :class:`FaultInjectingExecutor` (over
any inner), and :class:`RemoteExecutor` (loopback TCP workers). The
driver cannot tell them apart — which is only true as long as they
agree on the edge cases. This suite runs the same assertions against
all four:

* ``next_result`` with nothing submitted (or everything delivered)
  raises ``EngineError("next_result with no submitted jobs")`` at any
  timeout — calling it is a scheduler bug, not a condition to wait out;
* every submitted job is delivered exactly once, with a payload
  bit-identical to running the chain in-process;
* a finite timeout with no delivery ready raises
  :class:`JobTimeoutError`; ``timeout=None`` blocks until delivery;
* ``close()`` and ``terminate()`` are idempotent, in either order;
* an injected duplicate is a bonus delivery of an equal payload.
"""

import json
import threading

import pytest

from repro.engine.executor import (ExecutorSpec, ProcessPoolExecutor,
                                   SerialExecutor, make_executor)
from repro.engine.faults import FaultInjectingExecutor, FaultPlan
from repro.engine.jobs import ChainJob
from repro.engine.remote import RemoteExecutor, run_worker
from repro.engine.worker import CampaignContext, run_chain_job
from repro.errors import (EngineError, JobTimeoutError, TransportError)
from repro.search.config import SearchConfig
from repro.suite.registry import benchmark
from repro.testgen.generator import TestcaseGenerator
from repro.verifier.validator import Validator

KERNELS = ("p01", "p03")


def _context(name, index):
    bench = benchmark(name)
    config = SearchConfig(ell=12, beta=1.0, seed=5 + index,
                          optimization_proposals=120,
                          optimization_restarts=2,
                          optimization_chains=2,
                          synthesis_chains=0,
                          testcase_count=4)
    generator = TestcaseGenerator(bench.o0, bench.spec,
                                  bench.annotations, seed=config.seed)
    return CampaignContext(
        target=bench.o0, spec=bench.spec, annotations=bench.annotations,
        config=config, testcases=generator.generate(4),
        validator=Validator())


def _contexts():
    return {name: _context(name, index)
            for index, name in enumerate(KERNELS)}


def _jobs(context, count=2):
    return [ChainJob(job_id=f"opt-c{chain:03d}-s000",
                     kind="optimization",
                     seed=context.config.seed + chain,
                     start=context.target)
            for chain in range(count)]


def _canonical(payload):
    """Bit-identity modulo transport, on the deterministic sections.

    A chain's wall-clock seconds and its evaluator-cache deltas are
    runtime state — the telemetry document files them under the
    nondeterministic runtime section for exactly this reason — so the
    contract scrubs them and pins everything else to the byte.
    """
    payload = json.loads(json.dumps(payload, sort_keys=True))
    chain = payload.get("chain")
    if isinstance(chain, dict):
        if isinstance(chain.get("telemetry"), dict):
            chain["telemetry"].pop("runtime", None)
    return json.dumps(payload, sort_keys=True)


@pytest.fixture(scope="module")
def reference():
    """(kernel, job_id) -> canonical payload, computed in-process."""
    payloads = {}
    for name, context in _contexts().items():
        for job in _jobs(context):
            payloads[name, job.job_id] = _canonical(
                run_chain_job(context, job))
    return payloads


def _worker_thread(address):
    def main():
        try:
            run_worker(*address, heartbeat=0.5)
        except TransportError:
            pass                 # coordinator torn down under us
    thread = threading.Thread(target=main, daemon=True)
    thread.start()
    return thread


def _serial(contexts):
    return SerialExecutor(contexts)


def _pool(contexts):
    return ProcessPoolExecutor(contexts, jobs=2)


def _fault_wrapped(contexts):
    # an inactive plan: the wrapper must be protocol-invisible
    return FaultInjectingExecutor(SerialExecutor(contexts), FaultPlan())


def _remote(contexts):
    executor = RemoteExecutor(contexts)
    for _ in range(2):
        _worker_thread(executor.address)
    return executor


FACTORIES = [
    pytest.param(_serial, id="serial"),
    pytest.param(_pool, id="pool"),
    pytest.param(_fault_wrapped, id="fault-wrapped"),
    pytest.param(_remote, id="remote"),
]


# -- the no-jobs guard --------------------------------------------------------

@pytest.mark.parametrize("factory", FACTORIES)
@pytest.mark.parametrize("timeout", [None, 0.1])
def test_next_result_with_nothing_submitted_raises(factory, timeout):
    executor = factory(_contexts())
    try:
        with pytest.raises(EngineError, match="no submitted jobs"):
            executor.next_result(timeout=timeout)
    finally:
        executor.terminate()


# -- exactly-once delivery, bit-identical payloads ----------------------------

@pytest.mark.parametrize("factory", FACTORIES)
def test_every_job_is_delivered_once_bit_identical(factory, reference):
    contexts = _contexts()
    executor = factory(contexts)
    try:
        total = 0
        for name, context in contexts.items():
            total += executor.submit(name, _jobs(context))
        assert total == len(reference)
        delivered = {}
        for _ in range(total):
            kernel, payload = executor.next_result(timeout=120.0)
            key = (kernel, payload["job_id"])
            assert key not in delivered, f"{key} delivered twice"
            delivered[key] = _canonical(payload)
        assert delivered == reference
        # the pool is drained: asking again is the scheduler-bug error
        # again, not a hang — on every executor, at every timeout
        with pytest.raises(EngineError, match="no submitted jobs"):
            executor.next_result(timeout=0.1)
        with pytest.raises(EngineError, match="no submitted jobs"):
            executor.next_result(timeout=None)
    finally:
        executor.close()


@pytest.mark.parametrize("factory", FACTORIES)
def test_resubmitting_after_drain_works(factory, reference):
    """submit() may be called repeatedly (incremental budgets do)."""
    contexts = _contexts()
    executor = factory(contexts)
    try:
        context = contexts["p01"]
        for job in _jobs(context):
            executor.submit("p01", [job])
            kernel, payload = executor.next_result(timeout=120.0)
            assert kernel == "p01"
            assert _canonical(payload) == \
                reference["p01", payload["job_id"]]
    finally:
        executor.close()


# -- timeout semantics --------------------------------------------------------

def test_finite_timeout_raises_job_timeout_on_every_async_executor():
    contexts = _contexts()
    job = _jobs(contexts["p01"], count=1)
    # a remote executor with no workers: nothing can ever arrive
    remote = RemoteExecutor(contexts)
    try:
        remote.submit("p01", job)
        with pytest.raises(JobTimeoutError,
                           match="no job result within 0.2s"):
            remote.next_result(timeout=0.2)
    finally:
        remote.terminate()
    # a stalled attempt behind the fault wrapper: same outcome
    plan = None
    for seed in range(500):
        candidate = FaultPlan(seed=seed, stall=0.5)
        if candidate.roll(job[0].job_id, 0)[0] == "stall":
            plan = candidate
            break
    assert plan is not None
    stalled = FaultInjectingExecutor(SerialExecutor(contexts), plan)
    try:
        stalled.submit("p01", job)
        with pytest.raises(JobTimeoutError):
            stalled.next_result(timeout=0.05)
    finally:
        stalled.terminate()


@pytest.mark.parametrize("factory", FACTORIES)
def test_timeout_none_blocks_until_delivery(factory, reference):
    """timeout=None must wait for a genuinely in-flight job, however
    it is executed, and hand back its payload."""
    contexts = _contexts()
    executor = factory(contexts)
    try:
        job = _jobs(contexts["p03"], count=1)
        executor.submit("p03", job)
        kernel, payload = executor.next_result(timeout=None)
        assert kernel == "p03"
        assert _canonical(payload) == reference["p03", job[0].job_id]
    finally:
        executor.close()


# -- shutdown -----------------------------------------------------------------

@pytest.mark.parametrize("factory", FACTORIES)
@pytest.mark.parametrize("first,second", [("close", "terminate"),
                                          ("terminate", "close"),
                                          ("close", "close"),
                                          ("terminate", "terminate")])
def test_shutdown_is_idempotent_in_either_order(factory, first, second):
    executor = factory(_contexts())
    getattr(executor, first)()
    getattr(executor, second)()      # must be a no-op, never an error


@pytest.mark.parametrize("factory", FACTORIES)
def test_submit_and_next_result_after_drain_then_shutdown(factory):
    """Shutdown after normal use — the driver's actual lifecycle."""
    contexts = _contexts()
    executor = factory(contexts)
    executor.submit("p01", _jobs(contexts["p01"], count=1))
    executor.next_result(timeout=120.0)
    executor.close()
    executor.terminate()


# -- duplicate delivery -------------------------------------------------------

@pytest.mark.parametrize("inner_factory",
                         [pytest.param(_serial, id="over-serial"),
                          pytest.param(_remote, id="over-remote")])
def test_certain_duplicates_deliver_the_same_payload_twice(
        inner_factory, reference):
    """dup=1.0 over a real inner executor (including real sockets):
    the duplicate is an equal bonus delivery, counted by the driver's
    first-wins dedup — and never an extra attempt."""
    contexts = _contexts()
    executor = FaultInjectingExecutor(inner_factory(contexts),
                                      FaultPlan(dup=1.0))
    try:
        jobs = _jobs(contexts["p01"])
        executor.submit("p01", jobs)
        seen: dict[str, list[str]] = {}
        for _ in range(2 * len(jobs)):
            kernel, payload = executor.next_result(timeout=120.0)
            assert kernel == "p01"
            seen.setdefault(payload["job_id"], []).append(
                _canonical(payload))
        for job in jobs:
            copies = seen[job.job_id]
            assert len(copies) == 2
            assert copies[0] == copies[1] == \
                reference["p01", job.job_id]
        with pytest.raises(EngineError, match="no submitted jobs"):
            executor.next_result(timeout=0.1)
    finally:
        executor.close()


# -- make_executor selection --------------------------------------------------

def test_make_executor_selects_by_jobs_and_workers():
    contexts = {}
    serial = make_executor(contexts, ExecutorSpec.parse("serial"))
    assert isinstance(serial, SerialExecutor)
    pool = make_executor(contexts, ExecutorSpec.parse("pool:n=3"))
    assert isinstance(pool, ProcessPoolExecutor) and pool.jobs == 3
    remote = make_executor(contexts, ExecutorSpec.parse("tcp:spawn=2"))
    assert isinstance(remote, RemoteExecutor) and remote._spawn == 2
    remote.terminate()
