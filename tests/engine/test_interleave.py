"""Cross-kernel scheduler tests: the replay matrix and v4 resume.

The acceptance bar for interleaving: campaign results are bit-identical
across the ``serial``, ``pool:n=2`` and ``pool:n=4`` executors, across
every budget form, and across
interleave on/off — the scheduler may reorder *when* rounds run, never
*which* rounds exist or what they produce. The wallclock budget is the
one clock-driven rule, so its grant decisions are journaled and a
resume replays them instead of re-consulting the clock.
"""

import json

import pytest

from repro.engine.budget import BudgetSpec
from repro.engine.campaign import Campaign, EngineOptions
from repro.engine.events import KERNEL_GRANTED
from repro.engine.executor import ExecutorSpec
from repro.engine.sweep import run_campaigns
from repro.errors import EngineError
from repro.search.config import SearchConfig
from repro.suite.registry import benchmark
from repro.telemetry import deterministic_document, load_document
from repro.verifier.validator import Validator

KERNELS = ("p01", "p03")
BUDGETS = ("fixed", "adaptive:stable=2", "plateau:eps=1,stable=2",
           "wallclock:secs=3600")
# the matrix's executors; cells are keyed by their worker counts
EXECUTORS = ("serial", "pool:n=2", "pool:n=4")
WORKER_COUNTS = ("1", "2", "4")


def _campaigns(executor, budget, interleave, base_dir=None,
               resume=False):
    campaigns = []
    for index, name in enumerate(KERNELS):
        bench = benchmark(name)
        config = SearchConfig(ell=12, beta=1.0, seed=5 + index,
                              optimization_proposals=500,
                              optimization_restarts=3,
                              optimization_chains=3,
                              synthesis_chains=0,
                              testcase_count=4)
        run_dir = None if base_dir is None else base_dir / name
        options = EngineOptions(executor=executor, run_dir=run_dir,
                                resume=resume, budget=budget,
                                interleave=interleave)
        campaigns.append(Campaign(bench.o0, bench.spec,
                                  bench.annotations, config=config,
                                  validator=Validator(),
                                  options=options, name=name))
    return campaigns


def _key(result):
    return (tuple((str(r.program), r.cost, r.cycles)
                  for r in result.ranked),
            str(result.rewrite), result.rewrite_cycles,
            result.chains_scheduled, result.chains_saved)


_CACHE: dict = {}


def _run(executor, budget, interleave):
    """One sweep's per-kernel result keys, cached across the matrix.

    interleave=False is the *sequential* discipline — each campaign
    runs on its own, exactly the `engine campaign` loop — so the
    matrix really compares the two schedulers, not the flag."""
    cache_key = (executor, budget, interleave)
    if cache_key not in _CACHE:
        campaigns = _campaigns(executor, budget, interleave)
        if interleave:
            results = run_campaigns(campaigns)
        else:
            results = [campaign.run() for campaign in campaigns]
        _CACHE[cache_key] = [_key(result) for result in results]
    return _CACHE[cache_key]


# -- the fair-share rotation --------------------------------------------------

_GRANTS: list = []


def _granted():
    """The (kernel, chain) grants of one interleaved serial sweep of
    three kernels planning 3, 1 and 2 chains, in grant order."""
    if not _GRANTS:
        def listener(event):
            if event.event == KERNEL_GRANTED and event.data["granted"]:
                _GRANTS.append((event.kernel, event.data["chain"]))

        campaigns = []
        for index, (name, chains) in enumerate((("p01", 3), ("p03", 1),
                                                ("p06", 2))):
            bench = benchmark(name)
            config = SearchConfig(ell=12, beta=1.0, seed=5 + index,
                                  optimization_proposals=200,
                                  optimization_restarts=2,
                                  optimization_chains=chains,
                                  synthesis_chains=0,
                                  testcase_count=4)
            options = EngineOptions(budget="wallclock:secs=3600",
                                    interleave=True, progress=listener)
            campaigns.append(Campaign(bench.o0, bench.spec,
                                      bench.annotations, config=config,
                                      validator=Validator(),
                                      options=options, name=name))
        run_campaigns(campaigns)
    return _GRANTS


def test_interleave_rounds_is_fair_share():
    """The sweep driver grants one round per still-running kernel per
    pass, in sweep order; a kernel out of rounds leaves the rotation."""
    assert _granted() == [("p01", 0), ("p03", 0), ("p06", 0),
                          ("p01", 1), ("p06", 1), ("p01", 2)]


def test_interleave_rounds_preserves_per_kernel_order():
    """Interleaving reorders grants across kernels, never a kernel's
    own chains: each kernel's rounds are granted in plan order."""
    grants = _granted()
    for name, chains in (("p01", 3), ("p03", 1), ("p06", 2)):
        assert [chain for kernel, chain in grants if kernel == name] == \
            list(range(chains))


# -- the replay matrix --------------------------------------------------------

@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("executor", EXECUTORS, ids=WORKER_COUNTS)
@pytest.mark.parametrize("interleave", [False, True])
def test_campaigns_bit_identical_across_the_matrix(budget, executor,
                                                   interleave):
    """executor x budget x interleave: all equal the serial baseline."""
    assert _run(executor, budget, interleave) == \
        _run("serial", budget, False)


def test_wallclock_high_deadline_matches_fixed():
    """A deadline that never trips must not change a single bit."""
    assert _run("serial", "wallclock:secs=3600", True) == \
        _run("serial", "fixed", False)


def test_metrics_documents_bit_identical_across_jobs(tmp_path):
    """The telemetry invariant: the deterministic slice of every
    kernel's metrics document is byte-for-byte identical at any worker
    count — only the ``runtime`` sections may differ."""
    fingerprints = {}
    for executor, count in zip(EXECUTORS, WORKER_COUNTS):
        base = tmp_path / f"workers{count}"
        run_campaigns(_campaigns(executor, "fixed", True, base_dir=base))
        fingerprints[executor] = [
            json.dumps(deterministic_document(
                load_document(base / name)), sort_keys=True)
            for name in KERNELS]
    assert fingerprints["pool:n=2"] == fingerprints["serial"]
    assert fingerprints["pool:n=4"] == fingerprints["serial"]
    # the full document carries what determinism cannot: wall-clock
    # runtime and the campaign's scheduler occupancy/latency sections
    document = load_document(tmp_path / "workers1" / KERNELS[0])
    assert document["complete"] is True
    assert "seconds" in document["runtime"]
    assert "occupancy" in document["runtime"]


# -- resume from a v4 checkpoint ----------------------------------------------

def test_resume_mid_campaign_from_v4_checkpoint(tmp_path):
    full = run_campaigns(_campaigns("pool:n=2", "adaptive:stable=2", True,
                                    base_dir=tmp_path))
    # simulate a kill: one kernel loses its last journaled chain, the
    # other a torn trailing line
    for name, keep in (("p01", -1), ("p03", -1)):
        journal = tmp_path / name / "jobs.jsonl"
        lines = journal.read_text().splitlines()
        assert len(lines) >= 2
        torn = lines[keep][:25] if name == "p03" else ""
        journal.write_text("\n".join(lines[:keep]) +
                           ("\n" + torn if torn else "\n"))
    resumed = run_campaigns(_campaigns("pool:n=2", "adaptive:stable=2", True,
                                       base_dir=tmp_path, resume=True))
    assert [_key(r) for r in resumed] == [_key(r) for r in full]


def test_resume_rejects_changed_interleave_policy(tmp_path):
    run_campaigns(_campaigns("serial", "fixed", True, base_dir=tmp_path))
    # resuming a roundrobin-recorded kernel through the sequential
    # path must be rejected by its manifest
    sequential = _campaigns("serial", "fixed", False, base_dir=tmp_path,
                            resume=True)
    with pytest.raises(EngineError, match="differs in interleave"):
        sequential[0].run()


def test_resume_rejects_changed_budget_spec(tmp_path):
    run_campaigns(_campaigns("serial", "plateau:eps=1,stable=2", True,
                             base_dir=tmp_path))
    with pytest.raises(EngineError, match="differs in budget"):
        run_campaigns(_campaigns("serial", "plateau:eps=2,stable=2", True,
                                 base_dir=tmp_path, resume=True))


# -- wallclock grants are journaled, not re-decided ---------------------------

class Ticker:
    """A deterministic clock: every look costs one second."""

    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        self.now += 1.0
        return self.now


def test_wallclock_denies_grants_at_the_deadline(tmp_path):
    campaigns = _campaigns("serial", "wallclock:secs=8", True,
                           base_dir=tmp_path)
    results = run_campaigns(campaigns, clock=Ticker())
    saved = sum(result.chains_saved for result in results)
    scheduled = sum(result.chains_scheduled for result in results)
    assert saved > 0                    # the deadline bit
    assert scheduled > 0                # but not before work was done
    grants = (tmp_path / "p01" / "grants.jsonl").read_text()
    assert '"granted": true' in grants or '"granted": false' in grants


def test_wallclock_resume_replays_grants_not_the_clock(tmp_path):
    """A resumed run far past the deadline must re-run the chains the
    journal granted — the decisions, not the clock, are authoritative."""
    full = run_campaigns(_campaigns("serial", "wallclock:secs=8", True,
                                    base_dir=tmp_path),
                         clock=Ticker())
    # drop the last journaled chain of the first kernel that ran any
    for name in KERNELS:
        journal = tmp_path / name / "jobs.jsonl"
        lines = journal.read_text().splitlines()
        if len(lines) > 1:
            journal.write_text("\n".join(lines[:-1]) + "\n")
            break
    resumed = run_campaigns(_campaigns("serial", "wallclock:secs=8", True,
                                       base_dir=tmp_path, resume=True),
                            clock=Ticker(start=1e9))
    assert [_key(r) for r in resumed] == [_key(r) for r in full]


def test_sweep_rejects_mismatched_worker_counts():
    campaigns = _campaigns("serial", "fixed", True)
    object.__setattr__(campaigns[1].options, "executor",
                       ExecutorSpec.parse("pool:n=2"))
    with pytest.raises(EngineError, match="share an executor"):
        run_campaigns(campaigns)


def test_multi_kernel_sweep_requires_the_interleave_policy():
    """Interleaving campaigns whose manifests would say 'none' is the
    silent-policy-switch the v4 fingerprint exists to reject."""
    with pytest.raises(EngineError, match="interleave=True"):
        run_campaigns(_campaigns("serial", "fixed", False))
    # a single campaign is trivially both policies; either flag runs
    solo = _campaigns("serial", "fixed", False)[:1]
    assert run_campaigns(solo)[0].chains_scheduled == 3


def test_sweep_rejects_duplicate_kernel_names():
    campaigns = _campaigns("serial", "fixed", True)
    campaigns[1].name = campaigns[0].name
    with pytest.raises(EngineError, match="duplicate kernel names"):
        run_campaigns(campaigns)


def test_sweep_rejects_shared_run_directories(tmp_path):
    """Job ids are kernel-agnostic, so one shared journal would fuse
    both kernels' records and poison a later resume."""
    campaigns = _campaigns("serial", "fixed", True)
    for campaign in campaigns:
        object.__setattr__(campaign.options, "run_dir",
                           tmp_path / "shared")
    with pytest.raises(EngineError, match="share a run directory"):
        run_campaigns(campaigns)


def test_budget_spec_travels_through_options():
    options = EngineOptions(budget="plateau:eps=0.5,stable=3")
    assert isinstance(options.budget, BudgetSpec)
    assert options.budget.spec_string() == "plateau:eps=0.5,stable=3"
    assert options.interleave_policy == "none"
    assert EngineOptions(interleave=True).interleave_policy == \
        "roundrobin"
