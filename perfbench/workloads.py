"""The benchmark's three workloads and the check of their outputs.

Every workload drives the public front door at ``jobs=1`` with the
shared config shape (ell=12, 16 testcases, 4 optimization restarts).
A workload *instance* is one search seed; a pass of a workload runs
each of its instances once, each session in a fresh interpreter.

One search seed's result, and with it its modeled speedup and proof
work, varies too much from seed to seed for a 25% bound. So every run
of a workload repeats a fixed core of instances, and ``--seed`` draws
a few more: one seed always gives the same inputs, a new seed still
runs searches no earlier run has seen, and the run-to-run spread
stays close to the machine's own noise.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: The config shape all workloads share.
SHARED_CONFIG = dict(ell=12, testcase_count=16, optimization_restarts=4)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the ``--workload`` name.
        kernels: suite kernels; more than one runs as one interleaved,
            checkpointed ``run_campaigns`` sweep, one runs through
            ``Session.run()``.
        synthesis_proposals / optimization_proposals / chains: chain
            budgets (``chains`` synthesis plus ``chains`` optimization
            chains per kernel).
        core: search seeds every run repeats.
        drawn: search seeds drawn from ``--seed`` per run.
        resumes: untraced resumes of each instance per pass.
    """

    name: str
    kernels: tuple[str, ...]
    synthesis_proposals: int
    optimization_proposals: int
    chains: int
    core: tuple[int, ...]
    drawn: int
    resumes: int

    @property
    def sweep(self) -> bool:
        return len(self.kernels) > 1

    def instance_seeds(self, seed: int) -> list[int]:
        """The search seeds one ``--seed`` stands for, in run order."""
        rng = random.Random(f"{self.name}/{seed}")
        return list(self.core) + [rng.randrange(1 << 31)
                                  for _ in range(self.drawn)]

    def config(self, instance_seed: int):
        from repro.api import SearchConfig
        return SearchConfig(
            seed=instance_seed,
            synthesis_proposals=self.synthesis_proposals,
            optimization_proposals=self.optimization_proposals,
            synthesis_chains=self.chains,
            optimization_chains=self.chains,
            **SHARED_CONFIG)


WORKLOADS = {workload.name: workload for workload in (
    # The MCMC inner loop: propose, lower, execute, score. Validation
    # is a few cheap p01 proofs and nothing is journaled but two chains.
    Workload("search-p01", ("p01",), synthesis_proposals=1000,
             optimization_proposals=2000, chains=1,
             core=tuple(range(101, 109)), drawn=2, resumes=2),
    # Few but expensive proofs: mont's 64-bit multiplies go through the
    # UF abstraction. Its proof cost is heavy-tailed across seeds (0 to
    # 90 s of SAT at this budget), so it draws no seeds: its core is two
    # seeds whose sessions took about 8 s, 70-75% of it in SAT, on a
    # 2-core x86 VM, and ``--seed`` varies only the output check. It is
    # left out of BENCHMARK.json: on that shared host its run-to-run
    # spread (0.25-0.29 of the median) did not fit a 25% bound.
    Workload("verify-mont", ("mont",), synthesis_proposals=200,
             optimization_proposals=1000, chains=1, core=(42, 48),
             drawn=0, resumes=1),
    # Many small jobs and many small proofs, interleaved over one pool
    # and checkpointed, then resumed: the engine's journal write path
    # (fresh run) beside its read path (resume). A resume takes a
    # quarter of a second, so each is repeated for a steady median.
    Workload("campaign-sweep", ("p01", "p03", "p06", "p14"),
             synthesis_proposals=60, optimization_proposals=60,
             chains=8, core=(101, 102), drawn=1, resumes=4),
)}


def output_mismatches(kernel: str, program, seed: int,
                      trials: int = 64) -> int:
    """Inputs on which ``program`` disagrees with the kernel's reference.

    Runs the program on the reference ``Emulator`` (not the compiled
    evaluator, not the validator: those are the code under test) from
    seeded random inputs and compares every live output with the
    kernel's independent Python reference.
    """
    from repro.emulator.cpu import Emulator
    from repro.emulator.sandbox import Sandbox
    from repro.emulator.state import MachineState
    from repro.suite.registry import benchmark
    bench = benchmark(kernel)
    rng = random.Random(f"check/{kernel}/{seed}")
    mismatches = 0
    for _ in range(trials):
        args = [rng.getrandbits(param.width) for param in bench.fn.params]
        expected = bench.reference(*args)
        if not isinstance(expected, tuple):
            expected = (expected,)
        state = MachineState()
        state.set_reg("rsp", 0x7FFF0000)
        for param, value in zip(bench.fn.params, args):
            state.set_reg(param.reg, value)
        Emulator(state, Sandbox.recorder()).run(program)
        got = tuple(state.get_reg(name) for name in bench.spec.live_out)
        mismatches += got != expected
    return mismatches


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))
