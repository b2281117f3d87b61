"""Property-based differential fuzzing: compiled vs reference evaluator.

The compiled fast path's admissibility rests on one property: for any
candidate the proposal distribution can produce, running it compiled
is bit-identical to running it on the reference emulator — same
registers, flags, memory, definedness, Eq. 11 event counters, and
therefore the same cost — whether it runs one testcase at a time or
over the whole suite packed into lanes. These tests state that
property over a *generated* program space (in the SpecFuzz spirit of
surfacing latent behaviors by fuzzing): random straight-line
candidates drawn through the move generator with fixed seeds, ~500
programs x 8 testcases per run, across kernels whose live specs cover
registers, flags, and memory. A lane run must match the reference in
every lane, and a cost function that runs lanes must return the same
costs and failure counts as one that never does, under the same Eq. 14
bounds.

The budget is an env knob so CI can wire the suite in cheaply::

    REPRO_FUZZ_PROGRAMS=120 pytest tests/emulator/test_compile_fuzz.py

Any failure is shrunk first (:func:`repro.minimize.shrink_failing`
against the divergence predicate), so a refuted property lands as a
*minimal* reproducible counterexample — in the assertion message, and,
when ``REPRO_FUZZ_ARTIFACTS`` names a directory, as an ``.s`` file CI
can upload.
"""

from __future__ import annotations

import hashlib
import os
import random
from pathlib import Path

import pytest

from repro.cost.correctness import CostWeights
from repro.cost.correctness import testcase_cost as eq_cost
from repro.cost.function import CostFunction, Phase
from repro.emulator.compile import COUNTERS, compile_program
from repro.emulator.cpu import Emulator
from repro.emulator.lanes import LaneSuite
from repro.emulator.state import MachineState
from repro.errors import EmulationError
from repro.minimize import shrink_failing
from repro.search.config import SearchConfig
from repro.search.moves import MoveGenerator
from repro.suite.registry import benchmark
from repro.testgen.generator import TestcaseGenerator

# ~500 programs by default; CI and quick local runs shrink the budget
# through the env var without touching the (fixed) seeds.
PROGRAM_BUDGET = max(10, int(os.environ.get("REPRO_FUZZ_PROGRAMS",
                                            "500")))
TESTCASE_COUNT = 8

# live specs that cover plain registers (p01), flag consumers (p12,
# p14), wider programs (p18), and memory in/out (saxpy)
FUZZ_KERNELS = ("p01", "p12", "p14", "p18", "saxpy")
PER_KERNEL = max(2, PROGRAM_BUDGET // len(FUZZ_KERNELS))


def _testcases(bench):
    generator = TestcaseGenerator(bench.o0, bench.spec,
                                  bench.annotations, seed=11)
    return generator.generate(TESTCASE_COUNT)


def _snapshot(state: MachineState) -> tuple:
    return (dict(state.regs), dict(state.reg_defined),
            dict(state.flags), dict(state.flag_defined),
            dict(state.memory),
            (state.events.sigsegv, state.events.sigfpe,
             state.events.undef))


def _divergence(prog, testcase) -> str | None:
    """The failure predicate: why compiled and reference disagree on
    this program + testcase, or None when they are bit-identical."""
    reference = testcase.initial_state()
    Emulator(reference, testcase.sandbox()).run(prog)
    compiled = testcase.initial_state()
    compile_program(prog).run(compiled, testcase.sandbox())
    if _snapshot(reference) != _snapshot(compiled):
        return "machine state diverged"
    weights = CostWeights()
    if eq_cost(reference, testcase, weights) != \
            eq_cost(compiled, testcase, weights):
        return "testcase cost diverged"
    return None


def _lane_divergence(prog, testcases) -> str | None:
    """Why a lane run of this program over the packed testcases
    disagrees with the reference in some lane, or None. A program the
    lanes cannot carry (a jump, lanes that disagree on an address or on
    a zero test) has nothing to compare."""
    lanes = LaneSuite.pack([tc.initial_state() for tc in testcases],
                           [tc.valid_addresses for tc in testcases])
    steps = compile_program(prog, lanes.layout).lane_steps(lanes.layout)
    packed = lanes.run(steps) if steps is not None else None
    if packed is None:
        return None
    for index, testcase in enumerate(testcases):
        reference = testcase.initial_state()
        Emulator(reference, testcase.sandbox()).run(prog)
        if _snapshot(lanes.lane(packed, index)) != _snapshot(reference):
            return f"lane {index} of {len(testcases)} diverged"
    return None


def _save_artifact(kernel, program, reason) -> str | None:
    """Drop the minimal repro where CI collects artifacts, if asked."""
    directory = os.environ.get("REPRO_FUZZ_ARTIFACTS")
    if not directory:
        return None
    text = str(program)
    digest = hashlib.sha1(text.encode()).hexdigest()[:12]
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    repro = path / f"fuzz_{kernel}_{digest}.s"
    repro.write_text(f"# {reason}\n{text}\n")
    return str(repro)


def _assert_bit_identical(kernel, prog, testcase) -> None:
    _assert_holds(kernel, prog,
                  lambda candidate: _divergence(candidate, testcase))


def _assert_holds(kernel, prog, divergence) -> None:
    """Fail with a minimal repro if ``divergence(prog)`` names one."""
    reason = divergence(prog)
    if reason is None:
        return

    def still_fails(candidate) -> bool:
        try:
            return divergence(candidate) is not None
        except EmulationError:
            return False          # a different bug is a different repro

    minimal = shrink_failing(prog.compact(), still_fails)
    saved = _save_artifact(kernel, minimal, reason)
    where = f" (saved to {saved})" if saved else ""
    pytest.fail(f"{kernel}: {reason}; minimal repro{where}:\n{minimal}")


def _fuzz_programs(bench, count, seed):
    """``count`` candidates: half fresh random programs, half one
    mutating proposal chain (shared instruction objects, warm caches)."""
    compacted = bench.o0.compact()
    config = SearchConfig(ell=max(8, len(compacted.code) + 4))
    rng = random.Random(seed)
    moves = MoveGenerator(bench.o0, config, rng)
    programs = [moves.random_program() for _ in range(count // 2)]
    prog = compacted.padded(config.ell)
    for _ in range(count - len(programs)):
        prog, _kind = moves.propose(prog)
        programs.append(prog)
    return programs


@pytest.mark.parametrize("kernel", FUZZ_KERNELS)
def test_generated_programs_bit_identical(kernel):
    """The headline property, per machine-state component and cost."""
    bench = benchmark(kernel)
    testcases = _testcases(bench)
    for prog in _fuzz_programs(bench, PER_KERNEL, seed=20260727):
        for testcase in testcases:
            _assert_bit_identical(kernel, prog, testcase)


@pytest.mark.parametrize("kernel", FUZZ_KERNELS)
def test_lane_runs_match_reference_and_one_lane_costs(kernel, monkeypatch):
    """The lane property, over the same generated candidates.

    Every lane of a packed run equals the reference emulator's run of
    its testcase. And one long-lived cost function that runs lanes
    scores the whole candidate stream exactly like one that runs every
    candidate one testcase at a time: same ``CostResult`` under the
    same random Eq. 14 bounds, same failure counters after every
    candidate (they order the next visit). The first candidate is
    scored again at the end, after every other candidate ran.
    """
    bench = benchmark(kernel)
    testcases = _testcases(bench)
    programs = _fuzz_programs(bench, PER_KERNEL, seed=7)
    for prog in programs:
        _assert_holds(kernel, prog,
                      lambda candidate: _lane_divergence(candidate,
                                                         testcases))
    lanes = CostFunction(testcases, bench.o0, phase=Phase.OPTIMIZATION)
    one_lane = CostFunction(testcases, bench.o0, phase=Phase.OPTIMIZATION)
    monkeypatch.setattr(one_lane, "_lane_suite", lambda: None)
    rng = random.Random(f"bounds/{kernel}")
    runs = COUNTERS.lane_runs
    for prog in programs + programs[:1]:
        bound = rng.choice((None, rng.randint(-8, 80)))
        assert lanes.evaluate(prog, bound) == \
            one_lane.evaluate(prog, bound), str(prog)
        assert lanes._fail_counts == one_lane._fail_counts, str(prog)
    assert COUNTERS.lane_runs > runs


def test_failure_path_shrinks_and_saves_a_minimal_repro(
        tmp_path, monkeypatch):
    """If the property ever breaks, the harness must hand back a
    *minimal* failing program — in the assertion message and as an
    ``.s`` artifact — not the raw move-generator noise."""
    from repro.x86.parser import parse_program
    bench = benchmark("p01")
    testcase = _testcases(bench)[0]
    noisy = parse_program("""
        movq rdi, rax
        addq 7, rax
        movq rax, rcx
        xorq rcx, rdx
    """)

    def synthetic_divergence(candidate, _testcase):
        families = {instr.opcode.family for instr in candidate.code}
        return "machine state diverged" if "add" in families else None

    monkeypatch.setitem(globals(), "_divergence", synthetic_divergence)
    monkeypatch.setenv("REPRO_FUZZ_ARTIFACTS", str(tmp_path))
    with pytest.raises(pytest.fail.Exception) as failure:
        _assert_bit_identical("p01", noisy, testcase)
    message = str(failure.value)
    assert "minimal repro" in message
    # the repro is the one offending instruction, immediate simplified
    artifacts = list(tmp_path.glob("fuzz_p01_*.s"))
    assert len(artifacts) == 1
    lines = artifacts[0].read_text().splitlines()
    assert lines[0].startswith("# machine state diverged")
    assert [line.strip() for line in lines[1:]] == ["addq 0, rax"]
    assert str(artifacts[0]) in message


def test_fuzz_seeds_are_deterministic():
    """The generator itself is a fixture: same seed, same programs —
    a failure here means a 'fixed-seed' fuzz run is not reproducible."""
    bench = benchmark("p14")
    first = [str(p) for p in _fuzz_programs(bench, 12, seed=3)]
    second = [str(p) for p in _fuzz_programs(bench, 12, seed=3)]
    assert first == second
