"""The fixed-point minimize driver: shrink, re-verify, refine.

:class:`Minimizer` applies registered shrink passes to a rewrite until
none yields an acceptable candidate. A candidate is accepted only when

1. it is strictly simpler than the current program under
   :func:`~repro.minimize.passes.program_measure` (termination), and
2. it survives the cheap emulator prefilter over the testcase suite, and
3. the symbolic validator proves it equivalent to the *target* — every
   accepted step is re-verified; there is no trust chain through
   intermediate programs.

Refuted candidates are not wasted: the validator's concrete
counterexample is packaged as a :class:`~repro.testgen.testcase.Testcase`
(the paper's Eq. 12 refinement) and appended to the suite, so the
prefilter — and any search that later reuses the suite — gets harder to
fool with every refutation. That per-run loop is the CEGIS layer; the
cross-run flywheel (persisting those testcases per kernel) lives in
:mod:`repro.minimize.cegis`.

The driver is a pure function of (target, spec, rewrite, testcases,
pass selection): it runs in the orchestrating process, consults no
clock and no worker pool, so its output is bit-identical on any
``--executor`` by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.emulator.cpu import Emulator
from repro.errors import EmulationError, MinimizeError
from repro.minimize.passes import get_pass, program_measure
from repro.minimize.spec import MinimizeSpec
from repro.testgen.annotations import Annotations
from repro.testgen.generator import TestcaseGenerator
from repro.testgen.suite import append_unique
from repro.testgen.testcase import Testcase
from repro.verifier.validator import LiveSpec, Validator
from repro.x86.program import Program


@dataclass
class MinimizeResult:
    """Everything one minimization run produced.

    The deterministic fields are a pure function of the inputs;
    ``seconds`` is wall-clock and therefore reported under a separate
    ``runtime`` section in :meth:`to_json`, matching the telemetry
    journal's deterministic/nondeterministic split.
    """

    program: Program
    original: Program
    verified: bool
    measure_before: int
    measure_after: int
    attempts: int = 0
    prefilter_rejects: int = 0
    verify_calls: int = 0
    refuted: int = 0
    accepted: dict[str, int] = field(default_factory=dict)
    cegis_testcases: list[Testcase] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def instructions_removed(self) -> int:
        return (self.original.instruction_count -
                self.program.instruction_count)

    @property
    def shrunk(self) -> bool:
        return self.measure_after < self.measure_before

    @classmethod
    def from_json(cls, telemetry: dict[str, Any], *, program: Program,
                  original: Program,
                  cegis_testcases: list[Testcase]) -> "MinimizeResult":
        """The result whose :meth:`to_json` was ``telemetry``, rebuilt
        from a journal with the programs and counterexamples it names."""
        return cls(program=program, original=original,
                   verified=telemetry["verified"],
                   measure_before=telemetry["measure_before"],
                   measure_after=telemetry["measure_after"],
                   attempts=telemetry["attempts"],
                   prefilter_rejects=telemetry["prefilter_rejects"],
                   verify_calls=telemetry["verify_calls"],
                   refuted=telemetry["refuted"],
                   accepted=dict(telemetry["accepted"]),
                   cegis_testcases=cegis_testcases,
                   seconds=telemetry["runtime"]["seconds"])

    def to_json(self) -> dict[str, Any]:
        """Pass-level telemetry, journal- and report-ready."""
        return {
            "verified": self.verified,
            "instructions_before": self.original.instruction_count,
            "instructions_after": self.program.instruction_count,
            "instructions_removed": self.instructions_removed,
            "measure_before": self.measure_before,
            "measure_after": self.measure_after,
            "attempts": self.attempts,
            "prefilter_rejects": self.prefilter_rejects,
            "verify_calls": self.verify_calls,
            "refuted": self.refuted,
            "accepted": dict(sorted(self.accepted.items())),
            "cegis_testcases": len(self.cegis_testcases),
            "runtime": {"seconds": round(self.seconds, 3)},
        }


class Minimizer:
    """Shrinks verified rewrites against one target.

    Args:
        target: the program the rewrite must stay equivalent to.
        spec: the live-in/live-out equality judgment.
        annotations: input hints for counterexample packaging; defaults
            to none (counterexample inputs come from the SAT model, not
            from sampling, so annotations rarely matter here).
        validator: the sound validator; a fresh default one if omitted.
            Minimization without a validator would be unsound, so there
            is no ``None`` escape hatch.
        spec_passes: pass selection (:class:`MinimizeSpec`, its string
            form, or None for the full default pipeline).
    """

    def __init__(self, target: Program, spec: LiveSpec,
                 annotations: Annotations | None = None, *,
                 validator: Validator | None = None,
                 spec_passes: "MinimizeSpec | str | None" = None) -> None:
        self.target = target
        self.spec = spec
        self.annotations = annotations or Annotations()
        self.validator = validator or Validator()
        self.passes = MinimizeSpec.parse(spec_passes)
        self.generator = TestcaseGenerator(target, spec,
                                           self.annotations)

    def minimize(self, rewrite: Program, *,
                 testcases: Sequence[Testcase] = ()) -> MinimizeResult:
        """Shrink ``rewrite`` to a fixed point of the pass pipeline.

        The input itself is verified first — minimizing a rewrite that
        is not equivalent to the target raises :class:`MinimizeError`
        rather than producing a small wrong program.

        Raises:
            MinimizeError: the input rewrite is not equivalent.
        """
        start = time.perf_counter()
        suite = list(testcases)
        result = MinimizeResult(
            program=rewrite, original=rewrite, verified=False,
            measure_before=program_measure(rewrite),
            measure_after=program_measure(rewrite))
        result.verify_calls += 1
        entry = self.validator.prove(self.target, rewrite, self.spec)
        if not entry.equivalent:
            self._refine(entry.counterexample, suite, result)
            result.seconds = time.perf_counter() - start
            raise MinimizeError(
                "rewrite is not equivalent to the target; refusing to "
                "minimize an unverified program")
        result.verified = True
        current = rewrite
        progressed = True
        while progressed:
            progressed = False
            for name in self.passes.passes:
                accepted = self._run_pass(name, current, suite, result)
                while accepted is not None:
                    current = accepted
                    progressed = True
                    accepted = self._run_pass(name, current, suite,
                                              result)
        result.program = current.compact()
        result.measure_after = program_measure(current)
        result.seconds = time.perf_counter() - start
        return result

    # -- one pass, one acceptance ---------------------------------------------

    def _run_pass(self, name: str, current: Program,
                  suite: list[Testcase],
                  result: MinimizeResult) -> Program | None:
        """First accepted candidate from one pass sweep, or None."""
        fn = get_pass(name)
        measure = program_measure(current)
        for candidate in fn(current, self.spec):
            result.attempts += 1
            if program_measure(candidate) >= measure:
                continue
            if not self._passes_suite(candidate, suite):
                result.prefilter_rejects += 1
                continue
            result.verify_calls += 1
            outcome = self.validator.prove(self.target, candidate,
                                           self.spec)
            if outcome.equivalent:
                result.accepted[name] = result.accepted.get(name, 0) + 1
                return candidate
            result.refuted += 1
            self._refine(outcome.counterexample, suite, result)
        return None

    def _passes_suite(self, candidate: Program,
                      suite: list[Testcase]) -> bool:
        """Cheap rejection: run the candidate on every suite testcase.

        One failing testcase saves a validator query; a pass here
        proves nothing (the validator has the final word)."""
        for testcase in suite:
            state = testcase.initial_state()
            try:
                Emulator(state, testcase.sandbox()).run(candidate)
            except EmulationError:
                return False
            for name, expected in testcase.expected_regs:
                if state.get_reg(name) != expected:
                    return False
            for addr, expected in testcase.expected_memory:
                if state.memory.get(addr, 0) != expected:
                    return False
        return True

    def _refine(self, counterexample, suite: list[Testcase],
                result: MinimizeResult) -> None:
        """Counterexample -> testcase -> suite (deduped) — Eq. 12."""
        if counterexample is None:
            return
        try:
            testcase = self.generator.from_counterexample(
                counterexample)
        except EmulationError:
            return          # target faults on the model's inputs
        appended = append_unique(suite, [testcase])
        result.cegis_testcases.extend(appended)
