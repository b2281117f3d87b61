"""Rewrite minimization and counterexample-guided hardening.

STOKE's winning rewrites routinely carry incidental instructions the
cost function never pressured out. This subsystem shrinks them — and
closes the paper's validation loop across runs — in three layers:

* :mod:`repro.minimize.passes` — a registry of shrink passes
  (instruction deletion via DCE liveness, identity deletion, constant
  and mask simplification, operand canonicalization) plus the strictly
  decreasing program measure that guarantees termination.
* :mod:`repro.minimize.driver` — :class:`Minimizer`, the fixed-point
  driver: emulator prefilter, symbolic re-verification of every
  accepted step, and per-run CEGIS refinement (refutation
  counterexamples become suite testcases).
* :mod:`repro.minimize.cegis` — the cross-run flywheel: per-kernel
  persistent counterexample suites (``cex_suite.jsonl``) that
  ``EngineOptions(harden=True)`` campaigns seed from and append to.

:mod:`repro.minimize.fuzz` reuses the pass machinery to shrink fuzzer
failures against an arbitrary failure predicate.

See ``docs/MINIMIZE.md`` for the dataflow and the CLI/API surfaces
(``repro minimize``, ``EngineOptions(minimize=True)``).
"""

from repro.minimize.cegis import CounterexampleSuite, suite_path
from repro.minimize.driver import Minimizer, MinimizeResult
from repro.minimize.fuzz import shrink_failing
from repro.minimize.passes import (DEFAULT_PASSES, available_passes,
                                   get_pass, imm_complexity,
                                   instruction_measure,
                                   operand_complexity, program_measure,
                                   register_pass)
from repro.minimize.spec import MINIMIZE_OFF, MinimizeSpec

__all__ = ["CounterexampleSuite", "DEFAULT_PASSES", "MINIMIZE_OFF",
           "MinimizeResult", "MinimizeSpec", "Minimizer",
           "available_passes", "get_pass", "imm_complexity",
           "instruction_measure", "operand_complexity",
           "program_measure", "register_pass", "shrink_failing",
           "suite_path"]
