"""repro — a reproduction of "Stochastic Superoptimization" (ASPLOS 2013).

The package implements STOKE end to end in pure Python: an x86-64
subset ISA with a sandboxed emulator, a bit-vector SMT stack with a
CDCL SAT solver backing a sound equivalence validator, MCMC search with
the paper's cost functions and move types, a micro-op performance
model, a mini compiler standing in for llvm -O0 / gcc -O3 / icc -O3,
and the paper's full benchmark suite.

Quickstart (the composable API; see :mod:`repro.api`)::

    from repro.api import Session, Target

    session = Session(Target.from_suite("p01"),
                      cost="correctness,latency", strategy="mcmc")
    result = session.run()
    print(result.rewrite_asm, result.speedup)

Search knobs and engine options ride the same session; the engine's
full result (programs, per-chain diagnostics) is on ``result.stoke``::

    from repro import EngineOptions, SearchConfig, Session, Target

    session = Session(Target.from_suite("p01"),
                      config=SearchConfig(ell=12, beta=1.0,
                                          optimization_proposals=20_000),
                      engine=EngineOptions(executor="pool:n=4"))
    result = session.run()
    print(result.stoke.rewrite, result.speedup)
"""

from repro.api import Result, Session, Target
from repro.cost import (CostFunction, CostSpec, CostTerm, CostWeights,
                        Phase, TermContext, available_cost_terms,
                        make_cost_term, register_cost_term)
from repro.emulator import Emulator, MachineState, Sandbox, run_program
from repro.engine import (BudgetSpec, Campaign, CampaignResult,
                          EngineOptions)
from repro.perfsim import actual_runtime, simulate_cycles
from repro.search import (MCMCSampler, MoveGenerator, SearchConfig,
                          SearchStrategy, StrategySpec,
                          available_strategies, make_strategy,
                          register_strategy)
from repro.testgen import Annotations, Testcase, TestcaseGenerator
from repro.verifier import LiveSpec, ValidationResult, Validator
from repro.x86 import (Instruction, Program, UNUSED, parse_instruction,
                       parse_program, program_latency)

__version__ = "1.3.0"

__all__ = [
    "Annotations", "BudgetSpec", "Campaign", "CampaignResult",
    "CostFunction", "CostSpec", "CostTerm",
    "CostWeights", "Emulator", "EngineOptions",
    "Instruction", "LiveSpec", "MCMCSampler", "MachineState",
    "MoveGenerator", "Phase", "Program", "Result", "Sandbox",
    "SearchConfig", "SearchStrategy", "Session",
    "StrategySpec", "Target", "TermContext",
    "Testcase", "TestcaseGenerator", "UNUSED",
    "ValidationResult", "Validator", "actual_runtime",
    "available_cost_terms", "available_strategies", "make_cost_term",
    "make_strategy", "parse_instruction", "parse_program",
    "program_latency", "register_cost_term", "register_strategy",
    "run_program", "simulate_cycles",
]
