"""The composable public API: targets, cost terms, strategies, sessions.

The paper's pipeline (Figure 9) is a composition of interchangeable
parts; this package exposes each seam by name:

* :class:`Target` — what to optimize: a suite kernel, a parsed ``.s``
  listing (inline or from disk), or a compiled mini-C function.
* :class:`CostSpec` / :func:`register_cost_term` — the cost function
  as a weighted sum of registered :class:`CostTerm` objects.
* :class:`StrategySpec` / :func:`register_strategy` — the chain
  exploration policy behind the synthesis/optimization phases.
* :class:`Session` — assembles target, cost, strategy, config,
  validator, and engine options into one run; returns a
  JSON-serializable :class:`Result`.

Quickstart::

    from repro.api import Session, Target

    session = Session(Target.from_suite("p01"),
                      cost="correctness,latency",
                      strategy="mcmc")
    result = session.run()
    print(result.rewrite_asm, result.speedup)
"""

from repro.api.session import Result, Session
from repro.api.targets import Target, parse_registers
from repro.cost.terms import (CostSpec, CostTerm, TermContext,
                              available_cost_terms, make_cost_term,
                              register_cost_term)
from repro.engine.budget import (BudgetSpec, available_budgets,
                                 register_budget)
from repro.engine.campaign import EngineOptions
from repro.minimize import (CounterexampleSuite, Minimizer,
                            MinimizeResult, MinimizeSpec,
                            available_passes, register_pass,
                            shrink_failing)
from repro.search.config import SearchConfig
from repro.search.strategies import (SearchStrategy, StrategySpec,
                                     available_strategies, make_strategy,
                                     register_strategy)

__all__ = ["BudgetSpec", "CostSpec", "CostTerm",
           "CounterexampleSuite", "EngineOptions",
           "MinimizeResult", "MinimizeSpec", "Minimizer", "Result",
           "SearchConfig", "SearchStrategy", "Session", "StrategySpec",
           "Target", "TermContext", "available_budgets",
           "available_cost_terms", "available_passes",
           "available_strategies", "make_cost_term", "make_strategy",
           "parse_registers", "register_budget", "register_cost_term",
           "register_pass", "register_strategy", "shrink_failing"]
