"""Cost functions: pluggable terms over correctness and performance."""

from repro.cost.correctness import (CostWeights, err_penalty,
                                    improved_distance, strict_distance,
                                    testcase_cost)
from repro.cost.function import CostFunction, CostResult, Phase
from repro.cost.performance import perf_term, target_latency
from repro.cost.terms import (CostSpec, CostTerm, TermContext,
                              available_cost_terms, make_cost_term,
                              register_cost_term)

__all__ = ["CostFunction", "CostResult", "CostSpec", "CostTerm",
           "CostWeights", "Phase",
           "TermContext", "available_cost_terms",
           "err_penalty", "improved_distance", "make_cost_term",
           "perf_term", "register_cost_term", "strict_distance",
           "target_latency", "testcase_cost"]
