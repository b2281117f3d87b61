"""Stochastic search: moves, MCMC, phases, ranking, the STOKE pipeline."""

from repro.search.config import SearchConfig
from repro.search.mcmc import ChainResult, MCMCSampler
from repro.search.moves import (DEFAULT_CONSTANT_BAG, EXCLUDED_FAMILIES,
                                MoveGenerator, MoveKind)
from repro.search.phases import (OptimizationPhase, PhaseResult,
                                 SynthesisPhase)
from repro.search.ranker import RankedRewrite, rerank
from repro.search.stoke import Stoke, StokeResult
from repro.search.strategies import (AnnealingStrategy, GreedyStrategy,
                                     MCMCStrategy, SearchStrategy,
                                     StrategySpec, available_strategies,
                                     make_strategy, register_strategy)

__all__ = ["AnnealingStrategy", "ChainResult", "DEFAULT_CONSTANT_BAG",
           "EXCLUDED_FAMILIES", "GreedyStrategy", "MCMCSampler",
           "MCMCStrategy", "MoveGenerator", "MoveKind",
           "OptimizationPhase", "PhaseResult", "RankedRewrite",
           "SearchConfig", "SearchStrategy", "Stoke", "StokeResult",
           "StrategySpec", "SynthesisPhase", "available_strategies",
           "make_strategy", "register_strategy", "rerank"]
