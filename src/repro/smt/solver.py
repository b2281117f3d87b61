"""High-level satisfiability interface over the BV layer and SAT core.

This is the façade the validator talks to: assert 1-bit constraints,
ask for satisfiability, read back integer models.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.smt.bitvec import BV, Context
from repro.smt.sat import Solver
from repro.smt.tseitin import BitBlaster


class SatResult(Enum):
    SAT = "sat"
    UNSAT = "unsat"


@dataclass
class CheckOutcome:
    """Result of a satisfiability check.

    Attributes:
        result: SAT or UNSAT.
        model: variable name -> integer value (only when SAT).
        num_vars / num_clauses: size of the blasted instance, for
            throughput reporting (Figure 2).
        conflicts / decisions / propagations: the SAT solver's work
            (see :class:`~repro.smt.sat.Solver`).
    """

    result: SatResult
    model: dict[str, int]
    num_vars: int
    num_clauses: int
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0

    @property
    def is_sat(self) -> bool:
        return self.result is SatResult.SAT


class BVSolver:
    """Accumulates constraints and decides them by bit-blasting."""

    def __init__(self, ctx: Context, *,
                 max_conflicts: int = 2_000_000) -> None:
        self.ctx = ctx
        self.max_conflicts = max_conflicts
        self._constraints: list[BV] = []

    def add(self, constraint: BV) -> None:
        """Assert a 1-bit expression."""
        assert constraint.width == 1
        self._constraints.append(constraint)

    def check(self) -> CheckOutcome:
        """Decide the conjunction of all added constraints."""
        blaster = BitBlaster(self.ctx)
        for constraint in self._constraints:
            blaster.assert_true(constraint)
        solver = Solver(blaster.cnf, max_conflicts=self.max_conflicts)
        sat = solver.solve()
        model: dict[str, int] = {}
        if sat:
            model = {name: blaster.var_value(name, solver.model)
                     for name in blaster._var_bits}
        return CheckOutcome(
            result=SatResult.SAT if sat else SatResult.UNSAT,
            model=model,
            num_vars=blaster.cnf.num_vars,
            num_clauses=len(blaster.cnf.clauses),
            conflicts=solver.conflicts,
            decisions=solver.decisions,
            propagations=solver.propagations,
        )
