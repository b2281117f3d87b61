"""An independent checker for the CDCL solver's UNSAT answers.

The solver never deletes a learned clause, so its refutation is the
ordered list of clauses it learned (``Solver.learned``). This module
checks that list by reverse unit propagation (RUP), the core of DRAT
checking (Wetzler, Heule & Hunt, "DRAT-trim", SAT 2014):

* each learned clause C must follow by unit propagation from the CNF,
  the assumptions and the clauses learned before it: assigning every
  literal of C false and propagating reaches a conflict;
* the CNF, the assumptions and all learned clauses together must
  propagate to a conflict with nothing assumed.

It shares no code with ``repro.smt.sat``: its own clause copies, its
own watch lists and its own assignment.
"""

from __future__ import annotations


class RupChecker:
    """A clause set kept unit-propagated at the root."""

    def __init__(self, num_vars: int) -> None:
        self.value = [0] * (num_vars + 1)       # var -> 1 true, -1 false
        self.trail: list[int] = []
        self.head = 0
        self.watches: dict[int, list[list[int]]] = {}
        self.refuted = False                    # the root is in conflict

    def truth(self, lit: int) -> int:
        """1 when ``lit`` is true, -1 when false, 0 when unassigned."""
        return self.value[lit] if lit > 0 else -self.value[-lit]

    def add(self, clause) -> None:
        """Add a clause; root-false literals are dropped for good."""
        if self.refuted or any(-lit in clause for lit in clause):
            return
        if any(self.truth(lit) == 1 for lit in clause):
            return                              # satisfied at the root
        rest = [lit for lit in dict.fromkeys(clause) if not self.truth(lit)]
        if not rest:
            self.refuted = True
        elif len(rest) == 1:
            self._assign(rest[0])
            self.refuted = self._propagate()
        else:
            for lit in rest[:2]:
                self.watches.setdefault(lit, []).append(rest)

    def implies(self, clause) -> bool:
        """Whether ``clause`` is RUP: its negation propagates to a
        conflict. The root assignment is restored afterwards."""
        if self.refuted or any(self.truth(lit) == 1 for lit in clause):
            return True
        mark = len(self.trail)
        for lit in clause:
            if not self.truth(lit):
                self._assign(-lit)
        conflict = self._propagate()
        for lit in self.trail[mark:]:
            self.value[abs(lit)] = 0
        del self.trail[mark:]
        self.head = mark
        return conflict

    def _assign(self, lit: int) -> None:
        self.value[abs(lit)] = 1 if lit > 0 else -1
        self.trail.append(lit)

    def _propagate(self) -> bool:
        """Propagate the trail; True on a conflict."""
        truth = self.truth
        while self.head < len(self.trail):
            false_lit = -self.trail[self.head]
            self.head += 1
            watching = self.watches.get(false_lit, [])
            self.watches[false_lit] = kept = []
            for index, clause in enumerate(watching):
                other = clause[1] if clause[0] == false_lit else clause[0]
                if truth(other) == 1:
                    kept.append(clause)
                    continue
                spare = next((lit for lit in clause[2:]
                              if truth(lit) != -1), None)
                if spare is not None:
                    clause.remove(spare)
                    clause.remove(other)
                    clause[:0] = [other, spare]
                    self.watches.setdefault(spare, []).append(clause)
                    continue
                kept.append(clause)
                if truth(other) == -1:
                    kept.extend(watching[index + 1:])
                    return True
                self._assign(other)
        return False


def certify_unsat(clauses, learned, assumptions=()) -> str | None:
    """Check a refutation; None when it holds, else what failed."""
    clauses = [list(clause) for clause in clauses]
    learned = [list(clause) for clause in learned]
    num_vars = max((abs(lit) for clause in clauses + learned
                    for lit in clause), default=0)
    num_vars = max([num_vars] + [abs(lit) for lit in assumptions])
    checker = RupChecker(num_vars)
    for clause in clauses:
        checker.add(clause)
    for lit in assumptions:
        checker.add([lit])
    for index, clause in enumerate(learned):
        if not checker.implies(clause):
            return f"learned clause {index} {clause} is not RUP"
        checker.add(clause)
    if not checker.refuted:
        return "the clauses do not propagate to a conflict"
    return None


def satisfies(clauses, model: dict[int, bool]) -> bool:
    """Whether a SAT model satisfies every clause."""
    return all(any(model.get(abs(lit), False) == (lit > 0) for lit in clause)
               for clause in clauses)
