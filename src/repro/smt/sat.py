"""A CDCL SAT solver: two-watched literals, VSIDS, 1-UIP learning.

This is the decision-procedure core of the STP substitute. Literals use
DIMACS convention: variable ``v`` (a positive int) appears as ``v`` or
``-v``. The solver is deliberately self-contained — no external solver
exists in this environment — and is tuned for the bit-blasted
equivalence queries the validator produces: structured, mostly UNSAT
instances. After the validator's word-level rewrite
(:mod:`repro.smt.rewrite`), a campaign-sweep instance sends 2-4 of its
13-15 distinct queries to the solver, with about 290 variables and 800
clauses on average; its costly tail is p03's 94-conflict queries and
p14's shift by a ``cmov``-selected count at 1-63 conflicts (1.2k-1.3k
before the rewrite). Montgomery multiplication's queries reach 4.5k
variables and 14k clauses.

**Same decisions.** The hot loop works on flat arrays: one value per
literal (``val[lit]``, with ``-v`` indexing from the end of the list,
as Python does), watch lists indexed by literal and compacted in place,
and hot attributes held in locals. A speed-up may not change what the
solver does: the clause and watch order, the literal swaps inside
clauses, the VSIDS float arithmetic, the heap's tie-breaking on
``(-activity, var)``, phase saving, the restart schedule, 1-UIP
learning with its minimization and the backjump choice are part of the
contract, because verdicts, models and the search's work records
depend on them. ``benchmarks/proof_corpus.py`` pins the learned
clauses, conflicts and models of recorded queries.

**Certifiable.** Learned clauses are never deleted, and each one is
appended, in order, to :attr:`Solver.learned`, including the units
that are asserted without being stored. An UNSAT answer is therefore
checkable by reverse unit propagation (the RUP core of DRAT checking).
"""

from __future__ import annotations

import heapq

from repro.errors import SolverTimeoutError


class CNF:
    """A clause database under construction."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: list[list[int]] = []

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, literals: list[int]) -> None:
        """Add a clause; empty clauses make the formula trivially UNSAT."""
        self.clauses.append(list(literals))


class Solver:
    """CDCL solver over a fixed clause database.

    Usage::

        solver = Solver(cnf)
        result = solver.solve()          # True (SAT), False (UNSAT)
        model = solver.model             # var -> bool, valid when SAT

    Work counters: :attr:`conflicts` (the final, root-level conflict of
    an UNSAT answer included), :attr:`decisions` and
    :attr:`propagations` (trail literals propagated).
    """

    def __init__(self, cnf: CNF, *, max_conflicts: int = 2_000_000) -> None:
        self.num_vars = n = cnf.num_vars
        self.max_conflicts = max_conflicts
        # per literal: 1 true, -1 false, 0 unassigned; val[-v] is
        # val[2n + 1 - v], so the two polarities never share a slot
        self.val = [0] * (2 * n + 1)
        self.level = [0] * (n + 1)
        self.reason: list[list[int] | None] = [None] * (n + 1)
        self.activity = [0.0] * (n + 1)
        self.phase = [False] * (n + 1)
        self.trail: list[int] = []          # literals in assignment order
        self.trail_lim: list[int] = []      # trail indices per decision level
        self.prop_head = 0
        # per literal, the clauses watching it (indexed like ``val``)
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * n + 1)]
        self.clauses: list[list[int]] = []
        self.learned: list[list[int]] = []  # every learned clause, in order
        self.model: dict[int, bool] = {}
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._unsat = False
        # lazy max-heap over (-activity, var); stale entries are skipped.
        # Every unassigned variable always has an entry at its current
        # activity, so a pop returns the unassigned variable of highest
        # activity, lowest index first: activity only changes while a
        # variable is assigned (conflict analysis bumps assigned
        # variables only), and _backtrack pushes each variable it
        # unassigns unless _queued[var] says that its current entry is
        # still in the heap.
        self._heap: list[tuple[float, int]] = \
            [(0.0, v) for v in range(1, n + 1)]
        heapq.heapify(self._heap)
        self._queued = [True] * (n + 1)
        for clause in cnf.clauses:
            self._attach(clause)

    # -- clause management ------------------------------------------------------

    def _attach(self, clause: list[int]) -> None:
        clause = self._dedupe(clause)
        if clause is None:                 # tautology
            return
        if not clause:
            self._unsat = True
            return
        if len(clause) == 1:
            lit = clause[0]
            if self.val[lit] == -1:
                self._unsat = True
            elif self.val[lit] == 0:
                self._enqueue(lit, None)
            return
        self.clauses.append(clause)
        self.watches[clause[0]].append(clause)
        self.watches[clause[1]].append(clause)

    @staticmethod
    def _dedupe(clause: list[int]) -> list[int] | None:
        seen: set[int] = set()
        result = []
        for lit in clause:
            if -lit in seen:
                return None
            if lit not in seen:
                seen.add(lit)
                result.append(lit)
        return result

    # -- assignment primitives ------------------------------------------------------

    def _enqueue(self, lit: int, reason: list[int] | None) -> None:
        var = abs(lit)
        self.val[lit] = 1
        self.val[-lit] = -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.phase[var] = lit > 0
        self.trail.append(lit)

    def _propagate(self) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None.

        Each watch list is compacted in place (``j`` is the write
        index), in its original order; ``_enqueue`` is inlined.
        """
        trail = self.trail
        watches = self.watches
        val = self.val
        level = self.level
        reason = self.reason
        phase = self.phase
        current_level = len(self.trail_lim)
        start = head = self.prop_head
        while head < len(trail):
            falsified = -trail[head]
            head += 1
            watchers = watches[falsified]
            j = 0
            for i in range(len(watchers)):
                clause = watchers[i]
                # ensure the falsified literal is in slot 1
                first = clause[0]
                if first == falsified:
                    first = clause[0] = clause[1]
                    clause[1] = falsified
                value = val[first]
                if value == 1:
                    watchers[j] = clause
                    j += 1
                    continue
                # search replacement watch
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if val[lit] != -1:
                        clause[1] = lit
                        clause[k] = falsified
                        watches[lit].append(clause)
                        break
                else:
                    watchers[j] = clause
                    j += 1
                    if value == -1:
                        del watchers[j:i + 1]
                        self.prop_head = head
                        self.propagations += head - start
                        return clause
                    val[first] = 1
                    val[-first] = -1
                    var = first if first > 0 else -first
                    level[var] = current_level
                    reason[var] = clause
                    phase[var] = first > 0
                    trail.append(first)
            del watchers[j:]
        self.prop_head = head
        self.propagations += head - start
        return None

    # -- conflict analysis ------------------------------------------------------------

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learning; returns (learned clause, backjump level).

        Bumps the activity of every variable it meets. Those are all
        assigned, so nothing is pushed to the heap here: _backtrack
        pushes each at its current activity once it is unassigned.
        """
        level = self.level
        activity = self.activity
        queued = self._queued
        trail = self.trail
        inc = self._var_inc
        learned: list[int] = []
        seen = [False] * (self.num_vars + 1)
        counter = 0
        lit = 0
        reason: list[int] | None = conflict
        index = len(trail) - 1
        current_level = len(self.trail_lim)
        while True:
            assert reason is not None
            for q in reason:
                var = q if q > 0 else -q
                if q == lit or seen[var] or level[var] == 0:
                    continue
                seen[var] = True
                activity[var] += inc
                queued[var] = False
                if activity[var] > 1e100:
                    self._rescale()
                    inc = self._var_inc
                if level[var] == current_level:
                    counter += 1
                else:
                    learned.append(q)
            while not seen[abs(trail[index])]:
                index -= 1
            lit = trail[index]
            var = abs(lit)
            seen[var] = False
            counter -= 1
            index -= 1
            if counter == 0:
                break
            reason = self.reason[var]
        learned.insert(0, -lit)
        learned = self._minimize(learned)
        if len(learned) == 1:
            return learned, 0
        # backjump to the second-highest level in the clause
        max_i = 1
        for i in range(2, len(learned)):
            if level[abs(learned[i])] > level[abs(learned[max_i])]:
                max_i = i
        learned[1], learned[max_i] = learned[max_i], learned[1]
        return learned, level[abs(learned[1])]

    def _rescale(self) -> None:
        """Scale every activity and the increment down by 1e-100."""
        activity = self.activity
        for i in range(1, self.num_vars + 1):
            activity[i] *= 1e-100
        self._var_inc *= 1e-100
        self._requeue()

    def _requeue(self) -> None:
        """Rebuild the heap from the unassigned variables."""
        activity = self.activity
        val = self.val
        self._heap = [(-activity[v], v)
                      for v in range(1, self.num_vars + 1) if val[v] == 0]
        heapq.heapify(self._heap)
        self._queued[1:] = [val[v] == 0
                            for v in range(1, self.num_vars + 1)]

    def _minimize(self, learned: list[int]) -> list[int]:
        """Local clause minimization by self-subsumption: drop a literal
        whose reason's other literals are all in the clause or fixed at
        level 0 (one step deep, not recursive)."""
        level = self.level
        marked = set(abs(lit) for lit in learned)
        result = [learned[0]]
        for lit in learned[1:]:
            reason = self.reason[abs(lit)]
            if reason is None:
                result.append(lit)
                continue
            if all(abs(q) in marked or level[abs(q)] == 0
                   for q in reason if q != -lit):
                continue
            result.append(lit)
        return result

    def _backtrack(self, target_level: int) -> None:
        if len(self.trail_lim) <= target_level:
            return
        trail = self.trail
        limit = self.trail_lim[target_level]
        val = self.val
        activity = self.activity
        queued = self._queued
        heap = self._heap
        push = heapq.heappush
        for index in range(len(trail) - 1, limit - 1, -1):
            lit = trail[index]
            val[lit] = 0
            val[-lit] = 0
            var = lit if lit > 0 else -lit
            if not queued[var]:
                push(heap, (-activity[var], var))
                queued[var] = True
        del trail[limit:]
        del self.trail_lim[target_level:]
        self.prop_head = min(self.prop_head, len(trail))

    # -- decisions ------------------------------------------------------------------------

    def _decide(self) -> int:
        val = self.val
        activity = self.activity
        queued = self._queued
        heap = self._heap
        while heap:
            act, var = heapq.heappop(heap)
            current = -act == activity[var]
            if current:
                queued[var] = False
            if val[var] != 0:
                continue
            if not current:                 # stale entry
                if not queued[var]:
                    heapq.heappush(heap, (-activity[var], var))
                    queued[var] = True
                continue
            return var if self.phase[var] else -var
        for var in range(1, self.num_vars + 1):     # heap drained; rebuild
            if val[var] == 0:
                self._requeue()
                return self._decide()
        return 0

    # -- main loop --------------------------------------------------------------------------

    def solve(self, assumptions: list[int] | None = None) -> bool:
        """Decide satisfiability. Populates :attr:`model` when SAT.

        Raises:
            SolverTimeoutError: if the conflict budget is exhausted.
        """
        if self._unsat:
            return False
        conflicts = 0
        restart_limit = 100
        restart_count = 0
        for lit in assumptions or []:
            if self.val[lit] == -1:
                return False
            if self.val[lit] == 0:
                self._enqueue(lit, None)
        while True:
            conflict = self._propagate()
            if conflict is not None:
                conflicts += 1
                self.conflicts += 1
                restart_count += 1
                if conflicts > self.max_conflicts:
                    raise SolverTimeoutError(
                        f"exceeded {self.max_conflicts} conflicts")
                if not self.trail_lim:
                    return False
                learned, backjump = self._analyze(conflict)
                self._backtrack(backjump)
                self.learned.append(learned[:])
                if len(learned) == 1:
                    self._enqueue(learned[0], None)
                else:
                    self.clauses.append(learned)
                    self.watches[learned[0]].append(learned)
                    self.watches[learned[1]].append(learned)
                    self._enqueue(learned[0], learned)
                self._var_inc /= self._var_decay
                if restart_count >= restart_limit:
                    restart_count = 0
                    restart_limit = int(restart_limit * 1.5)
                    self._backtrack(0)
                continue
            lit = self._decide()
            if lit == 0:
                val = self.val
                self.model = {v: val[v] == 1
                              for v in range(1, self.num_vars + 1)}
                return True
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, None)


def solve_cnf(cnf: CNF, *, max_conflicts: int = 2_000_000) \
        -> tuple[bool, dict[int, bool]]:
    """One-shot convenience: returns (is_sat, model)."""
    solver = Solver(cnf, max_conflicts=max_conflicts)
    sat = solver.solve()
    return sat, solver.model if sat else {}
