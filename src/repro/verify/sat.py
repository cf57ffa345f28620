"""Deterministic stdlib-only CDCL SAT solver.

The formal-verification layer (:mod:`repro.verify.cec`, and the design
linter's semantic rules) needs a complete Boolean oracle; this module is a
small conflict-driven clause-learning solver in the MiniSat lineage:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with clause learning,
* VSIDS-style variable activities (decay on conflict, lazy max-heap),
* Luby-sequence restarts with phase saving,
* incremental use: clauses may be added between :meth:`SatSolver.solve`
  calls, and each call may carry *assumptions* (temporarily asserted
  literals), which is what lets the equivalence checker prove hundreds of
  small per-net queries against one shared CNF.

Everything is deterministic by construction -- no ``random``, no wall-clock
(the ``ast.nondeterministic-key`` lint rule patrols exactly this): variable
order falls back to index on activity ties, so the same clause set always
explores the same tree and produces the same model.

Literals follow the DIMACS convention: variable ``v`` (a positive integer
handed out by :meth:`SatSolver.new_var`) appears positively as ``v`` and
negatively as ``-v``.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["SatSolver", "luby"]


def luby(i: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,... (1-indexed)."""
    if i < 1:
        raise ValueError("luby is 1-indexed")
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


class SatSolver:
    """A CDCL solver over clauses of integer literals.

    Typical use::

        solver = SatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        solver.add_clause([-a, b])
        assert solver.solve() is True
        assert solver.model[b] is True

    :meth:`solve` returns ``True`` (satisfiable; ``self.model`` maps every
    variable to a bool), ``False`` (unsatisfiable, under the given
    assumptions if any) or ``None`` when ``conflict_limit`` was exhausted
    before an answer was reached (the effort-bounded mode the SAT-backed
    lint rules use).
    """

    _RESTART_BASE = 100
    _ACTIVITY_DECAY = 0.95
    _ACTIVITY_RESCALE = 1e100

    def __init__(self) -> None:
        self.num_vars = 0
        # Index 0 is padding so variables index their slots directly.
        self._assign: List[int] = [0]  # 0 unassigned / 1 true / -1 false
        self._level: List[int] = [0]
        self._reason: List[Optional[List[int]]] = [None]
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [False]
        self._watches: Dict[int, List[List[int]]] = {}
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._heap: List[Tuple[float, int]] = []
        self._var_inc = 1.0
        self._unsat = False
        self.model: Dict[int, bool] = {}
        # Cumulative statistics (monotonic across solve() calls).
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.clause_count = 0

    # ------------------------------------------------------------ construction
    def new_var(self) -> int:
        """Allocate and return a fresh variable (a positive literal)."""
        self.num_vars += 1
        self._assign.append(0)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        heapq.heappush(self._heap, (0.0, self.num_vars))
        return self.num_vars

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause; may be called before or between :meth:`solve` calls."""
        if self._unsat:
            return
        self._cancel_until(0)
        seen: Dict[int, bool] = {}
        lits: List[int] = []
        for lit in literals:
            var = abs(lit)
            if not 0 < var <= self.num_vars:
                raise ValueError(f"literal {lit} names an unallocated variable")
            if -lit in seen:
                return  # tautology
            if lit not in seen:
                seen[lit] = True
                value = self._value(lit)
                if value == 1:
                    return  # satisfied at the root level
                if value != -1:
                    lits.append(lit)
        if not lits:
            self._unsat = True
            return
        if len(lits) == 1:
            self._enqueue(lits[0], None)
            if self._propagate() is not None:
                self._unsat = True
            return
        self.clause_count += 1
        self._attach(lits)

    def _attach(self, clause: List[int]) -> None:
        self._watches.setdefault(clause[0], []).append(clause)
        self._watches.setdefault(clause[1], []).append(clause)

    # ---------------------------------------------------------------- querying
    def _value(self, lit: int) -> int:
        assigned = self._assign[abs(lit)]
        if assigned == 0:
            return 0
        return assigned if lit > 0 else -assigned

    @property
    def _decision_level(self) -> int:
        return len(self._trail_lim)

    # -------------------------------------------------------------- assignment
    def _enqueue(self, lit: int, reason: Optional[List[int]]) -> bool:
        value = self._value(lit)
        if value != 0:
            return value == 1
        var = abs(lit)
        self._assign[var] = 1 if lit > 0 else -1
        self._level[var] = self._decision_level
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _cancel_until(self, level: int) -> None:
        if self._decision_level <= level:
            return
        bound = self._trail_lim[level]
        for lit in self._trail[bound:]:
            var = abs(lit)
            self._phase[var] = lit > 0
            self._assign[var] = 0
            self._reason[var] = None
            heapq.heappush(self._heap, (-self._activity[var], var))
        del self._trail[bound:]
        del self._trail_lim[level:]
        self._qhead = min(self._qhead, len(self._trail))

    # ------------------------------------------------------------- propagation
    def _propagate(self) -> Optional[List[int]]:
        """Exhaust unit propagation; return a conflicting clause or ``None``."""
        while self._qhead < len(self._trail):
            false_lit = -self._trail[self._qhead]
            self._qhead += 1
            watchers = self._watches.get(false_lit)
            if not watchers:
                continue
            kept: List[List[int]] = []
            conflict: Optional[List[int]] = None
            for index, clause in enumerate(watchers):
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) == 1:
                    kept.append(clause)
                    continue
                for k in range(2, len(clause)):
                    if self._value(clause[k]) != -1:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watches.setdefault(clause[1], []).append(clause)
                        break
                else:
                    kept.append(clause)
                    if self._value(first) == -1:
                        kept.extend(watchers[index + 1:])
                        conflict = clause
                        break
                    self.propagations += 1
                    self._enqueue(first, clause)
            self._watches[false_lit] = kept
            if conflict is not None:
                self._qhead = len(self._trail)
                return conflict
        return None

    # ---------------------------------------------------------------- analysis
    def _bump(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > self._ACTIVITY_RESCALE:
            inv = 1.0 / self._ACTIVITY_RESCALE
            for v in range(1, self.num_vars + 1):
                self._activity[v] *= inv
            self._var_inc *= inv

    def _analyze(self, conflict: List[int]) -> Tuple[List[int], int]:
        """First-UIP learning: return (learned clause, backtrack level).

        ``learned[0]`` is the asserting literal.
        """
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self.num_vars + 1)
        counter = 0
        lit = 0
        index = len(self._trail)
        reason: Optional[List[int]] = conflict
        while True:
            assert reason is not None
            for other in reason:
                if other == lit:
                    continue
                var = abs(other)
                if seen[var] or self._level[var] == 0:
                    continue
                seen[var] = True
                self._bump(var)
                if self._level[var] >= self._decision_level:
                    counter += 1
                else:
                    learned.append(other)
            while True:
                index -= 1
                lit = self._trail[index]
                if seen[abs(lit)]:
                    break
            counter -= 1
            if counter == 0:
                break
            # ``lit`` is the trail literal whose reason we expand next; its
            # reason clause lists ``lit`` itself, skipped by the loop above.
            reason = self._reason[abs(lit)]
        learned[0] = -lit
        if len(learned) == 1:
            return learned, 0
        # Backtrack to the second-highest level in the learned clause and
        # put a literal of that level in the second watch position.
        max_index = 1
        for k in range(2, len(learned)):
            if self._level[abs(learned[k])] > self._level[abs(learned[max_index])]:
                max_index = k
        learned[1], learned[max_index] = learned[max_index], learned[1]
        return learned, self._level[abs(learned[1])]

    # ------------------------------------------------------------------ decide
    def _pick_branch_var(self) -> int:
        while self._heap:
            negated_activity, var = heapq.heappop(self._heap)
            if self._assign[var] == 0 and -negated_activity == self._activity[var]:
                return var
        for var in range(1, self.num_vars + 1):  # pragma: no cover - heap lag
            if self._assign[var] == 0:
                return var
        return 0

    # ------------------------------------------------------------------- solve
    def solve(
        self,
        assumptions: Sequence[int] = (),
        *,
        conflict_limit: Optional[int] = None,
    ) -> Optional[bool]:
        """Decide satisfiability under ``assumptions``.

        Returns ``True``/``False``, or ``None`` if ``conflict_limit``
        conflicts elapsed first.  On ``True``, :attr:`model` maps every
        allocated variable to its value (variables the search never touched
        default to ``False``).  The solver remains usable afterwards: more
        clauses may be added and further calls made.
        """
        if self._unsat:
            return False
        self._cancel_until(0)
        if self._propagate() is not None:
            self._unsat = True
            return False
        budget = conflict_limit
        restart_count = 0
        restart_budget = self._RESTART_BASE * luby(1)
        conflicts_here = 0
        # Decision levels 1..root_level hold only assumption decisions; a
        # conflict at or below root_level therefore contradicts the
        # assumptions themselves.  (Counting len(assumptions) would be wrong:
        # implied assumptions open no level, so a free decision can sit at a
        # numerically lower level than the assumption count.)
        root_level = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_here += 1
                if self._decision_level <= root_level:
                    self._cancel_until(0)
                    return False
                learned, back_level = self._analyze(conflict)
                self._cancel_until(back_level)
                root_level = min(root_level, back_level)
                if len(learned) == 1:
                    self._enqueue(learned[0], None)
                else:
                    self.clause_count += 1
                    self._attach(learned)
                    self._enqueue(learned[0], learned)
                self._var_inc /= self._ACTIVITY_DECAY
                if budget is not None and conflicts_here >= budget:
                    self._cancel_until(0)
                    return None
                if conflicts_here >= restart_budget:
                    restart_count += 1
                    restart_budget = conflicts_here + (
                        self._RESTART_BASE * luby(restart_count + 1)
                    )
                    self._cancel_until(0)
                    root_level = 0
                continue
            # Assumption prefix: one decision level per not-yet-implied
            # assumed literal, re-established after every backjump/restart.
            pending = None
            failed = False
            for lit in assumptions:
                value = self._value(lit)
                if value == -1:
                    failed = True
                    break
                if value == 0:
                    pending = lit
                    break
            if failed:
                self._cancel_until(0)
                return False
            if pending is not None:
                self._trail_lim.append(len(self._trail))
                self._enqueue(pending, None)
                root_level = self._decision_level
                continue
            var = self._pick_branch_var()
            if var == 0:
                self.model = {
                    v: self._assign[v] == 1 for v in range(1, self.num_vars + 1)
                }
                self._cancel_until(0)
                return True
            self.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(var if self._phase[var] else -var, None)
