"""A small CDCL SAT solver (watched literals, 1-UIP learning, restarts).

The solver implements the standard conflict-driven clause-learning loop in
pure Python:

* **unit propagation** over two watched literals per clause (only clauses
  watching a newly falsified literal are visited),
* **first-UIP conflict analysis** producing one learnt clause per
  conflict, with non-chronological backjumping to its assertion level,
* **VSIDS-style decision heuristic** — exponentially decaying variable
  activities bumped during conflict analysis, served from a lazy max-heap
  of ``(-activity, variable)`` entries: a bump leaves the old entry
  stale, backtracking pushes an unassigned variable only when it has no
  entry at its current activity, a decision pops entries until it finds
  an unassigned variable, and rescaling the activities rebuilds the heap
  (ties go to the lower variable index),
* **phase saving** — decisions reuse the last assigned polarity, which
  lets restarts keep the part of the search that worked,
* **Luby restarts** on a conflict-count schedule,
* **learnt-clause reduction** — the activity-coldest half of the learnt
  clauses is dropped whenever the database outgrows its budget.

Calls are budgeted: :func:`solve` accepts a wall-clock and/or a conflict
budget and returns status ``"unknown"`` when either is exhausted, so the
exact pebbler built on top (:mod:`repro.reversible.exact_pebbling`) can
fall back to its heuristic answer instead of stalling a flow.  Assumptions (a partial assignment to solve
under) are supported the MiniSat way, as forced first decisions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence

from repro.sat.cnf import Cnf

__all__ = ["SatResult", "Solver", "solve"]

_UNASSIGNED = 2

#: Conflicts granted by the first Luby restart interval.
_LUBY_UNIT = 128

#: Variable activities are rescaled when they exceed this magnitude.
_ACTIVITY_CAP = 1e100


def _luby(index: int) -> int:
    """The Luby restart sequence 1, 1, 2, 1, 1, 2, 4, ... (1-based)."""
    k = 1
    while (1 << (k + 1)) - 1 <= index:
        k += 1
    while (1 << k) - 1 != index:
        index -= (1 << (k - 1)) - 1 + 1
        k = 1
        while (1 << (k + 1)) - 1 <= index:
            k += 1
    return 1 << (k - 1)


@dataclass
class SatResult:
    """Outcome of one solver call.

    ``status`` is ``"sat"``, ``"unsat"`` or ``"unknown"`` (budget
    exhausted).  ``model`` maps every variable to its boolean value when
    satisfiable, and is ``None`` otherwise.  The statistics record the
    search effort, and ``runtime`` the wall-clock seconds spent.
    """

    status: str
    model: Optional[Dict[int, bool]] = None
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    runtime: float = 0.0

    def __bool__(self) -> bool:
        return self.status == "sat"

    def __getitem__(self, variable: int) -> bool:
        """Value of a variable in the model (``result[v]``)."""
        if self.model is None:
            raise KeyError(f"no model: status is {self.status!r}")
        return self.model[variable]


class Solver:
    """One CDCL search over a fixed clause set.

    Build with a :class:`~repro.sat.cnf.Cnf` (or anything exposing
    ``num_vars`` and ``clauses``), then call :meth:`solve`.  A solver
    instance is single-shot: construct a new one per formula.
    """

    def __init__(self, cnf: Cnf):
        self.num_vars = cnf.num_vars
        self.contradiction = getattr(cnf, "contradiction", False)
        n = self.num_vars
        # Internal literal encoding: variable v (1-based) becomes
        # 2*(v-1) for the positive and 2*(v-1)+1 for the negative literal.
        self.assigns = bytearray([_UNASSIGNED] * n)
        self.level = [0] * n
        self.reason: List[Optional[List[int]]] = [None] * n
        self.activity = [0.0] * n
        self.polarity = bytearray(n)  # saved phases, default False
        self.watches: List[List[List[int]]] = [[] for _ in range(2 * n)]
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.clauses: List[List[int]] = []
        self.learnts: List[List[int]] = []
        self.clause_activity: Dict[int, float] = {}
        self.var_inc = 1.0
        self.var_decay = 1.0 / 0.95
        # Decision heap of ``(-activity, v)`` entries.  Entries go stale
        # when a variable is bumped; ``queued[v]`` is set while ``v`` has
        # an entry at its current activity, so backtracking pushes only
        # the variables that lack one.
        self.heap: List[tuple] = [(0.0, v) for v in range(n)]
        self.queued = bytearray([1] * n)
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0

        for clause in cnf.clauses:
            if not self._attach_input_clause(clause):
                self.contradiction = True
                break

    # -- literal helpers -----------------------------------------------------

    @staticmethod
    def _to_internal(literal: int) -> int:
        v = abs(literal) - 1
        return 2 * v + (1 if literal < 0 else 0)

    def _lit_value(self, lit: int) -> int:
        """0 false, 1 true, >=2 unassigned."""
        return self.assigns[lit >> 1] ^ (lit & 1)

    # -- clause attachment ---------------------------------------------------

    def _attach_input_clause(self, clause: Sequence[int]) -> bool:
        """Attach one input clause; False when it is immediately conflicting."""
        lits = [self._to_internal(l) for l in clause]
        if not lits:
            return False
        if len(lits) == 1:
            value = self._lit_value(lits[0])
            if value == 0:
                return False
            if value >= _UNASSIGNED:
                self._enqueue(lits[0], None)
            return True
        self.clauses.append(lits)
        self.watches[lits[0]].append(lits)
        self.watches[lits[1]].append(lits)
        return True

    # -- trail management ----------------------------------------------------

    def _enqueue(self, lit: int, reason: Optional[List[int]]) -> None:
        v = lit >> 1
        self.assigns[v] = (lit & 1) ^ 1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.polarity[v] = (lit & 1) ^ 1
        self.trail.append(lit)

    def _cancel_until(self, target_level: int) -> None:
        # Reasons of unassigned variables are left stale: they are only
        # read for variables on the trail, and every enqueue overwrites.
        if len(self.trail_lim) <= target_level:
            return
        bound = self.trail_lim[target_level]
        assigns = self.assigns
        queued = self.queued
        activity = self.activity
        heap = self.heap
        for lit in self.trail[bound:]:
            v = lit >> 1
            assigns[v] = _UNASSIGNED
            if not queued[v]:
                queued[v] = 1
                heappush(heap, (-activity[v], v))
        del self.trail[bound:]
        del self.trail_lim[target_level:]
        self.qhead = len(self.trail)

    # -- propagation ---------------------------------------------------------

    def _propagate(self) -> Optional[List[int]]:
        """Propagate units; returns the conflicting clause or ``None``."""
        watches = self.watches
        assigns = self.assigns
        level = self.level
        reason = self.reason
        polarity = self.polarity
        trail = self.trail
        current_level = len(self.trail_lim)
        qhead = self.qhead
        start = qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            false_lit = lit ^ 1
            ws = watches[false_lit]
            # Swap in a fresh list so replacement watches appended during
            # the scan (possibly for this very literal) are never lost.
            watches[false_lit] = kept = []
            i = 0
            end = len(ws)
            while i < end:
                clause = ws[i]
                i += 1
                if clause[0] == false_lit:
                    clause[0] = clause[1]
                    clause[1] = false_lit
                first = clause[0]
                first_value = assigns[first >> 1] ^ (first & 1)
                if first_value == 1:
                    kept.append(clause)
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if (assigns[other >> 1] ^ (other & 1)) != 0:
                        clause[1] = other
                        clause[k] = false_lit
                        watches[other].append(clause)
                        break
                else:
                    kept.append(clause)
                    if first_value == 0:
                        # Conflict: keep the unvisited suffix watched.
                        kept.extend(ws[i:])
                        self.propagations += qhead - start
                        self.qhead = len(trail)
                        return clause
                    v = first >> 1
                    phase = (first & 1) ^ 1
                    assigns[v] = phase
                    level[v] = current_level
                    reason[v] = clause
                    polarity[v] = phase
                    trail.append(first)
        self.propagations += qhead - start
        self.qhead = qhead
        return None

    # -- conflict analysis ---------------------------------------------------

    def _rescale_activities(self) -> None:
        scale = 1.0 / _ACTIVITY_CAP
        self.var_inc *= scale
        activity, assigns, queued = self.activity, self.assigns, self.queued
        # Every heap key predates the rescale; rebuild the heap (in place)
        # from the unassigned variables so fresh entries compete fairly.
        heap = self.heap
        heap.clear()
        for v in range(self.num_vars):
            activity[v] *= scale
            queued[v] = assigns[v] == _UNASSIGNED
            if queued[v]:
                heap.append((-activity[v], v))
        heapify(heap)

    def _analyze(self, conflict: List[int]) -> tuple:
        """First-UIP learning; returns ``(learnt_clause, backjump_level)``."""
        learnt = [0]
        seen = bytearray(self.num_vars)
        level = self.level
        trail = self.trail
        activity = self.activity
        var_inc = self.var_inc
        queued = self.queued
        counter = 0
        lit = -1
        reason: Optional[List[int]] = conflict
        index = len(trail) - 1
        current_level = len(self.trail_lim)

        while True:
            assert reason is not None
            start = 0 if lit == -1 else 1
            for p in reason[start:]:
                v = p >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    # Bump: the variable's heap entry is now stale.
                    activity[v] += var_inc
                    queued[v] = 0
                    if activity[v] > _ACTIVITY_CAP:
                        self._rescale_activities()
                        var_inc = self.var_inc
                    if level[v] >= current_level:
                        counter += 1
                    else:
                        learnt.append(p)
            while not seen[trail[index] >> 1]:
                index -= 1
            lit = trail[index]
            index -= 1
            v = lit >> 1
            seen[v] = 0
            counter -= 1
            if counter == 0:
                break
            reason = self.reason[v]
        learnt[0] = lit ^ 1

        if len(learnt) == 1:
            return learnt, 0
        # Backjump to the second-highest decision level in the clause.
        max_i = 1
        for i in range(2, len(learnt)):
            if level[learnt[i] >> 1] > level[learnt[max_i] >> 1]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, level[learnt[1] >> 1]

    def _record_learnt(self, learnt: List[int]) -> None:
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        self.learnts.append(learnt)
        self.clause_activity[id(learnt)] = self.conflicts
        self.watches[learnt[0]].append(learnt)
        self.watches[learnt[1]].append(learnt)
        self._enqueue(learnt[0], learnt)

    def _reduce_learnts(self) -> None:
        """Drop the colder half of the learnt clauses (keep locked ones)."""
        locked = {
            id(self.reason[lit >> 1]) for lit in self.trail
            if self.reason[lit >> 1] is not None
        }
        self.learnts.sort(key=lambda c: self.clause_activity.get(id(c), 0))
        keep_from = len(self.learnts) // 2
        dropped = [
            c for c in self.learnts[:keep_from]
            if id(c) not in locked and len(c) > 2
        ]
        if not dropped:
            return
        dropped_ids = {id(c) for c in dropped}
        self.learnts = [c for c in self.learnts if id(c) not in dropped_ids]
        for c in dropped:
            self.clause_activity.pop(id(c), None)
        for lit in range(2 * self.num_vars):
            ws = self.watches[lit]
            if ws:
                self.watches[lit] = [c for c in ws if id(c) not in dropped_ids]

    # -- decisions -----------------------------------------------------------

    def _decide(self) -> int:
        """Next decision literal, or -1 when all variables are assigned."""
        heap = self.heap
        assigns = self.assigns
        while heap:
            _, v = heappop(heap)
            self.queued[v] = 0
            if assigns[v] == _UNASSIGNED:
                return 2 * v + (0 if self.polarity[v] else 1)
        for v in range(self.num_vars):
            if self.assigns[v] == _UNASSIGNED:
                return 2 * v + (0 if self.polarity[v] else 1)
        return -1

    # -- main loop -----------------------------------------------------------

    def solve(
        self,
        assumptions: Iterable[int] = (),
        time_budget: Optional[float] = None,
        conflict_budget: Optional[int] = None,
    ) -> SatResult:
        """Run the CDCL loop; returns a :class:`SatResult`.

        ``assumptions`` is an iterable of DIMACS literals solved as forced
        first decisions; a conflict among them yields ``"unsat"`` (under
        the assumptions).  ``time_budget`` (seconds) and
        ``conflict_budget`` bound the search — when either runs out the
        status is ``"unknown"``.
        """
        start = time.monotonic()
        deadline = None if time_budget is None else start + time_budget
        assumed = [self._to_internal(l) for l in assumptions]

        def result(status: str, model=None) -> SatResult:
            return SatResult(
                status=status,
                model=model,
                conflicts=self.conflicts,
                decisions=self.decisions,
                propagations=self.propagations,
                restarts=self.restarts,
                runtime=time.monotonic() - start,
            )

        if self.contradiction:
            return result("unsat")
        if self._propagate() is not None:
            return result("unsat")

        conflicts_until_restart = _LUBY_UNIT * _luby(1)
        max_learnts = max(4000, 2 * len(self.clauses))

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                if len(self.trail_lim) == 0:
                    return result("unsat")
                if len(self.trail_lim) <= len(assumed):
                    # The conflict is forced by the assumptions alone.
                    self._cancel_until(0)
                    return result("unsat")
                learnt, backjump = self._analyze(conflict)
                # Backjumping below the assumption levels is fine: the
                # decision loop re-pushes assumptions on the way back down.
                self._cancel_until(backjump)
                self._record_learnt(learnt)
                self.var_inc *= self.var_decay
                conflicts_until_restart -= 1
                if (
                    conflict_budget is not None
                    and self.conflicts >= conflict_budget
                ):
                    self._cancel_until(0)
                    return result("unknown")
                if (
                    deadline is not None
                    and self.conflicts % 64 == 0
                    and time.monotonic() > deadline
                ):
                    self._cancel_until(0)
                    return result("unknown")
                continue

            if conflicts_until_restart <= 0:
                self.restarts += 1
                conflicts_until_restart = _LUBY_UNIT * _luby(self.restarts + 1)
                self._cancel_until(0)
                if len(self.learnts) > max_learnts:
                    self._reduce_learnts()
                continue

            if deadline is not None and time.monotonic() > deadline:
                self._cancel_until(0)
                return result("unknown")

            # Assumptions first, then activity-ordered free decisions.
            if len(self.trail_lim) < len(assumed):
                lit = assumed[len(self.trail_lim)]
                value = self._lit_value(lit)
                if value == 1:
                    self.trail_lim.append(len(self.trail))
                    continue
                if value == 0:
                    self._cancel_until(0)
                    return result("unsat")
            else:
                lit = self._decide()
                if lit == -1:
                    model = {
                        v + 1: self.assigns[v] == 1
                        for v in range(self.num_vars)
                    }
                    self._cancel_until(0)
                    return result("sat", model)
                self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, None)


def solve(
    cnf: Cnf,
    assumptions: Iterable[int] = (),
    time_budget: Optional[float] = None,
    conflict_budget: Optional[int] = None,
) -> SatResult:
    """Solve one CNF formula (fresh :class:`Solver` per call)."""
    return Solver(cnf).solve(
        assumptions=assumptions,
        time_budget=time_budget,
        conflict_budget=conflict_budget,
    )
