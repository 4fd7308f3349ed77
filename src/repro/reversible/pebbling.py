"""Reversible pebbling schedules over a LUT DAG (both hierarchical flows).

The LUT-based hierarchical flow of the paper covers the optimised AIG with
k-input LUTs and then plays a *reversible pebble game* on the LUT DAG: a
pebble on a LUT means its value is currently held on an ancilla line.  The
XMG-based hierarchical flow plays the same game with one "LUT" per XMG
gate (:func:`repro.reversible.lut_synth.xmg_gate_mapping`), so both flows
share these strategies.  A
pebble may be placed (the LUT is *computed*) or removed (the LUT is
*uncomputed*, returning its ancilla to zero) only while all of its fanin
LUTs carry pebbles, because both directions re-apply the same gate block
reading the fanin lines.  Primary outputs are *copied* off a pebbled LUT
onto dedicated output lines.  The number of pebbles in play bounds the
number of live ancillas — i.e. the qubit count — while recomputation adds
gates; scheduling the game therefore trades qubits against T-count.

This module provides the schedule IR and three scheduling strategies
(:func:`make_schedule` dispatches them by name and is the one place that
checks which strategy takes which option):

* :func:`bennett_schedule`  — compute every LUT once, copy all outputs,
  uncompute in reverse; pebble peak equals the number of LUTs, gate count
  is minimal (every LUT is computed exactly twice).
* :func:`eager_schedule`    — compute, copy and immediately uncompute one
  output cone at a time (the REVS-style eager cleanup); pebble peak equals
  the largest single-output cone, logic shared between outputs is
  recomputed per output.
* :func:`bounded_schedule`  — a budgeted heuristic: pebbles are kept around
  for reuse across outputs, and when the budget ``max_pebbles`` is reached
  parent-free pebbles are evicted (their LUTs uncomputed) and recomputed
  later if needed.  This interpolates between the two extremes.

Every schedule is machine-checkable: :func:`validate_schedule` replays the
pebble game and raises :class:`InvalidScheduleError` on the first step
whose preconditions do not hold, on a budget violation, or when ancillas
are left dirty at the end.  The executor
(:mod:`repro.reversible.lut_synth`) validates before synthesising.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.logic.aig import lit_node
from repro.logic.cuts import LutMapping
from repro.utils.bitops import popcount
from repro.utils.names import closest_name, did_you_mean

__all__ = [
    "COMPUTE",
    "COPY",
    "InvalidScheduleError",
    "PebbleSchedule",
    "PebbleStep",
    "ScheduleStats",
    "UNCOMPUTE",
    "bennett_schedule",
    "bounded_schedule",
    "eager_schedule",
    "make_schedule",
    "minimum_pebbles",
    "validate_schedule",
]

#: Step opcodes.
COMPUTE = "compute"
UNCOMPUTE = "uncompute"
COPY = "copy"

class InvalidScheduleError(ValueError):
    """A pebble schedule violated the pebble-game rules."""


@dataclass(frozen=True)
class PebbleStep:
    """One move of the pebble game.

    ``op`` is :data:`COMPUTE`, :data:`UNCOMPUTE` or :data:`COPY`.  ``node``
    is the LUT root being (un)pebbled, or the AIG node driving the copied
    output.  ``output`` is the primary-output index for :data:`COPY` steps
    and ``None`` otherwise.
    """

    op: str
    node: int
    output: Optional[int] = None

    def __str__(self) -> str:
        if self.op == COPY:
            return f"copy(po{self.output} <- n{self.node})"
        return f"{self.op}(n{self.node})"


@dataclass(frozen=True)
class ScheduleStats:
    """Replay statistics of a valid schedule."""

    pebble_peak: int
    num_computes: int
    num_uncomputes: int
    num_copies: int

    @property
    def num_steps(self) -> int:
        return self.num_computes + self.num_uncomputes + self.num_copies


@dataclass
class PebbleSchedule:
    """A pebbling schedule bound to the LUT mapping it plays on."""

    mapping: LutMapping
    steps: List[PebbleStep] = field(default_factory=list)
    strategy: str = "custom"
    max_pebbles: Optional[int] = None
    #: Cached replay statistics; filled by :meth:`stats`.  Mutating
    #: :attr:`steps` after validation invalidates the cache — build a new
    #: schedule instead.
    _stats: Optional[ScheduleStats] = field(
        default=None, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def compute_steps(self) -> List[PebbleStep]:
        """The compute steps in schedule order."""
        return [step for step in self.steps if step.op == COMPUTE]

    def stats(self) -> ScheduleStats:
        """Validate the schedule and return the (cached) replay statistics."""
        if self._stats is None:
            self._stats = validate_schedule(self)
        return self._stats

    def pebble_peak(self) -> int:
        """Largest number of simultaneously pebbled LUTs (replays the game)."""
        return self.stats().pebble_peak

    def num_recomputes(self) -> int:
        """Compute steps beyond the first per LUT (the recomputation cost)."""
        return len(self.compute_steps()) - len(
            {step.node for step in self.steps if step.op == COMPUTE}
        )


def validate_schedule(schedule: PebbleSchedule) -> ScheduleStats:
    """Replay a schedule and check every pebble-game rule.

    Raises :class:`InvalidScheduleError` when a step computes an unknown or
    already-pebbled LUT, (un)computes a LUT whose fanin LUTs are not all
    pebbled, copies an output whose driver is not pebbled, copies an output
    twice, exceeds the declared ``max_pebbles`` budget, misses an output,
    or leaves pebbles (dirty ancillas) at the end.  Returns the replay
    statistics on success.

    The replay keeps the pebbled LUTs as positions of the mapping's
    :func:`_pebble_memo` index, so a step costs one position lookup and
    one subset test of its fanin positions.
    """
    mapping = schedule.mapping
    memo = _pebble_memo(mapping)
    position = memo["position"]
    fanins = memo["fanins"]
    budget = schedule.max_pebbles
    pebbled: Set[int] = set()
    copied: Set[int] = set()
    pos = mapping.aig.pos()
    peak = 0
    computes = uncomputes = copies = 0

    def _require_fanins(step: PebbleStep, at: int) -> None:
        if not pebbled.issuperset(fanins[at]):
            missing = [
                d for d in mapping.dependencies(step.node)
                if position[d] not in pebbled
            ]
            raise InvalidScheduleError(
                f"step {step} requires pebbles on fanin LUTs {missing}"
            )

    for index, step in enumerate(schedule.steps):
        op = step.op
        if op == COMPUTE:
            at = position.get(step.node)
            if at is None:
                raise InvalidScheduleError(f"step {index}: {step.node} is not a LUT root")
            if at in pebbled:
                raise InvalidScheduleError(f"step {index}: {step} is already pebbled")
            _require_fanins(step, at)
            pebbled.add(at)
            computes += 1
            if len(pebbled) > peak:
                peak = len(pebbled)
                if budget is not None and peak > budget:
                    raise InvalidScheduleError(
                        f"step {index}: {peak} pebbles exceed the declared "
                        f"budget of {budget}"
                    )
        elif op == UNCOMPUTE:
            at = position.get(step.node)
            if at not in pebbled:
                raise InvalidScheduleError(f"step {index}: {step} is not pebbled")
            _require_fanins(step, at)
            pebbled.discard(at)
            uncomputes += 1
        elif op == COPY:
            if step.output is None or not 0 <= step.output < len(pos):
                raise InvalidScheduleError(
                    f"step {index}: {step} names no valid primary output"
                )
            if step.output in copied:
                raise InvalidScheduleError(
                    f"step {index}: output {step.output} copied twice"
                )
            driver = lit_node(pos[step.output])
            if step.node != driver:
                raise InvalidScheduleError(
                    f"step {index}: {step} does not match the output driver "
                    f"node {driver}"
                )
            at = position.get(driver)
            if at is not None and at not in pebbled:
                raise InvalidScheduleError(
                    f"step {index}: output {step.output} copied while its "
                    f"driver LUT {driver} is unpebbled"
                )
            copied.add(step.output)
            copies += 1
        else:
            raise InvalidScheduleError(f"step {index}: unknown op {step.op!r}")

    if pebbled:
        order = mapping.order
        raise InvalidScheduleError(
            f"{len(pebbled)} ancillas left dirty at the end of the schedule: "
            f"{sorted(order[at] for at in pebbled)}"
        )
    missing_outputs = sorted(set(range(len(pos))) - copied)
    if missing_outputs:
        raise InvalidScheduleError(f"outputs never copied: {missing_outputs}")
    return ScheduleStats(peak, computes, uncomputes, copies)


def _copy_step(mapping: LutMapping, output: int) -> PebbleStep:
    return PebbleStep(COPY, lit_node(mapping.aig.pos()[output]), output)


# -- strategies ---------------------------------------------------------------


def bennett_schedule(mapping: LutMapping) -> PebbleSchedule:
    """Compute every LUT, copy all outputs, uncompute everything in reverse."""
    steps = [PebbleStep(COMPUTE, root) for root in mapping.order]
    steps += [_copy_step(mapping, j) for j in range(mapping.aig.num_pos())]
    steps += [PebbleStep(UNCOMPUTE, root) for root in reversed(mapping.order)]
    return PebbleSchedule(mapping, steps, strategy="bennett")


def eager_schedule(mapping: LutMapping) -> PebbleSchedule:
    """Per-output cleanup: compute, copy and uncompute one cone at a time."""
    steps: List[PebbleStep] = []
    for j, po in enumerate(mapping.aig.pos()):
        cone = mapping.lut_cone(lit_node(po))
        steps += [PebbleStep(COMPUTE, root) for root in cone]
        steps.append(_copy_step(mapping, j))
        steps += [PebbleStep(UNCOMPUTE, root) for root in reversed(cone)]
    return PebbleSchedule(mapping, steps, strategy="eager")


class _BoundedScheduler:
    """Budgeted pebbling: shared pebbles with recompute-on-demand eviction.

    The scheduler keeps every computed LUT pebbled (so logic shared between
    outputs is reused, like the Bennett strategy) until the pebble budget
    is reached; it then evicts pebbles whose fanin LUTs are all currently
    pebbled — the pebble-game precondition for uncomputing — and recomputes
    them on demand if they are needed again.  A pebble whose fanins were
    evicted underneath it (an *orphan*) is not evictable immediately, but
    its value remains correct, and the final cleanup re-pebbles fanins
    before uncomputing.  Pins protect the fanins of the LUT currently being
    (un)computed from eviction; a budget that cannot accommodate the pinned
    recursion path is infeasible and raises :class:`ValueError`.

    A run plays on the LUT positions of :func:`_pebble_memo`'s index (and
    :func:`_scheduler_index`'s), which every run of a mapping shares.
    Positions ascend with node index, so "highest position" below means
    "highest node index".  The state is dense: :attr:`live` and
    :attr:`ready` are bytearrays over positions, :attr:`missing` counts
    each LUT's unpebbled fanins and :attr:`pins` its pins.  :meth:`_add`
    and :meth:`_drop`, the only places that change :attr:`live`, keep
    *ready* (pebbled, no fanin missing) up to date, so an eviction picks
    its victim without testing the fanins of any pebble.  The victim is
    the highest ready, unpinned pebble, popped from a lazy max-heap of
    positions: :meth:`_add` pushes every LUT it makes ready, :meth:`_drop`
    only clears the flag, and :meth:`_make_room` skips stale entries, so
    an eviction costs O(log n) plus the pinned entries it sets aside.
    Steps are recorded as int codes (see :func:`_by_code`); only the
    schedule :func:`bounded_schedule` returns is decoded into
    :class:`PebbleStep` objects.
    """

    def __init__(self, memo: Dict, max_pebbles: int):
        if max_pebbles < 1:
            raise ValueError("max_pebbles must be at least 1")
        deps = memo["deps"]
        self.budget = max_pebbles
        self.deps: List[Tuple[int, ...]] = deps
        self.parents: List[List[int]] = memo["parents"]
        self.drivers: List[Optional[int]] = memo["drivers"]
        self.steps: List[int] = []
        self.live = bytearray(len(deps))
        self.num_live = 0
        self.ready = bytearray(len(deps))
        self.missing = [len(fanins) for fanins in deps]
        self.pins = [0] * len(deps)
        self.heap: List[int] = []  # negated positions; may hold stale entries

    # -- bookkeeping ----------------------------------------------------------

    def _add(self, at: int) -> None:
        """Pebble ``at``; parents whose last missing fanin it was turn ready."""
        live, ready, missing = self.live, self.ready, self.missing
        live[at] = 1
        self.num_live += 1
        if not missing[at]:
            ready[at] = 1
            heapq.heappush(self.heap, -at)
        for parent in self.parents[at]:
            missing[parent] -= 1
            if not missing[parent] and live[parent]:
                ready[parent] = 1
                heapq.heappush(self.heap, -parent)

    def _drop(self, at: int) -> None:
        """Unpebble ``at``; its pebbled parents become orphans."""
        ready, missing = self.ready, self.missing
        self.live[at] = 0
        self.num_live -= 1
        ready[at] = 0
        for parent in self.parents[at]:
            missing[parent] += 1
            ready[parent] = 0

    # -- the game -------------------------------------------------------------

    def _make_room(self) -> None:
        heap, ready, pins = self.heap, self.ready, self.pins
        while self.num_live >= self.budget:
            # Evict the highest-index (deepest) candidate: it is the
            # furthest from the inputs and therefore the least likely to be
            # needed as a fanin of upcoming computations.
            pinned: List[int] = []
            victim = -1
            while heap:
                at = -heapq.heappop(heap)
                if not ready[at]:
                    continue
                if pins[at]:
                    pinned.append(at)
                    continue
                victim = at
                break
            for at in pinned:
                heapq.heappush(heap, -at)
            if victim < 0:
                raise ValueError(
                    f"max_pebbles={self.budget} is too small for this LUT "
                    f"DAG: {self.num_live} pebbles are pinned or orphaned"
                )
            self.steps.append(~victim)
            self._drop(victim)

    def _ensure(self, root: int) -> None:
        """Place a pebble on ``root``, recomputing evicted fanins on demand.

        An explicit DFS stack (not recursion): LUT dependency chains grow
        with the design depth, and a deep chain must not overflow the
        Python recursion limit.  Each frame pins the fanins it has secured
        so far; a fanin is pinned when its own frame completes.
        """
        live, deps, pins, steps = self.live, self.deps, self.pins, self.steps
        if live[root]:
            return
        # frame: [position, iterator over remaining deps, deps pinned so far]
        stack = [[root, iter(deps[root]), []]]
        while stack:
            at, fanins, pinned = stack[-1]
            for dep in fanins:
                if live[dep]:
                    pins[dep] += 1
                    pinned.append(dep)
                    continue
                stack.append([dep, iter(deps[dep]), []])
                break
            else:
                if self.num_live >= self.budget:
                    self._make_room()
                steps.append(at)
                self._add(at)
                for dep in pinned:
                    pins[dep] -= 1
                stack.pop()
                if stack:
                    pins[at] += 1
                    stack[-1][2].append(at)

    def _release(self, at: int) -> None:
        """Remove the pebble from ``at``, recomputing fanins if needed."""
        # Pin the LUT itself: the eviction inside _ensure could otherwise
        # pick it as a victim and uncompute it twice.  A run that raises
        # is discarded, so its pins need no unwinding.
        pins = self.pins
        pins[at] += 1
        for dep in self.deps[at]:
            self._ensure(dep)
            pins[dep] += 1
        self.steps.append(~at)
        self._drop(at)
        pins[at] -= 1
        for dep in self.deps[at]:
            pins[dep] -= 1

    def run(self) -> List[int]:
        steps, live = self.steps, self.live
        for j, driver in enumerate(self.drivers):
            if driver is not None:
                self._ensure(driver)
            steps.append(len(live) + j)
        # Final cleanup: uncompute the remaining pebbles top-down.  Positions
        # are topological, so the highest pebble never has a pebbled parent;
        # its fanins are recomputed on demand, below it, so the scan for
        # the next highest pebble continues downward from it.
        at = len(live) - 1
        while self.num_live:
            while not live[at]:
                at -= 1
            self._release(at)
        return steps


#: Growth factor of the anchor-budget ladder evaluated by
#: :func:`bounded_schedule`.
_ANCHOR_GROWTH = 1.25


def _pebble_memo(mapping: LutMapping) -> Dict:
    """Per-mapping index of the LUT DAG and memo of greedy runs.

    Attached to the mapping object on first use and shared by every
    greedy run and every :func:`validate_schedule` call on it.  A LUT is
    indexed by its *position* in ``mapping.order``, which is topological
    and ascends with node index.  The index holds ``"position"`` (LUT root
    -> position), ``"fanins"`` (each position's fanin positions, in
    :meth:`~repro.logic.cuts.LutMapping.dependencies` order) and
    ``"drivers"`` (each primary output's driver position, ``None`` for an
    input or constant driver).  The first greedy run adds what only the
    scheduler reads (see :func:`_scheduler_index`).

    The memo holds the int-coded greedy run of every budget tried
    (``"greedy"``, ``None`` when infeasible), its ranking (``"cost"``) and,
    once a run is ranked, the per-code gate costs (``"step_gates"``).
    """
    memo = getattr(mapping, "_pebble_memo", None)
    if memo is None:
        position = {root: at for at, root in enumerate(mapping.order)}
        memo = {
            "greedy": {},
            "cost": {},
            "position": position,
            "fanins": [
                tuple(position[dep] for dep in mapping.dependencies(root))
                for root in mapping.order
            ],
            "drivers": [position.get(lit_node(po)) for po in mapping.aig.pos()],
        }
        mapping._pebble_memo = memo
    return memo


def _scheduler_index(memo: Dict) -> Dict:
    """Add the greedy scheduler's view of the DAG to a :func:`_pebble_memo`.

    ``"deps"`` holds each position's fanins in recursion order and
    ``"parents"`` its fanout positions.  The recursion order is by
    descending cone size (then position): computing the largest sub-cone
    first holds the fewest sibling pins while the deepest recursion is in
    flight.  Cone sizes come from one topological pass over big-int
    bitsets, one bit per LUT.
    """
    if "deps" not in memo:
        fanins = memo["fanins"]
        deps: List[Tuple[int, ...]] = []
        parents: List[List[int]] = [[] for _ in fanins]
        cones: List[int] = []
        cone_size: List[int] = []
        for at, ins in enumerate(fanins):
            cone = 1 << at
            for dep in ins:
                cone |= cones[dep]
                parents[dep].append(at)
            cones.append(cone)
            cone_size.append(popcount(cone))
            deps.append(tuple(sorted(ins, key=lambda dep: (-cone_size[dep], dep))))
        memo["deps"], memo["parents"] = deps, parents
    return memo


def _by_code(per_lut: List, per_output: List, per_lut_undo: List) -> List:
    """A table indexed by the int step codes of a greedy run.

    A run codes ``compute`` of position ``at`` as ``at``, ``copy`` of
    output ``j`` as ``num_luts + j`` and ``uncompute`` of ``at`` as
    ``~at``; with the undo entries appended in reverse, the negative code
    ``~at`` indexes ``per_lut_undo[at]`` from the end of the table.
    """
    return per_lut + per_output + per_lut_undo[::-1]


def _greedy_run(mapping: LutMapping, budget: int) -> Optional[List[int]]:
    """The int-coded greedy run for one budget, or ``None`` when infeasible.

    Greedy feasibility is *not* monotone in the budget (the eviction choice
    changes with the budget, and an unlucky choice can strand the
    scheduler), so both outcomes are memoized and callers must treat an
    infeasible budget as skippable rather than as a lower bound.
    """
    memo = _pebble_memo(mapping)
    runs = memo["greedy"]
    if budget not in runs:
        try:
            runs[budget] = _BoundedScheduler(_scheduler_index(memo), budget).run()
        except ValueError:
            runs[budget] = None
    return runs[budget]


def _greedy_steps(mapping: LutMapping, budget: int) -> Optional[List[PebbleStep]]:
    """The greedy run for one budget as steps, or ``None`` when infeasible."""
    run = _greedy_run(mapping, budget)
    if run is None:
        return None
    step_of = _by_code(
        [PebbleStep(COMPUTE, root) for root in mapping.order],
        [_copy_step(mapping, j) for j in range(mapping.aig.num_pos())],
        [PebbleStep(UNCOMPUTE, root) for root in mapping.order],
    )
    return [step_of[code] for code in run]


def _estimated_gates(mapping: LutMapping, run: Sequence[int]) -> int:
    """Gate count of the default (ESOP) executor for an int-coded run.

    Deterministic in the schedule alone, so it can rank candidate schedules
    without synthesising circuits.  A LUT block costs its PSDKRO cube
    count, the :func:`~repro.logic.esop.psdkro_cubes` primitive of the
    executor's blocks, so the estimate cannot drift from the synthesised
    gate count; a copy costs a CNOT unless the driver is constant, plus a
    NOT for a complemented output.
    """
    memo = _pebble_memo(mapping)
    gates = memo.get("step_gates")
    if gates is None:
        from repro.logic.esop import psdkro_cubes

        blocks = [
            len(psdkro_cubes(truth, len(leaves)))
            for leaves, truth in map(mapping.luts.__getitem__, mapping.order)
        ]
        copies = [(lit_node(po) != 0) + (po & 1) for po in mapping.aig.pos()]
        gates = memo["step_gates"] = _by_code(blocks, copies, blocks)
    return sum(map(gates.__getitem__, run))


def _anchor_budgets(maximum: int) -> List[int]:
    """Geometric ladder of budgets from 1 to ``maximum``, dense at the start."""
    anchors = []
    budget = 1
    while budget < maximum:
        anchors.append(budget)
        budget = max(budget + 1, int(round(budget * _ANCHOR_GROWTH)))
    anchors.append(maximum)
    return anchors


def _schedule_cost(mapping: LutMapping, budget: int) -> Optional[Tuple[int, int]]:
    """Memoized (estimated gates, steps) of one greedy run; ``None`` if infeasible."""
    memo = _pebble_memo(mapping)
    if budget not in memo["cost"]:
        run = _greedy_run(mapping, budget)
        memo["cost"][budget] = (
            None if run is None else (_estimated_gates(mapping, run), len(run))
        )
    return memo["cost"][budget]


def _resolve_budget(mapping: LutMapping, max_pebbles) -> int:
    """An absolute pebble budget; a float in ``(0, 1)`` is a LUT-count fraction."""
    if isinstance(max_pebbles, float) and 0 < max_pebbles < 1:
        max_pebbles = max(
            minimum_pebbles(mapping),
            int(round(max_pebbles * mapping.num_luts())),
        )
    # Outside input (a service payload, a ``--sweep`` value) may carry a
    # word, a boolean or a non-finite float where a count belongs.
    if (
        isinstance(max_pebbles, (str, bool))
        or (isinstance(max_pebbles, float) and not math.isfinite(max_pebbles))
        or (max_pebbles >= 1 and max_pebbles != int(max_pebbles))
    ):
        raise ValueError(
            f"max_pebbles must be an integer pebble count or a fraction in "
            f"(0, 1), got {max_pebbles!r}"
        )
    max_pebbles = int(max_pebbles)
    if max_pebbles < 1:
        raise ValueError("max_pebbles must be at least 1")
    return max_pebbles


def bounded_schedule(mapping: LutMapping, max_pebbles) -> PebbleSchedule:
    """A schedule that never holds more than ``max_pebbles`` pebbles.

    ``max_pebbles`` is an absolute pebble budget; a float in ``(0, 1)`` is
    accepted as a fraction of the LUT count (raised to
    :func:`minimum_pebbles` when the fraction lands below it, convenient
    for sweeps over designs of unknown size).  A budget no scheduler run
    can satisfy raises :class:`ValueError`.

    The heuristic evaluates the greedy scheduler on a geometric ladder of
    anchor budgets up to ``max_pebbles`` — anchors whose greedy run is
    infeasible are skipped, since greedy feasibility is not monotone in
    the budget — and keeps the cheapest result by the deterministic
    gate-count estimate of the ESOP executor.  Because a larger budget
    only ever *adds* anchors to the candidate set, the gate count is
    monotonically non-increasing in the budget for every budget at or
    above :func:`minimum_pebbles` — the metamorphic guarantee the test
    suite pins — while every candidate's pebble peak is bounded by its own
    anchor and therefore by ``max_pebbles``.  Below the minimum, the
    budget itself is probed as a last resort before rejecting, so a valid
    user budget is never refused on the ladder's account.
    """
    max_pebbles = _resolve_budget(mapping, max_pebbles)
    best: Optional[int] = None
    best_cost: Optional[Tuple[int, int]] = None
    for anchor in _anchor_budgets(max(1, mapping.num_luts())):
        if anchor > max_pebbles:
            break
        cost = _schedule_cost(mapping, anchor)
        if cost is None:
            continue
        if best_cost is None or cost < best_cost:
            best, best_cost = anchor, cost
    if best is None:
        # No feasible anchor at or below the budget: probe the budget
        # itself before giving up (feasibility is not monotone, so a
        # non-anchor budget may still work).
        if _greedy_run(mapping, max_pebbles) is None:
            raise ValueError(
                f"max_pebbles={max_pebbles} is below the scheduler's "
                f"minimum of {minimum_pebbles(mapping)} for this LUT DAG"
            )
        best = max_pebbles
    return PebbleSchedule(
        mapping,
        _greedy_steps(mapping, best),
        strategy="bounded",
        max_pebbles=max_pebbles,
    )


def minimum_pebbles(mapping: LutMapping) -> int:
    """Smallest anchor budget the bounded scheduler is guaranteed to accept.

    Every ``max_pebbles`` at or above this value succeeds (and enjoys the
    monotone gate-count guarantee); a smaller budget may still be accepted
    when its own greedy run happens to be feasible.  This is the
    heuristic's threshold, an upper bound on the optimal pebbling number
    of the DAG.  The result and every probe run are memoized on the
    mapping object.
    """
    memo = _pebble_memo(mapping)
    if "minimum" not in memo:
        for anchor in _anchor_budgets(max(1, mapping.num_luts())):
            if _greedy_run(mapping, anchor) is not None:
                memo["minimum"] = anchor
                break
        else:  # pragma: no cover - the full-DAG budget never evicts
            memo["minimum"] = max(1, mapping.num_luts())
    return memo["minimum"]


#: Every strategy spelling ``make_schedule`` accepts -> its canonical name.
_STRATEGY_NAMES = {
    "bennett": "bennett",
    "eager": "eager",
    "per_output": "eager",
    "bounded": "bounded",
}


def _known_strategies() -> str:
    return ", ".join(
        repr(name)
        + "".join(
            f" (alias {alias!r})"
            for alias, target in _STRATEGY_NAMES.items()
            if target == name != alias
        )
        for name in sorted(set(_STRATEGY_NAMES.values()))
    )


def make_schedule(
    mapping: LutMapping,
    strategy: str = "bennett",
    max_pebbles=None,
) -> PebbleSchedule:
    """Build and validate a schedule with the named strategy.

    ``strategy`` is the one strategy namespace of the ``hierarchical`` and
    ``lut`` flows: ``"bennett"``, ``"eager"`` (alias ``"per_output"``, the
    paper's per-output cleanup) or ``"bounded"``; an unknown name raises
    ``ValueError`` with a did-you-mean suggestion.  ``max_pebbles`` is the
    budget of ``"bounded"`` (default ``0.5``); giving it to another
    strategy raises ``ValueError``.
    """
    # A service payload can carry any JSON value, unhashable ones included.
    canonical = _STRATEGY_NAMES.get(strategy) if isinstance(strategy, str) else None
    if canonical is None:
        raise ValueError(
            f"unknown pebbling strategy {strategy!r} for the 'strategy' "
            f"parameter; expected one of {_known_strategies()}"
            f"{did_you_mean(closest_name(strategy, _STRATEGY_NAMES))}"
        )
    if max_pebbles is not None and canonical in ("bennett", "eager"):
        raise ValueError(
            f"strategy {strategy!r} takes no pebble budget, got "
            f"max_pebbles={max_pebbles!r}; budgets apply to the 'bounded' "
            f"strategy"
        )
    if canonical == "bennett":
        schedule = bennett_schedule(mapping)
    elif canonical == "eager":
        schedule = eager_schedule(mapping)
    else:
        schedule = bounded_schedule(
            mapping, 0.5 if max_pebbles is None else max_pebbles
        )
    schedule.stats()  # validate once; callers reuse the cached statistics
    return schedule
