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
(:mod:`repro.reversible.exact_pebbling` adds a fourth, SAT-``exact``;
:func:`make_schedule` dispatches all four by name and is the one place
that checks which strategy takes which option):

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
import numbers
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

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
    #: Free-form provenance metadata: the exact engine records which SAT
    #: mode produced the schedule, whether optimality was proven, and its
    #: solver effort here.  Never interpreted by the executor.
    info: Dict = field(default_factory=dict, repr=False, compare=False)

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
    """
    mapping = schedule.mapping
    pebbled: Set[int] = set()
    copied: Set[int] = set()
    pos = mapping.aig.pos()
    peak = 0
    computes = uncomputes = copies = 0

    def _require_fanins(step: PebbleStep) -> None:
        missing = [d for d in mapping.dependencies(step.node) if d not in pebbled]
        if missing:
            raise InvalidScheduleError(
                f"step {step} requires pebbles on fanin LUTs {missing}"
            )

    for index, step in enumerate(schedule.steps):
        if step.op == COMPUTE:
            if step.node not in mapping.luts:
                raise InvalidScheduleError(f"step {index}: {step.node} is not a LUT root")
            if step.node in pebbled:
                raise InvalidScheduleError(f"step {index}: {step} is already pebbled")
            _require_fanins(step)
            pebbled.add(step.node)
            peak = max(peak, len(pebbled))
            computes += 1
            if schedule.max_pebbles is not None and len(pebbled) > schedule.max_pebbles:
                raise InvalidScheduleError(
                    f"step {index}: {len(pebbled)} pebbles exceed the declared "
                    f"budget of {schedule.max_pebbles}"
                )
        elif step.op == UNCOMPUTE:
            if step.node not in pebbled:
                raise InvalidScheduleError(f"step {index}: {step} is not pebbled")
            _require_fanins(step)
            pebbled.discard(step.node)
            uncomputes += 1
        elif step.op == COPY:
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
            if driver in mapping.luts and driver not in pebbled:
                raise InvalidScheduleError(
                    f"step {index}: output {step.output} copied while its "
                    f"driver LUT {driver} is unpebbled"
                )
            copied.add(step.output)
            copies += 1
        else:
            raise InvalidScheduleError(f"step {index}: unknown op {step.op!r}")

    if pebbled:
        raise InvalidScheduleError(
            f"{len(pebbled)} ancillas left dirty at the end of the schedule: "
            f"{sorted(pebbled)}"
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

    The DAG structure a run reads — every LUT's fanins in recursion order
    and its fanout LUTs — is computed once per mapping by
    :func:`_pebble_memo` and shared by all runs.  The run keeps, for every
    LUT, the number of its fanins that are not pebbled, and the *ready*
    set of pebbled LUTs whose count is zero; :meth:`_add` and
    :meth:`_drop`, the only places that change :attr:`live`, update both,
    so an eviction picks its victim from the ready set without testing the
    fanins of any pebble.  The victim is the highest-index ready, unpinned
    pebble, popped from a lazy max-heap beside the ready set:
    :meth:`_add` pushes every LUT it makes ready, :meth:`_drop` only
    discards from the set, and :meth:`_make_room` skips stale entries, so
    an eviction costs O(log n) plus the pinned entries it sets aside.
    """

    def __init__(self, mapping: LutMapping, max_pebbles: int):
        if max_pebbles < 1:
            raise ValueError("max_pebbles must be at least 1")
        memo = _pebble_memo(mapping)
        self.mapping = mapping
        self.budget = max_pebbles
        self.steps: List[PebbleStep] = []
        self.live: Set[int] = set()
        self.pins: Dict[int, int] = {}
        self._deps: Dict[int, Tuple[int, ...]] = memo["deps"]
        self._parents: Dict[int, List[int]] = memo["parents"]
        self._missing = {root: len(deps) for root, deps in self._deps.items()}
        self.ready: Set[int] = set()
        self._heap: List[int] = []  # negated ids; may hold stale entries

    # -- bookkeeping ----------------------------------------------------------

    def _pin(self, node: int) -> None:
        self.pins[node] = self.pins.get(node, 0) + 1

    def _unpin(self, node: int) -> None:
        self.pins[node] -= 1
        if not self.pins[node]:
            del self.pins[node]

    def _add(self, node: int) -> None:
        """Pebble ``node``; parents whose last missing fanin it was turn ready."""
        self.live.add(node)
        if not self._missing[node]:
            self.ready.add(node)
            heapq.heappush(self._heap, -node)
        for parent in self._parents[node]:
            self._missing[parent] -= 1
            if not self._missing[parent] and parent in self.live:
                self.ready.add(parent)
                heapq.heappush(self._heap, -parent)

    def _drop(self, node: int) -> None:
        """Unpebble ``node``; its pebbled parents become orphans."""
        self.live.discard(node)
        self.ready.discard(node)
        for parent in self._parents[node]:
            self._missing[parent] += 1
            self.ready.discard(parent)

    # -- the game -------------------------------------------------------------

    def _make_room(self) -> None:
        while len(self.live) >= self.budget:
            # Evict the highest-index (deepest) candidate: it is the
            # furthest from the inputs and therefore the least likely to be
            # needed as a fanin of upcoming computations.
            heap = self._heap
            pinned: List[int] = []
            victim = None
            while heap:
                node = -heapq.heappop(heap)
                if node not in self.ready:
                    continue
                if node in self.pins:
                    pinned.append(node)
                    continue
                victim = node
                break
            for node in pinned:
                heapq.heappush(heap, -node)
            if victim is None:
                raise ValueError(
                    f"max_pebbles={self.budget} is too small for this LUT "
                    f"DAG: {len(self.live)} pebbles are pinned or orphaned"
                )
            self.steps.append(PebbleStep(UNCOMPUTE, victim))
            self._drop(victim)

    def _ensure(self, root: int) -> None:
        """Place a pebble on ``root``, recomputing evicted fanins on demand.

        An explicit DFS stack (not recursion): LUT dependency chains grow
        with the design depth, and a deep chain must not overflow the
        Python recursion limit.  Each frame pins the fanins it has secured
        so far; a fanin is pinned when its own frame completes.
        """
        if root in self.live:
            return
        # frame: [node, iterator over remaining deps, deps pinned so far]
        stack = [[root, iter(self._deps[root]), []]]
        while stack:
            node, deps, pinned = stack[-1]
            for dep in deps:
                if dep in self.live:
                    self._pin(dep)
                    pinned.append(dep)
                    continue
                stack.append([dep, iter(self._deps[dep]), []])
                break
            else:
                self._make_room()
                self.steps.append(PebbleStep(COMPUTE, node))
                self._add(node)
                for dep in pinned:
                    self._unpin(dep)
                stack.pop()
                if stack:
                    self._pin(node)
                    stack[-1][2].append(node)

    def _release(self, node: int) -> None:
        """Remove the pebble from ``node``, recomputing fanins if needed."""
        # Pin the node itself: the eviction inside _ensure could otherwise
        # pick it as a victim and uncompute it twice.
        self._pin(node)
        pinned: List[int] = [node]
        try:
            for dep in self._deps[node]:
                self._ensure(dep)
                self._pin(dep)
                pinned.append(dep)
            self.steps.append(PebbleStep(UNCOMPUTE, node))
            self._drop(node)
        finally:
            for dep in pinned:
                self._unpin(dep)

    def run(self) -> List[PebbleStep]:
        mapping = self.mapping
        for j, po in enumerate(mapping.aig.pos()):
            driver = lit_node(po)
            if driver in mapping.luts:
                self._ensure(driver)
            self.steps.append(_copy_step(mapping, j))
        # Final cleanup: uncompute the remaining pebbles top-down.  Node
        # indices are topological, so the highest-index pebble never has a
        # pebbled parent; its fanins are recomputed on demand.
        while self.live:
            self._release(max(self.live))
        return self.steps


#: Growth factor of the anchor-budget ladder evaluated by
#: :func:`bounded_schedule`.
_ANCHOR_GROWTH = 1.25


def _pebble_memo(mapping: LutMapping) -> Dict:
    """Per-mapping memo of greedy runs (attached to the mapping object).

    Also holds the LUT DAG structure every greedy run reads: ``"deps"``
    maps each LUT to its fanin LUTs in recursion order and ``"parents"``
    to its fanout LUTs.  The recursion order is by descending cone size
    (then node index): computing the largest sub-cone first holds the
    fewest sibling pins while the deepest recursion is in flight.  Cone
    sizes come from one topological pass over big-int bitsets, one bit per
    LUT.
    """
    memo = getattr(mapping, "_pebble_memo", None)
    if memo is None:
        deps: Dict[int, Tuple[int, ...]] = {}
        parents: Dict[int, List[int]] = {root: [] for root in mapping.order}
        cones: Dict[int, int] = {}
        cone_size: Dict[int, int] = {}
        for index, root in enumerate(mapping.order):
            fanins = mapping.dependencies(root)
            cone = 1 << index
            for dep in fanins:
                cone |= cones[dep]
                parents[dep].append(root)
            cones[root] = cone
            cone_size[root] = popcount(cone)
            deps[root] = tuple(
                sorted(fanins, key=lambda dep: (-cone_size[dep], dep))
            )
        memo = {
            "greedy": {},
            "cost": {},
            "block_gates": {},
            "deps": deps,
            "parents": parents,
        }
        mapping._pebble_memo = memo
    return memo


def _greedy_steps(mapping: LutMapping, budget: int) -> Optional[List[PebbleStep]]:
    """The greedy run for one budget, or ``None`` when it is infeasible.

    Greedy feasibility is *not* monotone in the budget (the eviction choice
    changes with the budget, and an unlucky choice can strand the
    scheduler), so both outcomes are memoized and callers must treat an
    infeasible budget as skippable rather than as a lower bound.
    """
    memo = _pebble_memo(mapping)
    if budget not in memo["greedy"]:
        try:
            memo["greedy"][budget] = _BoundedScheduler(mapping, budget).run()
        except ValueError:
            memo["greedy"][budget] = None
    return memo["greedy"][budget]


def _lut_gate_costs(mapping: LutMapping, nodes: Iterable[int]) -> List[int]:
    """ESOP cube counts per LUT — the executor's per-block gate estimate.

    Uses the same :func:`~repro.logic.esop.psdkro_cubes` primitive as the
    executor's blocks, so the estimate cannot drift from the synthesised
    gate count.  Memoized per LUT on the mapping.
    """
    from repro.logic.esop import psdkro_cubes

    block_gates = _pebble_memo(mapping)["block_gates"]
    costs = []
    for node in nodes:
        if node not in block_gates:
            leaves, truth = mapping.luts[node]
            block_gates[node] = len(psdkro_cubes(truth, len(leaves)))
        costs.append(block_gates[node])
    return costs


def _estimated_gates(mapping: LutMapping, steps: Sequence[PebbleStep]) -> int:
    """Gate count of the default (ESOP) executor for a step list.

    Deterministic in the schedule alone, so it can rank candidate schedules
    without synthesising circuits.
    """
    total = 0
    lut_steps = []
    for step in steps:
        if step.op == COPY:
            po = mapping.aig.pos()[step.output]
            if lit_node(po) != 0:
                total += 1
            if po & 1:
                total += 1
        else:
            lut_steps.append(step.node)
    return total + sum(_lut_gate_costs(mapping, lut_steps))


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
        steps = _greedy_steps(mapping, budget)
        memo["cost"][budget] = (
            None if steps is None else (_estimated_gates(mapping, steps), len(steps))
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
    # word or a boolean where a number belongs.
    if isinstance(max_pebbles, (str, bool)) or (
        max_pebbles >= 1 and max_pebbles != int(max_pebbles)
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
    memo = _pebble_memo(mapping)
    best: Optional[List[PebbleStep]] = None
    best_cost: Optional[Tuple[int, int]] = None
    for anchor in _anchor_budgets(max(1, mapping.num_luts())):
        if anchor > max_pebbles:
            break
        cost = _schedule_cost(mapping, anchor)
        if cost is None:
            continue
        if best_cost is None or cost < best_cost:
            best, best_cost = memo["greedy"][anchor], cost
    if best is None:
        # No feasible anchor at or below the budget: probe the budget
        # itself before giving up (feasibility is not monotone, so a
        # non-anchor budget may still work).
        if _schedule_cost(mapping, max_pebbles) is not None:
            best = memo["greedy"][max_pebbles]
        else:
            raise ValueError(
                f"max_pebbles={max_pebbles} is below the scheduler's "
                f"minimum of {minimum_pebbles(mapping)} for this LUT DAG"
            )
    return PebbleSchedule(
        mapping, list(best), strategy="bounded", max_pebbles=max_pebbles
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
            if _greedy_steps(mapping, anchor) is not None:
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
    "exact": "exact",
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
    exact_time_budget=None,
) -> PebbleSchedule:
    """Build and validate a schedule with the named strategy.

    ``strategy`` is the one strategy namespace of the ``hierarchical`` and
    ``lut`` flows: ``"bennett"``, ``"eager"`` (alias ``"per_output"``, the
    paper's per-output cleanup), ``"bounded"`` or ``"exact"``
    (:func:`repro.reversible.exact_pebbling.exact_schedule`); an unknown
    name raises ``ValueError`` with a did-you-mean suggestion.
    ``max_pebbles`` is the budget of ``"bounded"`` (default ``0.5``) and
    ``"exact"`` (default: :func:`minimum_pebbles`); ``exact_time_budget``
    caps the seconds ``"exact"`` spends in SAT.  Each option given to a
    strategy that does not take it raises ``ValueError``, as does an
    ``exact_time_budget`` that is not a positive, finite real number (a
    boolean or a numeric string is not one).
    """
    # A service payload can carry any JSON value, unhashable ones included.
    canonical = _STRATEGY_NAMES.get(strategy) if isinstance(strategy, str) else None
    if canonical is None:
        raise ValueError(
            f"unknown pebbling strategy {strategy!r} for the 'strategy' "
            f"parameter; expected one of {_known_strategies()}"
            f"{did_you_mean(closest_name(strategy, _STRATEGY_NAMES))}"
        )
    if exact_time_budget is not None:
        if canonical != "exact":
            raise ValueError(
                f"exact_time_budget={exact_time_budget!r} applies only to "
                f"strategy='exact', not strategy={strategy!r}"
            )
        if (
            isinstance(exact_time_budget, bool)
            or not isinstance(exact_time_budget, numbers.Real)
            or not 0 < exact_time_budget < math.inf
        ):
            raise ValueError(
                f"exact_time_budget must be a positive number of seconds "
                f"for strategy={strategy!r}, got {exact_time_budget!r}"
            )
    if max_pebbles is not None and canonical in ("bennett", "eager"):
        raise ValueError(
            f"strategy {strategy!r} takes no pebble budget, got "
            f"max_pebbles={max_pebbles!r}; budgets apply to the 'bounded' "
            f"and 'exact' strategies"
        )
    if canonical == "bennett":
        schedule = bennett_schedule(mapping)
    elif canonical == "eager":
        schedule = eager_schedule(mapping)
    elif canonical == "bounded":
        schedule = bounded_schedule(
            mapping, 0.5 if max_pebbles is None else max_pebbles
        )
    else:
        # Looked up at call time: exact_pebbling imports this module.
        from repro.reversible import exact_pebbling

        schedule = exact_pebbling.exact_schedule(
            mapping,
            max_pebbles=max_pebbles,
            time_budget=exact_pebbling.DEFAULT_TIME_BUDGET
            if exact_time_budget is None
            else float(exact_time_budget),
        )
    schedule.stats()  # validate once; callers reuse the cached statistics
    return schedule
