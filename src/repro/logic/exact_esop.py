"""Exact (minimum-cube) ESOP synthesis for small functions via SAT.

PSDKRO extraction (:func:`repro.logic.esop.psdkro_cubes`) is fast but only
heuristically small.  For the ≤4-input functions the LUT flows actually
synthesise, the minimum-cube ESOP problem is tiny enough to solve exactly:
"is there an ESOP of ``m`` mixed-polarity cubes equal to this truth
table?" becomes a CNF over per-cube literal-selector variables, and
iterative deepening on ``m`` finds the optimum.

Encoding, for a candidate cover of ``m`` cubes over ``n`` inputs:

* selector variables ``pos[j][x]`` / ``neg[j][x]`` — cube ``j`` contains
  the positive / negative literal of input ``x`` (not both),
* match variables ``t[j][a]`` for every input assignment ``a`` —
  ``t[j][a]`` holds iff cube ``j`` evaluates to 1 under ``a``, which is
  exactly "no selected literal of cube ``j`` disagrees with ``a``",
* a parity chain per assignment ties ``XOR_j t[j][a]`` to the truth-table
  bit of ``a``,
* symmetry breaking: consecutive cubes' selector vectors
  ``(pos[j][0], neg[j][0], pos[j][1], ...)`` are lexicographically
  non-increasing.  Any cover can be sorted that way, so no cover is lost,
  and the solver no longer explores all ``m!`` orderings of one cover.

Minimising cubes alone can *raise* the T-count: a single 4-control
Toffoli (23 T under the ``rtof`` model) is dearer than the two 2-control
ones (14 T) it may replace.  So after deepening finds the minimum cube
count, a descent pass minimises the ``rtof`` T-cost of the cover across
every cube count up to the PSDKRO's (at most ``min_cubes +``
:data:`_DESCENT_SLOT_SLACK` slots).  The descent encoding gates each slot
with an activation variable (an inactive slot is the all-zero selector
vector, so the ordering above also packs the active slots first).  Its
cost bound is a weighted counter (:meth:`~repro.sat.cnf.Cnf.at_most_weight`)
over per-cube threshold variables "the cube has at least ``i``
literals", each weighted by the model's marginal cost ``T(i) - T(i-1)``.
A final pass drops cost-free cubes at unchanged T-cost.  Every SAT call
carries the remaining share of a per-function time budget; on
``"unknown"`` the engine degrades to the PSDKRO cover, so the result is
never larger and never T-dearer than the heuristic one.

Results are memoised by ``(num_vars, truth)`` — LUT flows resynthesise the
same small functions constantly — and the memo exposes hit/miss counters
so the cache path stays testable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.logic.cube import Cube
from repro.logic.esop import psdkro_cubes
from repro.logic.truth_table import tt_mask
from repro.quantum.tcount import mct_t_count
from repro.sat import Cnf, solve

__all__ = [
    "DEFAULT_TIME_BUDGET",
    "MAX_EXACT_VARS",
    "exact_esop_cubes",
    "exact_esop_stats",
    "reset_exact_esop_memo",
]

#: Functions with more inputs than this always use the PSDKRO fallback —
#: the encoding grows with ``2^n`` match variables per cube.
MAX_EXACT_VARS = 4

#: Wall-clock seconds granted to one truth table (all deepening and
#: refinement calls together).
DEFAULT_TIME_BUDGET = 5.0

#: Conflict cap per T-cost-descent call: proving a cover cost-optimal can
#: dwarf finding it (improvements surface within a few hundred conflicts,
#: final refutations take thousands), and an interrupted proof just keeps
#: the best cover found so far (still never dearer than PSDKRO).
_DESCENT_CONFLICT_BUDGET = 1200

#: The cost descent searches covers of up to ``min_cubes + slack`` cubes:
#: cheaper-but-larger covers sit close to the minimum in practice, and
#: every extra slot inflates the encoding for all descent calls.
_DESCENT_SLOT_SLACK = 3

_memo: Dict[Tuple[int, int], List[Cube]] = {}
_stats = {
    "hits": 0, "misses": 0, "optimal": 0, "unproven": 0, "fallbacks": 0
}


def exact_esop_stats() -> Dict[str, int]:
    """A snapshot of the memo/solver counters (for tests and reports).

    ``optimal`` counts covers whose cost descent ended refuted (the cost
    is minimal over the descent's slot window), ``unproven`` those whose
    descent stopped on a conflict or time budget, and ``fallbacks`` the
    functions that got the PSDKRO cover because the budget ran out first.
    """
    return dict(_stats)


def reset_exact_esop_memo() -> None:
    """Clear the memo and zero the counters (test isolation)."""
    _memo.clear()
    for key in _stats:
        _stats[key] = 0


def _build_cover_cnf(
    truth: int, num_vars: int, num_cubes: int, activation: bool = False
) -> Tuple[Cnf, List[List[Tuple[int, int]]], Optional[List[int]]]:
    """CNF asserting "some ``num_cubes``-cube ESOP equals ``truth``".

    Returns the formula, per-cube ``(pos, neg)`` selector variable pairs
    per input (enough to read a cover back out of a model), and — with
    ``activation=True`` — one activation variable per cube slot.  An
    inactive slot contributes nothing: its selectors are forced off and it
    matches no assignment, so one encoding over ``num_cubes`` slots covers
    every cube count up to ``num_cubes`` at once, with the active slots
    packed to the front.  Either way the cubes' selector vectors are
    ordered lexicographically non-increasing, one representative per
    permutation of a cover.
    """
    cnf = Cnf()
    selectors: List[List[Tuple[int, int]]] = []
    active: Optional[List[int]] = [] if activation else None
    for _ in range(num_cubes):
        if activation:
            active.append(cnf.new_var())
        cube_selectors = []
        for _ in range(num_vars):
            pos, neg = cnf.new_var(), cnf.new_var()
            cnf.add_clause([-pos, -neg])
            if activation:
                cnf.add_clause([-pos, active[-1]])
                cnf.add_clause([-neg, active[-1]])
            cube_selectors.append((pos, neg))
        selectors.append(cube_selectors)
    if activation:
        for gap, packed in zip(active[1:], active):
            cnf.add_clause([-gap, packed])
    vectors = [[var for pair in cube for var in pair] for cube in selectors]
    for earlier, later in zip(vectors, vectors[1:]):
        _lex_non_increasing(cnf, earlier, later)

    for assignment in range(1 << num_vars):
        bit = (truth >> assignment) & 1
        parity_head: Optional[int] = None
        for j in range(num_cubes):
            match = cnf.new_var()
            # A selected literal disagreeing with the assignment blocks
            # the match; with no blocker the (active) cube covers the
            # assignment.
            blockers = []
            for x, (pos, neg) in enumerate(selectors[j]):
                blocker = neg if (assignment >> x) & 1 else pos
                blockers.append(blocker)
                cnf.add_clause([-match, -blocker])
            if activation:
                cnf.add_clause([-match, active[j]])
                cnf.add_clause([match, -active[j]] + blockers)
            else:
                cnf.add_clause([match] + blockers)
            if parity_head is None:
                parity_head = match
            else:
                chained = cnf.new_var()
                cnf.xor_link(chained, parity_head, match)
                parity_head = chained
        if parity_head is None:  # num_cubes == 0: covers only truth == 0
            if bit:
                cnf.add_clause([])
        else:
            cnf.add_clause([parity_head if bit else -parity_head])
    return cnf, selectors, active


def _lex_non_increasing(cnf: Cnf, left: List[int], right: List[int]) -> None:
    """Constrain bit vector ``left`` to be lexicographically >= ``right``.

    ``equal[k]`` is forced true while the first ``k`` bits agree; under it
    bit ``k`` of ``right`` may not exceed bit ``k`` of ``left``.
    """
    equal = None  # the empty prefix always agrees
    for k, (a, b) in enumerate(zip(left, right)):
        guard = [] if equal is None else [-equal]
        cnf.add_clause(guard + [a, -b])
        if k == len(left) - 1:
            break
        agreed = cnf.new_var()
        cnf.add_clause(guard + [a, agreed])
        cnf.add_clause(guard + [-b, agreed])
        equal = agreed


def _cover_from_model(
    model, selectors, num_vars: int, active: Optional[List[int]] = None
) -> List[Cube]:
    cubes = []
    for j, cube_selectors in enumerate(selectors):
        if active is not None and not model[active[j]]:
            continue
        literals = []
        for x, (pos, neg) in enumerate(cube_selectors):
            if model[pos]:
                literals.append((x, True))
            elif model[neg]:
                literals.append((x, False))
        cubes.append(Cube.from_literals(num_vars, literals))
    return cubes


def _cover_truth(cubes: List[Cube]) -> int:
    truth = 0
    for cube in cubes:
        truth ^= cube.truth_table()
    return truth


def _total_literals(cubes: List[Cube]) -> int:
    return sum(cube.num_literals() for cube in cubes)


def _cover_cost(cubes: List[Cube]) -> int:
    """The ``rtof`` T-cost of one Toffoli per cube."""
    return sum(mct_t_count(cube.num_literals()) for cube in cubes)


def _cost_thresholds(
    cnf: Cnf, selectors: List[List[Tuple[int, int]]]
) -> List[Tuple[int, int]]:
    """Weighted literals whose total weight is the cover's ``rtof`` T-cost.

    Per cube: an indicator per input ("some literal of this input is
    selected") and one threshold variable per control count ``i >= 2``
    ("the cube has at least ``i`` literals"), forced true by every
    ``i``-subset of indicators and weighted by the model's marginal cost
    ``T(i) - T(i - 1)``.  A weight bound over the result is a T-cost bound.
    """
    from itertools import combinations

    weighted: List[Tuple[int, int]] = []
    for cube_selectors in selectors:
        used = []
        for pos, neg in cube_selectors:
            indicator = cnf.new_var()
            cnf.add_clause([-pos, indicator])
            cnf.add_clause([-neg, indicator])
            used.append(indicator)
        for count in range(2, len(used) + 1):
            marginal = mct_t_count(count) - mct_t_count(count - 1)
            if marginal == 0:
                continue
            threshold = cnf.new_var()
            for subset in combinations(used, count):
                cnf.add_clause([-u for u in subset] + [threshold])
            weighted.append((threshold, marginal))
    return weighted


def exact_esop_cubes(
    truth: int,
    num_vars: int,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> List[Cube]:
    """A T-cost-minimal ESOP cover of ``truth``, PSDKRO on fallback.

    For functions of at most :data:`MAX_EXACT_VARS` inputs, iterative
    deepening on the cube count finds the provably minimum count within
    ``time_budget`` seconds; a descent pass then minimises the ``rtof``
    T-cost of the cover over every cube count up to the PSDKRO's, and a
    final pass shaves leftover literals at unchanged cost.  On budget
    exhaustion (or more inputs) the PSDKRO cover is returned, so the
    result is never larger — and, once solved, never T-dearer — than the
    heuristic block it replaces.
    """
    import time

    truth &= tt_mask(num_vars)
    key = (num_vars, truth)
    cached = _memo.get(key)
    if cached is not None:
        _stats["hits"] += 1
        return list(cached)
    _stats["misses"] += 1

    baseline = psdkro_cubes(truth, num_vars)
    if num_vars > MAX_EXACT_VARS or truth == 0:
        _memo[key] = list(baseline)
        return list(baseline)

    deadline = time.monotonic() + time_budget
    best: Optional[List[Cube]] = None
    complete = True

    # Deepen on the cube count; PSDKRO is an upper bound, so only strictly
    # smaller covers are worth solving for.
    for num_cubes in range(1, len(baseline)):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            complete = False
            break
        cnf, selectors, _ = _build_cover_cnf(truth, num_vars, num_cubes)
        result = solve(cnf, time_budget=remaining)
        if result.status == "sat":
            best = _cover_from_model(result.model, selectors, num_vars)
            break
        if result.status == "unknown":
            complete = False
            break

    if best is None:
        if not complete:
            # The budget ran dry before any smaller cover was found or
            # refuted; the heuristic cover is all we can promise.
            _stats["fallbacks"] += 1
            _memo[key] = list(baseline)
            return list(baseline)
        # PSDKRO is provably cube-optimal; the cost descent below may
        # still swap cubes for cheaper ones at the same count.
        best = list(baseline)

    # T-cost descent: the minimum-cube cover can be T-dearer than a larger
    # one (fewer Toffolis, but more controls each), so descend on the
    # ``rtof`` cost over one activation-gated encoding that spans every
    # cube count the baseline permits.
    min_cubes = len(best)
    if (_cover_cost(baseline), len(baseline)) < (_cover_cost(best), len(best)):
        best = list(baseline)
    best_cost = _cover_cost(best)
    slots = min(len(baseline), min_cubes + _DESCENT_SLOT_SLACK)

    def descend(cost_bound, cube_bound):
        """``(status, cover)``: a cover within both bounds, if one is found."""
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return "unknown", None
        cnf, selectors, active = _build_cover_cnf(
            truth, num_vars, slots, activation=True
        )
        cnf.at_most_k(active, cube_bound)
        cnf.at_most_weight(_cost_thresholds(cnf, selectors), cost_bound)
        result = solve(
            cnf,
            time_budget=remaining,
            conflict_budget=_DESCENT_CONFLICT_BUDGET,
        )
        if result.status != "sat":
            return result.status, None
        cover = _cover_from_model(result.model, selectors, num_vars, active)
        return "sat", cover

    # The descent ends refuted (the cost is proven minimal over the slot
    # window) or on a budget (the best cover so far, unproven).
    status = "unsat"
    while best_cost > 0:
        status, found = descend(best_cost - 1, slots)
        if found is None:
            break
        best, best_cost = found, _cover_cost(found)

    # Re-minimise the cube count at the optimal cost: a cost-free slot is
    # an empty cube the descent has no reason to drop.  (No literal pass —
    # the tiered cost already distinguishes every control count above one,
    # so only free NOT/CNOT cubes could change.)
    while len(best) > min_cubes:
        _, found = descend(best_cost, len(best) - 1)
        if found is None:
            break
        best = found

    if _cover_truth(best) != truth:  # defensive: the cover must verify
        _stats["fallbacks"] += 1
        _memo[key] = list(baseline)
        return list(baseline)

    _stats["optimal" if status == "unsat" else "unproven"] += 1
    _memo[key] = list(best)
    return list(best)
