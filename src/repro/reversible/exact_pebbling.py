"""Exact reversible pebbling via SAT (the ``"exact"`` strategy).

The greedy ``bounded`` scheduler trades qubits for T-count heuristically;
this module replaces the heuristic with a step-indexed SAT encoding solved
by :mod:`repro.sat`.  The whole game is encoded over ``T`` single-move
steps: state variables ``p[t][i]`` ("LUT ``i`` is pebbled after step
``t``"), move variables ``m[t][i]`` tied to the state by an XOR link,
exactly one move per step, fanin-pebbled preconditions on every move, a
per-step cardinality bound of ``max_pebbles`` (Sinz counter), and all-zero
boundary states with every output driver pebbled at some step.  Iterative
deepening on ``T`` — starting from the parity-correct lower bound of twice
the output-cone size — yields a schedule with a *provably minimal* number
of moves.  Two descent passes then shrink, at that move count, first the
estimated gate count (a cardinality constraint over cost-weighted move
literals) and then the pebble peak.

A monolithic encoding of a thousand-step game is hopeless in pure Python,
so the strategy accepts LUT DAGs of at most :data:`MONOLITHIC_LUT_LIMIT`
LUTs and raises :class:`ValueError` on larger ones, before any pebbling
work; ``strategy='bounded'`` schedules those.  A whole-DAG exact pebbler
for large DAGs needs an incremental solver.

Every call respects a wall-clock ``time_budget``; on exhaustion the engine
degrades to the greedy ``bounded`` seed (never fails a flow late), and the
schedule's ``info`` records the engine, whether step-optimality was
proven, and whether the seed was the fallback.  Every result is validated
by :func:`~repro.reversible.pebbling.validate_schedule` before it is
returned.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.logic.aig import lit_node
from repro.logic.cuts import LutMapping
from repro.sat import Cnf, solve
from repro.reversible.pebbling import (
    COMPUTE,
    COPY,
    UNCOMPUTE,
    PebbleSchedule,
    PebbleStep,
    _copy_step,
    _greedy_steps,
    _lut_gate_costs,
    _resolve_budget,
    bounded_schedule,
    minimum_pebbles,
    validate_schedule,
)

__all__ = [
    "DEFAULT_TIME_BUDGET",
    "MONOLITHIC_LUT_LIMIT",
    "exact_schedule",
]

#: Wall-clock seconds one :func:`exact_schedule` call may spend in SAT.
DEFAULT_TIME_BUDGET = 20.0

#: The largest LUT DAG :func:`exact_schedule` accepts: the monolithic
#: encoding proves move optimality up to this size.
MONOLITHIC_LUT_LIMIT = 12


class _PebbleSat:
    """One step-indexed encoding instance over the LUTs of the output cones.

    ``nodes`` are the LUTs that may move (closed under fanins), every one
    unpebbled before the first and after the last step.  ``cap`` bounds
    how many may be pebbled simultaneously, and ``required`` lists LUTs
    that must be pebbled at some intermediate step (the output drivers).
    """

    def __init__(
        self,
        mapping: LutMapping,
        nodes: Sequence[int],
        cap: Optional[int],
        required: Sequence[int] = (),
    ):
        self.nodes = list(nodes)
        self.index = {node: i for i, node in enumerate(self.nodes)}
        self.cap = cap
        self.required = list(required)
        self.deps: List[List[int]] = [
            [self.index[dep] for dep in mapping.dependencies(node)]
            for node in self.nodes
        ]

    def build(
        self,
        num_steps: int,
        gate_costs: Optional[Sequence[int]] = None,
        gate_bound: Optional[int] = None,
        cap_override: Optional[int] = None,
    ) -> Tuple[Cnf, List[List[int]]]:
        """The CNF for a ``num_steps``-move game; returns it and the move vars."""
        n = len(self.nodes)
        cnf = Cnf()
        p = [[cnf.new_var() for _ in range(n)] for _ in range(num_steps + 1)]
        m = [[cnf.new_var() for _ in range(n)] for _ in range(num_steps)]

        for i in range(n):
            cnf.add_clause([-p[0][i]])
            cnf.add_clause([-p[num_steps][i]])

        for t in range(num_steps):
            cnf.exactly_one(m[t])
            for i in range(n):
                # A move flips the state; no move leaves it unchanged.
                cnf.xor_link(m[t][i], p[t + 1][i], p[t][i])
                # Every fanin must be pebbled while its reader moves.
                for dep in self.deps[i]:
                    cnf.add_clause([-m[t][i], p[t][dep]])
                # Undoing the previous move is never part of a minimal
                # schedule (the pair could be dropped), so prune it.
                if t + 1 < num_steps:
                    cnf.add_clause([-m[t][i], -m[t + 1][i]])

        cap = self.cap if cap_override is None else cap_override
        if cap is not None and cap < n:
            for t in range(1, num_steps):
                cnf.at_most_k(p[t], cap)

        for node in self.required:
            i = self.index[node]
            cnf.add_clause([p[t][i] for t in range(1, num_steps)])

        if gate_bound is not None and gate_costs is not None:
            weighted = []
            for t in range(num_steps):
                for i in range(n):
                    weighted.extend([m[t][i]] * gate_costs[i])
            cnf.at_most_k(weighted, gate_bound)
        return cnf, m

    def solve_moves(self, num_steps: int, deadline: float, **build_options):
        """Solve one horizon; ``(status, moves)`` with moves as LUT ids."""
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return "unknown", None
        cnf, m = self.build(num_steps, **build_options)
        result = solve(cnf, time_budget=remaining)
        if result.status != "sat":
            return result.status, None
        moves = []
        for t in range(num_steps):
            chosen = [
                self.nodes[i] for i in range(len(self.nodes))
                if result.model[m[t][i]]
            ]
            moves.append(chosen[0])
        return "sat", moves


def _needed_luts(mapping: LutMapping) -> List[int]:
    """The LUTs in some output cone, in mapping (topological) order."""
    needed: Set[int] = set()
    for po in mapping.aig.pos():
        driver = lit_node(po)
        if driver in mapping.luts:
            needed.update(mapping.lut_cone(driver))
    return [root for root in mapping.order if root in needed]


def _moves_to_steps(moves: Sequence[int]) -> List[PebbleStep]:
    """Turn a move list into COMPUTE/UNCOMPUTE steps from no pebbles."""
    pebbled: Set[int] = set()
    steps = []
    for node in moves:
        if node in pebbled:
            pebbled.discard(node)
            steps.append(PebbleStep(UNCOMPUTE, node))
        else:
            pebbled.add(node)
            steps.append(PebbleStep(COMPUTE, node))
    return steps


def _insert_copies(
    mapping: LutMapping, move_steps: Sequence[PebbleStep]
) -> List[PebbleStep]:
    """Interleave COPY steps at each output driver's first pebbled moment."""
    pos = mapping.aig.pos()
    waiting: Dict[int, List[int]] = {}
    steps: List[PebbleStep] = []
    for j, po in enumerate(pos):
        driver = lit_node(po)
        if driver in mapping.luts:
            waiting.setdefault(driver, []).append(j)
        else:
            # PI- or constant-driven outputs need no pebble.
            steps.append(_copy_step(mapping, j))
    for step in move_steps:
        steps.append(step)
        if step.op == COMPUTE and step.node in waiting:
            for j in waiting.pop(step.node):
                steps.append(_copy_step(mapping, j))
    return steps


def _finish(
    mapping: LutMapping,
    steps: List[PebbleStep],
    budget: int,
    info: Dict,
) -> PebbleSchedule:
    schedule = PebbleSchedule(
        mapping, steps, strategy="exact", max_pebbles=budget, info=info
    )
    schedule._stats = validate_schedule(schedule)
    return schedule


def _monolithic_schedule(
    mapping: LutMapping, budget: int, deadline: float
) -> PebbleSchedule:
    needed = _needed_luts(mapping)
    if not needed:
        steps = [_copy_step(mapping, j) for j in range(mapping.aig.num_pos())]
        return _finish(
            mapping, steps, budget, {"engine": "trivial", "optimal": True}
        )

    # The greedy seed — the same anchored run the ``bounded`` strategy
    # would return at this budget — is fallback, deepening ceiling and
    # peak cap in one: every SAT solution is constrained to the seed's
    # own peak, so the exact schedule never holds more pebbles than the
    # greedy one it replaces.
    try:
        seed: Optional[List[PebbleStep]] = list(
            bounded_schedule(mapping, budget).steps
        )
    except ValueError:
        seed = _greedy_steps(mapping, budget)
    seed_moves = (
        None
        if seed is None
        else [s for s in seed if s.op != COPY]
    )
    if seed is not None:
        seed_peak = PebbleSchedule(mapping, list(seed)).pebble_peak()
        cap = min(budget, seed_peak)
        ceiling = len(seed_moves)
    else:
        cap = budget
        ceiling = 4 * len(needed) + 4

    drivers = sorted(
        {
            lit_node(po)
            for po in mapping.aig.pos()
            if lit_node(po) in mapping.luts
        }
    )
    encoder = _PebbleSat(mapping, needed, cap=cap, required=drivers)
    costs = _lut_gate_costs(mapping, needed)

    lower = 2 * len(needed)
    moves: Optional[List[int]] = None
    proven = False
    for horizon in range(lower, ceiling, 2):
        status, found = encoder.solve_moves(horizon, deadline)
        if status == "sat":
            moves, proven = found, True
            break
        if status == "unknown":
            break
    else:
        # Every horizon below the seed is UNSAT: the seed is optimal.
        proven = seed is not None

    fallback = False
    if moves is None:
        if seed is None:
            if proven:
                raise ValueError(
                    f"max_pebbles={budget} admits no pebbling of this LUT "
                    f"DAG within {ceiling} moves"
                )
            raise ValueError(
                "exact pebbling time budget exhausted and no greedy seed "
                f"exists at max_pebbles={budget}"
            )
        # The seed's move count is minimal (proven) or the best known
        # (budget ran dry); its greedy move *choices* may still be neither
        # gate- nor peak-minimal, so the descent passes below apply to it
        # exactly as to a solver-found move list.
        moves = [s.node for s in seed_moves]
        fallback = True

    # Gate descent: same move count, cheaper cost-weighted moves.
    cost_of = lambda ms: sum(  # noqa: E731
        costs[needed.index(node)] for node in ms
    )
    best_cost = cost_of(moves)
    while best_cost > 0 and time.monotonic() < deadline:
        status, found = encoder.solve_moves(
            len(moves), deadline, gate_costs=costs, gate_bound=best_cost - 1
        )
        if status != "sat":
            break
        moves, best_cost = found, cost_of(found)

    # Peak descent: same move count and gate bound, fewer pebbles.
    pebbled: Set[int] = set()
    peak = 0
    for node in moves:
        pebbled.symmetric_difference_update((node,))
        peak = max(peak, len(pebbled))
    while peak > 1 and time.monotonic() < deadline:
        status, found = encoder.solve_moves(
            len(moves),
            deadline,
            gate_costs=costs,
            gate_bound=best_cost,
            cap_override=peak - 1,
        )
        if status != "sat":
            break
        moves, peak = found, peak - 1

    steps = _insert_copies(mapping, _moves_to_steps(moves))
    info = {"engine": "sat-monolithic", "optimal": proven, "moves": len(moves)}
    if fallback:
        info["fallback"] = True
    return _finish(mapping, steps, budget, info)


def exact_schedule(
    mapping: LutMapping,
    max_pebbles=None,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> PebbleSchedule:
    """A SAT-optimised pebbling schedule within ``max_pebbles`` pebbles.

    ``max_pebbles`` follows the ``bounded`` conventions: an absolute
    count, a float in ``(0, 1)`` as a fraction of the LUT count, or
    ``None`` for the scheduler's minimum feasible budget.  The DAG is
    solved monolithically: move count provably minimal, then gate- and
    peak-descent.  ``time_budget`` caps the total SAT effort in seconds;
    whatever is proven by then is returned, degraded gracefully towards
    the greedy ``bounded`` seed.

    Raises :class:`ValueError`, before any pebbling work, on a DAG of
    more than :data:`MONOLITHIC_LUT_LIMIT` LUTs.
    """
    if mapping.num_luts() > MONOLITHIC_LUT_LIMIT:
        raise ValueError(
            f"strategy='exact' solves LUT DAGs of at most "
            f"{MONOLITHIC_LUT_LIMIT} LUTs, this one has {mapping.num_luts()}; "
            "use strategy='bounded' instead (with lut_synth='exact' for "
            "exact LUT synthesis)"
        )
    budget = (
        minimum_pebbles(mapping)
        if max_pebbles is None
        else _resolve_budget(mapping, max_pebbles)
    )
    deadline = time.monotonic() + time_budget
    return _monolithic_schedule(mapping, budget, deadline)

