"""Exact reversible pebbling via SAT (the ``"exact"`` strategy).

The greedy ``bounded`` scheduler trades qubits for T-count heuristically;
this module replaces the heuristic with a step-indexed SAT encoding solved
by :mod:`repro.sat`, in two regimes:

**Monolithic (small LUT DAGs).**  The whole game is encoded over ``T``
single-move steps: state variables ``p[t][i]`` ("LUT ``i`` is pebbled
after step ``t``"), move variables ``m[t][i]`` tied to the state by an XOR
link, exactly one move per step, fanin-pebbled preconditions on every
move, a per-step cardinality bound of ``max_pebbles`` (Sinz counter), and
all-zero boundary states with every output driver pebbled at some step.
Iterative deepening on ``T`` — starting from the parity-correct lower
bound of twice the output-cone size — yields a schedule with a *provably
minimal* number of moves.  Two descent passes then shrink, at that move
count, first the estimated gate count (a cardinality constraint over
cost-weighted move literals) and then the pebble peak.

**Windowed (large LUT DAGs).**  A monolithic encoding of a thousand-step
game is hopeless in pure Python, but the greedy schedule's waste is local:
between two COPY barriers the greedy run recomputes and evicts in patterns
an exact solver can compress.  The engine replays the greedy ``bounded``
seed, slices every COPY-free run into windows of bounded size, and
re-solves each window exactly — boundary pebble states fixed to the
replay, pebbles not touched by the window frozen, and the per-step budget
capped at the window's own realised peak, so the peak can only stay or
drop while the move count strictly drops.  An improved window is accepted
only when its cost-weighted move estimate is strictly cheaper, so the
resulting schedule *strictly dominates* the greedy seed whenever any
window improves.

Both regimes respect a per-call wall-clock ``time_budget``; on exhaustion
the engine degrades to the greedy seed (never fails a flow late), and the
schedule's ``info`` records which regime ran, whether step-optimality was
proven, and how much of the seed was improved.  Every result is validated
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
    _estimated_gates,
    _greedy_steps,
    _pebble_memo,
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

#: LUT DAGs up to this size are solved monolithically (provable move
#: optimality); larger DAGs use windowed improvement of the greedy seed.
MONOLITHIC_LUT_LIMIT = 12

#: Windowed regime: bounds on one window's step count and distinct LUTs.
_WINDOW_MAX_STEPS = 24
_WINDOW_MAX_NODES = 10

#: Conflict cap per windowed SAT call, so one stubborn window cannot eat
#: the whole time budget.
_WINDOW_CONFLICT_BUDGET = 4000


class _PebbleSat:
    """One step-indexed encoding instance over a fixed set of active LUTs.

    ``nodes`` are the LUTs allowed to move; everything else is frozen.
    ``start``/``end`` fix the boundary pebble states of the active LUTs,
    ``cap`` bounds how many active LUTs may be pebbled simultaneously, and
    ``required`` lists LUTs that must be pebbled at some intermediate step
    (output drivers, monolithic regime only).
    """

    def __init__(
        self,
        mapping: LutMapping,
        nodes: Sequence[int],
        start: Set[int],
        end: Set[int],
        cap: Optional[int],
        required: Sequence[int] = (),
    ):
        self.mapping = mapping
        self.nodes = list(nodes)
        self.index = {node: i for i, node in enumerate(self.nodes)}
        self.start = start
        self.end = end
        self.cap = cap
        self.required = list(required)
        # Fanins an active LUT reads, split into modelled (active) and
        # assumed-pebbled (frozen) ones.  A fanin that is neither active
        # nor pebbled at the boundary makes its reader immovable.
        self.deps: List[List[int]] = []
        self.movable: List[bool] = []
        frozen_pebbled = start  # frozen LUT state never changes
        for node in self.nodes:
            active_deps = []
            movable = True
            for dep in mapping.dependencies(node):
                if dep in self.index:
                    active_deps.append(self.index[dep])
                elif dep not in frozen_pebbled:
                    movable = False
            self.deps.append(active_deps)
            self.movable.append(movable)

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

        for i, node in enumerate(self.nodes):
            cnf.add_clause([p[0][i]] if node in self.start else [-p[0][i]])
            cnf.add_clause(
                [p[num_steps][i]] if node in self.end else [-p[num_steps][i]]
            )
            if not self.movable[i]:
                for t in range(num_steps):
                    cnf.add_clause([-m[t][i]])

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
        conflict_budget = build_options.pop("conflict_budget", None)
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return "unknown", None
        cnf, m = self.build(num_steps, **build_options)
        result = solve(
            cnf, time_budget=remaining, conflict_budget=conflict_budget
        )
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


def _lut_gate_costs(mapping: LutMapping, nodes: Sequence[int]) -> List[int]:
    """ESOP cube counts per LUT — the executor's per-block gate estimate."""
    from repro.logic.esop import psdkro_cubes

    block_gates = _pebble_memo(mapping)["block_gates"]
    costs = []
    for node in nodes:
        if node not in block_gates:
            leaves, truth = mapping.luts[node]
            block_gates[node] = len(psdkro_cubes(truth, len(leaves)))
        costs.append(block_gates[node])
    return costs


def _needed_luts(mapping: LutMapping) -> List[int]:
    """The LUTs in some output cone, in mapping (topological) order."""
    needed: Set[int] = set()
    for po in mapping.aig.pos():
        driver = lit_node(po)
        if driver in mapping.luts:
            needed.update(mapping.lut_cone(driver))
    return [root for root in mapping.order if root in needed]


def _moves_to_steps(
    mapping: LutMapping, moves: Sequence[int], pebbled: Set[int]
) -> List[PebbleStep]:
    """Turn a move list into COMPUTE/UNCOMPUTE steps from a start state."""
    pebbled = set(pebbled)
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


# -- monolithic regime --------------------------------------------------------


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
    encoder = _PebbleSat(
        mapping, needed, start=set(), end=set(), cap=cap, required=drivers
    )
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

    steps = _insert_copies(mapping, _moves_to_steps(mapping, moves, set()))
    info = {"engine": "sat-monolithic", "optimal": proven, "moves": len(moves)}
    if fallback:
        info["fallback"] = True
    return _finish(mapping, steps, budget, info)


# -- windowed regime ----------------------------------------------------------


def _window_chunks(steps, begin, end):
    """Split one COPY-free run into encodable (start, stop) chunks."""
    chunks = []
    i = begin
    while i < end:
        j = i
        nodes: Set[int] = set()
        while j < end and j - i < _WINDOW_MAX_STEPS:
            nodes.add(steps[j].node)
            if len(nodes) > _WINDOW_MAX_NODES:
                break
            j += 1
        if j == i:  # single step touching too many nodes cannot happen
            j = i + 1
        chunks.append((i, j))
        i = j
    return chunks


def _improve_window(
    mapping: LutMapping,
    steps: List[PebbleStep],
    begin: int,
    end: int,
    pebbled_before: List[Set[int]],
    deadline: float,
) -> Optional[List[PebbleStep]]:
    """Re-solve one window exactly; improved step list or ``None``."""
    window = steps[begin:end]
    active = sorted({s.node for s in window})
    start_all = pebbled_before[begin]
    end_all = pebbled_before[end]
    start = {n for n in active if n in start_all}
    finish = {n for n in active if n in end_all}
    frozen = len(start_all - set(active))
    peak = max(len(pebbled_before[t + 1]) for t in range(begin, end))
    cap = peak - frozen
    changed = sum(1 for n in active if (n in start) != (n in finish))
    lower = max(changed, 0)
    if len(window) - lower < 2:
        return None  # nothing to gain

    costs = _lut_gate_costs(mapping, active)
    cost_index = {node: costs[i] for i, node in enumerate(active)}
    old_cost = sum(cost_index[s.node] for s in window)
    encoder = _PebbleSat(mapping, active, start, finish, cap)
    for horizon in range(lower, len(window) - 1, 2):
        status, moves = encoder.solve_moves(
            horizon, deadline, conflict_budget=_WINDOW_CONFLICT_BUDGET
        )
        if status == "unknown":
            return None
        if status == "sat":
            new_cost = sum(cost_index[node] for node in moves)
            if new_cost >= old_cost:
                return None
            return _moves_to_steps(mapping, moves, start)
    return None


def _replay_states(
    mapping: LutMapping, steps: Sequence[PebbleStep]
) -> List[Set[int]]:
    """Pebbled-LUT set before each step index (and after the last)."""
    states = [set()]
    pebbled: Set[int] = set()
    for step in steps:
        if step.op == COMPUTE:
            pebbled.add(step.node)
        elif step.op == UNCOMPUTE:
            pebbled.discard(step.node)
        states.append(set(pebbled))
    return states


def _windowed_schedule(
    mapping: LutMapping, budget: int, deadline: float
) -> PebbleSchedule:
    seed = bounded_schedule(mapping, budget)
    steps = list(seed.steps)
    states = _replay_states(mapping, steps)

    new_steps: List[PebbleStep] = []
    improved = 0
    examined = 0
    i = 0
    while i < len(steps):
        if steps[i].op == COPY:
            new_steps.append(steps[i])
            i += 1
            continue
        j = i
        while j < len(steps) and steps[j].op != COPY:
            j += 1
        for begin, stop in _window_chunks(steps, i, j):
            examined += 1
            replacement = None
            if time.monotonic() < deadline:
                replacement = _improve_window(
                    mapping, steps, begin, stop, states, deadline
                )
            if replacement is not None:
                improved += 1
                new_steps.extend(replacement)
            else:
                new_steps.extend(steps[begin:stop])
        i = j

    info = {
        "engine": "sat-windowed",
        "optimal": False,
        "windows": examined,
        "windows_improved": improved,
        "seed_steps": len(steps),
        "seed_gates": _estimated_gates(mapping, steps),
    }
    return _finish(mapping, new_steps, budget, info)


# -- entry point --------------------------------------------------------------


def exact_schedule(
    mapping: LutMapping,
    max_pebbles=None,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> PebbleSchedule:
    """A SAT-optimised pebbling schedule within ``max_pebbles`` pebbles.

    ``max_pebbles`` follows the ``bounded`` conventions: an absolute
    count, a float in ``(0, 1)`` as a fraction of the LUT count, or
    ``None`` for the scheduler's minimum feasible budget.  DAGs of at most
    :data:`MONOLITHIC_LUT_LIMIT` LUTs are solved monolithically (move
    count provably minimal, then gate- and peak-descent); larger DAGs get
    exact window-by-window improvement of the greedy ``bounded`` seed.
    ``time_budget`` caps the total SAT effort in seconds; whatever is
    proven by then is returned, degraded gracefully towards the seed.
    """
    budget = (
        minimum_pebbles(mapping)
        if max_pebbles is None
        else _resolve_budget(mapping, max_pebbles)
    )
    deadline = time.monotonic() + time_budget
    if mapping.num_luts() <= MONOLITHIC_LUT_LIMIT:
        return _monolithic_schedule(mapping, budget, deadline)
    return _windowed_schedule(mapping, budget, deadline)


def _build_exact(mapping, max_pebbles=None, **options):
    return exact_schedule(mapping, max_pebbles=max_pebbles, **options)


def _register() -> None:
    from repro.reversible.strategies import (
        PebblingStrategy,
        register_strategy,
    )

    register_strategy(
        PebblingStrategy(
            "exact",
            _build_exact,
            "SAT-exact pebbling: provably move-minimal on small DAGs, "
            "exact windowed improvement of the greedy seed on large ones "
            "(options: time_budget seconds)",
        )
    )


_register()
