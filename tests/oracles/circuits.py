"""Oracles for the circuit-level kernels: costing, peepholes, simulation,
TBS and pebbling.

Every costing, peephole and TBS oracle here walks
:class:`~repro.reversible.gates.ToffoliGate` (or
:class:`~repro.quantum.circuit.QuantumGate`) objects one at a time, the
way the code did before the cascades moved into packed mask columns.  The
simulation oracle replays a cascade with NumPy operations on ``uint64``
word rows, the way ``bitsim`` did before it kept each line as one big
int, and reads each row back as the int ``bitsim`` returns.  The pebbling
oracle walks every LUT cone and re-tests every live pebble on each
eviction, the way the greedy scheduler did before it kept the DAG
structure per mapping and the evictable pebbles incrementally.
"""

from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.quantum.circuit import QuantumCircuit
from repro.quantum.resources import ResourceEstimate
from repro.logic.aig import lit_node
from repro.logic.cuts import LutMapping
from repro.quantum.tcount import mct_t_count
from repro.reversible.circuit import ReversibleCircuit
from repro.reversible.gates import ToffoliGate
from repro.reversible.pebbling import COMPUTE, UNCOMPUTE, PebbleStep, _copy_step
from repro.reversible.tbs import _mct_cost
from repro.verify.bitsim import PatternBatch

# ---------------------------------------------------------------------------
# costing
# ---------------------------------------------------------------------------


def circuit_t_count_reference(circuit: ReversibleCircuit, model: str = "rtof") -> int:
    """Per-gate T-count loop."""
    return sum(mct_t_count(gate.num_controls(), model) for gate in circuit.gates())


def t_count_histogram_reference(
    circuit: ReversibleCircuit, model: str = "rtof"
) -> Dict[int, int]:
    """Per-gate loop mapping control count to the T-count of such gates."""
    histogram: Dict[int, int] = {}
    for gate in circuit.gates():
        k = gate.num_controls()
        histogram[k] = histogram.get(k, 0) + mct_t_count(k, model)
    return histogram


def reversible_depth_reference(circuit: ReversibleCircuit) -> int:
    """Per-gate greedy depth sweep."""
    levels = [0] * circuit.num_lines()
    for gate in circuit.gates():
        level = max(levels[line] for line in gate.lines()) + 1
        for line in gate.lines():
            levels[line] = level
    return max(levels, default=0)


def estimate_resources_reference(circuit: QuantumCircuit) -> ResourceEstimate:
    """Generic per-gate sweep over any gate arity."""
    t_levels = [0] * circuit.num_qubits
    depth_levels = [0] * circuit.num_qubits
    t_count = 0
    counts: Dict[str, int] = {}
    for gate in circuit.gates():
        counts[gate.name] = counts.get(gate.name, 0) + 1
        t_level = max(t_levels[q] for q in gate.qubits)
        depth_level = max(depth_levels[q] for q in gate.qubits) + 1
        if gate.is_t_like():
            t_count += 1
            t_level += 1
        for q in gate.qubits:
            t_levels[q] = t_level
            depth_levels[q] = depth_level
    return ResourceEstimate(
        num_qubits=circuit.num_qubits,
        num_gates=circuit.num_gates(),
        t_count=t_count,
        t_depth=max(t_levels, default=0),
        depth=max(depth_levels, default=0),
        gate_counts=counts,
    )


# ---------------------------------------------------------------------------
# peephole passes
# ---------------------------------------------------------------------------


def _gates_commute(first: ToffoliGate, second: ToffoliGate) -> bool:
    """Sufficient condition: neither gate's target is used by the other."""
    return first.target not in second.lines() and second.target not in first.lines()


def cancel_adjacent_gates_reference(circuit: ReversibleCircuit) -> ReversibleCircuit:
    """Cancel identical gates, scanning back over commuting gates."""
    result: List[ToffoliGate] = []
    for gate in circuit.gates():
        index = len(result) - 1
        cancelled = False
        while index >= 0:
            candidate = result[index]
            if candidate == gate:
                del result[index]
                cancelled = True
                break
            if not _gates_commute(candidate, gate):
                break
            index -= 1
        if not cancelled:
            result.append(gate)
    return circuit.with_gates(result)


def merge_not_gates_reference(circuit: ReversibleCircuit) -> ReversibleCircuit:
    """Absorb ``X(l) . G . X(l)`` into ``G``, restarting after each rewrite."""
    result = circuit.gates()
    changed = True
    while changed:
        changed = False
        for i in range(len(result) - 2):
            first, middle, last = result[i], result[i + 1], result[i + 2]
            if not (first.is_not() and last.is_not() and first.target == last.target):
                continue
            line = first.target
            controls = dict(middle.controls)
            if middle.target == line or line not in controls:
                continue
            controls[line] = not controls[line]
            result[i + 1] = ToffoliGate(tuple(controls.items()), middle.target)
            del result[i + 2]
            del result[i]
            changed = True
            break
    return circuit.with_gates(result)


# ---------------------------------------------------------------------------
# bit-parallel simulation
# ---------------------------------------------------------------------------

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def simulate_reversible_states_reference(
    circuit: ReversibleCircuit, batch: PatternBatch
) -> List[int]:
    """Per-gate NumPy replay on ``uint64`` word rows, read back as ints."""
    num_words = (batch.num_patterns + 63) // 64
    state = np.zeros((circuit.num_lines(), num_words), dtype=np.uint64)
    for line, info in enumerate(circuit.lines()):
        if info.input_index is not None:
            pattern = batch.inputs[info.input_index]
            state[line] = np.frombuffer(
                pattern.to_bytes(8 * num_words, "little"), dtype="<u8"
            )
        elif info.constant:
            state[line] = _ALL_ONES
    targets, cares, polarities = circuit.gate_store().columns()
    for care, polarity, target in zip(cares, polarities, targets):
        if care == 0:
            state[target] ^= _ALL_ONES
            continue
        mask = care
        low = mask & -mask
        line = low.bit_length() - 1
        mask ^= low
        trigger = state[line] if (polarity >> line) & 1 else state[line] ^ _ALL_ONES
        while mask:
            low = mask & -mask
            line = low.bit_length() - 1
            mask ^= low
            trigger = trigger & (
                state[line] if (polarity >> line) & 1 else state[line] ^ _ALL_ONES
            )
        state[target] ^= trigger
    return [
        int.from_bytes(row.astype("<u8").tobytes(), "little") & batch.mask
        for row in state
    ]


# ---------------------------------------------------------------------------
# transformation-based synthesis (per-row scans over the state table)
# ---------------------------------------------------------------------------


def _bits_of(value: int, num_lines: int) -> List[int]:
    return [line for line in range(num_lines) if (value >> line) & 1]


def _reduced_controls(available: int, protect_below: int, num_lines: int) -> List[int]:
    """Greedy highest-bit control set whose mask is at least ``protect_below``."""
    controls: List[int] = []
    mask = 0
    for line in reversed(_bits_of(available, num_lines)):
        if mask >= protect_below:
            break
        controls.append(line)
        mask |= 1 << line
    assert mask >= protect_below, "cannot build a safe control set"
    return sorted(controls)


def _gates_transforming(
    start: int, goal: int, num_lines: int, protect_below: int
) -> List[ToffoliGate]:
    """MMD gates (in application order) mapping ``start`` to ``goal``."""
    gates: List[ToffoliGate] = []
    current = start
    for line in _bits_of(goal & ~current, num_lines):
        controls = _reduced_controls(current, protect_below, num_lines)
        gates.append(ToffoliGate(tuple((c, True) for c in controls), line))
        current |= 1 << line
    for line in _bits_of(current & ~goal, num_lines):
        controls = _reduced_controls(goal, protect_below, num_lines)
        if line in controls:  # the target may not be a control; fall back
            controls = _bits_of(goal & ~(1 << line), num_lines)
        gates.append(ToffoliGate(tuple((c, True) for c in controls), line))
        current &= ~(1 << line)
    assert current == goal
    return gates


def _gate_list_cost(gates: List[ToffoliGate]) -> int:
    return sum(_mct_cost(gate.num_controls()) for gate in gates)


def _apply_output_gate(perm: np.ndarray, gate: ToffoliGate) -> None:
    care, polarity = gate.control_masks()
    perm[(perm & care) == polarity] ^= 1 << gate.target


def _apply_input_gate(
    perm: np.ndarray, gate: ToffoliGate, states: np.ndarray
) -> np.ndarray:
    care, polarity = gate.control_masks()
    mask = (states & care) == polarity
    return perm[np.where(mask, states ^ (1 << gate.target), states)]


def synthesize_permutation_gates_reference(
    permutation: Sequence[int], num_lines: int, bidirectional: bool = True
) -> List[ToffoliGate]:
    """MMD synthesis scanning the whole state table per lookup and gate."""
    size = 1 << num_lines
    perm = np.asarray(permutation, dtype=np.int64).copy()
    states = np.arange(size, dtype=np.int64)
    out_gates: List[ToffoliGate] = []
    in_gates: List[ToffoliGate] = []

    for row in range(size):
        image = int(perm[row])
        if image == row:
            continue
        output_gates = _gates_transforming(image, row, num_lines, row)
        input_gates: List[ToffoliGate] = []
        use_input_side = False
        if bidirectional:
            preimage = int(np.nonzero(perm == row)[0][0])
            if preimage != row:
                input_gates = _gates_transforming(row, preimage, num_lines, row)
                use_input_side = _gate_list_cost(input_gates) < _gate_list_cost(
                    output_gates
                )
        if not use_input_side:
            for gate in output_gates:
                _apply_output_gate(perm, gate)
                out_gates.append(gate)
        else:
            # Earliest constructed input gate ends up closest to the inputs.
            for gate in reversed(input_gates):
                perm = _apply_input_gate(perm, gate, states)
                in_gates.append(gate)

    assert np.array_equal(perm, states), "synthesis did not reach the identity"
    # id = OUT o f o IN  =>  f = IN_order + reversed(OUT_order) in time order.
    return in_gates + out_gates[::-1]


# ---------------------------------------------------------------------------
# bounded pebbling (per-run cone walks, per-eviction scans of every pebble)
# ---------------------------------------------------------------------------


class _BoundedSchedulerReference:
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
    """

    def __init__(self, mapping: LutMapping, max_pebbles: int):
        if max_pebbles < 1:
            raise ValueError("max_pebbles must be at least 1")
        self.mapping = mapping
        self.budget = max_pebbles
        self.steps: List[PebbleStep] = []
        self.live: Set[int] = set()
        self.pins: Dict[int, int] = {}
        # Descending-cone-size recursion order: computing the largest
        # sub-cone first holds the fewest sibling pins while the deepest
        # recursion is in flight.
        self._cone_size = {
            root: len(mapping.lut_cone(root)) for root in mapping.order
        }

    # -- bookkeeping ----------------------------------------------------------

    def _pin(self, node: int) -> None:
        self.pins[node] = self.pins.get(node, 0) + 1

    def _unpin(self, node: int) -> None:
        self.pins[node] -= 1
        if not self.pins[node]:
            del self.pins[node]

    def _ordered_deps(self, node: int) -> List[int]:
        return sorted(
            self.mapping.dependencies(node),
            key=lambda dep: (-self._cone_size[dep], dep),
        )

    # -- the game -------------------------------------------------------------

    def _evictable(self, node: int) -> bool:
        return node not in self.pins and all(
            dep in self.live for dep in self.mapping.dependencies(node)
        )

    def _make_room(self) -> None:
        while len(self.live) >= self.budget:
            candidates = [node for node in self.live if self._evictable(node)]
            if not candidates:
                raise ValueError(
                    f"max_pebbles={self.budget} is too small for this LUT "
                    f"DAG: {len(self.live)} pebbles are pinned or orphaned"
                )
            # Evict the highest-index (deepest) candidate: it is the
            # furthest from the inputs and therefore the least likely to be
            # needed as a fanin of upcoming computations.
            victim = max(candidates)
            self.steps.append(PebbleStep(UNCOMPUTE, victim))
            self.live.discard(victim)

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
        stack = [[root, iter(self._ordered_deps(root)), []]]
        while stack:
            node, deps, pinned = stack[-1]
            for dep in deps:
                if dep in self.live:
                    self._pin(dep)
                    pinned.append(dep)
                    continue
                stack.append([dep, iter(self._ordered_deps(dep)), []])
                break
            else:
                self._make_room()
                self.steps.append(PebbleStep(COMPUTE, node))
                self.live.add(node)
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
            for dep in self._ordered_deps(node):
                self._ensure(dep)
                self._pin(dep)
                pinned.append(dep)
            self.steps.append(PebbleStep(UNCOMPUTE, node))
            self.live.discard(node)
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


def bounded_steps_reference(mapping: LutMapping, budget: int) -> Optional[List[PebbleStep]]:
    """The greedy run for one budget, or ``None`` when it is infeasible."""
    try:
        return _BoundedSchedulerReference(mapping, budget).run()
    except ValueError:
        return None
