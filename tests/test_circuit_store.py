"""Property tests: the columnar gate store agrees with the object path.

The packed :class:`~repro.reversible.gatestore.GateStore` and every
vectorised kernel built on it (T-count, histograms, depth, resource
estimation, the peephole passes, permutation replay) must be
indistinguishable from the per-gate-object oracles of :mod:`oracles` — on
random cascades including duplicate and unsorted
controls and >64-line (multi-word mask) circuits, and across a pickle
round-trip.  Gates are canonical on construction, so a gate rebuilt from
its masks equals the stored object on every entry point into the store.
"""

import pickle
import random

import numpy as np
import pytest

from oracles.circuits import (
    cancel_adjacent_gates_reference,
    circuit_t_count_reference,
    estimate_resources_reference,
    merge_not_gates_reference,
    reversible_depth_reference,
    t_count_histogram_reference,
)
from repro.core.flows import frontend_artifacts
from repro.io.realfmt import read_real, write_real
from repro.opt import as_pipeline
from repro.opt.targets import reversible_depth
from repro.quantum.circuit import SUPPORTED_GATES, QuantumCircuit
from repro.quantum.resources import estimate_resources
from repro.quantum.tcount import circuit_t_count, t_count_histogram
from repro.reversible.circuit import ReversibleCircuit
from repro.reversible.gates import ToffoliGate
from repro.reversible.gatestore import GateStore, popcount_words
from repro.reversible.optimize import cancel_adjacent_gates, merge_not_gates
from repro.reversible.symbolic_tbs import symbolic_tbs


def _random_controls(rng, num_lines, target, messy):
    """Random controls avoiding ``target``; ``messy`` repeats and shuffles."""
    arity = rng.randint(0, min(4, num_lines - 1))
    lines = rng.sample([line for line in range(num_lines) if line != target], arity)
    controls = [(line, rng.random() < 0.7) for line in lines]
    if messy and controls and rng.random() < 0.25:
        controls.append(controls[0])  # a same-polarity duplicate entry
    if not messy or rng.random() < 0.5:
        controls.sort()
    return controls


def _random_circuit(rng, num_lines, num_gates, messy=True):
    """A random cascade; ``messy`` adds duplicate and unsorted controls."""
    circuit = ReversibleCircuit()
    for line in range(num_lines):
        circuit.add_line(f"l{line}")
    for _ in range(num_gates):
        target = rng.randrange(num_lines)
        controls = _random_controls(rng, num_lines, target, messy)
        circuit.append(ToffoliGate(tuple(controls), target))
    return circuit


def _circuit_cases():
    rng = random.Random(1234)
    cases = []
    for _ in range(25):
        cases.append(_random_circuit(rng, rng.randint(2, 7), rng.randint(0, 50)))
    # Multi-word masks: >64 lines forces the W > 1 packing path.
    for _ in range(5):
        cases.append(_random_circuit(rng, 70, 60))
    cases.append(_random_circuit(rng, 3, 0))  # empty cascade
    return cases


CASES = _circuit_cases()


class TestCostKernelsAgree:
    @pytest.mark.parametrize("model", ["rtof", "barenco"])
    def test_t_count_and_histogram(self, model):
        for circuit in CASES:
            assert circuit_t_count(circuit, model) == circuit_t_count_reference(
                circuit, model
            )
            assert t_count_histogram(circuit, model) == t_count_histogram_reference(
                circuit, model
            )

    def test_depth(self):
        for circuit in CASES:
            assert reversible_depth(circuit) == reversible_depth_reference(circuit)

    def test_stats_cache_invalidated_on_mutation(self):
        circuit = _random_circuit(random.Random(7), 5, 20)
        before = circuit_t_count(circuit)
        circuit.append(ToffoliGate(((0, True), (1, True), (2, True)), 3))
        assert circuit_t_count(circuit) == circuit_t_count_reference(circuit)
        assert circuit_t_count(circuit) > before


class TestPassesAgree:
    def test_pass_outputs_identical(self):
        for circuit in CASES:
            for fast, reference in (
                (merge_not_gates, merge_not_gates_reference),
                (cancel_adjacent_gates, cancel_adjacent_gates_reference),
            ):
                assert fast(circuit.copy()).gates() == reference(circuit.copy()).gates()

    def test_optimize_preserves_function(self):
        rng = random.Random(99)
        for _ in range(10):
            circuit = _random_circuit(rng, rng.randint(2, 6), rng.randint(0, 30))
            optimized = as_pipeline("rev-default").run(circuit.copy()).network
            assert np.array_equal(
                optimized.to_permutation(), circuit.to_permutation()
            )

    def test_passes_return_input_when_nothing_rewrites(self):
        # Nothing to cancel or merge: the passes hand back the input
        # object, keeping the store's stat caches alive.
        circuit = ReversibleCircuit()
        for line in range(4):
            circuit.add_line(f"l{line}")
        circuit.append_controls(((0, True), (1, True)), 2)
        circuit.append_controls(((1, True), (2, True)), 3)
        assert merge_not_gates(circuit) is circuit
        assert cancel_adjacent_gates(circuit) is circuit

    def test_rev_default_matches_reference_rounds_on_a_flow_cascade(self):
        # rev-default on a real symbolic cascade, gate for gate against four
        # rounds of the object-path passes.
        circuit = symbolic_tbs(frontend_artifacts("intdiv", 4)["aig"])
        expected = circuit
        for _ in range(4):
            expected = cancel_adjacent_gates_reference(
                merge_not_gates_reference(expected)
            )
        result = as_pipeline("rev-default").run(circuit).network
        assert result.gates() == expected.gates()
        assert circuit_t_count(result) == circuit_t_count_reference(expected)


class TestReplayAgrees:
    def test_to_permutation_matches_object_replay(self):
        rng = random.Random(5)
        for _ in range(10):
            circuit = _random_circuit(rng, rng.randint(2, 6), rng.randint(0, 25))
            perm = circuit.to_permutation()
            for state in range(1 << circuit.num_lines()):
                expected = state
                for gate in circuit.iter_gates():
                    expected = gate.apply(expected)
                assert perm[state] == expected

    def test_apply_to_state_matches_object_replay(self):
        rng = random.Random(6)
        circuit = _random_circuit(rng, 70, 40)
        for _ in range(20):
            state = rng.getrandbits(70)
            expected = state
            for gate in circuit.iter_gates():
                expected = gate.apply(expected)
            assert circuit.apply_to_state(state) == expected


class TestStoreMechanics:
    def test_iter_gates_is_lazy_and_zero_copy(self):
        circuit = ReversibleCircuit()
        for line in range(6):
            circuit.add_line(f"l{line}")
        for target in range(1, 6):
            circuit.append_controls(((0, True),), target)
        store = circuit.gate_store()
        assert store.num_materialized() == 0
        iterator = circuit.iter_gates()
        assert iter(iterator) is iterator  # an iterator, not a list copy
        first = next(iterator)
        assert first == ToffoliGate.cnot(0, 1)
        # Consuming one gate materialises only that prefix.
        assert store.num_materialized() <= 1

    def test_gates_still_returns_a_fresh_list(self):
        circuit = _random_circuit(random.Random(8), 4, 10)
        gates = circuit.gates()
        gates.clear()
        assert circuit.num_gates() == 10

    def test_prepend_order_and_amortized_front(self):
        circuit = ReversibleCircuit()
        for line in range(4):
            circuit.add_line(f"l{line}")
        circuit.append(ToffoliGate.x(0))
        for line in (1, 2, 3):
            circuit.prepend(ToffoliGate.x(line))
        # list.insert(0, ...) semantics: the last prepend is first.
        assert [gate.target for gate in circuit.gates()] == [3, 2, 1, 0]
        assert circuit_t_count(circuit) == circuit_t_count_reference(circuit)

    def test_mask_and_object_appends_build_equal_stores(self):
        object_path = ReversibleCircuit()
        mask_path = ReversibleCircuit()
        for line in range(5):
            object_path.add_line(f"l{line}")
            mask_path.add_line(f"l{line}")
        gates = [
            ToffoliGate(((0, True), (2, False)), 4),
            ToffoliGate.cnot(1, 3),
            ToffoliGate.x(2),
        ]
        object_path.extend(gates)
        mask_path.extend_controls((gate.controls, gate.target) for gate in gates)
        assert mask_path.gates() == object_path.gates()
        packed_a = object_path.gate_store().packed(5)
        packed_b = mask_path.gate_store().packed(5)
        assert np.array_equal(packed_a.care, packed_b.care)
        assert np.array_equal(packed_a.polarity, packed_b.polarity)
        assert np.array_equal(packed_a.targets, packed_b.targets)

    def test_append_masks_validation(self):
        circuit = ReversibleCircuit()
        for line in range(3):
            circuit.add_line(f"l{line}")
        with pytest.raises(ValueError):
            circuit.append_masks(0b1000, 0b1000, 0)  # control beyond lines
        with pytest.raises(ValueError):
            circuit.append_masks(0b001, 0b001, 0)  # target is a control
        with pytest.raises(ValueError):
            circuit.append_masks(0b010, 0b100, 0)  # polarity outside care
        with pytest.raises(ValueError):
            circuit.append_masks(0b010, 0b010, 5)  # target beyond lines

    def test_popcount_words_matches_bin_count(self):
        rng = random.Random(3)
        words = np.array(
            [[rng.getrandbits(64) for _ in range(2)] for _ in range(50)],
            dtype=np.uint64,
        )
        expected = [
            bin(int(a)).count("1") + bin(int(b)).count("1") for a, b in words
        ]
        assert popcount_words(words).tolist() == expected

    def test_inverse_reverses_gates(self):
        circuit = _random_circuit(random.Random(21), 5, 15, messy=False)
        assert circuit.inverse().gates() == list(reversed(circuit.gates()))


class TestPickling:
    def test_pickle_roundtrip_mask_native(self):
        circuit = ReversibleCircuit()
        for line in range(70):
            circuit.add_line(f"l{line}")
        circuit.extend_masks(
            [(0b11, 0b01, 65), ((1 << 64) | 1, (1 << 64) | 1, 2), (0, 0, 69)]
        )
        restored = pickle.loads(pickle.dumps(circuit))
        assert restored.gates() == circuit.gates()
        assert restored.num_lines() == circuit.num_lines()
        assert circuit_t_count(restored) == circuit_t_count(circuit)

    def test_pickle_roundtrip_random(self):
        rng = random.Random(17)
        for _ in range(5):
            circuit = _random_circuit(rng, rng.randint(2, 6), rng.randint(0, 20))
            restored = pickle.loads(pickle.dumps(circuit))
            assert restored.gates() == circuit.gates()
            assert np.array_equal(
                restored.to_permutation(), circuit.to_permutation()
            )


def _gate_from_masks(care, polarity, target):
    """A gate rebuilt from its masks, independently of the store."""
    controls = []
    line = 0
    while care >> line:
        if (care >> line) & 1:
            controls.append((line, bool((polarity >> line) & 1)))
        line += 1
    return ToffoliGate(tuple(controls), target)


def _assert_masks_match_gates(circuit):
    gates = circuit.gates()
    targets, cares, polarities = circuit.gate_store().columns()
    triples = list(zip(cares, polarities, targets))
    assert gates == [_gate_from_masks(*triple) for triple in triples]
    for i, (gate_a, masks_a) in enumerate(zip(gates, triples)):
        for gate_b, masks_b in zip(gates[i:], triples[i:]):
            assert (masks_a == masks_b) == (gate_a == gate_b)


class TestCanonicalInvariant:
    """Every way into a store yields gates equal to their mask encoding."""

    @staticmethod
    def _entry_point_circuits(rng, num_lines, num_gates):
        circuit = ReversibleCircuit()
        for line in range(num_lines):
            circuit.add_line(f"l{line}")
        for _ in range(num_gates):
            target = rng.randrange(num_lines)
            controls = _random_controls(rng, num_lines, target, messy=True)
            entry = rng.randrange(4)
            if entry == 0:
                circuit.append(ToffoliGate(tuple(controls), target))
            elif entry == 1:
                circuit.prepend(ToffoliGate(tuple(controls), target))
            elif entry == 2:
                circuit.append_controls(controls, target)
            else:
                care, polarity = ToffoliGate(tuple(controls), target).control_masks()
                circuit.extend_masks([(care, polarity, target)])
        return [
            circuit,
            circuit.with_gates(circuit.gates()[::-1]),
            circuit.inverse(),
            circuit.copy(),
            pickle.loads(pickle.dumps(circuit)),
            read_real(write_real(circuit)),
        ]

    def test_random_cascades_through_every_entry_point(self):
        rng = random.Random(2024)
        for _ in range(40):
            num_lines = rng.choice([2, 3, 5, 8, 70])
            for circuit in self._entry_point_circuits(
                rng, num_lines, rng.randint(0, 25)
            ):
                _assert_masks_match_gates(circuit)

    def test_read_real_merges_duplicate_controls(self):
        text = ".variables a b c\n.begin\nt3 b a c\nt3 a a c\n.end\n"
        circuit = read_real(text)
        _assert_masks_match_gates(circuit)
        assert circuit.gates() == [
            ToffoliGate(((0, True), (1, True)), 2),
            ToffoliGate(((0, True),), 2),
        ]


class TestQuantumResourcesAgree:
    def test_estimate_resources_matches_reference(self):
        rng = random.Random(31)
        names = sorted(SUPPORTED_GATES)
        for _ in range(20):
            num_qubits = rng.randint(1, 6)
            circuit = QuantumCircuit(num_qubits)
            for _ in range(rng.randint(0, 60)):
                name = rng.choice(names)
                arity = SUPPORTED_GATES[name]
                if arity > num_qubits:
                    continue
                circuit.add(name, *rng.sample(range(num_qubits), arity))
            assert estimate_resources(circuit) == estimate_resources_reference(
                circuit
            )


class TestGateStoreUnit:
    def test_from_columns_and_repr(self):
        store = GateStore.from_columns([2], [0b11], [0b01])
        assert len(store) == 1
        assert "gates=1" in repr(store)
        gate = store.gate_at(0)
        assert gate == ToffoliGate(((0, True), (1, False)), 2)

    def test_reversed_copy_keeps_order_free_stats(self):
        circuit = _random_circuit(random.Random(61), 5, 12, messy=False)
        t_count = circuit_t_count(circuit)
        reversed_store = circuit.gate_store().reversed_copy()
        assert reversed_store.stats.get(("t_count", "rtof")) == t_count
        assert "depth" not in reversed_store.stats
