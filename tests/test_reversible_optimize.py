"""Unit tests for the reversible-circuit peephole optimisation passes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.opt import as_pipeline
from repro.reversible.circuit import ReversibleCircuit
from repro.reversible.gates import ToffoliGate
from repro.reversible.optimize import cancel_adjacent_gates, merge_not_gates


def run_rev_default(circuit):
    """The default reversible peephole pipeline."""
    return as_pipeline("rev-default").run(circuit).network


def build_circuit(num_lines, gates):
    circuit = ReversibleCircuit()
    for _ in range(num_lines):
        circuit.add_constant_line(0)
    circuit.extend(gates)
    return circuit


def random_gates(draw_data, num_lines=4, max_gates=12):
    """Build a deterministic pseudo-random gate list from drawn integers."""
    gates = []
    for target, control_mask, polarity_mask in draw_data:
        target %= num_lines
        controls = []
        for line in range(num_lines):
            if line == target:
                continue
            if (control_mask >> line) & 1:
                controls.append((line, bool((polarity_mask >> line) & 1)))
        gates.append(ToffoliGate(tuple(controls), target))
    return gates


gate_data = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=15),
    ),
    min_size=0,
    max_size=12,
)


class TestCancellation:
    def test_adjacent_identical_gates_cancel(self):
        gate = ToffoliGate.toffoli(0, 1, 2)
        circuit = build_circuit(3, [gate, gate])
        optimized = cancel_adjacent_gates(circuit)
        assert optimized.num_gates() == 0

    def test_cancellation_across_commuting_gate(self):
        a = ToffoliGate.toffoli(0, 1, 2)
        b = ToffoliGate.cnot(0, 3)  # commutes with a (disjoint targets)
        circuit = build_circuit(4, [a, b, a])
        optimized = cancel_adjacent_gates(circuit)
        assert optimized.num_gates() == 1
        assert optimized.gates() == [b]

    def test_no_cancellation_across_blocking_gate(self):
        a = ToffoliGate.toffoli(0, 1, 2)
        blocker = ToffoliGate.cnot(3, 1)  # writes a control line of a
        circuit = build_circuit(4, [a, blocker, a])
        optimized = cancel_adjacent_gates(circuit)
        assert optimized.num_gates() == 3

    @given(gate_data)
    @settings(max_examples=100, deadline=None)
    def test_cancellation_preserves_function(self, data):
        circuit = build_circuit(4, random_gates(data))
        optimized = cancel_adjacent_gates(circuit)
        assert np.array_equal(circuit.to_permutation(), optimized.to_permutation())
        assert optimized.num_gates() <= circuit.num_gates()


class TestNotMerging:
    def test_not_sandwich_merges_into_polarity(self):
        gates = [
            ToffoliGate.x(0),
            ToffoliGate.toffoli(0, 1, 2),
            ToffoliGate.x(0),
        ]
        circuit = build_circuit(3, gates)
        optimized = merge_not_gates(circuit)
        assert optimized.num_gates() == 1
        merged = optimized.gates()[0]
        assert dict(merged.controls)[0] is False  # control polarity flipped

    def test_not_on_target_not_merged(self):
        gates = [
            ToffoliGate.x(2),
            ToffoliGate.toffoli(0, 1, 2),
            ToffoliGate.x(2),
        ]
        circuit = build_circuit(3, gates)
        optimized = merge_not_gates(circuit)
        assert optimized.num_gates() == 3

    @given(gate_data)
    @settings(max_examples=100, deadline=None)
    def test_merging_preserves_function(self, data):
        circuit = build_circuit(4, random_gates(data))
        optimized = merge_not_gates(circuit)
        assert np.array_equal(circuit.to_permutation(), optimized.to_permutation())


class TestFullScript:
    @given(gate_data)
    @settings(max_examples=100, deadline=None)
    def test_optimize_preserves_function(self, data):
        circuit = build_circuit(4, random_gates(data))
        optimized = run_rev_default(circuit)
        assert np.array_equal(circuit.to_permutation(), optimized.to_permutation())
        assert optimized.num_gates() <= circuit.num_gates()
        assert optimized.t_count() <= circuit.t_count()

    def test_or_block_pattern_shrinks(self):
        # The OR block of the hierarchical flow: negative-control Toffoli
        # surrounded by X gates on the same ancilla cancels against its own
        # uncompute copy.
        gates = [
            ToffoliGate.from_lines([], [0, 1], 2),
            ToffoliGate.x(2),
            ToffoliGate.x(2),
            ToffoliGate.from_lines([], [0, 1], 2),
        ]
        circuit = build_circuit(3, gates)
        optimized = run_rev_default(circuit)
        assert optimized.num_gates() == 0

    def test_irreducible_gate_kept(self):
        circuit = build_circuit(3, [ToffoliGate.toffoli(0, 1, 2)])
        assert run_rev_default(circuit).num_gates() == 1

    def test_roles_preserved(self):
        circuit = ReversibleCircuit()
        circuit.add_input_line(0, "a")
        circuit.add_constant_line(0, "anc")
        circuit.set_output(1, 0)
        circuit.append(ToffoliGate.cnot(0, 1))
        circuit.append(ToffoliGate.x(1))
        circuit.append(ToffoliGate.x(1))
        optimized = run_rev_default(circuit)
        assert optimized.num_gates() == 1
        assert optimized.output_lines() == {0: 1}
        assert optimized.input_lines() == {0: 0}


class TestDuplicateControls:
    """Duplicate control entries are merged when the gate is built."""

    def test_duplicate_control_entries_deduplicated(self):
        gate = ToffoliGate(((0, True), (0, True), (1, False)), 2)
        circuit = build_circuit(3, [gate])
        optimized = run_rev_default(circuit)
        assert optimized.num_gates() == 1
        assert optimized.gates()[0] == ToffoliGate.from_lines([0], [1], 2)
        assert optimized.gates()[0].num_controls() == 2
        assert np.array_equal(
            circuit.to_permutation(), optimized.to_permutation()
        )

    def test_deduplication_restores_honest_t_count(self):
        # A duplicated 2-control gate must not be charged as a 3-control
        # gate anywhere in the stack.
        gate = ToffoliGate(((0, True), (0, True), (1, True)), 2)
        circuit = build_circuit(3, [gate])
        assert circuit.t_count() == 7
        assert run_rev_default(circuit).t_count() == 7

    def test_duplicated_gates_cancel_against_clean_ones(self):
        messy = ToffoliGate(((1, True), (0, True), (1, True)), 2)
        circuit = build_circuit(3, [messy, ToffoliGate.toffoli(0, 1, 2)])
        assert cancel_adjacent_gates(circuit).num_gates() == 0
