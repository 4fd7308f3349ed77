"""Unit tests for transformation-based synthesis (functional flow)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdl.designs import intdiv_reference
from repro.hdl.synthesize import synthesize_reciprocal_design
from repro.logic.truth_table import TruthTable
from repro.reversible.embedding import optimum_embedding
from repro.reversible.symbolic_tbs import symbolic_tbs
from repro.reversible.tbs import (
    synthesize_permutation_gates,
    transformation_based_synthesis,
)
from repro.verify.differential import check_equivalent


def apply_gates(gates, state):
    for gate in gates:
        state = gate.apply(state)
    return state


def check_realizes(gates, permutation, num_lines):
    for state in range(1 << num_lines):
        assert apply_gates(gates, state) == permutation[state]


class TestPermutationSynthesis:
    @given(st.integers(min_value=0, max_value=100000), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_permutations(self, seed, bidirectional):
        rng = np.random.default_rng(seed)
        num_lines = int(rng.integers(2, 5))
        permutation = rng.permutation(1 << num_lines)
        gates = synthesize_permutation_gates(
            permutation, num_lines, bidirectional=bidirectional
        )
        check_realizes(gates, permutation, num_lines)

    def test_identity_needs_no_gates(self):
        gates = synthesize_permutation_gates(list(range(8)), 3)
        assert gates == []

    def test_swap_of_two_states(self):
        permutation = list(range(8))
        permutation[6], permutation[7] = 7, 6
        gates = synthesize_permutation_gates(permutation, 3)
        check_realizes(gates, permutation, 3)

    def test_not_a_permutation_rejected(self):
        with pytest.raises(ValueError):
            synthesize_permutation_gates([0, 0, 1, 2], 2)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            synthesize_permutation_gates([0, 1, 2], 2)

    def test_circuit_wrapper(self):
        rng = np.random.default_rng(7)
        permutation = rng.permutation(16)
        circuit = transformation_based_synthesis(permutation, 4)
        assert circuit.num_lines() == 4
        realized = circuit.to_permutation()
        assert np.array_equal(realized, permutation)

    def test_bidirectional_not_worse_much(self):
        rng = np.random.default_rng(3)
        permutation = rng.permutation(32)
        uni = synthesize_permutation_gates(permutation, 5, bidirectional=False)
        bi = synthesize_permutation_gates(permutation, 5, bidirectional=True)
        check_realizes(uni, permutation, 5)
        check_realizes(bi, permutation, 5)


class TestSymbolicTbs:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_reciprocal_from_truth_table(self, n):
        table = TruthTable.from_callable(lambda x: intdiv_reference(n, x), n, n)
        circuit = symbolic_tbs(table)
        assert circuit.num_lines() == 2 * n - 1  # optimum qubit count (Table II)
        result = check_equivalent(table, circuit, mode="full")
        assert result, result.message

    @pytest.mark.parametrize("design", ["intdiv", "newton"])
    def test_reciprocal_from_aig(self, design):
        n = 4
        _, aig = synthesize_reciprocal_design(design, n)
        circuit = symbolic_tbs(aig)
        result = check_equivalent(aig.to_truth_table(), circuit, mode="full")
        assert result, result.message
        assert circuit.num_lines() <= 2 * n

    def test_from_embedding(self):
        table = TruthTable.from_callable(lambda x: intdiv_reference(3, x), 3, 3)
        embedding = optimum_embedding(table)
        circuit = symbolic_tbs(embedding)
        assert check_equivalent(table, circuit, mode="full")

    def test_unsupported_spec_type(self):
        with pytest.raises(TypeError):
            symbolic_tbs([1, 2, 3])

    def test_large_toffoli_gates_present(self):
        # Functional synthesis is expected to produce gates with many
        # controls (the cause of the large T-count in Table II).
        table = TruthTable.from_callable(lambda x: intdiv_reference(5, x), 5, 5)
        circuit = symbolic_tbs(table)
        assert circuit.max_controls() >= 5
