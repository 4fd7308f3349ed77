"""Unit tests for transformation-based synthesis (functional flow)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.reversible.tbs as tbs_module
from repro.hdl.designs import intdiv_reference
from repro.hdl.synthesize import synthesize_reciprocal_design
from repro.logic.truth_table import TruthTable
from repro.reversible.embedding import optimum_embedding
from repro.reversible.lut_synth import _tbs_block
from repro.reversible.symbolic_tbs import symbolic_tbs
from repro.reversible.tbs import (
    synthesize_permutation_gates,
    synthesize_permutation_masks,
    transformation_based_synthesis,
)
from repro.verify.differential import check_equivalent


def apply_gates(gates, state):
    for gate in gates:
        state = gate.apply(state)
    return state


def check_realizes(gates, images):
    """The gates map every care row ``x < len(images)`` to ``images[x]``."""
    for state, image in enumerate(images):
        assert apply_gates(gates, state) == image


def random_care_table(rng, num_inputs, num_lines):
    """``2^num_inputs`` distinct images drawn from ``2^num_lines`` states."""
    return rng.choice(1 << num_lines, size=1 << num_inputs, replace=False)


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
        check_realizes(gates, permutation)

    def test_identity_needs_no_gates(self):
        gates = synthesize_permutation_gates(list(range(8)), 3)
        assert gates == []

    def test_swap_of_two_states(self):
        permutation = list(range(8))
        permutation[6], permutation[7] = 7, 6
        gates = synthesize_permutation_gates(permutation, 3)
        check_realizes(gates, permutation)

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
        check_realizes(uni, permutation)
        check_realizes(bi, permutation)


class TestLutBlockCascades:
    def test_tbs_blocks_are_pinned(self):
        # The lut flow's lut_synth='tbs' blocks are full permutations (every
        # row is a care row): their cascades are pinned by the SHA-256 of
        # every block of arity 0-3 and 300 seeded arity-4 blocks, taken
        # from the kernel that synthesised the whole 2^L-state table.
        blocks = [
            (arity, truth)
            for arity in range(4)
            for truth in range(1 << (1 << arity))
        ]
        rng = np.random.default_rng(2017)
        blocks += [(4, int(truth)) for truth in rng.integers(0, 1 << 16, size=300)]
        digest = hashlib.sha256()
        for arity, truth in blocks:
            digest.update(repr(_tbs_block(truth, arity)).encode())
        assert digest.hexdigest() == (
            "14fbe1695d137fca91e0acef12833779046e80a22afeb8689a9107e526616cbd"
        )


class TestCareTableSynthesis:
    """``2^k`` care rows over ``L >= k`` lines; other states are don't-cares."""

    @given(st.integers(min_value=0, max_value=100000), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_care_tables(self, seed, bidirectional):
        rng = np.random.default_rng(seed)
        num_lines = int(rng.integers(1, 8))
        num_inputs = int(rng.integers(0, num_lines))
        images = random_care_table(rng, num_inputs, num_lines)
        gates = synthesize_permutation_gates(images, num_lines, bidirectional)
        check_realizes(gates, images)

    @pytest.mark.parametrize("num_inputs,num_lines", [(11, 12), (11, 14)])
    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_care_tables_above_the_compaction_floor(
        self, monkeypatch, num_inputs, num_lines, bidirectional
    ):
        compactions = []
        compact = tbs_module._compact

        def counting_compact(*args):
            compactions.append(args[-1])
            return compact(*args)

        monkeypatch.setattr(tbs_module, "_compact", counting_compact)
        rng = np.random.default_rng(num_lines)
        images = random_care_table(rng, num_inputs, num_lines)
        circuit = transformation_based_synthesis(images, num_lines, bidirectional)
        assert len(compactions) >= 2
        # The circuit simulator, independent of the kernel's tables.
        realized = circuit.to_permutation()
        assert np.array_equal(realized[: len(images)], images)

    def test_input_side_gates_target_input_lines(self, monkeypatch):
        # An input-side candidate transforms the row into its preimage
        # (start == protect_below); an output-side one maps the image to
        # the row (goal == protect_below, start != goal).
        original = tbs_module._gate_masks_transforming
        input_targets = []

        def builder(start, goal, protect_below):
            masks, cost = original(start, goal, protect_below)
            if start == protect_below:
                input_targets.extend(target for _, target in masks)
            return masks, cost

        monkeypatch.setattr(tbs_module, "_gate_masks_transforming", builder)
        num_inputs, num_lines = 4, 7
        rng = np.random.default_rng(5)
        sides_differ = False
        for _ in range(20):
            images = random_care_table(rng, num_inputs, num_lines)
            bi = synthesize_permutation_masks(images, num_lines, True)
            uni = synthesize_permutation_masks(images, num_lines, False)
            sides_differ |= bi != uni
            check_realizes(
                synthesize_permutation_gates(images, num_lines), images
            )
        assert sides_differ  # the input side was taken
        assert input_targets and max(input_targets) < num_inputs

    @pytest.mark.parametrize(
        "images,num_lines,message",
        [
            ([1, 1], 3, "not distinct"),
            ([0, 1, 2], 3, "not a power of two"),
            ([], 3, "not a power of two"),
            (list(range(8)), 2, "do not fit"),
            ([0, 8], 3, "outside"),
            ([-1, 0], 3, "outside"),
        ],
    )
    def test_invalid_care_tables_rejected(self, images, num_lines, message):
        with pytest.raises(ValueError, match=message):
            synthesize_permutation_masks(images, num_lines)


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
