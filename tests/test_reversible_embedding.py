"""Unit tests for Bennett and optimum embeddings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdl.designs import intdiv_reference
from repro.logic.truth_table import TruthTable
from repro.reversible.embedding import (
    bennett_embedding,
    minimum_additional_lines,
    optimum_embedding,
)


def reciprocal_table(n):
    return TruthTable.from_callable(lambda x: intdiv_reference(n, x), n, n)


class TestMinimumLines:
    def test_reversible_function_needs_no_lines(self):
        table = TruthTable.from_callable(lambda x: x ^ (x >> 1), 3, 3)
        # x -> x xor (x >> 1) is a bijection on 3 bits.
        assert table.is_reversible()
        assert minimum_additional_lines(table) == 0

    def test_constant_function(self):
        table = TruthTable.from_callable(lambda x: 0, 3, 1)
        assert minimum_additional_lines(table) == 3

    def test_and_function(self):
        # AND has 3 minterms mapping to 0 -> ceil(log2(3)) = 2 additional lines.
        table = TruthTable.from_callable(lambda x: int(x == 3), 2, 1)
        assert minimum_additional_lines(table) == 2

    def test_reciprocal_matches_paper(self):
        # The paper's Table II reports 2n-1 qubits for the reciprocal, i.e.
        # n-1 additional lines.
        for n in (4, 5, 6, 7, 8):
            table = reciprocal_table(n)
            assert minimum_additional_lines(table) == n - 1


class TestBennettEmbedding:
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_bennett_is_valid(self, n, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        words = rng.integers(0, 1 << m, size=1 << n).astype(np.uint64)
        table = TruthTable(n, m, words)
        embedding = bennett_embedding(table)
        assert embedding.num_lines == n + m
        assert embedding.is_valid()

    def test_bennett_keeps_inputs(self):
        table = reciprocal_table(4)
        embedding = bennett_embedding(table)
        for x in range(16):
            image = int(embedding.care_images[x])
            assert image & 0xF == x  # inputs preserved on the low lines


class TestOptimumEmbedding:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_reciprocal_embedding(self, n):
        table = reciprocal_table(n)
        embedding = optimum_embedding(table)
        assert embedding.num_lines == 2 * n - 1
        assert embedding.is_valid()

    def test_reversible_function_stays_square(self):
        table = TruthTable.from_callable(lambda x: (x + 1) & 0x7, 3, 3)
        embedding = optimum_embedding(table)
        assert embedding.num_lines == 3
        assert embedding.is_valid()

    def test_extra_lines_can_be_forced(self):
        table = reciprocal_table(3)
        embedding = optimum_embedding(table, extra_lines=4)
        assert embedding.num_lines == 3 + 4
        assert embedding.is_valid()

    def test_extra_lines_below_minimum_rejected(self):
        table = TruthTable.from_callable(lambda x: 0, 3, 1)
        with pytest.raises(ValueError):
            optimum_embedding(table, extra_lines=1)

    @given(st.integers(min_value=0, max_value=10000))
    @settings(max_examples=30, deadline=None)
    def test_random_functions_embed_correctly(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        words = rng.integers(0, 1 << m, size=1 << n).astype(np.uint64)
        table = TruthTable(n, m, words)
        embedding = optimum_embedding(table)
        assert embedding.is_valid()
        # Optimum embedding uses exactly max(n, m + l) lines with l from Eq. (3).
        assert embedding.num_lines == max(n, m + minimum_additional_lines(table))
        # ... which never exceeds the Bennett bound of n + m lines.
        assert embedding.num_lines <= table.num_inputs + table.num_outputs
