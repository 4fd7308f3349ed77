"""Unit tests for AIG optimisation passes (balance / refactor / scripts)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.aig import Aig, lit_not
from repro.logic.aig_opt import balance, dc2, refactor, resyn2, rewrite
from repro.opt import parse_pipeline


def random_aig(num_inputs, operations, seed_ops):
    """Deterministically build a pseudo-random AIG from a list of op codes."""
    aig = Aig("random")
    literals = [aig.add_pi() for _ in range(num_inputs)]
    for op, i, j, neg in seed_ops:
        a = literals[i % len(literals)]
        b = literals[j % len(literals)]
        if neg & 1:
            a = lit_not(a)
        if neg & 2:
            b = lit_not(b)
        if op % 3 == 0:
            literals.append(aig.create_and(a, b))
        elif op % 3 == 1:
            literals.append(aig.create_or(a, b))
        else:
            literals.append(aig.create_xor(a, b))
    for index, lit in enumerate(literals[-min(4, len(literals)):]):
        aig.add_po(lit, f"f{index}")
    return aig


seed_ops_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=5,
    max_size=40,
)


def assert_equivalent(original, optimized):
    assert optimized.num_pis() == original.num_pis()
    assert optimized.num_pos() == original.num_pos()
    assert original.to_truth_table() == optimized.to_truth_table()


def build_chain(n=12):
    """A long unbalanced AND chain."""
    aig = Aig("chain")
    literals = [aig.add_pi() for _ in range(n)]
    acc = literals[0]
    for lit in literals[1:]:
        acc = aig.create_and(acc, lit)
    aig.add_po(acc)
    return aig


def build_redundant():
    """A deliberately redundant structure: f = (a AND b) OR (a AND NOT b)."""
    aig = Aig("redundant")
    a, b = aig.add_pi(), aig.add_pi()
    f = aig.create_or(aig.create_and(a, b), aig.create_and(a, lit_not(b)))
    aig.add_po(f)
    return aig


class TestBalance:
    def test_chain_depth_reduced(self):
        aig = build_chain(16)
        balanced = balance(aig)
        assert_equivalent(aig, balanced)
        assert balanced.depth() <= 5  # ceil(log2(16)) + margin
        assert aig.depth() == 15

    @given(seed_ops_strategy)
    @settings(max_examples=30, deadline=None)
    def test_balance_preserves_function(self, seed_ops):
        aig = random_aig(4, len(seed_ops), seed_ops)
        assert_equivalent(aig, balance(aig))


class TestRefactor:
    def test_redundancy_removed(self):
        aig = build_redundant()
        optimized = refactor(aig)
        assert_equivalent(aig, optimized)
        # f = a, so no AND nodes should remain.
        assert optimized.num_nodes() == 0

    @given(seed_ops_strategy)
    @settings(max_examples=30, deadline=None)
    def test_refactor_preserves_function(self, seed_ops):
        aig = random_aig(4, len(seed_ops), seed_ops)
        assert_equivalent(aig, refactor(aig))

    @given(seed_ops_strategy)
    @settings(max_examples=20, deadline=None)
    def test_rewrite_preserves_function(self, seed_ops):
        aig = random_aig(5, len(seed_ops), seed_ops)
        assert_equivalent(aig, rewrite(aig))

    def test_refactor_never_larger_than_input_on_small_cones(self):
        aig = build_redundant()
        assert refactor(aig).num_nodes() <= aig.cleanup().num_nodes()


class TestScripts:
    @given(seed_ops_strategy)
    @settings(max_examples=15, deadline=None)
    def test_dc2_preserves_function(self, seed_ops):
        aig = random_aig(4, len(seed_ops), seed_ops)
        assert_equivalent(aig, dc2(aig))

    @given(seed_ops_strategy)
    @settings(max_examples=10, deadline=None)
    def test_resyn2_preserves_function(self, seed_ops):
        aig = random_aig(4, len(seed_ops), seed_ops)
        assert_equivalent(aig, resyn2(aig))

    def test_pipeline_runs_rounds(self):
        aig = build_redundant()
        best = parse_pipeline("(dc2)*2").run(aig).network
        assert_equivalent(aig, best)
        assert best.num_nodes() <= aig.cleanup().num_nodes()

    def test_pipeline_unknown_name(self):
        with pytest.raises(ValueError):
            parse_pipeline("(does-not-exist)*1").run(build_redundant())
