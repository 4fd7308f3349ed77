"""Deeper structural and property-based tests for AIGs and their optimisation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.aig import Aig, lit_node, lit_not
from repro.logic.aig_opt import balance, dc2, refactor
from repro.logic.collapse import collapse_to_esop
from repro.verify.bitsim import random_batch
from repro.verify.differential import check_equivalent


def build_function_aig(columns, num_inputs):
    """Construct an AIG for explicit output columns via minterm expansion."""
    aig = Aig("spec")
    literals = [aig.add_pi() for _ in range(num_inputs)]
    for j, column in enumerate(columns):
        minterms = []
        for x in range(1 << num_inputs):
            if (column >> x) & 1:
                terms = [
                    literals[i] if (x >> i) & 1 else lit_not(literals[i])
                    for i in range(num_inputs)
                ]
                minterms.append(aig.create_and_multi(terms))
        aig.add_po(aig.create_or_multi(minterms), f"f{j}")
    return aig


columns_strategy = st.lists(
    st.integers(min_value=0, max_value=(1 << 16) - 1), min_size=1, max_size=3
)


class TestStructuralInvariants:
    @given(columns_strategy)
    @settings(max_examples=40, deadline=None)
    def test_cleanup_is_idempotent(self, columns):
        aig = build_function_aig(columns, 4)
        once = aig.cleanup()
        twice = once.cleanup()
        assert once.num_nodes() == twice.num_nodes()
        assert once.to_truth_table() == twice.to_truth_table()

    @given(columns_strategy)
    @settings(max_examples=40, deadline=None)
    def test_fanins_precede_nodes(self, columns):
        aig = build_function_aig(columns, 4)
        for node in aig.and_nodes():
            f0, f1 = aig.fanins(node)
            assert lit_node(f0) < node
            assert lit_node(f1) < node

    @given(columns_strategy)
    @settings(max_examples=40, deadline=None)
    def test_strashing_no_duplicate_fanin_pairs(self, columns):
        aig = build_function_aig(columns, 4)
        seen = set()
        for node in aig.and_nodes():
            pair = aig.fanins(node)
            assert pair not in seen
            seen.add(pair)

    @given(columns_strategy)
    @settings(max_examples=30, deadline=None)
    def test_depth_is_consistent_with_levels(self, columns):
        aig = build_function_aig(columns, 4).cleanup()
        levels = aig.levels()
        assert aig.depth() == max(
            (levels[lit_node(po)] for po in aig.pos()), default=0
        )


class TestOptimisationQuality:
    @given(columns_strategy)
    @settings(max_examples=25, deadline=None)
    def test_balance_never_increases_depth(self, columns):
        aig = build_function_aig(columns, 4)
        balanced = balance(aig)
        assert balanced.depth() <= aig.cleanup().depth()

    @given(columns_strategy)
    @settings(max_examples=20, deadline=None)
    def test_dc2_equivalent_and_not_larger_than_twice(self, columns):
        aig = build_function_aig(columns, 4)
        optimized = dc2(aig)
        assert check_equivalent(aig, optimized, mode="full").equivalent
        # dc2 may occasionally grow a tiny bit through balancing, but must
        # stay in the same ballpark.
        assert optimized.num_nodes() <= max(8, 2 * aig.cleanup().num_nodes())

    def test_refactor_removes_known_redundancy(self):
        # (a AND b) OR (a AND c) OR (a AND d) refactors towards a AND (b+c+d).
        aig = Aig()
        a, b, c, d = (aig.add_pi() for _ in range(4))
        f = aig.create_or_multi(
            [aig.create_and(a, b), aig.create_and(a, c), aig.create_and(a, d)]
        )
        aig.add_po(f)
        optimized = refactor(aig)
        assert check_equivalent(aig, optimized, mode="full").equivalent
        assert optimized.num_nodes() <= aig.cleanup().num_nodes()


class TestCollapseConsistency:
    @given(columns_strategy)
    @settings(max_examples=25, deadline=None)
    def test_esop_agrees_with_simulation(self, columns):
        aig = build_function_aig(columns, 4)
        assert collapse_to_esop(aig).to_truth_table() == aig.to_truth_table()

    @given(columns_strategy)
    @settings(max_examples=20, deadline=None)
    def test_random_simulation_agrees_with_exhaustive(self, columns):
        aig = build_function_aig(columns, 4)
        batch = random_batch(aig.num_pis(), 64, seed=7)
        patterns = aig.simulate_words(batch.inputs, batch.num_patterns)
        table = aig.to_truth_table()
        for t, minterm in enumerate(batch.minterms()):
            expected = table.evaluate(minterm)
            actual = sum(((patterns[j] >> t) & 1) << j for j in range(aig.num_pos()))
            assert actual == expected
