"""Unit tests for collapsing (AIG -> BDD/ESOP/TT) and equivalence checking."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.aig import Aig, lit_not
from repro.logic.collapse import (
    bdd_to_truth_table,
    collapse_to_bdd,
    collapse_to_esop,
    collapse_to_truth_table,
)
from repro.logic.truth_table import TruthTable
from repro.verify.differential import check_equivalent


def build_comparator(width=3):
    """a < b comparator over two width-bit inputs."""
    aig = Aig("comparator")
    a = [aig.add_pi(f"a{i}") for i in range(width)]
    b = [aig.add_pi(f"b{i}") for i in range(width)]
    lt = Aig.CONST0
    eq = Aig.CONST1
    for i in reversed(range(width)):
        bit_lt = aig.create_and(lit_not(a[i]), b[i])
        lt = aig.create_or(lt, aig.create_and(eq, bit_lt))
        eq = aig.create_and(eq, aig.create_xnor(a[i], b[i]))
    aig.add_po(lt, "lt")
    aig.add_po(eq, "eq")
    return aig


class TestCollapse:
    def test_collapse_to_bdd_matches_truth_table(self):
        aig = build_comparator(3)
        manager, roots = collapse_to_bdd(aig)
        assert len(roots) == 2
        table = bdd_to_truth_table(manager, roots)
        assert table == aig.to_truth_table()

    def test_collapse_to_truth_table(self):
        aig = build_comparator(2)
        table = collapse_to_truth_table(aig)
        for x in range(16):
            va = x & 3
            vb = (x >> 2) & 3
            assert table.output_bit(x, 0) == int(va < vb)
            assert table.output_bit(x, 1) == int(va == vb)

    def test_collapse_to_esop_equivalent(self):
        aig = build_comparator(2)
        cover = collapse_to_esop(aig)
        assert cover.to_truth_table() == aig.to_truth_table()

    def test_collapse_to_esop_unminimized(self):
        aig = build_comparator(2)
        cover = collapse_to_esop(aig, minimize=False)
        assert cover.to_truth_table() == aig.to_truth_table()


class TestCec:
    def test_equivalent_structures(self):
        a = build_comparator(3)
        b = build_comparator(3)
        result = check_equivalent(a, b, mode="full")
        assert result
        assert result.complete

    def test_inequivalent_detected(self):
        a = build_comparator(2)
        b = build_comparator(2)
        # Corrupt b by complementing one output.
        b_bad = Aig("bad")
        lits = [b_bad.add_pi(name) for name in b.pi_names()]
        mapping = {}
        for i, pi in enumerate(b.pis()):
            mapping[pi >> 1] = lits[i]
        rebuilt = b.cleanup()
        result_aig = rebuilt  # same function
        result = check_equivalent(a, result_aig, mode="full")
        assert result.equivalent

        # Now flip one PO.
        flipped = Aig("flipped")
        lits = [flipped.add_pi(name) for name in a.pi_names()]
        x = flipped.create_and(lits[0], lits[1])
        flipped.add_po(x, "lt")
        flipped.add_po(lit_not(x), "eq")
        outcome = check_equivalent(a, flipped, mode="full")
        assert not outcome.equivalent
        assert outcome.counterexample is not None

    def test_random_method_finds_gross_differences(self):
        a = build_comparator(3)
        wrong = Aig("wrong")
        lits = [wrong.add_pi(name) for name in a.pi_names()]
        wrong.add_po(Aig.CONST1, "lt")
        wrong.add_po(Aig.CONST0, "eq")
        result = check_equivalent(a, wrong, mode="sampled", num_samples=16)
        assert not result.equivalent
        assert not result.complete

    def test_random_method_upgrades_to_complete_on_small_spaces(self):
        # A sample budget >= 2**n degrades to the exhaustive batch, so the
        # verdict is complete even though the caller asked for "sampled".
        a = build_comparator(2)
        b = build_comparator(2)
        result = check_equivalent(a, b, mode="sampled")
        assert result.equivalent
        assert result.complete

    def test_check_against_truth_table(self):
        aig = build_comparator(2)
        table = aig.to_truth_table()
        assert check_equivalent(table, aig, mode="full").equivalent
        # Build a wrong table by flipping one word.
        words = table.words.copy()
        words[0] ^= 1
        wrong = TruthTable(table.num_inputs, table.num_outputs, words)
        result = check_equivalent(wrong, aig, mode="full")
        assert not result.equivalent
        assert result.counterexample == 0
