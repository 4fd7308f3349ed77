"""Unit tests for the AIG data structure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.logic import simulate_minterm
from repro.logic.aig import Aig, lit_is_compl, lit_node, lit_not, make_lit


def build_full_adder():
    """Single-bit full adder used by several tests."""
    aig = Aig("full_adder")
    a = aig.add_pi("a")
    b = aig.add_pi("b")
    cin = aig.add_pi("cin")
    s = aig.create_xor(aig.create_xor(a, b), cin)
    cout = aig.create_or(
        aig.create_and(a, b), aig.create_and(cin, aig.create_xor(a, b))
    )
    aig.add_po(s, "sum")
    aig.add_po(cout, "cout")
    return aig


class TestLiterals:
    def test_literal_helpers(self):
        lit = make_lit(5, True)
        assert lit_node(lit) == 5
        assert lit_is_compl(lit)
        assert lit_not(lit) == make_lit(5, False)


class TestConstruction:
    def test_constants(self):
        aig = Aig()
        a = aig.add_pi()
        assert aig.create_and(a, Aig.CONST0) == Aig.CONST0
        assert aig.create_and(a, Aig.CONST1) == a
        assert aig.num_nodes() == 0

    def test_idempotence_and_complement(self):
        aig = Aig()
        a = aig.add_pi()
        assert aig.create_and(a, a) == a
        assert aig.create_and(a, lit_not(a)) == Aig.CONST0

    def test_structural_hashing(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        n1 = aig.create_and(a, b)
        n2 = aig.create_and(b, a)
        assert n1 == n2
        assert aig.num_nodes() == 1

    def test_invalid_literal_rejected(self):
        aig = Aig()
        with pytest.raises(ValueError):
            aig.create_and(100, 0)

    def test_counts_and_names(self):
        aig = build_full_adder()
        assert aig.num_pis() == 3
        assert aig.num_pos() == 2
        assert aig.pi_names() == ["a", "b", "cin"]
        assert aig.po_names() == ["sum", "cout"]
        assert aig.num_nodes() > 0


class TestSemantics:
    def test_full_adder_truth_table(self):
        aig = build_full_adder()
        for x in range(8):
            a, b, cin = x & 1, (x >> 1) & 1, (x >> 2) & 1
            total = a + b + cin
            expected = (total & 1) | ((total >> 1) << 1)
            assert simulate_minterm(aig, x) == expected

    def test_gate_primitives(self):
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        aig.add_po(aig.create_or(a, b), "or")
        aig.add_po(aig.create_xor(a, b), "xor")
        aig.add_po(aig.create_xnor(a, b), "xnor")
        aig.add_po(aig.create_nand(a, b), "nand")
        aig.add_po(aig.create_nor(a, b), "nor")
        aig.add_po(aig.create_mux(c, a, b), "mux")
        aig.add_po(aig.create_maj(a, b, c), "maj")
        for x in range(8):
            va, vb, vc = x & 1, (x >> 1) & 1, (x >> 2) & 1
            word = simulate_minterm(aig, x)
            assert (word >> 0) & 1 == (va | vb)
            assert (word >> 1) & 1 == (va ^ vb)
            assert (word >> 2) & 1 == 1 - (va ^ vb)
            assert (word >> 3) & 1 == 1 - (va & vb)
            assert (word >> 4) & 1 == 1 - (va | vb)
            assert (word >> 5) & 1 == (va if vc else vb)
            assert (word >> 6) & 1 == int(va + vb + vc >= 2)

    def test_multi_input_gates(self):
        aig = Aig()
        lits = [aig.add_pi() for _ in range(5)]
        aig.add_po(aig.create_and_multi(lits), "and")
        aig.add_po(aig.create_or_multi(lits), "or")
        aig.add_po(aig.create_xor_multi(lits), "xor")
        for x in range(32):
            bits = [(x >> i) & 1 for i in range(5)]
            word = simulate_minterm(aig, x)
            assert (word >> 0) & 1 == int(all(bits))
            assert (word >> 1) & 1 == int(any(bits))
            assert (word >> 2) & 1 == sum(bits) % 2

    def test_empty_multi_gates(self):
        aig = Aig()
        assert aig.create_and_multi([]) == Aig.CONST1
        assert aig.create_or_multi([]) == Aig.CONST0
        assert aig.create_xor_multi([]) == Aig.CONST0

    def test_truth_table_matches_simulation(self):
        aig = build_full_adder()
        table = aig.to_truth_table()
        for x in range(8):
            assert table.evaluate(x) == simulate_minterm(aig, x)

    def test_simulate_words(self):
        aig = build_full_adder()
        # Pattern bits enumerate all eight minterms.
        patterns = []
        for i in range(3):
            word = 0
            for x in range(8):
                if (x >> i) & 1:
                    word |= 1 << x
            patterns.append(word)
        outputs = aig.simulate_words(patterns, 8)
        table = aig.to_truth_table()
        for j in range(2):
            assert outputs[j] == table.column(j)

    def test_simulate_words_validates_inputs(self):
        aig = build_full_adder()
        with pytest.raises(ValueError):
            aig.simulate_words([0, 0], 8)
        with pytest.raises(ValueError):
            aig.simulate_words([0, 0, 0], 0)


class TestStructure:
    def test_levels_and_depth(self):
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        n1 = aig.create_and(a, b)
        n2 = aig.create_and(n1, c)
        aig.add_po(n2)
        assert aig.depth() == 2
        levels = aig.levels()
        assert levels[lit_node(n1)] == 1
        assert levels[lit_node(n2)] == 2

    def test_fanout_counts(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        n = aig.create_and(a, b)
        aig.add_po(n)
        aig.add_po(n)
        counts = aig.fanout_counts()
        assert counts[lit_node(n)] == 2
        assert counts[lit_node(a)] == 1

    def test_cleanup_removes_dangling(self):
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        used = aig.create_and(a, b)
        aig.create_and(a, c)  # dangling
        aig.add_po(used)
        cleaned = aig.cleanup()
        assert cleaned.num_nodes() == 1
        assert cleaned.num_pis() == 3
        for x in range(8):
            assert simulate_minterm(cleaned, x) == simulate_minterm(aig, x)

    def test_copy_is_independent(self):
        aig = build_full_adder()
        clone = aig.copy()
        clone.add_pi("extra")
        assert aig.num_pis() == 3
        assert clone.num_pis() == 4

    @given(st.integers(min_value=0, max_value=2**16 - 1))
    @settings(max_examples=50)
    def test_arbitrary_function_construction(self, func):
        # Build func as a sum of minterms and compare with the truth table.
        aig = Aig()
        lits = [aig.add_pi() for _ in range(4)]
        minterms = []
        for x in range(16):
            if (func >> x) & 1:
                terms = [
                    lits[i] if (x >> i) & 1 else lit_not(lits[i]) for i in range(4)
                ]
                minterms.append(aig.create_and_multi(terms))
        aig.add_po(aig.create_or_multi(minterms))
        assert aig.to_truth_table().column(0) == func
