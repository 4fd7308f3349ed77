"""Unit tests for the XMG data structure and AIG-to-XMG mapping."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.logic import node_truth_tables, simulate_minterm
from repro.logic.aig import Aig
from repro.logic.aig import lit_not as aig_lit_not
from repro.logic.truth_table import tt_mask
from repro.logic.xmg import Xmg, lit_not
from repro.logic.xmg_mapping import aig_to_xmg, synthesize_lut_into_xmg
from repro.verify.fuzz import random_xmg


class TestXmgConstruction:
    def test_maj_simplifications(self):
        xmg = Xmg()
        a, b = xmg.add_pi(), xmg.add_pi()
        assert xmg.create_maj(a, a, b) == a
        assert xmg.create_maj(a, lit_not(a), b) == b
        assert xmg.num_maj() == 0

    def test_and_or_via_constants(self):
        xmg = Xmg()
        a, b = xmg.add_pi(), xmg.add_pi()
        and_lit = xmg.create_and(a, b)
        or_lit = xmg.create_or(a, b)
        xmg.add_po(and_lit, "and")
        xmg.add_po(or_lit, "or")
        for x in range(4):
            va, vb = x & 1, (x >> 1) & 1
            word = simulate_minterm(xmg, x)
            assert (word >> 0) & 1 == (va & vb)
            assert (word >> 1) & 1 == (va | vb)

    def test_xor_semantics_and_complement_canonicity(self):
        xmg = Xmg()
        a, b = xmg.add_pi(), xmg.add_pi()
        x1 = xmg.create_xor(a, b)
        x2 = xmg.create_xor(lit_not(a), b)
        assert x2 == lit_not(x1)
        assert xmg.num_xor() == 1

    def test_xor_constants(self):
        xmg = Xmg()
        a = xmg.add_pi()
        assert xmg.create_xor(a, Xmg.CONST0) == a
        assert xmg.create_xor(a, Xmg.CONST1) == lit_not(a)
        assert xmg.create_xor(a, a) == Xmg.CONST0
        assert xmg.create_xor(a, lit_not(a)) == Xmg.CONST1

    def test_maj_strashing_and_self_duality(self):
        xmg = Xmg()
        a, b, c = xmg.add_pi(), xmg.add_pi(), xmg.add_pi()
        m1 = xmg.create_maj(a, b, c)
        m2 = xmg.create_maj(c, a, b)
        assert m1 == m2
        m3 = xmg.create_maj(lit_not(a), lit_not(b), lit_not(c))
        assert m3 == lit_not(m1)
        assert xmg.num_maj() == 1

    def test_maj_semantics(self):
        xmg = Xmg()
        a, b, c = xmg.add_pi(), xmg.add_pi(), xmg.add_pi()
        xmg.add_po(xmg.create_maj(a, b, c))
        for x in range(8):
            bits = [(x >> i) & 1 for i in range(3)]
            assert simulate_minterm(xmg, x) == int(sum(bits) >= 2)

    def test_ite(self):
        xmg = Xmg()
        s, t, e = xmg.add_pi(), xmg.add_pi(), xmg.add_pi()
        xmg.add_po(xmg.create_ite(s, t, e))
        for x in range(8):
            vs, vt, ve = x & 1, (x >> 1) & 1, (x >> 2) & 1
            assert simulate_minterm(xmg, x) == (vt if vs else ve)

    def test_counts_levels_cleanup(self):
        xmg = Xmg()
        a, b, c = xmg.add_pi(), xmg.add_pi(), xmg.add_pi()
        m = xmg.create_maj(a, b, c)
        x = xmg.create_xor(m, c)
        xmg.create_and(a, b)  # dangling
        xmg.add_po(x)
        assert xmg.num_gates() == 3
        cleaned = xmg.cleanup()
        assert cleaned.num_gates() == 2
        assert cleaned.depth() == 2
        assert cleaned.to_truth_table() == xmg.to_truth_table()

    def test_invalid_literal_rejected(self):
        xmg = Xmg()
        with pytest.raises(ValueError):
            xmg.create_xor(40, 0)


class TestXmgSimulation:
    @pytest.mark.parametrize("seed", range(4))
    def test_output_columns_match_node_tables(self, seed):
        xmg = random_xmg(seed, num_pis=5, num_gates=25, num_pos=4)
        tables = node_truth_tables(xmg)
        mask = tt_mask(5)
        assert xmg.output_columns() == [
            tables[po >> 1] ^ (mask if po & 1 else 0) for po in xmg.pos()
        ]

    def test_dangling_and_constant_fanins(self):
        xmg = Xmg()
        a, b, c = xmg.add_pi(), xmg.add_pi(), xmg.add_pi()
        xmg.create_xor(a, c)  # dangling
        xmg.add_po(xmg.create_and(a, b))  # MAJ(a, b, 0)
        xmg.add_po(lit_not(xmg.create_or(b, c)))  # NOT MAJ(b, c, 1)
        xmg.add_po(Xmg.CONST1)
        assert xmg.simulate_words([0b1010, 0b1100, 0b0001], 4) == [
            0b1000, 0b0010, 0b1111
        ]

    def test_long_chain_keeps_few_tables_alive(self):
        # Over 1,000 gates over 16 inputs: every table is 2**16 bits
        # (8 KiB), so holding all of them would take about 8 MB; a table
        # dropped after its last fanout leaves a few dozen alive.
        xmg = Xmg()
        pis = [xmg.add_pi() for _ in range(16)]
        chain = pis[0]
        for i in range(500):
            term = xmg.create_maj(pis[i % 16], pis[(i + 1) % 16], chain)
            chain = xmg.create_xor(chain, term)
            if i % 50 == 49:
                xmg.add_po(chain)
        assert xmg.num_gates() > 990
        tracemalloc.start()
        try:
            columns = xmg.output_columns()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak
        tables = node_truth_tables(xmg)
        assert columns == [tables[po >> 1] ^ (po & 1) * tt_mask(16) for po in xmg.pos()]


class TestLutSynthesis:
    @given(st.integers(min_value=0, max_value=2**16 - 1))
    @settings(max_examples=200)
    def test_lut_resynthesis_correct(self, truth):
        xmg = Xmg()
        leaves = [xmg.add_pi() for _ in range(4)]
        literal = synthesize_lut_into_xmg(xmg, truth, leaves, 4)
        xmg.add_po(literal)
        assert xmg.to_truth_table().column(0) == truth

    def test_parity_needs_no_majority(self):
        xmg = Xmg()
        leaves = [xmg.add_pi() for _ in range(4)]
        parity = 0
        for x in range(16):
            if bin(x).count("1") % 2:
                parity |= 1 << x
        literal = synthesize_lut_into_xmg(xmg, parity, leaves, 4)
        xmg.add_po(literal)
        assert xmg.num_maj() == 0
        assert xmg.num_xor() == 3

    def test_majority_detected_as_single_node(self):
        xmg = Xmg()
        leaves = [xmg.add_pi() for _ in range(3)]
        maj = 0
        for x in range(8):
            if bin(x).count("1") >= 2:
                maj |= 1 << x
        literal = synthesize_lut_into_xmg(xmg, maj, leaves, 3)
        xmg.add_po(literal)
        assert xmg.num_maj() == 1
        assert xmg.num_xor() == 0


class TestAigToXmg:
    def build_adder(self, width):
        aig = Aig("adder")
        a = [aig.add_pi(f"a{i}") for i in range(width)]
        b = [aig.add_pi(f"b{i}") for i in range(width)]
        carry = Aig.CONST0
        for i in range(width):
            s = aig.create_xor(aig.create_xor(a[i], b[i]), carry)
            carry = aig.create_or(
                aig.create_and(a[i], b[i]),
                aig.create_and(carry, aig.create_xor(a[i], b[i])),
            )
            aig.add_po(s, f"s{i}")
        aig.add_po(carry, "cout")
        return aig

    @given(st.integers(min_value=1, max_value=4))
    @settings(max_examples=4, deadline=None)
    def test_adder_mapping_equivalent(self, width):
        aig = self.build_adder(width)
        xmg = aig_to_xmg(aig, k=4)
        assert xmg.to_truth_table() == aig.to_truth_table()

    def test_xor_rich_mapping(self):
        # An adder is XOR-heavy; the XMG must contain XOR nodes.
        aig = self.build_adder(4)
        xmg = aig_to_xmg(aig, k=4)
        assert xmg.num_xor() > 0

    def test_mux_network_equivalent(self):
        aig = Aig("mux")
        s = aig.add_pi("s")
        a = [aig.add_pi(f"a{i}") for i in range(4)]
        for i in range(0, 4, 2):
            aig.add_po(aig.create_mux(s, a[i], a[i + 1]), f"y{i // 2}")
        xmg = aig_to_xmg(aig, k=4)
        assert xmg.to_truth_table() == aig.to_truth_table()

    def test_complemented_outputs(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        aig.add_po(aig_lit_not(aig.create_and(a, b)), "nand")
        xmg = aig_to_xmg(aig)
        assert xmg.to_truth_table() == aig.to_truth_table()
