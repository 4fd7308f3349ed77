"""Tests for the shared literal encoding and the logic-network protocol."""

import pytest

import repro.logic.aig as aig_module
import repro.logic.xmg as xmg_module
from oracles.logic import collect_cone, cone_truth_table
from repro.logic import lits
from repro.logic.aig import Aig
from repro.logic.cuts import cut_truth_table, lut_map
from repro.logic.lits import lit_is_compl, lit_node
from repro.logic.network import (
    LogicNetwork,
    NetworkStats,
    network_cost,
    network_kind,
    network_stats,
    transitive_fanin,
)
from repro.logic.truth_table import tt_mask
from repro.logic.xmg import Xmg
from repro.verify.fuzz import random_aig, random_xmg


def sample_aig():
    aig = Aig("sample")
    a, b, c = aig.add_pi("a"), aig.add_pi("b"), aig.add_pi("c")
    aig.add_po(aig.create_and(aig.create_or(a, b), c), "f")
    return aig


def sample_xmg():
    xmg = Xmg("sample")
    a, b, c = xmg.add_pi("a"), xmg.add_pi("b"), xmg.add_pi("c")
    xmg.add_po(xmg.create_xor(xmg.create_maj(a, b, c), a), "f")
    return xmg


class TestLitsDeduplication:
    def test_aig_reexports_shared_functions(self):
        assert aig_module.make_lit is lits.make_lit
        assert aig_module.lit_node is lits.lit_node
        assert aig_module.lit_is_compl is lits.lit_is_compl
        assert aig_module.lit_not is lits.lit_not
        assert aig_module.lit_not_cond is lits.lit_not_cond

    def test_xmg_reexports_shared_functions(self):
        assert xmg_module.make_lit is lits.make_lit
        assert xmg_module.lit_node is lits.lit_node
        assert xmg_module.lit_is_compl is lits.lit_is_compl
        assert xmg_module.lit_not is lits.lit_not
        assert xmg_module.lit_not_cond is lits.lit_not_cond

    def test_encoding(self):
        assert lits.make_lit(5) == 10
        assert lits.make_lit(5, True) == 11
        assert lits.lit_node(11) == 5
        assert lits.lit_is_compl(11) and not lits.lit_is_compl(10)
        assert lits.lit_not(10) == 11
        assert lits.lit_not_cond(10, False) == 10
        assert lits.lit_not_cond(10, True) == 11


class TestProtocolConformance:
    @pytest.mark.parametrize("factory", [sample_aig, sample_xmg])
    def test_isinstance(self, factory):
        assert isinstance(factory(), LogicNetwork)

    def test_network_kind(self):
        assert network_kind(sample_aig()) == "aig"
        assert network_kind(sample_xmg()) == "xmg"

    def test_network_kind_rejects_non_networks(self):
        with pytest.raises(TypeError):
            network_kind(object())

    def test_uniform_gate_surface_aig(self):
        aig = sample_aig()
        assert aig.num_gates() == aig.num_nodes()
        assert aig.gate_nodes() == aig.and_nodes()
        for node in aig.gate_nodes():
            assert aig.is_gate(node)
        assert not aig.is_gate(0)
        assert not aig.is_gate(lit_node(aig.pis()[0]))

    def test_uniform_gate_surface_xmg(self):
        xmg = sample_xmg()
        assert xmg.num_gates() == xmg.num_maj() + xmg.num_xor()
        for node in xmg.gate_nodes():
            assert xmg.is_gate(node)
        assert not xmg.is_gate(0)

    def test_eval_gate_aig(self):
        aig = sample_aig()
        node = aig.gate_nodes()[0]
        assert aig.eval_gate(node, [0b1100, 0b1010]) == 0b1000

    def test_eval_gate_xmg(self):
        xmg = sample_xmg()
        maj = [n for n in xmg.gate_nodes() if xmg.is_maj(n)][0]
        xor = [n for n in xmg.gate_nodes() if xmg.is_xor(n)][0]
        assert xmg.eval_gate(maj, [0b1100, 0b1010, 0b1111]) == 0b1110
        assert xmg.eval_gate(xor, [0b1100, 0b1010]) == 0b0110

    def test_eval_gate_rejects_non_gates(self):
        xmg = sample_xmg()
        with pytest.raises(ValueError):
            xmg.eval_gate(0, [0, 0])


class TestNetworkStats:
    def test_aig_stats(self):
        stats = network_stats(sample_aig())
        assert stats == NetworkStats(
            kind="aig", num_pis=3, num_pos=1, num_gates=2, depth=2
        )
        assert stats.as_dict() == {"gates": 2, "depth": 2}

    def test_xmg_stats(self):
        stats = network_stats(sample_xmg())
        assert stats.kind == "xmg"
        assert stats.num_maj == 1 and stats.num_xor == 1
        assert stats.as_dict() == {"gates": 2, "depth": 2, "maj": 1, "xor": 1}

    def test_cost_is_lexicographic(self):
        assert network_cost(sample_aig()) == (2, 2)
        assert network_cost(sample_xmg()) == (1, 2, 2)


class TestTraversal:
    @pytest.mark.parametrize(
        "network",
        [random_aig(seed) for seed in range(5)]
        + [random_xmg(seed) for seed in range(5)],
        ids=lambda network: network.name,
    )
    def test_cone_truth_table_matches_node_tables(self, network):
        """Cone extraction agrees with whole-network simulation.

        The cone of any PO root with no stop set reaches primary inputs
        only; its truth table re-indexed through the leaf columns must
        reproduce the root's global truth table on every minterm.
        """
        tables = network.node_truth_tables()
        for po in network.pos():
            root = lit_node(po)
            if not network.is_gate(root):
                continue
            leaves, internal = collect_cone(network, root, set())
            assert internal == sorted(internal)
            assert all(not network.is_gate(leaf) for leaf in leaves)
            truth = cone_truth_table(network, root, leaves, internal)
            for minterm in range(1 << network.num_pis()):
                index = 0
                for j, leaf in enumerate(leaves):
                    if (tables[leaf] >> minterm) & 1:
                        index |= 1 << j
                assert ((truth >> index) & 1) == ((tables[root] >> minterm) & 1)

    def test_constant_fanin_is_not_a_cone_variable(self):
        """XMG cones with constant MAJ operands keep their true arity.

        MAJ(a, b, 0) is how an XMG represents AND; the constant node must
        evaluate as fixed 0 in the cone truth table, not surface as a
        phantom leaf variable.
        """
        xmg = Xmg()
        a, b = xmg.add_pi(), xmg.add_pi()
        or_lit = xmg.create_maj(a, b, Xmg.CONST1)
        xmg.add_po(or_lit)
        root = lit_node(or_lit)
        leaves, internal = collect_cone(xmg, root, set())
        assert leaves == [lit_node(a), lit_node(b)]
        truth = cone_truth_table(xmg, root, leaves, internal)
        assert truth == 0b1110  # OR over exactly two variables

    def test_transitive_fanin(self):
        aig = sample_aig()
        pos_roots = [lit_node(po) for po in aig.pos()]
        fanin = transitive_fanin(aig, pos_roots)
        assert fanin == set(aig.gate_nodes())


class TestGenericCuts:
    @pytest.mark.parametrize("seed", range(6))
    def test_xmg_cut_truth_tables_are_consistent(self, seed):
        """Every LUT of an XMG cover simulates to its recorded function."""
        xmg = random_xmg(seed, num_pis=4, num_gates=14)
        mapping = lut_map(xmg, k=4, selection="area")
        covered = mapping.network
        assert covered.network_type == "xmg"
        tables = covered.node_truth_tables()
        for root, (leaves, truth) in mapping.luts.items():
            for minterm in range(1 << covered.num_pis()):
                index = 0
                for j, leaf in enumerate(leaves):
                    if (tables[leaf] >> minterm) & 1:
                        index |= 1 << j
                assert ((truth >> index) & 1) == (
                    (tables[root] >> minterm) & 1
                ), f"cut of node {root} disagrees on minterm {minterm}"

    def test_cut_truth_table_xmg_maj(self):
        xmg = Xmg()
        a, b, c = xmg.add_pi(), xmg.add_pi(), xmg.add_pi()
        maj = xmg.create_maj(a, b, c)
        xmg.add_po(maj)
        from repro.logic.cuts import Cut

        cut = Cut(lit_node(maj), tuple(lit_node(x) for x in (a, b, c)))
        truth = cut_truth_table(xmg, cut)
        assert truth == 0b11101000  # MAJ3 truth table

    def test_lut_map_rejects_k_below_gate_arity(self):
        """A 3-fanin MAJ cannot be covered with k=2: loud error, no
        self-referential LUT."""
        xmg = Xmg()
        a, b, c = xmg.add_pi(), xmg.add_pi(), xmg.add_pi()
        xmg.add_po(xmg.create_maj(a, b, c))
        with pytest.raises(ValueError, match="cannot cover"):
            lut_map(xmg, k=2)
        # k=3 covers it fine.
        assert lut_map(xmg, k=3).num_luts() == 1

    def test_lut_map_k2_still_covers_constant_fanin_majs(self):
        """MAJ(a, b, const) has two real fanins and stays k=2-coverable."""
        xmg = Xmg()
        a, b = xmg.add_pi(), xmg.add_pi()
        xmg.add_po(xmg.create_maj(a, b, Xmg.CONST0))
        assert lut_map(xmg, k=2).num_luts() == 1

    def test_lut_mapping_network_alias(self):
        mapping = lut_map(sample_aig(), k=2)
        assert mapping.network is mapping.aig

    def test_improper_cut_rejected_on_xmg(self):
        from repro.logic.cuts import Cut

        xmg = sample_xmg()
        root = max(xmg.gate_nodes())
        with pytest.raises(ValueError):
            cut_truth_table(xmg, Cut(root, ()))
