"""Unit tests for cut enumeration and LUT mapping."""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.logic import (
    XMG_KIND_MAJ,
    add_xmg_node_reference,
    cut_truth_table_reference,
    enumerate_cuts_reference,
    filter_dominated_cuts_reference,
)
from repro.logic.aig import Aig, lit_node, lit_not
from repro.logic.cuts import (
    Cut,
    cut_enumeration_cache_stats,
    cut_truth_table,
    cut_truth_tables,
    enumerate_cuts,
    lut_map,
)
from repro.logic.xmg import Xmg


def build_adder_aig(width=4):
    """Ripple-carry adder AIG: 2*width inputs, width+1 outputs."""
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


class TestCutEnumeration:
    def test_pi_has_trivial_cut(self):
        aig = Aig()
        a = aig.add_pi()
        cuts = enumerate_cuts(aig, k=4)
        assert cuts[lit_node(a)] == [Cut(lit_node(a), (lit_node(a),))]

    def test_cut_sizes_bounded(self):
        aig = build_adder_aig(3)
        cuts = enumerate_cuts(aig, k=4)
        for node, node_cuts in cuts.items():
            for cut in node_cuts:
                assert cut.size() <= 4

    def test_cut_truth_table_of_and(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        n = aig.create_and(a, b)
        aig.add_po(n)
        cuts = enumerate_cuts(aig, k=2)
        node = lit_node(n)
        non_trivial = [c for c in cuts[node] if c.leaves != (node,)]
        assert non_trivial
        truth = cut_truth_table(aig, non_trivial[0])
        assert truth == 0b1000

    def test_cut_truth_table_respects_complement_edges(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        n = aig.create_and(lit_not(a), b)
        aig.add_po(n)
        cuts = enumerate_cuts(aig, k=2)
        node = lit_node(n)
        cut = [c for c in cuts[node] if c.leaves != (node,)][0]
        truth = cut_truth_table(aig, cut)
        # Leaves are sorted (a, b); NOT a AND b is minterm where a=0,b=1.
        assert truth == 0b0100


class TestCutDominance:
    def test_filter_removes_supersets(self):
        cuts = [
            Cut(9, (1, 2)),
            Cut(9, (1, 2, 3)),  # dominated by {1, 2}
            Cut(9, (2, 4)),
            Cut(9, (1, 4)),
        ]
        kept = filter_dominated_cuts_reference(cuts)
        assert kept == [Cut(9, (1, 2)), Cut(9, (2, 4)), Cut(9, (1, 4))]

    def test_filter_handles_unsorted_input(self):
        # A later, smaller cut must also knock out an earlier superset.
        cuts = [Cut(9, (1, 2, 3)), Cut(9, (1, 3))]
        assert filter_dominated_cuts_reference(cuts) == [Cut(9, (1, 3))]

    def test_filter_deduplicates_equal_leaf_sets(self):
        cuts = [Cut(9, (1, 2)), Cut(9, (1, 2))]
        assert filter_dominated_cuts_reference(cuts) == [Cut(9, (1, 2))]

    def test_filter_keeps_incomparable_cuts(self):
        cuts = [Cut(9, (1, 2)), Cut(9, (3, 4)), Cut(9, (1, 4))]
        assert filter_dominated_cuts_reference(cuts) == cuts

    @pytest.mark.parametrize("selection", ["depth", "area"])
    def test_no_dominated_cut_survives_enumeration(self, selection):
        # A reconvergent structure: cuts of the top node include both
        # {x, y} and leaf sets reaching through them; no kept cut may be a
        # strict superset of another kept cut.
        aig = build_adder_aig(4)
        cuts = enumerate_cuts(aig, k=4, selection=selection)
        for node, node_cuts in cuts.items():
            non_trivial = [c for c in node_cuts if c.leaves != (node,)]
            for cut in non_trivial:
                leaves = set(cut.leaves)
                dominators = [
                    other
                    for other in non_trivial
                    if other is not cut and set(other.leaves) < leaves
                ]
                assert not dominators, (
                    f"node {node}: cut {cut.leaves} dominated by "
                    f"{dominators[0].leaves}"
                )

    def test_dominated_cut_never_survives_pruning_under_pressure(self):
        # With max_cuts = 1 only the best cut survives; it must be the
        # dominating one even though the dominated cut merges first.
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        ab = aig.create_and(a, b)
        top = aig.create_and(ab, a)  # reconverges on a
        aig.add_po(top)
        cuts = enumerate_cuts(aig, k=3, max_cuts=8)
        node = lit_node(top)
        leaf_sets = [set(c.leaves) for c in cuts[node]]
        # {a, ab} is dominated by nothing; {a, b, ab}-style supersets of
        # smaller kept cuts must be gone.
        for leaves in leaf_sets:
            assert not any(
                other < leaves for other in leaf_sets if other is not leaves
            )

    def test_max_cuts_pruning_keeps_priority_order(self):
        aig = build_adder_aig(4)
        for max_cuts in (1, 2, 4):
            cuts = enumerate_cuts(aig, k=4, max_cuts=max_cuts)
            for node in aig.nodes():
                if not aig.is_and(node):
                    continue
                # The kept non-trivial cuts stay in priority order (sorted
                # by size first), so the best cut heads the list.
                sizes = [c.size() for c in cuts[node] if c.leaves != (node,)]
                assert sizes == sorted(sizes)
                assert all(size <= 4 for size in sizes)

    def test_max_cuts_bound_counts_the_trivial_cut(self):
        # Regression: the trivial cut used to be appended *after* the
        # priority truncation, so every gate carried max_cuts + 1 cuts in
        # violation of the documented "at most max_cuts" contract.
        aig = build_adder_aig(4)
        for max_cuts in (1, 2, 4, 8):
            cuts = enumerate_cuts(aig, k=4, max_cuts=max_cuts)
            for node, node_cuts in cuts.items():
                assert len(node_cuts) <= max_cuts, (
                    f"node {node} carries {len(node_cuts)} cuts with "
                    f"max_cuts={max_cuts}"
                )
                if node and not aig.is_pi(node):
                    # The trivial cut survives the bound, in last position.
                    assert node_cuts[-1] == Cut(node, (node,))

    def test_max_cuts_bound_does_not_change_the_best_cut(self):
        # Tightening the bound by one must only drop the lowest-priority
        # non-trivial cut, never reorder the head of the priority list.
        aig = build_adder_aig(4)
        loose = enumerate_cuts(aig, k=4, max_cuts=8)
        for node, node_cuts in enumerate_cuts(aig, k=4, max_cuts=4).items():
            assert node_cuts[0] == loose[node][0]

    def test_max_cuts_must_be_positive(self):
        aig = build_adder_aig(2)
        with pytest.raises(ValueError):
            enumerate_cuts(aig, k=4, max_cuts=0)

    def test_unknown_selection_policy_rejected(self):
        aig = build_adder_aig(2)
        with pytest.raises(ValueError):
            enumerate_cuts(aig, k=4, selection="random")
        with pytest.raises(ValueError):
            lut_map(aig, k=4, selection="random")


def _random_network(kind, num_pis, gates):
    """An AIG (AND gates) or XMG (MAJ and XOR gates) over random fanins.

    Every gate picks its fanins among the PIs and earlier gates, so a
    prefix of ``gates`` builds a structural prefix of the network.
    """
    network = Aig("random") if kind == "aig" else Xmg("random")
    lits = [network.add_pi() for _ in range(num_pis)]
    for use_maj, picks, negations in gates:
        a, b, c = (
            lits[pick % len(lits)] ^ int(neg) for pick, neg in zip(picks, negations)
        )
        if kind == "aig":
            lits.append(network.create_and(a, b))
        elif use_maj:
            lits.append(network.create_maj(a, b, c))
        else:
            lits.append(network.create_xor(a, b))
    network.add_po(lits[-1])
    return network


_GATES = st.lists(
    st.tuples(
        st.booleans(),
        st.tuples(*[st.integers(0, 255)] * 3),
        st.tuples(*[st.booleans()] * 3),
    ),
    min_size=1,
    # Past 64 nodes, distinct leaves share signature bits.
    max_size=90,
)


class TestSignatureEnumerationMatchesReference:
    """The signature-filtered enumerator against the per-combination oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["aig", "xmg"]),
        num_pis=st.integers(2, 8),
        gates=_GATES,
        k=st.integers(2, 6),
        max_cuts=st.integers(1, 8),
        selection=st.sampled_from(["depth", "area"]),
    )
    def test_cut_lists_match(self, kind, num_pis, gates, k, max_cuts, selection):
        network = _random_network(kind, num_pis, gates)
        expected = enumerate_cuts_reference(network, k, max_cuts, selection)
        assert enumerate_cuts(network, k, max_cuts, selection) == expected

    @pytest.mark.parametrize("kind", ["aig", "xmg"])
    def test_signatures_past_64_nodes(self, kind):
        # 248 nodes with leaves reaching far back: distinct leaves share
        # signature bits, so only the exact leaf check keeps cuts apart.
        rng = random.Random(7)
        gates = [
            (rng.random() < 0.5,
             tuple(8 + i - 1 - rng.randrange(min(8 + i, 10)) for _ in range(3)),
             tuple(rng.random() < 0.5 for _ in range(3)))
            for i in range(240)
        ]
        network = _random_network(kind, 8, gates)
        for k, selection in ((4, "area"), (6, "depth")):
            assert enumerate_cuts(network, k, 8, selection) == \
                enumerate_cuts_reference(network, k, 8, selection)

    def test_streamed_cover_uses_the_collected_best_cuts(self):
        # lut_map consumes the enumeration without collecting it; each LUT
        # root must get the first non-trivial cut enumerate_cuts returns,
        # whatever enumerations ran before it.
        aig = build_adder_aig(4)
        for selection in ("area", "depth", "area"):
            cuts = enumerate_cuts(aig, 4, 8, selection)
            assert cuts == enumerate_cuts_reference(aig, 4, 8, selection)
            mapping = lut_map(aig, k=4, selection=selection, cleanup=False)
            for root in mapping.order:
                best = next(c for c in cuts[root] if c.leaves != (root,))
                assert mapping.luts[root][0] == best.leaves

    def test_area_order_never_needs_to_evict_a_kept_cut(self, monkeypatch):
        # The adder's carry chain reconverges: the area order ranks a
        # larger cut ahead of a smaller one at the top node, and supersets
        # of kept cuts are candidates.  Leaf areas are
        # non-negative, so a strict subset still sorts before each of its
        # supersets, and the oracle filter never drops an earlier kept cut
        # -- which is why the production scan only looks backwards.
        import oracles.logic as oracle

        evictions, dominated = [], []
        plain = oracle.filter_dominated_cuts_reference

        def watched(cuts):
            kept = plain(cuts)
            forward_only = []
            for cut in cuts:
                if not any(set(o.leaves) <= set(cut.leaves) for o in forward_only):
                    forward_only.append(cut)
            if kept != forward_only:
                evictions.append(cuts)
            dominated.append(len(cuts) - len(kept))
            return kept

        monkeypatch.setattr(oracle, "filter_dominated_cuts_reference", watched)
        aig = build_adder_aig(4)
        expected = oracle.enumerate_cuts_reference(aig, 4, 8, "area")
        assert sum(dominated) > 0 and not evictions
        assert enumerate_cuts(aig, 4, 8, "area") == expected
        top = lit_node(aig.pos()[-1])
        first = expected[top][0]
        assert first.size() > min(c.size() for c in expected[top])

    def test_constant_gate_keeps_only_its_empty_cut(self):
        # The public constructors fold such gates; the protocol allows
        # them.  The empty cut dominates every cut, the trivial one too.
        xmg = Xmg()
        a = xmg.add_pi()
        const = add_xmg_node_reference(xmg, XMG_KIND_MAJ, (0, 0, 1))
        xmg.add_po(xmg.create_xor(a, const))
        node = lit_node(const)
        for selection in ("depth", "area"):
            cuts = enumerate_cuts(xmg, 4, 8, selection)
            assert cuts == enumerate_cuts_reference(xmg, 4, 8, selection)
            assert cuts[node] == [Cut(node, ())]

    @pytest.mark.parametrize("design", ["intdiv8", "newton6"])
    def test_flow_parameter_sets_on_paper_designs(self, design):
        # The lut flow's covering (area), aig_to_xmg (depth) and
        # xmg_refactor (area), all at k=4, max_cuts=8: identical cut lists.
        from repro.hdl import synthesize_verilog
        from repro.hdl.designs import intdiv_verilog, newton_verilog
        from repro.logic.xmg_mapping import aig_to_xmg

        verilog = intdiv_verilog(8) if design == "intdiv8" else newton_verilog(6)
        aig = synthesize_verilog(verilog).cleanup()
        xmg = aig_to_xmg(aig).cleanup()
        for network, selection in ((aig, "area"), (aig, "depth"), (xmg, "area")):
            assert enumerate_cuts(network, 4, 8, selection) == \
                enumerate_cuts_reference(network, 4, 8, selection)

    def test_counters_count_enumerations_and_nodes(self):
        aig = build_adder_aig(3)
        before = cut_enumeration_cache_stats()
        enumerate_cuts(aig, k=4)
        lut_map(aig, k=4, cleanup=False)
        after = cut_enumeration_cache_stats()
        assert {key: after[key] - before[key] for key in after} == {
            "hits": 0, "misses": 2, "nodes_reused": 0,
            "nodes_computed": 2 * (len(aig.nodes()) - 1),
        }


class TestCutTruthTableKernel:
    def test_batch_matches_reference_on_all_cuts(self):
        aig = build_adder_aig(4)
        cuts = enumerate_cuts(aig, k=4)
        batch = [c for node_cuts in cuts.values() for c in node_cuts]
        assert cut_truth_tables(aig, batch) == [
            cut_truth_table_reference(aig, c) for c in batch
        ]

    def test_single_cut_matches_reference(self):
        aig = build_adder_aig(3)
        cuts = enumerate_cuts(aig, k=3)
        for node_cuts in cuts.values():
            for cut in node_cuts:
                assert cut_truth_table(aig, cut) == cut_truth_table_reference(
                    aig, cut
                )

    def test_batch_handles_trivial_and_constant_cuts(self):
        aig = build_adder_aig(2)
        gate = next(n for n in aig.nodes() if aig.is_and(n))
        batch = [Cut(0, ()), Cut(gate, (gate,))]
        assert cut_truth_tables(aig, batch) == [0, 0b10]

    def test_empty_batch(self):
        assert cut_truth_tables(build_adder_aig(2), []) == []

    def test_improper_cut_still_raises(self):
        aig = build_adder_aig(2)
        top = lit_node(aig.pos()[0])
        with pytest.raises(ValueError):
            cut_truth_table(aig, Cut(top, ()))

    def test_multiword_cut_beyond_six_leaves(self):
        # An 8-leaf cut needs a 256-bit table: four uint64 words per
        # column in the batch kernel.
        aig = Aig()
        pis = [aig.add_pi() for _ in range(8)]
        lit = pis[0]
        for pi in pis[1:]:
            lit = aig.create_and(lit, pi)
        aig.add_po(lit)
        cut = Cut(lit_node(lit), tuple(lit_node(pi) for pi in pis))
        expected = cut_truth_table_reference(aig, cut)
        assert expected == 1 << 255  # AND of 8 inputs
        assert cut_truth_tables(aig, [cut]) == [expected]
        assert cut_truth_table(aig, cut) == expected

    def test_kernel_cache_invalidates_on_growth(self):
        aig = build_adder_aig(2)
        cuts = enumerate_cuts(aig, k=2)
        batch = [c for node_cuts in cuts.values() for c in node_cuts]
        first = cut_truth_tables(aig, batch)
        # Growing the network must rebuild the cached kernel, not reuse
        # stale arrays.
        a, b = aig.add_pi(), aig.add_pi()
        new_gate = aig.create_xor(a, b)
        aig.add_po(new_gate)
        new_cut = Cut(lit_node(new_gate), (lit_node(a), lit_node(b)))
        assert cut_truth_tables(aig, batch + [new_cut]) == first + [
            cut_truth_table_reference(aig, new_cut)
        ]


class TestAreaSelection:
    def test_area_mapping_never_needs_more_luts(self):
        aig = build_adder_aig(5)
        for k in (3, 4, 5):
            area = lut_map(aig, k=k, selection="area")
            depth = lut_map(aig, k=k, selection="depth")
            assert area.num_luts() <= depth.num_luts()

    def test_lut_count_shrinks_with_k(self):
        aig = build_adder_aig(5)
        counts = [lut_map(aig, k=k, selection="area").num_luts() for k in (2, 3, 4, 6)]
        assert all(a >= b for a, b in zip(counts, counts[1:])), counts

    def test_area_mapping_reconstructs_outputs(self):
        aig = build_adder_aig(3)
        mapping = lut_map(aig, k=4, selection="area")
        mapped_aig = mapping.aig
        for x in range(1 << mapped_aig.num_pis()):
            values = {0: 0}
            for i, pi in enumerate(mapped_aig.pis()):
                values[lit_node(pi)] = (x >> i) & 1
            for root in mapping.order:
                leaves, truth = mapping.luts[root]
                index = 0
                for pos, leaf in enumerate(leaves):
                    if values[leaf]:
                        index |= 1 << pos
                values[root] = (truth >> index) & 1
            word = 0
            for j, po in enumerate(mapped_aig.pos()):
                bit = values[lit_node(po)] ^ int(po & 1)
                word |= bit << j
            assert word == mapped_aig.simulate_minterm(x)


class TestLutMappingHelpers:
    def test_dependencies_are_lut_roots_only(self):
        aig = build_adder_aig(4)
        mapping = lut_map(aig, k=4)
        for root in mapping.order:
            for dep in mapping.dependencies(root):
                assert dep in mapping.luts
            leaves, _ = mapping.luts[root]
            pis = [leaf for leaf in leaves if mapping.aig.is_pi(leaf)]
            assert len(pis) + len(mapping.dependencies(root)) == len(leaves)

    def test_lut_cone_is_topological_and_inclusive(self):
        aig = build_adder_aig(4)
        mapping = lut_map(aig, k=4)
        for po in mapping.aig.pos():
            cone = mapping.lut_cone(lit_node(po))
            seen = set()
            for root in cone:
                assert all(dep in seen for dep in mapping.dependencies(root))
                seen.add(root)
            if lit_node(po) in mapping.luts:
                assert lit_node(po) in cone

    def test_lut_levels_and_depth(self):
        aig = build_adder_aig(4)
        mapping = lut_map(aig, k=4)
        levels = mapping.lut_levels()
        for root in mapping.order:
            deps = mapping.dependencies(root)
            expected = 1 + max((levels[d] for d in deps), default=-1)
            assert levels[root] == expected
        assert mapping.depth() == 1 + max(levels.values())

    def test_lut_fanout_counts_include_outputs(self):
        aig = build_adder_aig(3)
        mapping = lut_map(aig, k=4)
        counts = mapping.lut_fanout_counts()
        total_dep_edges = sum(
            len(mapping.dependencies(root)) for root in mapping.order
        )
        po_refs = sum(
            1 for po in mapping.aig.pos() if lit_node(po) in mapping.luts
        )
        assert sum(counts.values()) == total_dep_edges + po_refs


class TestLutMapping:
    def test_every_po_covered(self):
        aig = build_adder_aig(4)
        mapping = lut_map(aig, k=4)
        for po in mapping.aig.pos():
            node = lit_node(po)
            assert node == 0 or mapping.aig.is_pi(node) or node in mapping.luts

    def test_lut_leaves_are_pis_or_luts(self):
        aig = build_adder_aig(4)
        mapping = lut_map(aig, k=4)
        for root, (leaves, _) in mapping.luts.items():
            for leaf in leaves:
                assert mapping.aig.is_pi(leaf) or leaf in mapping.luts

    def test_lut_functions_reconstruct_outputs(self):
        aig = build_adder_aig(3)
        mapping = lut_map(aig, k=4)
        mapped_aig = mapping.aig

        # Evaluate the LUT network on every minterm and compare with the AIG.
        for x in range(1 << mapped_aig.num_pis()):
            values = {}
            for i, pi in enumerate(mapped_aig.pis()):
                values[lit_node(pi)] = (x >> i) & 1
            values[0] = 0
            for root in mapping.order:
                leaves, truth = mapping.luts[root]
                index = 0
                for pos, leaf in enumerate(leaves):
                    if values[leaf]:
                        index |= 1 << pos
                values[root] = (truth >> index) & 1
            word = 0
            for j, po in enumerate(mapped_aig.pos()):
                bit = values[lit_node(po)] ^ int(po & 1)
                word |= bit << j
            assert word == mapped_aig.simulate_minterm(x)

    @given(st.integers(min_value=2, max_value=5))
    @settings(max_examples=4, deadline=None)
    def test_mapping_num_luts_reasonable(self, width):
        aig = build_adder_aig(width)
        mapping = lut_map(aig, k=4)
        # A k=4 cover never needs more LUTs than AND nodes.
        assert 0 < mapping.num_luts() <= mapping.aig.num_nodes()


# ---------------------------------------------------------------------------
# The paper designs' LUT covers, pinned
# ---------------------------------------------------------------------------

#: SHA-256 of ``(root, leaves, truth)`` of every LUT of ``lut_map`` (k=4) on
#: the ``(resyn2)*2`` AIG, and of every cover ``aig_to_xmg`` followed by
#: ``xmg-default`` computes from it, taken before the enumeration streamed
#: its best cuts into the cover.
COVER_DIGESTS = {
    ("intdiv", 8): {
        "depth": "69f933fe96cee994cc710965bd5fe0e14f0365257bbfe7716330bcbab3be6138",
        "area": "358d5208c63a3ecf6f11b278a9bbb2aed4178ea1dfb3bc3ca6f65c567d997648",
        "xmg": "051972d2fd01efa587389f3c383940a3785f8ca4a7638dfd4bb66b91394594ab",
    },
    ("newton", 6): {
        "depth": "e064f5d3885aba7085c4eb27700b6dd2c24f1d5c9621056b82c2f9c71fb63f3a",
        "area": "9505fb415072f001ef2f41cf5e89bc1f516e19751a3f2597999b478982337677",
        "xmg": "1960dbd61225895e7d8e6cb1288a57732db2041d76a09316ff4cb8b108e0f25f",
    },
}


def _optimised_aig(design, bitwidth):
    from repro.core.flows import frontend_artifacts
    from repro.opt import as_pipeline

    aig = frontend_artifacts(design, bitwidth)["aig"]
    return as_pipeline("(resyn2)*2").run(aig).network


def _cover_digest(mappings):
    covers = [[(root, *m.luts[root]) for root in m.order] for m in mappings]
    return hashlib.sha256(repr(covers).encode()).hexdigest()


@pytest.mark.parametrize("design, bitwidth", sorted(COVER_DIGESTS))
def test_paper_design_covers_unchanged(design, bitwidth, monkeypatch):
    import repro.logic.xmg_mapping as xmg_mapping
    import repro.opt.xmg_passes as xmg_passes
    from repro.opt import as_pipeline

    aig = _optimised_aig(design, bitwidth)
    digests = {
        selection: _cover_digest([lut_map(aig, k=4, selection=selection)])
        for selection in ("depth", "area")
    }
    mappings = []

    def recorded(*args, **kwargs):
        mappings.append(lut_map(*args, **kwargs))
        return mappings[-1]

    monkeypatch.setattr(xmg_mapping, "lut_map", recorded)
    monkeypatch.setattr(xmg_passes, "lut_map", recorded)
    as_pipeline("xmg-default").run(xmg_mapping.aig_to_xmg(aig, k=4))
    digests["xmg"] = _cover_digest(mappings)
    assert digests == COVER_DIGESTS[(design, bitwidth)]


#: Traced bytes still attributed to ``repro/logic/cuts.py`` after a NEWTON(6)
#: covering is dropped; run in a fresh interpreter, so no earlier test's
#: networks or mappings are alive.
HELD_AFTER_LUT_MAP = """
import gc, tracemalloc
import repro.logic.cuts as cuts_module
from repro.core.flows import frontend_artifacts
from repro.opt import as_pipeline

aig = as_pipeline("(resyn2)*2").run(frontend_artifacts("newton", 6)["aig"]).network
tracemalloc.start()
mapping = cuts_module.lut_map(aig, k=4, selection="area")
assert mapping.num_luts() == 942
del mapping
gc.collect()
held = tracemalloc.take_snapshot().filter_traces(
    [tracemalloc.Filter(True, cuts_module.__file__)])
print(sum(stat.size for stat in held.statistics("filename")))
"""


def test_lut_map_keeps_no_cuts_after_it_returns():
    # Cut lists live only while the enumeration runs: a module-level cut
    # store would keep megabytes here.
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", HELD_AFTER_LUT_MAP],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 64 * 1024
