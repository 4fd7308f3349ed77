"""Property tests pinning the fast kernels to their big-int oracles.

The cut cone walk (:func:`repro.logic.cuts.cut_truth_table`) and the
memoised PSDKRO extractor (:func:`repro.logic.esop.psdkro_cubes`) are
cross-checked against the oracles of :mod:`oracles.logic` on *random*
inputs — random AIG/XMG cones through the cone walk, random and wide
structured truth tables through PSDKRO, and XOR-of-cubes reconstruction —
so the kernels are oracle-pinned, not just golden-pinned on the benchmark
designs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.logic import cut_truth_table_reference, psdkro_cubes_reference
from repro.logic.aig import Aig
from repro.logic.cube import Cube
from repro.logic.cuts import Cut, cut_truth_table, enumerate_cuts
from repro.logic.esop import psdkro_cubes
from repro.logic.truth_table import tt_mask, tt_var
from repro.logic.xmg import Xmg


# ---------------------------------------------------------------------------
# random network generators (deterministic per hypothesis example)
# ---------------------------------------------------------------------------

def _random_aig(num_pis, gate_choices):
    """An AIG whose gates pick random (possibly complemented) fanins."""
    aig = Aig("random")
    lits = [aig.add_pi() for _ in range(num_pis)]
    for a_pick, b_pick, a_neg, b_neg in gate_choices:
        a = lits[a_pick % len(lits)] ^ (1 if a_neg else 0)
        b = lits[b_pick % len(lits)] ^ (1 if b_neg else 0)
        lits.append(aig.create_and(a, b))
    aig.add_po(lits[-1])
    return aig


def _random_xmg(num_pis, gate_choices):
    """An XMG mixing MAJ and XOR gates over random complemented fanins."""
    xmg = Xmg("random")
    lits = [xmg.add_pi() for _ in range(num_pis)]
    for use_maj, a_pick, b_pick, c_pick, a_neg, b_neg, c_neg in gate_choices:
        a = lits[a_pick % len(lits)] ^ (1 if a_neg else 0)
        b = lits[b_pick % len(lits)] ^ (1 if b_neg else 0)
        c = lits[c_pick % len(lits)] ^ (1 if c_neg else 0)
        lits.append(
            xmg.create_maj(a, b, c) if use_maj else xmg.create_xor(a, b)
        )
    xmg.add_po(lits[-1])
    return xmg


_AIG_GATES = st.lists(
    st.tuples(
        st.integers(0, 63), st.integers(0, 63), st.booleans(), st.booleans()
    ),
    min_size=1,
    max_size=40,
)

_XMG_GATES = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(0, 63), st.integers(0, 63), st.integers(0, 63),
        st.booleans(), st.booleans(), st.booleans(),
    ),
    min_size=1,
    max_size=30,
)


def _cube_truth_table(cube: Cube, num_vars: int) -> int:
    """Integer truth table of one product term (AND of its literals)."""
    table = tt_mask(num_vars)
    for var in range(num_vars):
        if not (cube.care >> var) & 1:
            continue
        projection = tt_var(var, num_vars)
        if (cube.polarity >> var) & 1:
            table &= projection
        else:
            table &= projection ^ tt_mask(num_vars)
    return table


# ---------------------------------------------------------------------------
# cut cone walk vs the protocol cone walk
# ---------------------------------------------------------------------------

def _assert_cuts_match_reference(network, k):
    """Every enumerated cut, plus the constant and each trivial cut."""
    cuts = enumerate_cuts(network, k=k)
    batch = [c for node_cuts in cuts.values() for c in node_cuts]
    batch.append(Cut(0, ()))
    batch.extend(Cut(node, (node,)) for node in network.nodes() if node)
    for cut in batch:
        assert cut_truth_table(network, cut) == cut_truth_table_reference(
            network, cut
        ), cut


class TestCutKernelProperties:
    @settings(max_examples=40, deadline=None)
    @given(num_pis=st.integers(2, 6), gates=_AIG_GATES)
    def test_random_aig_cones(self, num_pis, gates):
        _assert_cuts_match_reference(_random_aig(num_pis, gates), 4)

    @settings(max_examples=30, deadline=None)
    @given(num_pis=st.integers(2, 5), gates=_XMG_GATES)
    def test_random_xmg_cones(self, num_pis, gates):
        _assert_cuts_match_reference(_random_xmg(num_pis, gates), 4)

    @settings(max_examples=20, deadline=None)
    @given(num_pis=st.integers(7, 9), gates=_AIG_GATES)
    def test_wide_cuts_use_multiword_tables(self, num_pis, gates):
        # k > 6: tables wider than one 64-bit word.
        _assert_cuts_match_reference(
            _random_aig(num_pis, gates), min(9, num_pis + 1)
        )

    @settings(max_examples=15, deadline=None)
    @given(num_pis=st.integers(7, 8), gates=_XMG_GATES)
    def test_wide_xmg_cuts_use_multiword_tables(self, num_pis, gates):
        _assert_cuts_match_reference(_random_xmg(num_pis, gates), num_pis)

    def test_unknown_network_class_rejected(self):
        # Only AIGs and XMGs are read; anything else fails loudly.
        class Wrapped:
            network_type = "custom"

            def __init__(self, aig):
                self._aig = aig

            def __getattr__(self, name):
                return getattr(self._aig, name)

        aig = _random_aig(3, [(0, 1, False, True), (2, 1, True, False)])
        cuts = enumerate_cuts(aig, k=3)
        batch = [c for node_cuts in cuts.values() for c in node_cuts]
        with pytest.raises(TypeError, match="Aig or Xmg"):
            cut_truth_table(Wrapped(aig), batch[0])

    def test_network_keeps_no_cache_attribute(self):
        aig = _random_aig(4, [(0, 1, False, True), (2, 3, True, False),
                              (4, 5, False, False)])
        before = dict(vars(aig))
        for node_cuts in enumerate_cuts(aig, k=4).values():
            for cut in node_cuts:
                cut_truth_table(aig, cut)
        assert vars(aig).keys() == before.keys()


# ---------------------------------------------------------------------------
# PSDKRO: memoised extractor vs reference, and XOR-of-cubes reconstruction
# ---------------------------------------------------------------------------

class TestPsdkroProperties:
    @settings(max_examples=80, deadline=None)
    @given(num_vars=st.integers(0, 7), data=st.data())
    def test_fast_matches_reference(self, num_vars, data):
        func = data.draw(st.integers(0, tt_mask(num_vars)))
        assert psdkro_cubes(func, num_vars) == psdkro_cubes_reference(
            func, num_vars
        )

    @settings(max_examples=60, deadline=None)
    @given(num_vars=st.integers(0, 6), data=st.data())
    def test_xor_of_cubes_reconstructs_the_function(self, num_vars, data):
        func = data.draw(st.integers(0, tt_mask(num_vars)))
        table = 0
        for cube in psdkro_cubes(func, num_vars):
            table ^= _cube_truth_table(cube, num_vars)
        assert table == func

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_wide_random_functions_match_reference(self, data):
        num_vars = data.draw(st.integers(7, 8))
        func = data.draw(st.integers(0, tt_mask(num_vars)))
        assert psdkro_cubes(func, num_vars) == psdkro_cubes_reference(
            func, num_vars
        )

    def test_wide_structured_functions_match_reference(self):
        # Parity and sparse functions keep the recursion shallow enough to
        # check 10-variable tables against the reference.
        num_vars = 10
        parity = 0
        for minterm in range(1 << num_vars):
            if bin(minterm).count("1") & 1:
                parity |= 1 << minterm
        sparse = (1 << 5) | (1 << 700) | (1 << 1023)
        for func in (parity, sparse, 0, tt_mask(num_vars)):
            assert psdkro_cubes(func, num_vars) == psdkro_cubes_reference(
                func, num_vars
            )

    def test_shared_memo_is_correctness_neutral(self):
        # Two calls with interleaved other work must return identical
        # covers (the memo is keyed on the function, never on call order).
        first = psdkro_cubes(0b0110, 2)
        psdkro_cubes(0b1001, 2)
        assert psdkro_cubes(0b0110, 2) == first
