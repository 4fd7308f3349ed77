"""The ``collapse`` of the symbolic flow: the explicit function of an AIG.

The symbolic flow reads its truth table straight off the AIG by exhaustive
bit-parallel simulation (:meth:`Aig.output_columns`, :meth:`Aig.to_truth_table`).
These tests pin that expansion down from several sides: corner cases of the
output columns, arithmetic circuits with a known function, Boolean identities
between AIG connectives checked on the collapsed tables, and the flow's
``collapse`` stage itself, including the stand-ins left for the removed BDD
collapse.
"""

import importlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.logic
from oracles.logic import truth_table_by_minterms_reference
from repro.core import flows
from repro.core.flows import run_flow
from repro.logic.aig import Aig, lit_node, lit_not
from repro.logic.truth_table import (
    tt_and,
    tt_cofactor0,
    tt_cofactor1,
    tt_const0,
    tt_const1,
    tt_mask,
    tt_not,
    tt_or,
    tt_popcount,
    tt_support,
    tt_var,
    tt_xor,
)


# ---------------------------------------------------------------------------
# random cones: several functions over the same primary inputs
# ---------------------------------------------------------------------------

_GATES = st.lists(
    st.tuples(
        st.integers(0, 63), st.integers(0, 63), st.booleans(), st.booleans()
    ),
    min_size=1,
    max_size=30,
)
_PICKS = st.tuples(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))


def _random_pool(num_pis, gate_choices):
    """An AIG and every literal built on it: its PIs, then random AND gates."""
    aig = Aig("random")
    lits = [aig.add_pi() for _ in range(num_pis)]
    for a_pick, b_pick, a_neg, b_neg in gate_choices:
        a = lits[a_pick % len(lits)] ^ (1 if a_neg else 0)
        b = lits[b_pick % len(lits)] ^ (1 if b_neg else 0)
        lits.append(aig.create_and(a, b))
    return aig, lits


def _pick(lits, picks):
    return [lits[p % len(lits)] for p in picks]


def _columns(aig, *outputs):
    """Collapse ``outputs`` (added as POs, in order) to their integer columns."""
    first = aig.num_pos()
    for lit in outputs:
        aig.add_po(lit)
    return aig.output_columns()[first:]


# ---------------------------------------------------------------------------
# the output columns
# ---------------------------------------------------------------------------

class TestOutputColumns:
    def test_constant_outputs(self):
        aig = Aig()
        for _ in range(3):
            aig.add_pi()
        aig.add_po(Aig.CONST0)
        aig.add_po(Aig.CONST1)
        assert aig.output_columns() == [tt_const0(3), tt_const1(3)]

    def test_inputs_project_to_their_variables(self):
        aig = Aig()
        pis = [aig.add_pi() for _ in range(4)]
        for pi in pis:
            aig.add_po(pi)
        assert aig.output_columns() == [tt_var(i, 4) for i in range(4)]

    def test_complemented_output(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        gate = aig.create_and(a, b)
        aig.add_po(gate)
        aig.add_po(lit_not(gate))
        plain, negated = aig.output_columns()
        assert negated == tt_not(plain, 2)

    def test_output_order_follows_the_pos(self):
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        outputs = [c, aig.create_xor(a, b), a, aig.create_or(b, c)]
        for lit in outputs:
            aig.add_po(lit)
        table = aig.to_truth_table()
        for x in range(8):
            word = aig.simulate_minterm(x)
            assert table.evaluate(x) == word
            for j in range(len(outputs)):
                assert table.output_bit(x, j) == (word >> j) & 1

    def test_unused_inputs_stay_in_the_table(self):
        aig = Aig()
        pis = [aig.add_pi() for _ in range(5)]
        aig.add_po(aig.create_and(pis[1], pis[3]))
        table = aig.to_truth_table()
        assert table.num_inputs == 5
        assert tt_support(table.column(0), 5) == [1, 3]

    def test_aig_without_inputs(self):
        aig = Aig()
        aig.add_po(Aig.CONST1)
        aig.add_po(Aig.CONST0)
        table = aig.to_truth_table()
        assert (table.num_inputs, table.num_outputs) == (0, 2)
        assert table.evaluate(0) == 0b01

    def test_shared_cone_feeds_several_outputs(self):
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        shared = aig.create_xor(a, b)
        aig.add_po(shared)
        aig.add_po(aig.create_and(shared, c))
        aig.add_po(aig.create_or(shared, c))
        x = tt_xor(tt_var(0, 3), tt_var(1, 3))
        assert aig.output_columns() == [
            x, tt_and(x, tt_var(2, 3)), tt_or(x, tt_var(2, 3))
        ]

    def test_long_chain_keeps_few_tables_alive(self):
        # 1,516 AND nodes over 16 inputs: every table is 2**16 bits (8 KiB),
        # so holding all of them would take about 12 MB; a table dropped
        # after its last fanout leaves a few dozen alive at any time.
        aig = Aig()
        pis = [aig.add_pi() for _ in range(16)]
        chain = pis[0]
        for i in range(500):
            term = aig.create_and(pis[i % 16], pis[(i + 1) % 16])
            chain = aig.create_xor(chain, term)
            if i % 50 == 49:
                aig.add_po(chain)
        assert aig.num_gates() == 1516
        tracemalloc.start()
        try:
            columns = aig.output_columns()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak
        tables = aig.node_truth_tables()
        mask = tt_mask(16)
        assert columns == [
            tables[lit_node(po)] ^ (mask if po & 1 else 0) for po in aig.pos()
        ]

    def test_truth_table_is_the_minterm_table(self):
        aig, lits = _random_pool(4, [(0, 1, False, True), (2, 4, True, False)])
        aig.add_po(lits[-1])
        aig.add_po(lits[-2])
        assert aig.to_truth_table() == truth_table_by_minterms_reference(aig)

    @settings(max_examples=40, deadline=None)
    @given(num_pis=st.integers(1, 6), gates=_GATES)
    def test_node_tables_match_minterm_evaluation(self, num_pis, gates):
        aig, lits = _random_pool(num_pis, gates)
        for lit in lits:
            aig.add_po(lit & ~1)
        tables = aig.node_truth_tables()
        reference = truth_table_by_minterms_reference(aig)
        for j, lit in enumerate(lits):
            assert tables[lit_node(lit)] == reference.column(j)

    @settings(max_examples=40, deadline=None)
    @given(num_pis=st.integers(1, 6), gates=_GATES)
    def test_columns_fit_the_input_space(self, num_pis, gates):
        aig, lits = _random_pool(num_pis, gates)
        for lit in lits:
            aig.add_po(lit)
        mask = tt_mask(num_pis)
        assert all(0 <= c <= mask for c in aig.output_columns())


# ---------------------------------------------------------------------------
# circuits with a known function
# ---------------------------------------------------------------------------

def _ripple_adder(width):
    aig = Aig("adder")
    a = [aig.add_pi() for _ in range(width)]
    b = [aig.add_pi() for _ in range(width)]
    carry = Aig.CONST0
    for i in range(width):
        aig.add_po(aig.create_xor_multi([a[i], b[i], carry]))
        carry = aig.create_maj(a[i], b[i], carry)
    aig.add_po(carry)
    return aig


def _comparator(width):
    """Outputs ``a < b`` and ``a == b`` over two width-bit inputs."""
    aig = Aig("comparator")
    a = [aig.add_pi() for _ in range(width)]
    b = [aig.add_pi() for _ in range(width)]
    lt, eq = Aig.CONST0, Aig.CONST1
    for i in reversed(range(width)):
        lt = aig.create_or(lt, aig.create_and_multi([eq, lit_not(a[i]), b[i]]))
        eq = aig.create_and(eq, aig.create_xnor(a[i], b[i]))
    aig.add_po(lt)
    aig.add_po(eq)
    return aig


class TestKnownFunctions:
    @pytest.mark.parametrize("width", [1, 2, 3, 5])
    def test_ripple_adder(self, width):
        table = _ripple_adder(width).to_truth_table()
        low = (1 << width) - 1
        for x in range(1 << (2 * width)):
            assert table.evaluate(x) == (x & low) + (x >> width)

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_comparator(self, width):
        table = _comparator(width).to_truth_table()
        low = (1 << width) - 1
        for x in range(1 << (2 * width)):
            a, b = x & low, x >> width
            assert table.evaluate(x) == int(a < b) | int(a == b) << 1

    @pytest.mark.parametrize("num_pis", [1, 4, 9, 13])
    def test_parity(self, num_pis):
        aig = Aig("parity")
        aig.add_po(aig.create_xor_multi([aig.add_pi() for _ in range(num_pis)]))
        (column,) = aig.output_columns()
        for x in range(1 << num_pis):
            assert (column >> x) & 1 == bin(x).count("1") & 1


# ---------------------------------------------------------------------------
# Boolean identities between AIG connectives, on the collapsed tables
# ---------------------------------------------------------------------------

_CONNECTIVES = {
    "and": (Aig.create_and, tt_and),
    "or": (Aig.create_or, tt_or),
    "xor": (Aig.create_xor, tt_xor),
    "nand": (Aig.create_nand, lambda f, g, n: tt_not(tt_and(f, g), n)),
    "nor": (Aig.create_nor, lambda f, g, n: tt_not(tt_or(f, g), n)),
    "xnor": (Aig.create_xnor, lambda f, g, n: tt_not(tt_xor(f, g), n)),
}


class TestBooleanIdentities:
    @pytest.mark.parametrize("name", sorted(_CONNECTIVES))
    @settings(max_examples=25, deadline=None)
    @given(num_pis=st.integers(1, 6), gates=_GATES, picks=_PICKS)
    def test_connective_matches_table_operation(self, name, num_pis, gates, picks):
        create, operation = _CONNECTIVES[name]
        aig, lits = _random_pool(num_pis, gates)
        f, g, _ = _pick(lits, picks)
        cf, cg, out = _columns(aig, f, g, create(aig, f, g))
        if name in ("and", "or", "xor"):
            assert out == operation(cf, cg)
        else:
            assert out == operation(cf, cg, num_pis)

    @settings(max_examples=40, deadline=None)
    @given(num_pis=st.integers(1, 6), gates=_GATES, picks=_PICKS)
    def test_de_morgan(self, num_pis, gates, picks):
        aig, lits = _random_pool(num_pis, gates)
        f, g, _ = _pick(lits, picks)
        lhs = lit_not(aig.create_or(f, g))
        rhs = aig.create_and(lit_not(f), lit_not(g))
        a, b = _columns(aig, lhs, rhs)
        assert a == b

    @settings(max_examples=40, deadline=None)
    @given(num_pis=st.integers(1, 6), gates=_GATES, picks=_PICKS)
    def test_distributivity(self, num_pis, gates, picks):
        aig, lits = _random_pool(num_pis, gates)
        f, g, h = _pick(lits, picks)
        lhs = aig.create_and(f, aig.create_or(g, h))
        rhs = aig.create_or(aig.create_and(f, g), aig.create_and(f, h))
        a, b = _columns(aig, lhs, rhs)
        assert a == b

    @settings(max_examples=40, deadline=None)
    @given(num_pis=st.integers(1, 6), gates=_GATES, picks=_PICKS)
    def test_absorption(self, num_pis, gates, picks):
        aig, lits = _random_pool(num_pis, gates)
        f, g, _ = _pick(lits, picks)
        absorbed = aig.create_or(f, aig.create_and(f, g))
        a, b = _columns(aig, absorbed, f)
        assert a == b

    @settings(max_examples=40, deadline=None)
    @given(num_pis=st.integers(1, 6), gates=_GATES, picks=_PICKS)
    def test_xnor_is_complement_of_xor(self, num_pis, gates, picks):
        aig, lits = _random_pool(num_pis, gates)
        f, g, _ = _pick(lits, picks)
        xor, xnor = _columns(aig, aig.create_xor(f, g), aig.create_xnor(f, g))
        assert xnor == tt_not(xor, num_pis)

    @settings(max_examples=40, deadline=None)
    @given(num_pis=st.integers(1, 6), gates=_GATES, picks=_PICKS)
    def test_mux_selects_by_its_condition(self, num_pis, gates, picks):
        aig, lits = _random_pool(num_pis, gates)
        s, t, e = _pick(lits, picks)
        cs, ct, ce, mux = _columns(aig, s, t, e, aig.create_mux(s, t, e))
        assert mux == tt_or(tt_and(cs, ct), tt_and(tt_not(cs, num_pis), ce))

    @settings(max_examples=40, deadline=None)
    @given(num_pis=st.integers(1, 6), gates=_GATES, picks=_PICKS)
    def test_majority_is_two_of_three(self, num_pis, gates, picks):
        aig, lits = _random_pool(num_pis, gates)
        f, g, h = _pick(lits, picks)
        cf, cg, ch, maj = _columns(aig, f, g, h, aig.create_maj(f, g, h))
        assert maj == tt_or(tt_or(tt_and(cf, cg), tt_and(cf, ch)), tt_and(cg, ch))

    @settings(max_examples=40, deadline=None)
    @given(
        num_pis=st.integers(1, 6), gates=_GATES, var=st.integers(0, 5)
    )
    def test_fixing_an_input_gives_the_cofactor(self, num_pis, gates, var):
        # Shannon: simulating with input ``var`` held at 0 / 1 yields the
        # cofactors of the collapsed column.
        var %= num_pis
        aig, lits = _random_pool(num_pis, gates)
        aig.add_po(lits[-1])
        (column,) = aig.output_columns()
        size = 1 << num_pis
        words = [tt_var(i, num_pis) for i in range(num_pis)]
        for value, cofactor in ((0, tt_cofactor0), (1, tt_cofactor1)):
            words[var] = tt_mask(num_pis) if value else 0
            (fixed,) = aig.simulate_words(words, size)
            assert fixed == cofactor(column, var, num_pis)
        x = tt_var(var, num_pis)
        assert column == tt_or(
            tt_and(x, tt_cofactor1(column, var, num_pis)),
            tt_and(tt_not(x, num_pis), tt_cofactor0(column, var, num_pis)),
        )

    @settings(max_examples=40, deadline=None)
    @given(num_pis=st.integers(1, 6), gates=_GATES)
    def test_support_lies_in_the_structural_cone(self, num_pis, gates):
        aig, lits = _random_pool(num_pis, gates)
        root = lits[-1]
        aig.add_po(root)
        (column,) = aig.output_columns()
        reached, stack = set(), [lit_node(root)]
        while stack:
            node = stack.pop()
            if node in reached:
                continue
            reached.add(node)
            if aig.is_and(node):
                stack.extend(lit_node(f) for f in aig.fanins(node))
        cone_inputs = {
            i for i, pi in enumerate(aig.pis()) if lit_node(pi) in reached
        }
        assert set(tt_support(column, num_pis)) <= cone_inputs

    @settings(max_examples=40, deadline=None)
    @given(num_pis=st.integers(1, 6), gates=_GATES)
    def test_onset_size_counts_true_minterms(self, num_pis, gates):
        aig, lits = _random_pool(num_pis, gates)
        aig.add_po(lits[-1])
        (column,) = aig.output_columns()
        assert tt_popcount(column) == sum(
            aig.simulate_minterm(x) for x in range(1 << num_pis)
        )


# ---------------------------------------------------------------------------
# the flow's collapse stage and what the BDD collapse left behind
# ---------------------------------------------------------------------------

class TestCollapseStage:
    @pytest.mark.parametrize("design", ["intdiv", "newton"])
    def test_stage_sets_the_aig_table(self, design):
        result = run_flow("symbolic", design, 5, verify=False)
        aig = result.context["aig"]
        function = result.context["function"]
        assert function == aig.to_truth_table()
        assert (function.num_inputs, function.num_outputs) == (
            aig.num_pis(), aig.num_pos()
        )
        assert "collapse" in result.stage_runtimes
        assert "bdd_nodes" not in result.context["extra_metrics"]

    @pytest.mark.parametrize("name", ["collapse_to_bdd", "bdd_to_truth_table"])
    def test_bdd_stand_ins_raise(self, name):
        with pytest.raises(NotImplementedError):
            getattr(flows, name)(Aig())

    def test_bdd_package_is_gone(self):
        assert not hasattr(repro.logic, "BddManager")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.logic.bdd")
