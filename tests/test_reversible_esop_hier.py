"""Unit tests for ESOP-based and hierarchical reversible synthesis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdl.designs import intdiv_reference
from repro.hdl.synthesize import synthesize_reciprocal_design
from repro.logic.esop import esop_from_columns, esop_from_truth_table, minimize_esop
from repro.logic.truth_table import TruthTable
from repro.logic.xmg_mapping import aig_to_xmg
from repro.reversible.esop_synth import esop_synthesis
from repro.reversible.lut_synth import hierarchical_synthesis
from repro.verify.differential import check_equivalent


def reciprocal_table(n):
    return TruthTable.from_callable(lambda x: intdiv_reference(n, x), n, n)


class TestEsopSynthesis:
    @given(
        st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=3),
        st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_covers(self, columns, p):
        cover = minimize_esop(esop_from_columns(columns, 3))
        circuit = esop_synthesis(cover, p=p)
        table = TruthTable.from_columns(columns, 3)
        result = check_equivalent(table, circuit, mode="full")
        assert result, result.message

    @pytest.mark.parametrize("p", [0, 1])
    def test_reciprocal(self, p):
        n = 5
        table = reciprocal_table(n)
        cover = minimize_esop(esop_from_truth_table(table))
        circuit = esop_synthesis(cover, p=p)
        result = check_equivalent(table, circuit, mode="full")
        assert result, result.message
        if p == 0:
            assert circuit.num_lines() == 2 * n  # the paper's p = 0 line count
        else:
            assert circuit.num_lines() >= 2 * n

    def test_p0_max_controls_bounded_by_inputs(self):
        n = 5
        cover = minimize_esop(esop_from_truth_table(reciprocal_table(n)))
        circuit = esop_synthesis(cover, p=0)
        assert circuit.max_controls() <= n

    def test_factoring_reduces_t_count_or_equal(self):
        n = 6
        cover = minimize_esop(esop_from_truth_table(reciprocal_table(n)))
        base = esop_synthesis(cover, p=0)
        factored = esop_synthesis(cover, p=1)
        assert factored.num_lines() >= base.num_lines()
        # Factoring trades qubits for T gates; allow equality for small n.
        assert factored.t_count() <= base.t_count() * 1.1

    def test_inputs_preserved(self):
        n = 4
        table = reciprocal_table(n)
        cover = esop_from_truth_table(table)
        circuit = esop_synthesis(cover)
        for x in range(1 << n):
            state = circuit.final_state(x)
            for i, line in circuit.input_lines().items():
                assert (state >> line) & 1 == (x >> i) & 1

    def test_negative_p_rejected(self):
        cover = esop_from_columns([0b1000], 2)
        with pytest.raises(ValueError):
            esop_synthesis(cover, p=-1)


class TestHierarchicalSynthesis:
    @pytest.mark.parametrize("design", ["intdiv", "newton"])
    @pytest.mark.parametrize("strategy", ["bennett", "per_output"])
    def test_reciprocal_designs(self, design, strategy):
        n = 4
        _, aig = synthesize_reciprocal_design(design, n)
        xmg = aig_to_xmg(aig, k=4)
        circuit = hierarchical_synthesis(xmg, strategy=strategy)
        result = check_equivalent(aig.to_truth_table(), circuit, mode="full")
        assert result, result.message

    def test_strategy_alias_eager(self):
        _, aig = synthesize_reciprocal_design("intdiv", 3)
        xmg = aig_to_xmg(aig)
        circuit = hierarchical_synthesis(xmg, strategy="eager")
        assert check_equivalent(aig.to_truth_table(), circuit, mode="full")

    def test_unknown_strategy(self):
        _, aig = synthesize_reciprocal_design("intdiv", 3)
        xmg = aig_to_xmg(aig)
        with pytest.raises(ValueError):
            hierarchical_synthesis(xmg, strategy="pebble")

    def test_per_output_uses_fewer_lines(self):
        _, aig = synthesize_reciprocal_design("intdiv", 5)
        xmg = aig_to_xmg(aig)
        bennett = hierarchical_synthesis(xmg, strategy="bennett")
        per_output = hierarchical_synthesis(xmg, strategy="per_output")
        assert per_output.num_lines() <= bennett.num_lines()
        # ... at the price of additional gates when logic is shared.
        assert per_output.num_gates() >= bennett.num_gates() * 0.5

    def test_per_output_pass_through_uses_2n_lines(self):
        # Regression for the copy-target pool: a design whose outputs are
        # bare primary inputs must use exactly inputs + outputs qubits —
        # no ancilla is allocated for a trivial cone.
        from repro.hdl.synthesize import synthesize_verilog

        n = 4
        source = (
            f"module pass (input [{n-1}:0] a, output [{n-1}:0] y);\n"
            "    assign y = a;\nendmodule\n"
        )
        aig = synthesize_verilog(source)
        xmg = aig_to_xmg(aig)
        for strategy in ("bennett", "per_output"):
            circuit = hierarchical_synthesis(xmg, strategy=strategy)
            assert circuit.num_lines() == 2 * n, strategy
            assert check_equivalent(aig.to_truth_table(), circuit, mode="full")

    def test_per_output_trivial_output_reuses_freed_ancilla(self):
        # One computed cone followed by a bare-PI output: after the cone is
        # uncomputed its ancilla is zero again, so the trivial output's copy
        # target must reuse it instead of allocating a fresh line.
        from repro.logic.xmg import Xmg

        xmg = Xmg("mix")
        a, b, c = xmg.add_pi("a"), xmg.add_pi("b"), xmg.add_pi("c")
        xmg.add_po(xmg.create_maj(a, b, c), "m")
        xmg.add_po(a, "y")
        per_output = hierarchical_synthesis(xmg, strategy="per_output")
        # 3 inputs + 1 cone ancilla (claimed as output m) + ... the second
        # output reuses the freed cone line: 5 lines, not 6.
        assert per_output.num_lines() == 5
        bennett = hierarchical_synthesis(xmg, strategy="bennett")
        assert bennett.num_lines() == 6
        from repro.verify.differential import check_equivalent

        for circuit in (per_output, bennett):
            check = check_equivalent(xmg, circuit, mode="full")
            assert check.equivalent, check.message

    def test_per_output_constant_outputs_cost_no_ancilla(self):
        from repro.logic.xmg import Xmg

        xmg = Xmg("consts")
        a = xmg.add_pi("a")
        xmg.add_po(Xmg.CONST1, "one")
        xmg.add_po(Xmg.CONST0, "zero")
        xmg.add_po(a, "y")
        circuit = hierarchical_synthesis(xmg, strategy="per_output")
        assert circuit.num_lines() == 4  # 1 input + 3 output lines
        assert circuit.evaluate(0) == 0b001
        assert circuit.evaluate(1) == 0b101

    def test_max_controls_is_two(self):
        _, aig = synthesize_reciprocal_design("intdiv", 4)
        xmg = aig_to_xmg(aig)
        circuit = hierarchical_synthesis(xmg)
        assert circuit.max_controls() <= 2

    def test_inputs_preserved_and_ancillas_clean(self):
        _, aig = synthesize_reciprocal_design("intdiv", 4)
        xmg = aig_to_xmg(aig)
        circuit = hierarchical_synthesis(xmg, strategy="bennett")
        table = aig.to_truth_table()
        for x in range(16):
            state = circuit.final_state(x)
            for i, line in circuit.input_lines().items():
                assert (state >> line) & 1 == (x >> i) & 1
        assert check_equivalent(table, circuit, mode="full")

    def test_xor_nodes_cost_no_t_gates(self):
        # A pure parity function must synthesise to a T-free circuit.
        from repro.logic.aig import Aig

        aig = Aig("parity")
        lits = [aig.add_pi() for _ in range(4)]
        aig.add_po(aig.create_xor_multi(lits), "p")
        xmg = aig_to_xmg(aig)
        circuit = hierarchical_synthesis(xmg)
        assert circuit.t_count() == 0
        assert check_equivalent(aig.to_truth_table(), circuit, mode="full")

    @pytest.mark.parametrize(
        "design,bitwidth", [("intdiv", 4), ("intdiv", 6), ("intdiv", 8), ("newton", 4)]
    )
    def test_bounded_strategy_verifies(self, design, bitwidth):
        from repro.core.flows import run_flow

        report = run_flow(
            "hierarchical", design, bitwidth, verify="full", strategy="bounded"
        ).report
        assert report.verified is True

    def test_bounded_dominates_per_output_on_intdiv8(self):
        from repro.core.flows import run_flow

        costs = {
            strategy: run_flow(
                "hierarchical", "intdiv", 8, verify=False, strategy=strategy
            ).report
            for strategy in ("bounded", "per_output")
        }
        bounded, per_output = costs["bounded"], costs["per_output"]
        assert (bounded.qubits, bounded.t_count) == (247, 9352)
        assert (per_output.qubits, per_output.t_count) == (496, 22736)
        assert bounded.qubits < per_output.qubits
        assert bounded.t_count < per_output.t_count


def _xmg_tables(arity):
    """Truth tables the xmg block builder must accept, by arity."""

    def table(function):
        return sum(function(x) << x for x in range(1 << arity))

    def bit(x, i):
        return (x >> i) & 1

    accepted = set()
    for c in (0, 1):
        accepted.add(table(lambda x: bin(x).count("1") % 2 ^ c))
        if arity == 2:
            for pa, pb in [(0, 0), (0, 1), (1, 0), (1, 1)]:
                accepted.add(
                    table(lambda x: (bit(x, 0) == pa and bit(x, 1) == pb) ^ c)
                )
        if arity == 3:
            for ca in (0, 1):
                for cb in (0, 1):
                    accepted.add(
                        table(
                            lambda x: (bit(x, 0) ^ ca)
                            + (bit(x, 1) ^ cb)
                            + (bit(x, 2) ^ c)
                            >= 2
                        )
                    )
    return accepted


class TestXmgBlockBuilder:
    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_every_table_is_realised_or_rejected(self, arity):
        from repro.reversible.lut_synth import _BLOCK_BUILDERS

        build = _BLOCK_BUILDERS["xmg"]
        realised = set()
        for truth in range(1 << (1 << arity)):
            try:
                # Over local lines: leaf i is line i, the target line arity.
                block = build(truth, arity)
            except ValueError:
                continue
            realised.add(truth)
            assert sum(bin(care).count("1") >= 2 for care, _, _ in block) <= 1
            for x in range(1 << arity):
                for a in (0, 1):
                    state = x | a << arity
                    for care, polarity, target in block:
                        if state & care == polarity:
                            state ^= 1 << target
                    # (x, a) -> (x, a xor f(x)); every leaf is restored.
                    assert state == x | (a ^ (truth >> x & 1)) << arity
        assert realised == _xmg_tables(arity)
