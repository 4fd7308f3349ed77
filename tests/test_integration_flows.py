"""Cross-module integration tests: Verilog to verified quantum-level output.

These tests exercise the full stack in combinations the per-module unit
tests do not: random word-level programs through every flow, the reciprocal
designs down to Clifford+T, and file exports of flow results.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flows import run_flow
from repro.hdl.designs import intdiv_reference, newton_reference
from repro.hdl.isqrt import isqrt_reference
from repro.hdl.synthesize import synthesize_to_netlist, synthesize_verilog
from repro.io.aiger import read_aiger, write_aiger
from repro.io.qasm import write_qasm
from repro.io.realfmt import read_real, write_real
from repro.quantum.mapping import map_to_clifford_t
from repro.quantum.statevector import simulate_basis_state
from repro.verify.differential import check_equivalent


def random_verilog(seed_ops):
    """Generate a small combinational module from a list of op selectors."""
    expressions = ["a", "b", "{1'b0, a[1:0]}"]
    operators = ["+", "-", "&", "|", "^", "*"]
    body = []
    for index, (op_index, left, right) in enumerate(seed_ops):
        op = operators[op_index % len(operators)]
        lhs = expressions[left % len(expressions)]
        rhs = expressions[right % len(expressions)]
        name = f"t{index}"
        body.append(f"    wire [2:0] {name} = {lhs} {op} {rhs};")
        expressions.append(name)
    output_expr = expressions[-1]
    lines = [
        "module random_block (",
        "    input  [2:0] a,",
        "    input  [2:0] b,",
        "    output [2:0] y",
        ");",
        *body,
        f"    assign y = {output_expr};",
        "endmodule",
    ]
    return "\n".join(lines)


seed_ops_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=0, max_value=10),
    ),
    min_size=1,
    max_size=5,
)


class TestRandomProgramsThroughFlows:
    @given(seed_ops_strategy)
    @settings(max_examples=10, deadline=None)
    def test_esop_flow_matches_word_level_model(self, seed_ops):
        source = random_verilog(seed_ops)
        netlist = synthesize_to_netlist(source)
        result = run_flow("esop", "random_block", 3, verilog=source, verify=False)
        circuit = result.circuit
        for a in range(8):
            for b in range(0, 8, 3):
                expected = netlist.evaluate({"a": a, "b": b})["y"]
                assert circuit.evaluate(a | (b << 3)) == expected

    @given(seed_ops_strategy)
    @settings(max_examples=6, deadline=None)
    def test_hierarchical_flow_matches_word_level_model(self, seed_ops):
        source = random_verilog(seed_ops)
        netlist = synthesize_to_netlist(source)
        result = run_flow("hierarchical", "random_block", 3, verilog=source, verify=False)
        circuit = result.circuit
        for a in (0, 3, 5, 7):
            for b in (0, 2, 6):
                expected = netlist.evaluate({"a": a, "b": b})["y"]
                assert circuit.evaluate(a | (b << 3)) == expected


class TestDesignsAcrossFlows:
    @pytest.mark.parametrize(
        "design,reference",
        [("intdiv", intdiv_reference), ("newton", newton_reference), ("isqrt", isqrt_reference)],
    )
    @pytest.mark.parametrize("flow", ["symbolic", "esop", "hierarchical"])
    def test_all_designs_through_all_flows(self, design, reference, flow):
        n = 4
        result = run_flow(flow, design, n)
        assert result.report.verified is True
        circuit = result.circuit
        for x in range(1 << n):
            assert circuit.evaluate(x) == reference(n, x)

    def test_rev_default_option(self):
        plain = run_flow("hierarchical", "intdiv", 4, verify=True)
        optimized = run_flow("hierarchical", "intdiv", 4, verify=True, rev_opt="rev-default")
        assert optimized.report.verified is True
        assert optimized.report.gate_count <= plain.report.gate_count
        assert optimized.report.t_count <= plain.report.t_count


class TestQuantumLevelIntegration:
    def test_esop_reciprocal_to_clifford_t(self):
        n = 3
        result = run_flow("esop", "intdiv", n, p=0)
        quantum = map_to_clifford_t(result.circuit)
        input_lines = result.circuit.input_lines()
        output_lines = result.circuit.output_lines()
        for x in range(1, 1 << n):
            basis = 0
            for i, line in input_lines.items():
                if (x >> i) & 1:
                    basis |= 1 << line
            image = simulate_basis_state(quantum, basis)
            value = 0
            for j, line in output_lines.items():
                if (image >> line) & 1:
                    value |= 1 << j
            assert value == intdiv_reference(n, x)

    def test_qasm_export_of_flow_result(self):
        result = run_flow("esop", "intdiv", 4, p=0)
        quantum = map_to_clifford_t(result.circuit)
        text = write_qasm(quantum)
        assert f"qreg q[{quantum.num_qubits}];" in text
        assert text.count("\n") == quantum.num_gates() + 3


class TestFileExportsOfFlowResults:
    def test_real_roundtrip_of_flow_circuit(self):
        result = run_flow("esop", "intdiv", 4, p=1)
        circuit = result.circuit
        parsed = read_real(write_real(circuit))
        assert parsed.num_gates() == circuit.num_gates()
        # The parsed circuit keeps the same functional behaviour on the
        # original input encoding (line order is preserved by the format).
        for x in (1, 5, 9, 15):
            assert parsed.apply_to_state(circuit.initial_state(x)) == circuit.final_state(x)

    def test_aiger_roundtrip_of_bitblasted_design(self):
        aig = synthesize_verilog(random_verilog([(0, 0, 1), (4, 2, 3)]))
        parsed = read_aiger(write_aiger(aig))
        assert parsed.to_truth_table() == aig.to_truth_table()

    def test_flow_verification_against_aiger_import(self):
        # Export INTDIV(4) as AIGER, re-import it and run a flow on the
        # imported network: the result must still verify against the design.
        source_aig = synthesize_verilog(
            "module m (input [3:0] x, output [3:0] y);\n"
            "  wire [4:0] q = {1'b1, 4'b0000} / {1'b0, x};\n"
            "  assign y = q[3:0];\n"
            "endmodule\n"
        )
        imported = read_aiger(write_aiger(source_aig))
        result = run_flow("esop", imported, 4)
        assert result.report.verified is True
        assert check_equivalent(
            source_aig.to_truth_table(), result.circuit, mode="full"
        )
