"""Tests for elaboration, word-level evaluation and bit-blasting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.logic import simulate_minterm
from repro.hdl.bitblast import bitblast
from repro.hdl.elaborator import elaborate
from repro.hdl.errors import ElaborationError
from repro.hdl.parser import parse_verilog
from repro.hdl.synthesize import synthesize_to_netlist, synthesize_verilog


def simulate_aig(aig, input_widths, values):
    """Drive the AIG with named word values and return output words."""
    minterm = 0
    offset = 0
    for name, width in input_widths:
        minterm |= (values[name] & ((1 << width) - 1)) << offset
        offset += width
    word = simulate_minterm(aig, minterm)
    outputs = {}
    offset = 0
    for po_name in aig.po_names():
        base = po_name.rsplit("[", 1)[0]
        outputs.setdefault(base, 0)
    for j, po_name in enumerate(aig.po_names()):
        base, index = po_name.rsplit("[", 1)
        outputs[base] |= ((word >> j) & 1) << int(index[:-1])
    return outputs


ALU_SOURCE = """
module alu (
    input  [3:0] a,
    input  [3:0] b,
    input  [1:0] sel,
    output [3:0] y,
    output flag
);
    wire [3:0] sum  = a + b;
    wire [3:0] diff = a - b;
    wire [3:0] prod = a * b;
    wire [3:0] logical = a & b;
    assign y = (sel == 0) ? sum : (sel == 1) ? diff : (sel == 2) ? prod : logical;
    assign flag = (a < b) | (a == b);
endmodule
"""


class TestElaboration:
    def test_alu_reference_semantics(self):
        netlist = synthesize_to_netlist(ALU_SOURCE)
        for a in range(16):
            for b in range(0, 16, 3):
                for sel in range(4):
                    out = netlist.evaluate({"a": a, "b": b, "sel": sel})
                    expected = [
                        (a + b) & 0xF,
                        (a - b) & 0xF,
                        (a * b) & 0xF,
                        a & b,
                    ][sel]
                    assert out["y"] == expected
                    assert out["flag"] == int(a <= b)

    def test_parameter_override(self):
        source = """
        module pass #(parameter W = 4) (input [W-1:0] a, output [W-1:0] y);
            assign y = a;
        endmodule
        """
        netlist = elaborate(parse_verilog(source), {"W": 7})
        assert netlist.input_width("a") == 7
        assert netlist.output_width("y") == 7

    def test_unknown_parameter_override(self):
        source = "module m (input a, output y); assign y = a; endmodule"
        with pytest.raises(ElaborationError):
            elaborate(parse_verilog(source), {"BOGUS": 1})

    def test_undriven_output_rejected(self):
        source = "module m (input a, output y); endmodule"
        with pytest.raises(ElaborationError):
            elaborate(parse_verilog(source))

    def test_multiple_drivers_rejected(self):
        source = """
        module m (input a, output y);
            assign y = a;
            assign y = ~a;
        endmodule
        """
        with pytest.raises(ElaborationError):
            elaborate(parse_verilog(source))

    def test_combinational_cycle_rejected(self):
        source = """
        module m (input a, output y);
            wire u;
            wire v;
            assign u = v ^ a;
            assign v = u;
            assign y = v;
        endmodule
        """
        with pytest.raises(ElaborationError):
            elaborate(parse_verilog(source))

    def test_cycle_through_net_initialiser(self):
        source = """
        module m (input a, output y);
            wire u = u ^ a;
            assign y = u;
        endmodule
        """
        with pytest.raises(ElaborationError):
            elaborate(parse_verilog(source))

    def test_non_zero_lsb_rejected(self):
        source = "module m (input [4:1] a, output y); assign y = a[1]; endmodule"
        with pytest.raises(ElaborationError):
            elaborate(parse_verilog(source))

    def test_width_context_propagates_carry(self):
        # The sum must keep its carry because the target is wider.
        source = """
        module m (input [3:0] a, input [3:0] b, output [4:0] s);
            assign s = a + b;
        endmodule
        """
        netlist = synthesize_to_netlist(source)
        assert netlist.evaluate({"a": 15, "b": 15})["s"] == 30

    def test_concat_and_replication(self):
        source = """
        module m (input [1:0] a, output [5:0] y);
            assign y = {a, {2{a[0]}}, 2'b10};
        endmodule
        """
        netlist = synthesize_to_netlist(source)
        assert netlist.evaluate({"a": 0b01})["y"] == 0b01_11_10
        assert netlist.evaluate({"a": 0b10})["y"] == 0b10_00_10

    def test_reduction_and_logical_operators(self):
        source = """
        module m (input [3:0] a, input [3:0] b, output [3:0] y);
            assign y = {&a, |a, ^a, (a != 0) && (b != 0)};
        endmodule
        """
        netlist = synthesize_to_netlist(source)
        out = netlist.evaluate({"a": 0b1111, "b": 0})["y"]
        assert out == 0b1100  # {&a=1, |a=1, ^a=0, logical=0}
        out = netlist.evaluate({"a": 0b0111, "b": 3})["y"]
        assert out == 0b0111

    def test_dynamic_bit_select(self):
        source = """
        module m (input [7:0] a, input [2:0] i, output y);
            assign y = a[i];
        endmodule
        """
        netlist = synthesize_to_netlist(source)
        for i in range(8):
            assert netlist.evaluate({"a": 0b10110100, "i": i})["y"] == (0b10110100 >> i) & 1

    def test_shift_by_variable_amount(self):
        source = """
        module m (input [7:0] a, input [3:0] k, output [7:0] l, output [7:0] r);
            assign l = a << k;
            assign r = a >> k;
        endmodule
        """
        netlist = synthesize_to_netlist(source)
        for k in range(16):
            out = netlist.evaluate({"a": 0xB7, "k": k})
            assert out["l"] == (0xB7 << k) & 0xFF
            assert out["r"] == 0xB7 >> k

    def test_division_and_modulo(self):
        source = """
        module m (input [7:0] a, input [7:0] b, output [7:0] q, output [7:0] r);
            assign q = a / b;
            assign r = a % b;
        endmodule
        """
        netlist = synthesize_to_netlist(source)
        assert netlist.evaluate({"a": 200, "b": 7}) == {"q": 28, "r": 4}
        # Division by zero convention.
        assert netlist.evaluate({"a": 200, "b": 0}) == {"q": 255, "r": 200}


class TestBitblast:
    @given(
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_alu_aig_matches_netlist(self, a, b, sel):
        netlist = synthesize_to_netlist(ALU_SOURCE)
        aig = bitblast(netlist)
        expected = netlist.evaluate({"a": a, "b": b, "sel": sel})
        widths = [("a", 4), ("b", 4), ("sel", 2)]
        outputs = simulate_aig(aig, widths, {"a": a, "b": b, "sel": sel})
        assert outputs["y"] == expected["y"]
        assert outputs["flag"] == expected["flag"]

    def test_divider_aig_matches_netlist(self):
        source = """
        module m (input [4:0] a, input [4:0] b, output [4:0] q, output [4:0] r);
            assign q = a / b;
            assign r = a % b;
        endmodule
        """
        netlist = synthesize_to_netlist(source)
        aig = bitblast(netlist)
        widths = [("a", 5), ("b", 5)]
        for a in range(0, 32, 3):
            for b in range(0, 32, 5):
                expected = netlist.evaluate({"a": a, "b": b})
                outputs = simulate_aig(aig, widths, {"a": a, "b": b})
                assert outputs == expected

    def test_shifts_and_mux_aig(self):
        source = """
        module m (input [7:0] a, input [2:0] k, input s, output [7:0] y);
            assign y = s ? (a << k) : (a >> k);
        endmodule
        """
        netlist = synthesize_to_netlist(source)
        aig = bitblast(netlist)
        widths = [("a", 8), ("k", 3), ("s", 1)]
        for a in (0, 1, 0x5A, 0xFF):
            for k in range(8):
                for s in (0, 1):
                    expected = netlist.evaluate({"a": a, "k": k, "s": s})
                    outputs = simulate_aig(aig, widths, {"a": a, "k": k, "s": s})
                    assert outputs == expected

    def test_pi_po_naming(self):
        aig = synthesize_verilog(ALU_SOURCE)
        assert aig.pi_names()[0] == "a[0]"
        assert aig.pi_names()[-1] == "sel[1]"
        assert aig.po_names()[-1] == "flag[0]"
