"""Direct unit tests for the word-level netlist IR."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.logic import simulate_minterm
from repro.hdl.bitblast import bitblast
from repro.hdl.netlist import WordNetlist


def build_two_input_netlist(width=4):
    netlist = WordNetlist("pair")
    a = netlist.add_input("a", width)
    b = netlist.add_input("b", width)
    return netlist, a, b


class TestConstruction:
    def test_input_and_output_registration(self):
        netlist, a, b = build_two_input_netlist()
        total = netlist.add_binary("add", a, b)
        netlist.add_output("sum", total)
        assert netlist.input_width("a") == 4
        assert netlist.output_width("sum") == 4
        assert netlist.num_operations() == 3
        with pytest.raises(KeyError):
            netlist.input_width("missing")
        with pytest.raises(KeyError):
            netlist.output_width("missing")

    def test_operand_validation(self):
        netlist, a, b = build_two_input_netlist()
        with pytest.raises(ValueError):
            netlist.add_binary("add", a, 99)
        with pytest.raises(ValueError):
            netlist.add_binary("bogus", a, b)
        with pytest.raises(ValueError):
            netlist.add_unary("bogus", a)
        with pytest.raises(ValueError):
            netlist.add_logic_binary("xor", a, b)

    def test_width_mismatch_rejected(self):
        netlist = WordNetlist()
        a = netlist.add_input("a", 4)
        b = netlist.add_input("b", 5)
        with pytest.raises(ValueError):
            netlist.add_binary("add", a, b)
        with pytest.raises(ValueError):
            netlist.add_mux(a, a, b)

    def test_slice_bounds_checked(self):
        netlist = WordNetlist()
        a = netlist.add_input("a", 4)
        with pytest.raises(ValueError):
            netlist.add_slice(a, 2, 4)
        with pytest.raises(ValueError):
            netlist.add_slice(a, -1, 2)

    def test_extend_and_resize(self):
        netlist = WordNetlist()
        a = netlist.add_input("a", 4)
        extended = netlist.add_extend(a, 6)
        assert netlist.width_of(extended) == 6
        assert netlist.add_extend(a, 4) == a  # no-op
        with pytest.raises(ValueError):
            netlist.add_extend(a, 2)
        truncated = netlist.add_resize(a, 2)
        assert netlist.width_of(truncated) == 2

    def test_concat_requires_parts(self):
        netlist = WordNetlist()
        with pytest.raises(ValueError):
            netlist.add_concat([])

    def test_missing_input_value(self):
        netlist, a, b = build_two_input_netlist()
        netlist.add_output("y", netlist.add_binary("xor", a, b))
        with pytest.raises(KeyError):
            netlist.evaluate({"a": 1})


class TestEvaluationSemantics:
    @given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
    @settings(max_examples=60)
    def test_arithmetic_and_comparisons(self, a_value, b_value):
        netlist, a, b = build_two_input_netlist()
        netlist.add_output("add", netlist.add_binary("add", a, b))
        netlist.add_output("sub", netlist.add_binary("sub", a, b))
        netlist.add_output("mul", netlist.add_binary("mul", a, b))
        netlist.add_output("lt", netlist.add_binary("lt", a, b))
        netlist.add_output("ge", netlist.add_binary("ge", a, b))
        netlist.add_output("eq", netlist.add_binary("eq", a, b))
        out = netlist.evaluate({"a": a_value, "b": b_value})
        assert out["add"] == (a_value + b_value) & 15
        assert out["sub"] == (a_value - b_value) & 15
        assert out["mul"] == (a_value * b_value) & 15
        assert out["lt"] == int(a_value < b_value)
        assert out["ge"] == int(a_value >= b_value)
        assert out["eq"] == int(a_value == b_value)

    @given(st.integers(min_value=0, max_value=15))
    @settings(max_examples=40)
    def test_unary_operations(self, value):
        netlist = WordNetlist()
        a = netlist.add_input("a", 4)
        netlist.add_output("not", netlist.add_unary("not", a))
        netlist.add_output("neg", netlist.add_unary("neg", a))
        netlist.add_output("rand", netlist.add_unary("reduce_and", a))
        netlist.add_output("ror", netlist.add_unary("reduce_or", a))
        netlist.add_output("rxor", netlist.add_unary("reduce_xor", a))
        netlist.add_output("lnot", netlist.add_unary("logic_not", a))
        out = netlist.evaluate({"a": value})
        assert out["not"] == (~value) & 15
        assert out["neg"] == (-value) & 15
        assert out["rand"] == int(value == 15)
        assert out["ror"] == int(value != 0)
        assert out["rxor"] == bin(value).count("1") % 2
        assert out["lnot"] == int(value == 0)

    def test_concat_dynbit_and_mux(self):
        netlist = WordNetlist()
        a = netlist.add_input("a", 4)
        i = netlist.add_input("i", 3)
        s = netlist.add_input("s", 1)
        constant = netlist.add_const(0b10, 2)
        netlist.add_output("cat", netlist.add_concat([constant, a]))  # const is MSB part
        netlist.add_output("bit", netlist.add_dynamic_bit(a, i))
        netlist.add_output("mux", netlist.add_mux(s, a, netlist.add_const(0, 4)))
        out = netlist.evaluate({"a": 0b0110, "i": 2, "s": 1})
        assert out["cat"] == (0b10 << 4) | 0b0110
        assert out["bit"] == 1
        assert out["mux"] == 0b0110
        out = netlist.evaluate({"a": 0b0110, "i": 7, "s": 0})
        assert out["bit"] == 0  # out-of-range dynamic index reads zero
        assert out["mux"] == 0

    def test_division_conventions(self):
        netlist, a, b = build_two_input_netlist()
        netlist.add_output("div", netlist.add_binary("div", a, b))
        netlist.add_output("mod", netlist.add_binary("mod", a, b))
        assert netlist.evaluate({"a": 13, "b": 5}) == {"div": 2, "mod": 3}
        assert netlist.evaluate({"a": 13, "b": 0}) == {"div": 15, "mod": 13}

    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=15))
    @settings(max_examples=40)
    def test_shifts(self, value, amount):
        netlist = WordNetlist()
        a = netlist.add_input("a", 8)
        k = netlist.add_input("k", 4)
        netlist.add_output("shl", netlist.add_binary("shl", a, k))
        netlist.add_output("shr", netlist.add_binary("shr", a, k))
        out = netlist.evaluate({"a": value, "k": amount})
        assert out["shl"] == (value << amount) & 0xFF
        assert out["shr"] == value >> amount

    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
    @settings(max_examples=30, deadline=None)
    def test_bitblast_agrees_with_evaluate(self, a_value, b_value):
        netlist = WordNetlist("agree")
        a = netlist.add_input("a", 8)
        b = netlist.add_input("b", 8)
        netlist.add_output("x", netlist.add_binary("xor", a, b))
        netlist.add_output("s", netlist.add_binary("add", a, b))
        netlist.add_output("g", netlist.add_binary("gt", a, b))
        aig = bitblast(netlist)
        expected = netlist.evaluate({"a": a_value, "b": b_value})
        word = simulate_minterm(aig, a_value | (b_value << 8))
        x = word & 0xFF
        s = (word >> 8) & 0xFF
        g = (word >> 16) & 1
        assert {"x": x, "s": s, "g": g} == expected
