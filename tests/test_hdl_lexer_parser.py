"""Unit tests for the Verilog lexer and parser."""

import pytest

from repro.hdl.ast import (
    BinaryOp,
    BitSelect,
    Concat,
    Identifier,
    Number,
    PartSelect,
    Repeat,
    TernaryOp,
    UnaryOp,
)
from repro.hdl.errors import HdlError, LexerError, ParserError
from repro.hdl.lexer import tokenize
from repro.hdl.parser import parse_expression, parse_verilog


class TestLexer:
    def test_simple_tokens(self):
        tokens = tokenize("assign y = a + b;")
        kinds = [t.kind for t in tokens]
        values = [t.value for t in tokens]
        assert values[:7] == ["assign", "y", "=", "a", "+", "b", ";"]
        assert kinds[0] == "keyword"
        assert kinds[-1] == "eof"

    def test_sized_numbers(self):
        tokens = tokenize("8'b1010_1010 4'hF 12'd100 'd7 42")
        numbers = [t.value for t in tokens if t.kind == "number"]
        assert numbers == ["8'b1010_1010", "4'hF", "12'd100", "'d7", "42"]

    def test_comments_ignored(self):
        tokens = tokenize("a // line comment\n/* block\ncomment */ b")
        idents = [t.value for t in tokens if t.kind == "ident"]
        assert idents == ["a", "b"]

    def test_multichar_operators(self):
        tokens = tokenize("a << 2 >> 3 <= >= == != && ||")
        ops = [t.value for t in tokens if t.kind == "op"]
        assert ops == ["<<", ">>", "<=", ">=", "==", "!=", "&&", "||"]

    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].line == 1 and tokens[0].column == 1
        assert tokens[1].line == 2 and tokens[1].column == 3

    def test_unterminated_comment(self):
        with pytest.raises(LexerError):
            tokenize("/* never closed")

    def test_invalid_character(self):
        with pytest.raises(LexerError):
            tokenize("a @ b")

    def test_invalid_base(self):
        with pytest.raises(LexerError):
            tokenize("8'q0")


class TestExpressionParser:
    def test_precedence_mul_over_add(self):
        expr = parse_expression("a + b * c")
        assert isinstance(expr, BinaryOp)
        assert expr.op == "+"
        assert isinstance(expr.right, BinaryOp)
        assert expr.right.op == "*"

    def test_precedence_shift_vs_compare(self):
        expr = parse_expression("a << 1 < b")
        assert expr.op == "<"
        assert isinstance(expr.left, BinaryOp) and expr.left.op == "<<"

    def test_parentheses(self):
        expr = parse_expression("(a + b) * c")
        assert expr.op == "*"
        assert isinstance(expr.left, BinaryOp) and expr.left.op == "+"

    def test_ternary_right_associative(self):
        expr = parse_expression("a ? b : c ? d : e")
        assert isinstance(expr, TernaryOp)
        assert isinstance(expr.if_false, TernaryOp)

    def test_unary_operators(self):
        expr = parse_expression("~a & !b")
        assert expr.op == "&"
        assert isinstance(expr.left, UnaryOp) and expr.left.op == "~"
        assert isinstance(expr.right, UnaryOp) and expr.right.op == "!"

    def test_reduction_operator(self):
        expr = parse_expression("|a")
        assert isinstance(expr, UnaryOp)
        assert expr.op == "|"

    def test_concat_and_repeat(self):
        expr = parse_expression("{a, 2'b01, {4{b}}}")
        assert isinstance(expr, Concat)
        assert len(expr.parts) == 3
        assert isinstance(expr.parts[2], Repeat)

    def test_bit_and_part_select(self):
        expr = parse_expression("x[3]")
        assert isinstance(expr, BitSelect)
        expr = parse_expression("x[7:4]")
        assert isinstance(expr, PartSelect)

    def test_sized_number_values(self):
        number = parse_expression("8'hff")
        assert isinstance(number, Number)
        assert number.value == 255 and number.width == 8
        number = parse_expression("4'b0101")
        assert number.value == 5 and number.width == 4

    def test_number_truncated_to_width(self):
        number = parse_expression("3'd9")
        assert number.value == 1  # 9 mod 8

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParserError):
            parse_expression("a + b extra")

    def test_unexpected_token(self):
        with pytest.raises(ParserError):
            parse_expression("+ ;")

    @pytest.mark.parametrize(
        "literal, digit, base",
        [
            ("4'b1210", "'2'", "base 2 (binary)"),
            ("8'd2a", "'a'", "base 10 (decimal)"),
            ("6'o78", "'8'", "base 8 (octal)"),
            ("8'hfg", "'g'", "base 16 (hexadecimal)"),
        ],
    )
    def test_invalid_digit_names_digit_base_and_position(self, literal, digit, base):
        with pytest.raises(ParserError) as info:
            parse_expression(f"a +\n   {literal}")
        error = info.value
        assert (error.line, error.column) == (2, 4)
        assert "at 2:4" in str(error)
        assert digit in str(error) and base in str(error)
        assert literal in str(error)

    @pytest.mark.parametrize("literal", ["4'b1x10", "4'hZ", "8'bz", "2'sbX1"])
    def test_four_state_digits_are_rejected_not_zeroed(self, literal):
        with pytest.raises(ParserError, match="unsupported four-state digit") as info:
            parse_expression(literal)
        assert (info.value.line, info.value.column) == (1, 1)

    @pytest.mark.parametrize(
        "literal, message", [("4'b", "missing binary digits"), ("0'd1", "zero width")]
    )
    def test_empty_digits_and_zero_width_are_rejected(self, literal, message):
        with pytest.raises(ParserError, match=message):
            parse_expression(literal)

    def test_bad_literal_in_module_reports_its_line(self):
        source = (
            "module m(input a, output [3:0] y);\n"
            "  assign y = 4'b1x10;\n"
            "endmodule\n"
        )
        with pytest.raises(ParserError) as info:
            parse_verilog(source)
        assert (info.value.line, info.value.column) == (2, 14)


SIMPLE_MODULE = """
module add3 #(parameter W = 4) (
    input  [W-1:0] a,
    input  [W-1:0] b,
    input  cin,
    output [W:0] total
);
    wire [W:0] partial = a + b;
    assign total = partial + cin;
endmodule
"""

NON_ANSI_MODULE = """
module buffer(a, y);
    input [3:0] a;
    output [3:0] y;
    assign y = a;
endmodule
"""


class TestModuleParser:
    def test_ansi_module(self):
        module = parse_verilog(SIMPLE_MODULE)
        assert module.name == "add3"
        assert [p.name for p in module.inputs()] == ["a", "b", "cin"]
        assert [p.name for p in module.outputs()] == ["total"]
        assert len(module.parameters) == 1
        assert module.parameters[0].name == "W"
        assert len(module.nets) == 1
        assert len(module.assigns) == 1

    def test_non_ansi_module(self):
        module = parse_verilog(NON_ANSI_MODULE)
        assert [p.name for p in module.inputs()] == ["a"]
        assert [p.name for p in module.outputs()] == ["y"]
        assert module.port("a").range is not None

    def test_port_lookup_error(self):
        module = parse_verilog(NON_ANSI_MODULE)
        with pytest.raises(KeyError):
            module.port("nope")

    def test_localparam_and_multiple_assigns(self):
        source = """
        module m (input [3:0] a, output [3:0] y, output z);
            localparam K = 3;
            assign y = a + K, z = a[0];
        endmodule
        """
        module = parse_verilog(source)
        assert len(module.assigns) == 2
        assert module.parameters[0].local

    def test_missing_semicolon(self):
        with pytest.raises(ParserError):
            parse_verilog("module m (input a, output y) assign y = a; endmodule")

    def test_unsupported_item(self):
        with pytest.raises(HdlError):
            parse_verilog(
                "module m (input a, output y); always @(a) y = a; endmodule"
            )
