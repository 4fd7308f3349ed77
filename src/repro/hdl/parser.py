"""Recursive-descent parser for the supported Verilog subset.

Supported constructs (everything the ``INTDIV``/``NEWTON`` designs and
similar combinational arithmetic blocks need):

* a single ``module ... endmodule`` per source text (the first module is
  returned if several are present),
* ANSI and non-ANSI port declarations with constant ranges,
* ``parameter``/``localparam`` declarations (in the header or the body),
* ``wire`` declarations with optional initialiser,
* ``assign`` statements,
* the full combinational expression language: arithmetic (including ``*``,
  ``/``, ``%``), shifts, comparisons, bitwise and logical operators,
  reductions, concatenation, replication, bit and part selects and the
  conditional operator.
"""

from __future__ import annotations

from typing import List, Optional

from repro.hdl.ast import (
    BinaryOp,
    BitSelect,
    Concat,
    ContinuousAssign,
    Expression,
    Identifier,
    Module,
    NetDeclaration,
    Number,
    ParameterDeclaration,
    PartSelect,
    PortDeclaration,
    Range,
    Repeat,
    TernaryOp,
    UnaryOp,
)
from repro.hdl.errors import ParserError
from repro.hdl.lexer import Token, tokenize

__all__ = ["parse_verilog", "parse_expression"]


# Binary operators by increasing precedence level.
_BINARY_LEVELS = [
    ["||"],
    ["&&"],
    ["|"],
    ["^", "~^", "^~"],
    ["&"],
    ["==", "!=", "===", "!=="],
    ["<", "<=", ">", ">="],
    ["<<", ">>", "<<<", ">>>"],
    ["+", "-"],
    ["*", "/", "%"],
]

_UNARY_OPS = {"~", "!", "-", "+", "&", "|", "^"}


_BASES = {
    "b": (2, "binary"),
    "o": (8, "octal"),
    "d": (10, "decimal"),
    "h": (16, "hexadecimal"),
}


def _parse_number(token: Token) -> Number:
    """Parse a Verilog number literal into a :class:`Number` node.

    Malformed digits raise :class:`ParserError` at the literal's position,
    naming the bad digit and the base.  Four-state ``x``/``z`` digits are
    rejected as unsupported rather than read as 0: the designs are
    two-valued, so a silent substitution would change the function.
    """
    text = token.value.replace("_", "")

    def fail(message: str) -> ParserError:
        return ParserError(
            f"{message} in number literal {token.value!r}", token.line, token.column
        )

    if "'" not in text:
        return Number(int(text))
    width_text, rest = text.split("'", 1)
    width = int(width_text) if width_text else None
    if width == 0:
        raise fail("zero width")
    if rest and rest[0] in "sS":
        rest = rest[1:]
    base_char = rest[0].lower()
    digits = rest[1:]
    base, base_name = _BASES[base_char]
    if not digits:
        raise fail(f"missing {base_name} digits")
    valid = "0123456789abcdef"[:base]
    for digit in digits:
        if digit in "xXzZ":
            raise fail(f"unsupported four-state digit {digit!r} (designs are two-valued)")
        if digit.lower() not in valid:
            raise fail(f"invalid digit {digit!r} for base {base} ({base_name})")
    value = int(digits, base)
    if width is not None:
        value &= (1 << width) - 1
    return Number(value, width, base_char)


class _Parser:
    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token helpers -------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "eof":
            self._pos += 1
        return token

    def _check(self, kind: str, value: Optional[str] = None) -> bool:
        token = self._peek()
        return token.kind == kind and (value is None or token.value == value)

    def _accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self._check(kind, value):
            return self._advance()
        return None

    def _expect(self, kind: str, value: Optional[str] = None) -> Token:
        token = self._peek()
        if not self._check(kind, value):
            expected = value if value is not None else kind
            raise ParserError(
                f"expected {expected!r}, found {token.value!r}", token.line, token.column
            )
        return self._advance()

    # -- module structure ------------------------------------------------------

    def parse_module(self) -> Module:
        self._expect("keyword", "module")
        name = self._expect("ident").value
        module = Module(name)

        if self._accept("op", "#"):
            self._parse_parameter_port_list(module)

        if self._accept("op", "("):
            self._parse_port_list(module)

        self._expect("op", ";")

        while not self._check("keyword", "endmodule"):
            self._parse_module_item(module)
        self._expect("keyword", "endmodule")
        return module

    def _parse_parameter_port_list(self, module: Module) -> None:
        self._expect("op", "(")
        while True:
            self._accept("keyword", "parameter")
            name = self._expect("ident").value
            self._expect("op", "=")
            value = self.parse_expression()
            module.parameters.append(ParameterDeclaration(name, value, local=False))
            if not self._accept("op", ","):
                break
        self._expect("op", ")")

    def _parse_port_list(self, module: Module) -> None:
        if self._accept("op", ")"):
            return
        while True:
            if self._check("keyword", "input") or self._check("keyword", "output"):
                direction = self._advance().value
                self._accept("keyword", "wire")
                rng = self._parse_optional_range()
                name = self._expect("ident").value
                module.ports.append(PortDeclaration(direction, name, rng))
                # Additional names share the direction/range.
                while self._accept("op", ","):
                    if self._check("keyword") or self._check("op", ")"):
                        self._pos -= 1  # the comma belongs to the outer list
                        break
                    name = self._expect("ident").value
                    module.ports.append(PortDeclaration(direction, name, rng))
            else:
                # Non-ANSI style: just a name, direction declared in the body.
                name = self._expect("ident").value
                module.ports.append(PortDeclaration("", name, None))
            if not self._accept("op", ","):
                break
        self._expect("op", ")")

    def _parse_module_item(self, module: Module) -> None:
        token = self._peek()
        if token.kind == "keyword" and token.value in ("input", "output"):
            direction = self._advance().value
            self._accept("keyword", "wire")
            rng = self._parse_optional_range()
            while True:
                name = self._expect("ident").value
                updated = False
                for port in module.ports:
                    if port.name == name:
                        port.direction = direction
                        port.range = rng
                        updated = True
                if not updated:
                    module.ports.append(PortDeclaration(direction, name, rng))
                if not self._accept("op", ","):
                    break
            self._expect("op", ";")
            return

        if token.kind == "keyword" and token.value == "wire":
            self._advance()
            rng = self._parse_optional_range()
            while True:
                name = self._expect("ident").value
                value = None
                if self._accept("op", "="):
                    value = self.parse_expression()
                module.nets.append(NetDeclaration(name, rng, value))
                if not self._accept("op", ","):
                    break
            self._expect("op", ";")
            return

        if token.kind == "keyword" and token.value in ("parameter", "localparam"):
            local = self._advance().value == "localparam"
            while True:
                name = self._expect("ident").value
                self._expect("op", "=")
                value = self.parse_expression()
                module.parameters.append(ParameterDeclaration(name, value, local))
                if not self._accept("op", ","):
                    break
            self._expect("op", ";")
            return

        if token.kind == "keyword" and token.value == "assign":
            self._advance()
            while True:
                target = self._parse_assign_target()
                self._expect("op", "=")
                value = self.parse_expression()
                module.assigns.append(ContinuousAssign(target, value))
                if not self._accept("op", ","):
                    break
            self._expect("op", ";")
            return

        raise ParserError(
            f"unsupported module item starting with {token.value!r}",
            token.line,
            token.column,
        )

    def _parse_assign_target(self) -> Expression:
        if self._check("op", "{"):
            return self._parse_primary()
        name = self._expect("ident").value
        target: Expression = Identifier(name)
        if self._accept("op", "["):
            first = self.parse_expression()
            if self._accept("op", ":"):
                second = self.parse_expression()
                self._expect("op", "]")
                return PartSelect(target, first, second)
            self._expect("op", "]")
            return BitSelect(target, first)
        return target

    def _parse_optional_range(self) -> Optional[Range]:
        if not self._accept("op", "["):
            return None
        msb = self.parse_expression()
        self._expect("op", ":")
        lsb = self.parse_expression()
        self._expect("op", "]")
        return Range(msb, lsb)

    # -- expressions -------------------------------------------------------------

    def parse_expression(self) -> Expression:
        return self._parse_ternary()

    def _parse_ternary(self) -> Expression:
        condition = self._parse_binary(0)
        if self._accept("op", "?"):
            if_true = self._parse_ternary()
            self._expect("op", ":")
            if_false = self._parse_ternary()
            return TernaryOp(condition, if_true, if_false)
        return condition

    def _parse_binary(self, level: int) -> Expression:
        if level >= len(_BINARY_LEVELS):
            return self._parse_unary()
        left = self._parse_binary(level + 1)
        while self._peek().kind == "op" and self._peek().value in _BINARY_LEVELS[level]:
            op = self._advance().value
            right = self._parse_binary(level + 1)
            left = BinaryOp(op, left, right)
        return left

    def _parse_unary(self) -> Expression:
        token = self._peek()
        if token.kind == "op" and token.value in _UNARY_OPS:
            self._advance()
            operand = self._parse_unary()
            return UnaryOp(token.value, operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> Expression:
        expr = self._parse_primary()
        while self._check("op", "["):
            self._advance()
            first = self.parse_expression()
            if self._accept("op", ":"):
                second = self.parse_expression()
                self._expect("op", "]")
                expr = PartSelect(expr, first, second)
            else:
                self._expect("op", "]")
                expr = BitSelect(expr, first)
        return expr

    def _parse_primary(self) -> Expression:
        token = self._peek()
        if token.kind == "number":
            self._advance()
            return _parse_number(token)
        if token.kind == "ident":
            self._advance()
            return Identifier(token.value)
        if token.kind == "op" and token.value == "(":
            self._advance()
            expr = self.parse_expression()
            self._expect("op", ")")
            return expr
        if token.kind == "op" and token.value == "{":
            self._advance()
            first = self.parse_expression()
            # Replication: {count{expr}}.
            if self._check("op", "{"):
                self._advance()
                value = self.parse_expression()
                self._expect("op", "}")
                self._expect("op", "}")
                return Repeat(first, value)
            parts = [first]
            while self._accept("op", ","):
                parts.append(self.parse_expression())
            self._expect("op", "}")
            return Concat(tuple(parts))
        raise ParserError(
            f"unexpected token {token.value!r} in expression", token.line, token.column
        )


def parse_verilog(source: str) -> Module:
    """Parse Verilog source text and return the first module."""
    parser = _Parser(tokenize(source))
    return parser.parse_module()


def parse_expression(source: str) -> Expression:
    """Parse a stand-alone Verilog expression (useful for tests)."""
    parser = _Parser(tokenize(source))
    expr = parser.parse_expression()
    token = parser._peek()
    if token.kind != "eof":
        raise ParserError(
            f"trailing input after expression: {token.value!r}", token.line, token.column
        )
    return expr
