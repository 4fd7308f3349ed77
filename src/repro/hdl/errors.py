"""Exception types raised by the Verilog front-end."""

from __future__ import annotations

__all__ = ["HdlError", "LexerError", "ParserError", "ElaborationError"]


class HdlError(ValueError):
    """Base class for all front-end errors.

    A :class:`ValueError`: a design the front-end rejects is bad user
    input, so callers that report bad input (``repro flow``) report it.
    """


class LexerError(HdlError):
    """Raised when the character stream cannot be tokenised."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"lexer error at {line}:{column}: {message}")
        self.line = line
        self.column = column


class ParserError(HdlError):
    """Raised when the token stream cannot be parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" at {line}:{column}" if line else ""
        super().__init__(f"parse error{location}: {message}")
        self.line = line
        self.column = column


class ElaborationError(HdlError):
    """Raised when a parsed design cannot be elaborated."""
