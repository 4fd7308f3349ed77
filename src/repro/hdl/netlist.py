"""Word-level netlist: the intermediate representation between the Verilog
front-end and the bit-blaster.

The elaborator lowers a parsed module into a :class:`WordNetlist`, a DAG of
word-level operations with explicit result widths.  The netlist can be

* evaluated directly on integer input values (used as the reference model in
  the test-suite and by the examples), or
* bit-blasted into an AIG (:mod:`repro.hdl.bitblast`) for the logic
  synthesis flows.

All values are unsigned bit-vectors; two's-complement arithmetic is
expressed with explicit unsigned manipulations by the designs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.utils.bitops import bit_count

__all__ = ["WordOp", "WordNetlist"]


_BINARY_KINDS = {
    "and",
    "or",
    "xor",
    "add",
    "sub",
    "mul",
    "div",
    "mod",
    "shl",
    "shr",
    "eq",
    "ne",
    "lt",
    "le",
    "gt",
    "ge",
}
_UNARY_KINDS = {"not", "neg", "reduce_and", "reduce_or", "reduce_xor", "logic_not"}


@dataclass(frozen=True)
class WordOp:
    """One word-level operation.

    ``operands`` are indices of earlier operations; ``attrs`` holds
    kind-specific data (constant values, slice offsets, ...).
    """

    kind: str
    width: int
    operands: Tuple[int, ...] = ()
    attrs: Tuple[Tuple[str, int], ...] = ()

    def attr(self, name: str) -> int:
        for key, value in self.attrs:
            if key == name:
                return value
        raise KeyError(f"operation {self.kind} has no attribute {name!r}")


class WordNetlist:
    """A word-level combinational netlist."""

    def __init__(self, name: str = "netlist"):
        self.name = name
        self._ops: List[WordOp] = []
        self._inputs: List[Tuple[str, int, int]] = []  # (name, width, op index)
        self._outputs: List[Tuple[str, int, int]] = []  # (name, width, op index)

    # -- construction --------------------------------------------------------

    def _add(self, op: WordOp) -> int:
        for operand in op.operands:
            if not 0 <= operand < len(self._ops):
                raise ValueError(f"operand {operand} of {op.kind} is undefined")
        if op.width <= 0:
            raise ValueError(f"operation {op.kind} must have positive width")
        self._ops.append(op)
        return len(self._ops) - 1

    def add_input(self, name: str, width: int) -> int:
        """Declare a primary input word; returns its value index."""
        index = self._add(WordOp("input", width, (), (("position", len(self._inputs)),)))
        self._inputs.append((name, width, index))
        return index

    def add_output(self, name: str, value: int) -> None:
        """Declare a primary output driven by ``value``."""
        width = self.width_of(value)
        self._outputs.append((name, width, value))

    def add_const(self, value: int, width: int) -> int:
        """A constant word."""
        return self._add(WordOp("const", width, (), (("value", value & ((1 << width) - 1)),)))

    def add_unary(self, kind: str, operand: int) -> int:
        """Bitwise NOT / arithmetic negation / reductions / logical NOT."""
        if kind not in _UNARY_KINDS:
            raise ValueError(f"unknown unary operation {kind!r}")
        width = self.width_of(operand)
        result_width = 1 if kind.startswith("reduce") or kind == "logic_not" else width
        return self._add(WordOp(kind, result_width, (operand,)))

    def add_binary(self, kind: str, left: int, right: int) -> int:
        """Binary word operation; operand widths must already agree except
        for shifts (whose right operand is self-determined)."""
        if kind not in _BINARY_KINDS:
            raise ValueError(f"unknown binary operation {kind!r}")
        wl, wr = self.width_of(left), self.width_of(right)
        if kind in ("shl", "shr"):
            width = wl
        else:
            if wl != wr:
                raise ValueError(
                    f"width mismatch for {kind}: {wl} vs {wr} "
                    "(extend the operands first)"
                )
            width = 1 if kind in ("eq", "ne", "lt", "le", "gt", "ge") else wl
        return self._add(WordOp(kind, width, (left, right)))

    def add_logic_binary(self, kind: str, left: int, right: int) -> int:
        """Logical AND/OR on the truth values of two words."""
        if kind not in ("logic_and", "logic_or"):
            raise ValueError(f"unknown logical operation {kind!r}")
        return self._add(WordOp(kind, 1, (left, right)))

    def add_mux(self, condition: int, if_true: int, if_false: int) -> int:
        """Word-level multiplexer (condition is reduced to a truth value)."""
        wt, wf = self.width_of(if_true), self.width_of(if_false)
        if wt != wf:
            raise ValueError(f"mux branch widths differ: {wt} vs {wf}")
        return self._add(WordOp("mux", wt, (condition, if_true, if_false)))

    def add_slice(self, value: int, lsb: int, width: int) -> int:
        """Extract ``width`` bits starting at ``lsb``."""
        source_width = self.width_of(value)
        if lsb < 0 or width <= 0 or lsb + width > source_width:
            raise ValueError(
                f"slice [{lsb + width - 1}:{lsb}] out of range for width {source_width}"
            )
        return self._add(WordOp("slice", width, (value,), (("lsb", lsb),)))

    def add_dynamic_bit(self, value: int, index: int) -> int:
        """Select a single bit with a non-constant index."""
        return self._add(WordOp("dynbit", 1, (value, index)))

    def add_concat(self, parts: Sequence[int]) -> int:
        """Concatenate words; ``parts[0]`` is the most significant part."""
        if not parts:
            raise ValueError("concatenation needs at least one part")
        width = sum(self.width_of(p) for p in parts)
        return self._add(WordOp("concat", width, tuple(parts)))

    def add_extend(self, value: int, width: int) -> int:
        """Zero-extend (or return unchanged) to ``width`` bits."""
        current = self.width_of(value)
        if width < current:
            raise ValueError("use add_slice to truncate")
        if width == current:
            return value
        return self._add(WordOp("zext", width, (value,)))

    def add_resize(self, value: int, width: int) -> int:
        """Zero-extend or truncate to exactly ``width`` bits."""
        current = self.width_of(value)
        if width == current:
            return value
        if width < current:
            return self.add_slice(value, 0, width)
        return self.add_extend(value, width)

    # -- queries ------------------------------------------------------------

    def width_of(self, value: int) -> int:
        """Result width of a value index."""
        if not 0 <= value < len(self._ops):
            raise ValueError(f"value index {value} is undefined")
        return self._ops[value].width

    def op(self, value: int) -> WordOp:
        """The operation producing a value index."""
        return self._ops[value]

    def operations(self) -> List[WordOp]:
        """All operations in topological order."""
        return list(self._ops)

    def num_operations(self) -> int:
        """Number of operations (including inputs and constants)."""
        return len(self._ops)

    def inputs(self) -> List[Tuple[str, int, int]]:
        """Primary inputs as ``(name, width, value index)``."""
        return list(self._inputs)

    def outputs(self) -> List[Tuple[str, int, int]]:
        """Primary outputs as ``(name, width, value index)``."""
        return list(self._outputs)

    def input_width(self, name: str) -> int:
        """Width of a named input."""
        for input_name, width, _ in self._inputs:
            if input_name == name:
                return width
        raise KeyError(f"no input named {name!r}")

    def output_width(self, name: str) -> int:
        """Width of a named output."""
        for output_name, width, _ in self._outputs:
            if output_name == name:
                return width
        raise KeyError(f"no output named {name!r}")

    # -- reference evaluation ----------------------------------------------------

    def evaluate(self, input_values: Dict[str, int]) -> Dict[str, int]:
        """Evaluate the netlist on integer inputs (the reference semantics).

        Division and modulo by zero return the all-ones pattern and the
        dividend respectively (this matches the bit-blasted restoring
        divider and is documented in DESIGN.md).
        """
        values: List[int] = [0] * len(self._ops)
        by_position = {position: (name, width) for position, (name, width, _) in enumerate(self._inputs)}

        for index, op in enumerate(self._ops):
            mask = (1 << op.width) - 1
            if op.kind == "input":
                name, width = by_position[op.attr("position")]
                if name not in input_values:
                    raise KeyError(f"missing value for input {name!r}")
                values[index] = input_values[name] & mask
            elif op.kind == "const":
                values[index] = op.attr("value") & mask
            elif op.kind == "not":
                values[index] = (~values[op.operands[0]]) & mask
            elif op.kind == "neg":
                values[index] = (-values[op.operands[0]]) & mask
            elif op.kind == "reduce_and":
                operand = op.operands[0]
                full = (1 << self.width_of(operand)) - 1
                values[index] = int(values[operand] == full)
            elif op.kind == "reduce_or":
                values[index] = int(values[op.operands[0]] != 0)
            elif op.kind == "reduce_xor":
                values[index] = bit_count(values[op.operands[0]]) & 1
            elif op.kind == "logic_not":
                values[index] = int(values[op.operands[0]] == 0)
            elif op.kind in ("logic_and", "logic_or"):
                left = values[op.operands[0]] != 0
                right = values[op.operands[1]] != 0
                values[index] = int(left and right) if op.kind == "logic_and" else int(left or right)
            elif op.kind in _BINARY_KINDS:
                values[index] = self._evaluate_binary(op, values) & mask
            elif op.kind == "mux":
                condition = values[op.operands[0]] != 0
                values[index] = values[op.operands[1]] if condition else values[op.operands[2]]
            elif op.kind == "slice":
                values[index] = (values[op.operands[0]] >> op.attr("lsb")) & mask
            elif op.kind == "dynbit":
                word = values[op.operands[0]]
                position = values[op.operands[1]]
                source_width = self.width_of(op.operands[0])
                values[index] = (word >> position) & 1 if position < source_width else 0
            elif op.kind == "concat":
                value = 0
                for part in op.operands:  # most significant first
                    value = (value << self.width_of(part)) | values[part]
                values[index] = value
            elif op.kind == "zext":
                values[index] = values[op.operands[0]]
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown operation kind {op.kind!r}")

        return {name: values[value] & ((1 << width) - 1) for name, width, value in self._outputs}

    def _evaluate_binary(self, op: WordOp, values: List[int]) -> int:
        left = values[op.operands[0]]
        right = values[op.operands[1]]
        width = self.width_of(op.operands[0])
        if op.kind == "and":
            return left & right
        if op.kind == "or":
            return left | right
        if op.kind == "xor":
            return left ^ right
        if op.kind == "add":
            return left + right
        if op.kind == "sub":
            return left - right
        if op.kind == "mul":
            return left * right
        if op.kind == "div":
            return left // right if right else (1 << width) - 1
        if op.kind == "mod":
            return left % right if right else left
        if op.kind == "shl":
            return left << right
        if op.kind == "shr":
            return left >> right
        if op.kind == "eq":
            return int(left == right)
        if op.kind == "ne":
            return int(left != right)
        if op.kind == "lt":
            return int(left < right)
        if op.kind == "le":
            return int(left <= right)
        if op.kind == "gt":
            return int(left > right)
        if op.kind == "ge":
            return int(left >= right)
        raise ValueError(f"unknown binary kind {op.kind!r}")  # pragma: no cover

    def __repr__(self) -> str:
        return (
            f"WordNetlist(name={self.name!r}, inputs={len(self._inputs)}, "
            f"outputs={len(self._outputs)}, operations={len(self._ops)})"
        )
