"""Explicit truth tables for multi-output Boolean functions.

Two representations are used throughout the package:

* :class:`TruthTable` — a multi-output function ``f : B^n -> B^m`` stored as a
  numpy array of output *words* (``words[x]`` is the integer whose bit ``j``
  is output ``j`` evaluated on minterm ``x``).  This is the work-horse for
  embedding, equivalence checking and the functional synthesis flow.

* plain Python integers as *single-output* truth tables for small functions
  (bit ``i`` of the integer is the function value on minterm ``i``).  These
  are used for cut functions, ISOP computation and XMG resynthesis; the
  ``tt_*`` helpers below operate on them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.utils.bitops import bit_count, clog2

__all__ = [
    "TruthTable",
    "tt_const0",
    "tt_const1",
    "tt_var",
    "tt_not",
    "tt_and",
    "tt_or",
    "tt_xor",
    "tt_cofactor0",
    "tt_cofactor1",
    "tt_support",
    "tt_popcount",
]


# ---------------------------------------------------------------------------
# Single-output truth tables as plain integers
# ---------------------------------------------------------------------------

def tt_mask(num_vars: int) -> int:
    """All-ones mask for a ``num_vars``-variable truth table."""
    return (1 << (1 << num_vars)) - 1


def tt_const0(num_vars: int) -> int:
    """Constant-0 function."""
    return 0


def tt_const1(num_vars: int) -> int:
    """Constant-1 function."""
    return tt_mask(num_vars)


@lru_cache(maxsize=None)
def tt_var(index: int, num_vars: int) -> int:
    """Projection function of variable ``index`` (0 = least significant)."""
    if not 0 <= index < num_vars:
        raise ValueError(f"variable index {index} out of range for {num_vars} vars")
    block = 1 << index
    pattern = ((1 << block) - 1) << block  # 'block' zeros then 'block' ones
    period = block * 2
    result = 0
    for start in range(0, 1 << num_vars, period):
        result |= pattern << start
    return result


def tt_not(func: int, num_vars: int) -> int:
    """Complement of a truth table."""
    return func ^ tt_mask(num_vars)


def tt_and(a: int, b: int) -> int:
    """Conjunction of two truth tables over the same variable set."""
    return a & b


def tt_or(a: int, b: int) -> int:
    """Disjunction of two truth tables over the same variable set."""
    return a | b


def tt_xor(a: int, b: int) -> int:
    """Exclusive or of two truth tables over the same variable set."""
    return a ^ b


def tt_cofactor0(func: int, var: int, num_vars: int) -> int:
    """Negative cofactor ``f|_{x_var = 0}`` (result still over ``num_vars`` vars)."""
    high_mask = tt_var(var, num_vars)
    low = func & ~high_mask & tt_mask(num_vars)
    return low | (low << (1 << var))


def tt_cofactor1(func: int, var: int, num_vars: int) -> int:
    """Positive cofactor ``f|_{x_var = 1}`` (result still over ``num_vars`` vars)."""
    high_mask = tt_var(var, num_vars)
    high = func & high_mask
    return high | (high >> (1 << var))


def tt_support(func: int, num_vars: int) -> List[int]:
    """Indices of variables the function actually depends on."""
    support = []
    for var in range(num_vars):
        if tt_cofactor0(func, var, num_vars) != tt_cofactor1(func, var, num_vars):
            support.append(var)
    return support


def tt_popcount(func: int) -> int:
    """Number of minterms on which the function is 1."""
    return bit_count(func)


# ---------------------------------------------------------------------------
# Multi-output truth tables
# ---------------------------------------------------------------------------

class TruthTable:
    """A multi-output Boolean function ``f : B^n -> B^m`` stored explicitly.

    The representation is a single numpy array ``words`` of length ``2**n``
    where ``words[x]`` holds the ``m``-bit output word for input minterm
    ``x`` (bit ``j`` of the word is output ``j``).  Input minterms encode
    ``x_1`` of the paper as bit 0.

    The explicit representation is only used where the paper also needs one
    (optimum embedding, functional synthesis, exhaustive verification), so
    ``n`` stays below ~24 in practice.
    """

    __slots__ = ("num_inputs", "num_outputs", "words")

    def __init__(self, num_inputs: int, num_outputs: int, words: np.ndarray):
        if num_inputs < 0:
            raise ValueError("num_inputs must be non-negative")
        if not 0 <= num_outputs <= 63:
            raise ValueError("num_outputs must be between 0 and 63")
        words = np.asarray(words, dtype=np.uint64)
        if words.shape != (1 << num_inputs,):
            raise ValueError(
                f"expected {1 << num_inputs} output words, got shape {words.shape}"
            )
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        self.words = words

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_callable(
        cls, fn: Callable[[int], int], num_inputs: int, num_outputs: int
    ) -> "TruthTable":
        """Build a truth table by evaluating ``fn`` on every minterm.

        ``fn`` receives the input minterm as an integer and must return the
        output word as an integer.
        """
        words = np.zeros(1 << num_inputs, dtype=np.uint64)
        for x in range(1 << num_inputs):
            value = fn(x)
            if value < 0 or value >= (1 << num_outputs):
                raise ValueError(
                    f"output word {value} of minterm {x} does not fit in "
                    f"{num_outputs} outputs"
                )
            words[x] = value
        return cls(num_inputs, num_outputs, words)

    @classmethod
    def from_columns(cls, columns: Sequence[int], num_inputs: int) -> "TruthTable":
        """Build a truth table from single-output integer truth tables.

        ``columns[j]`` is the integer truth table (bit ``x`` = value on
        minterm ``x``) of output ``j``.
        """
        num_outputs = len(columns)
        words = np.zeros(1 << num_inputs, dtype=np.uint64)
        for j, column in enumerate(columns):
            if column < 0 or column >> (1 << num_inputs):
                raise ValueError(f"column {j} does not fit {num_inputs} inputs")
            for x in range(1 << num_inputs):
                if (column >> x) & 1:
                    words[x] |= np.uint64(1 << j)
        return cls(num_inputs, num_outputs, words)

    @classmethod
    def from_output_vectors(cls, vectors: Sequence[np.ndarray]) -> "TruthTable":
        """Build a truth table from boolean numpy arrays (one per output)."""
        if not vectors:
            raise ValueError("at least one output vector is required")
        length = len(vectors[0])
        if length == 0 or length & (length - 1):
            raise ValueError("output vectors must have power-of-two length")
        num_inputs = clog2(length) if length > 1 else 0
        words = np.zeros(length, dtype=np.uint64)
        for j, vec in enumerate(vectors):
            vec = np.asarray(vec, dtype=bool)
            if vec.shape != (length,):
                raise ValueError("all output vectors must have the same length")
            words |= vec.astype(np.uint64) << np.uint64(j)
        return cls(num_inputs, len(vectors), words)

    # -- queries ------------------------------------------------------------

    def evaluate(self, minterm: int) -> int:
        """Output word for one input minterm."""
        if not 0 <= minterm < (1 << self.num_inputs):
            raise ValueError(f"minterm {minterm} out of range")
        return int(self.words[minterm])

    def output_bit(self, minterm: int, output: int) -> int:
        """Single output bit for one input minterm."""
        return (self.evaluate(minterm) >> output) & 1

    def column(self, output: int) -> int:
        """Output ``output`` as a single-output integer truth table."""
        if not 0 <= output < self.num_outputs:
            raise ValueError(f"output index {output} out of range")
        bits = (self.words >> np.uint64(output)) & np.uint64(1)
        result = 0
        for x in np.nonzero(bits)[0]:
            result |= 1 << int(x)
        return result

    def columns(self) -> List[int]:
        """All outputs as single-output integer truth tables."""
        return [self.column(j) for j in range(self.num_outputs)]

    def column_array(self, output: int) -> np.ndarray:
        """Output ``output`` as a boolean numpy vector over all minterms."""
        if not 0 <= output < self.num_outputs:
            raise ValueError(f"output index {output} out of range")
        return ((self.words >> np.uint64(output)) & np.uint64(1)).astype(bool)

    def collision_histogram(self) -> Dict[int, int]:
        """Map output word -> number of input minterms producing it.

        This is the quantity behind Eq. (3) of the paper: the minimum number
        of additional lines of an embedding is ``ceil(log2(max count))``.
        """
        values, counts = np.unique(self.words, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    def max_collisions(self) -> int:
        """Largest number of minterms mapped to the same output word."""
        if self.words.size == 0:
            return 0
        _, counts = np.unique(self.words, return_counts=True)
        return int(counts.max())

    def is_reversible(self) -> bool:
        """True iff the function is a bijection on ``B^n`` (requires n == m)."""
        if self.num_inputs != self.num_outputs:
            return False
        return len(np.unique(self.words)) == self.words.size

    def permutation(self) -> np.ndarray:
        """Return the function as a permutation array (requires reversibility)."""
        if not self.is_reversible():
            raise ValueError("truth table is not a reversible function")
        return self.words.astype(np.int64)

    # -- transformations ----------------------------------------------------

    def select_outputs(self, outputs: Sequence[int]) -> "TruthTable":
        """Project onto a subset / reordering of outputs."""
        words = np.zeros_like(self.words)
        for new_index, old_index in enumerate(outputs):
            if not 0 <= old_index < self.num_outputs:
                raise ValueError(f"output index {old_index} out of range")
            bit = (self.words >> np.uint64(old_index)) & np.uint64(1)
            words |= bit << np.uint64(new_index)
        return TruthTable(self.num_inputs, len(outputs), words)

    def compose_outputs(self, fn: Callable[[int], int], num_outputs: int) -> "TruthTable":
        """Apply an output-word transformation ``fn`` to every minterm."""
        words = np.array([fn(int(w)) for w in self.words], dtype=np.uint64)
        return TruthTable(self.num_inputs, num_outputs, words)

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruthTable):
            return NotImplemented
        return (
            self.num_inputs == other.num_inputs
            and self.num_outputs == other.num_outputs
            and bool(np.array_equal(self.words, other.words))
        )

    def __hash__(self) -> int:  # pragma: no cover - TruthTable used as value type
        return hash((self.num_inputs, self.num_outputs, self.words.tobytes()))

    def __repr__(self) -> str:
        return (
            f"TruthTable(num_inputs={self.num_inputs}, "
            f"num_outputs={self.num_outputs})"
        )
