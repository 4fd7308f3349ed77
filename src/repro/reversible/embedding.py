"""Embedding irreversible functions into reversible ones (Section II-B).

Two embeddings are provided:

* :func:`bennett_embedding` — Theorem 1 of the paper: keep the inputs and
  XOR every output onto its own zero-initialised line (``m + n`` lines),
* :func:`optimum_embedding` — the minimum-line embedding: the number of
  additional lines equals ``ceil(log2(max collision set size))`` (Eq. (3)),
  computed from the explicit function.  Computing this number is
  coNP-complete in general [17]; as in the paper it is only applied to
  functions that have already been collapsed to an explicit representation.

Both return an :class:`EmbeddedFunction`: the images of the ``2^n`` input
rows (the states whose constant lines hold 0) together with the line roles
needed to build and verify circuits.  The other ``2^L - 2^n`` states are
don't-cares that no circuit of the flow is ever applied to, so they are
neither completed nor stored: the embedding is as large as the truth table
it embeds, whatever the line count ``L``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.logic.truth_table import TruthTable
from repro.reversible.tbs import MAX_STATE_LINES, _check_care_table
from repro.utils.bitops import clog2

__all__ = [
    "EmbeddedFunction",
    "minimum_additional_lines",
    "bennett_embedding",
    "optimum_embedding",
]


@dataclass
class EmbeddedFunction:
    """A reversible embedding of an irreversible function.

    Inputs sit on lines ``0..n-1`` and the constant lines above them are
    initialised to 0, so the input word ``x`` is the line state ``x``.
    ``care_images[x]`` is the image of that state (an integer over
    ``num_lines`` bits, line 0 being bit 0); the images are distinct.
    ``output_lines[j]`` is the line carrying output bit ``j`` after the
    transformation and ``constant_lines`` maps ancilla lines to their
    required initial value.  The remaining output values are garbage.
    """

    num_lines: int
    care_images: np.ndarray
    input_lines: List[int]
    output_lines: List[int]
    constant_lines: Dict[int, int]
    source: TruthTable
    kind: str

    def num_inputs(self) -> int:
        """Number of primary-input bits."""
        return len(self.input_lines)

    def num_outputs(self) -> int:
        """Number of primary-output bits."""
        return len(self.output_lines)

    def additional_lines(self) -> int:
        """Number of lines beyond the input count."""
        return self.num_lines - len(self.input_lines)

    def is_valid(self) -> bool:
        """Check that the care images are distinct, fit the lines and embed f."""
        if len(self.care_images) != 1 << self.num_inputs():
            return False
        try:
            _check_care_table(self.care_images, self.num_lines)
        except ValueError:
            return False
        return self.check_embeds()

    def check_embeds(self) -> bool:
        """Check Eq. (1): with constants applied, the outputs realise f."""
        values = np.zeros_like(self.care_images)
        for j, line in enumerate(self.output_lines):
            values |= ((self.care_images >> line) & 1) << j
        return np.array_equal(values, self.source.words.astype(np.int64))


def minimum_additional_lines(table: TruthTable) -> int:
    """Eq. (3): ``ceil(log2(max |collision set|))`` additional lines."""
    collisions = table.max_collisions()
    if collisions <= 1:
        return 0
    return clog2(collisions)


def _check_embedding_lines(num_lines: int, kind: str) -> None:
    if num_lines > MAX_STATE_LINES:
        raise ValueError(
            f"{kind} embedding needs {num_lines} lines; its care images are "
            f"64-bit integers, so at most {MAX_STATE_LINES} lines"
        )


def bennett_embedding(table: TruthTable) -> EmbeddedFunction:
    """Theorem 1: inputs preserved, outputs XORed onto fresh zero lines.

    The input ``x`` maps to ``x | f(x) << n``.
    """
    n = table.num_inputs
    m = table.num_outputs
    num_lines = n + m
    _check_embedding_lines(num_lines, "bennett")
    inputs = np.arange(1 << n, dtype=np.int64)
    return EmbeddedFunction(
        num_lines=num_lines,
        care_images=inputs | (table.words.astype(np.int64) << n),
        input_lines=list(range(n)),
        output_lines=list(range(n, n + m)),
        constant_lines={line: 0 for line in range(n, n + m)},
        source=table,
        kind="bennett",
    )


def optimum_embedding(table: TruthTable, extra_lines: Optional[int] = None) -> EmbeddedFunction:
    """Minimum-line embedding computed from the explicit function.

    The embedding uses ``r = max(n, m + l)`` lines where ``l`` is the bound
    of Eq. (3).  The reversible function maps the state ``(x, 0)`` to a state
    whose top ``m`` lines carry ``f(x)`` and whose remaining lines carry the
    collision index of ``x`` within its output class (the garbage).  States
    with non-zero ancilla inputs are don't-cares and are not stored.

    ``extra_lines`` may force a larger number of additional lines (useful
    for experiments); it must be at least the minimum.
    """
    n = table.num_inputs
    m = table.num_outputs
    minimum = minimum_additional_lines(table)
    if extra_lines is None:
        extra_lines = minimum
    if extra_lines < minimum:
        raise ValueError(
            f"extra_lines={extra_lines} is below the minimum {minimum} required"
        )
    num_lines = max(n, m + extra_lines)
    _check_embedding_lines(num_lines, "optimum")
    garbage_width = num_lines - m

    # State (x padded with zero constants) maps to (garbage index, f(x)) with
    # f on the top m lines.  Among the free garbage indices of an output
    # class we prefer the one matching the input's low bits: this keeps the
    # embedded function close to the identity, which directly reduces the
    # work (and therefore the T-count) of the downstream
    # transformation-based synthesis.
    care_images = np.empty(1 << n, dtype=np.int64)
    garbage_used: Dict[int, set] = {}
    garbage_mask = (1 << garbage_width) - 1
    for x in range(1 << n):
        value = int(table.words[x])
        taken = garbage_used.setdefault(value, set())
        preferred = x & garbage_mask
        if preferred not in taken:
            index = preferred
        else:
            index = next(i for i in range(1 << garbage_width) if i not in taken)
        taken.add(index)
        if len(taken) > (1 << garbage_width):
            raise AssertionError(
                "collision index exceeds garbage capacity; embedding bound violated"
            )
        care_images[x] = (value << garbage_width) | index

    return EmbeddedFunction(
        num_lines=num_lines,
        care_images=care_images,
        input_lines=list(range(n)),
        output_lines=list(range(garbage_width, num_lines)),
        constant_lines={line: 0 for line in range(n, num_lines)},
        source=table,
        kind="optimum",
    )
