"""Pattern batches, and bit-parallel simulation of truth tables and cascades.

A batch of ``P`` input patterns holds one Python int per primary input:
bit ``t`` of input ``i``'s int is the value of input ``i`` in test vector
``t``.  Every simulator maps a batch to one ``P``-bit int per output, so
one sweep over a structure evaluates all ``P`` test vectors at once.  The
logic networks simulate a batch with their own reference-counted walk
(:meth:`repro.logic.aig.Aig.simulate_words`,
:meth:`repro.logic.xmg.Xmg.simulate_words`); this module builds the
batches and simulates truth tables and reversible circuits.

Two batch constructors cover the two verification regimes of the paper's
``cec`` step:

* :func:`exhaustive_chunks` enumerates all ``2**n`` minterms in ascending
  order, at most ``2**CHUNK_INPUTS`` per batch (complete checking with a
  memory bound),
* :func:`random_batch` draws seeded random patterns (falsification for
  input counts where exhaustion is impossible).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.logic.truth_table import TruthTable, tt_var
from repro.reversible.circuit import ReversibleCircuit

__all__ = [
    "CHUNK_INPUTS",
    "PatternBatch",
    "exhaustive_chunks",
    "first_difference",
    "outputs_from_states",
    "output_word_at",
    "random_batch",
    "simulate_reversible",
    "simulate_reversible_states",
    "simulate_truth_table",
]

#: Inputs enumerated within one exhaustive chunk: a chunk holds ``2**16``
#: patterns, 8 KB per signal, and the inputs above vary between chunks.
CHUNK_INPUTS = 16

#: Widest input space an exhaustive enumeration accepts.
_MAX_EXHAUSTIVE_INPUTS = 30


class PatternBatch:
    """A batch of input patterns, one int per input.

    Bit ``t`` of ``inputs[i]`` is input ``i`` in pattern ``t``; ``mask``
    is ``(1 << num_patterns) - 1`` and the inputs are masked to it.
    ``first_minterm`` is set on a chunk of the exhaustive enumeration,
    whose pattern ``t`` is minterm ``first_minterm + t``, and is ``None``
    on any other batch.
    """

    __slots__ = ("num_inputs", "num_patterns", "mask", "inputs", "first_minterm")

    def __init__(
        self,
        num_inputs: int,
        num_patterns: int,
        inputs: Sequence[int],
        first_minterm: Optional[int] = None,
    ):
        if num_patterns <= 0:
            raise ValueError("num_patterns must be positive")
        if len(inputs) != num_inputs:
            raise ValueError(
                f"expected {num_inputs} input patterns, got {len(inputs)}"
            )
        self.num_inputs = num_inputs
        self.num_patterns = num_patterns
        self.mask = (1 << num_patterns) - 1
        self.inputs: List[int] = [int(pattern) & self.mask for pattern in inputs]
        self.first_minterm = first_minterm

    def minterm(self, pattern_index: int) -> int:
        """The input minterm of one pattern position (bit ``i`` = input ``i``)."""
        if not 0 <= pattern_index < self.num_patterns:
            raise ValueError(f"pattern index {pattern_index} out of range")
        value = 0
        for i, pattern in enumerate(self.inputs):
            value |= ((pattern >> pattern_index) & 1) << i
        return value

    def minterms(self) -> List[int]:
        """All input minterms of the batch, in pattern order."""
        return [self.minterm(t) for t in range(self.num_patterns)]


def exhaustive_chunks(num_inputs: int) -> Iterator[PatternBatch]:
    """All ``2**num_inputs`` minterms in ascending order, chunk by chunk.

    Each chunk enumerates the lowest :data:`CHUNK_INPUTS` inputs in full
    and holds the inputs above constant, so chunk ``c`` covers minterms
    ``c * 2**16`` to ``(c + 1) * 2**16 - 1``; input ``i < 16``'s pattern
    is the truth table of variable ``i``.  Up to 16 inputs there is one
    chunk.
    """
    if num_inputs < 0:
        raise ValueError("num_inputs must be non-negative")
    if num_inputs > _MAX_EXHAUSTIVE_INPUTS:
        raise ValueError(
            f"exhaustive enumeration of {num_inputs} inputs is not tractable"
        )
    low = min(num_inputs, CHUNK_INPUTS)
    size = 1 << low
    ones = (1 << size) - 1
    patterns = [tt_var(i, low) for i in range(low)]
    for chunk in range(1 << (num_inputs - low)):
        high = [ones if (chunk >> j) & 1 else 0 for j in range(num_inputs - low)]
        yield PatternBatch(num_inputs, size, patterns + high, chunk * size)


def random_batch(num_inputs: int, num_patterns: int, seed: int = 1) -> PatternBatch:
    """A seeded batch of uniformly random input patterns.

    The draw is a ``(num_inputs, ceil(num_patterns / 64))`` matrix of
    ``uint64`` words; row ``i`` read as a little-endian int is input
    ``i``'s pattern.
    """
    if num_patterns <= 0:
        raise ValueError("num_patterns must be positive")
    rng = np.random.default_rng(seed)
    words = (num_patterns + 63) // 64
    matrix = rng.integers(
        0, 1 << 64, size=(max(num_inputs, 1), words), dtype=np.uint64
    )[:num_inputs]
    inputs = [
        int.from_bytes(row.astype("<u8").tobytes(), "little") for row in matrix
    ]
    return PatternBatch(num_inputs, num_patterns, inputs)


# ---------------------------------------------------------------------------
# Simulators
# ---------------------------------------------------------------------------


def simulate_reversible_states(
    circuit: ReversibleCircuit, batch: PatternBatch
) -> List[int]:
    """Final line states of a reversible circuit on a batch.

    Returns one int per line: bit ``t`` is the line's final value in
    pattern ``t``.  Input lines start from the batch patterns, constant
    lines from their declared value, unbound lines from 0.  A gate ANDs
    its control lines (``~line`` for a negative control) into a trigger
    and XORs the trigger into its target line.
    """
    if batch.num_inputs != circuit.num_inputs():
        raise ValueError(
            f"batch has {batch.num_inputs} inputs, circuit has "
            f"{circuit.num_inputs()} input lines"
        )
    full = batch.mask
    state = [0] * circuit.num_lines()
    for line, info in enumerate(circuit.lines()):
        if info.input_index is not None:
            state[line] = batch.inputs[info.input_index]
        elif info.constant:
            state[line] = full
    targets, cares, polarities = circuit.gate_store().columns()
    for target, care, polarity in zip(targets, cares, polarities):
        trigger = full
        positive = care & polarity
        while positive:
            low = positive & -positive
            trigger &= state[low.bit_length() - 1]
            positive ^= low
        negative = care & ~polarity
        while negative:
            low = negative & -negative
            trigger &= ~state[low.bit_length() - 1]
            negative ^= low
        state[target] ^= trigger
    return state


def outputs_from_states(circuit: ReversibleCircuit, states: List[int]) -> List[int]:
    """Select the primary-output lines from the final line states.

    Ordered by primary-output index (matching
    :meth:`ReversibleCircuit.evaluate` bit order).
    """
    output_lines = circuit.output_lines()
    return [states[output_lines[j]] for j in sorted(output_lines)]


def simulate_reversible(circuit: ReversibleCircuit, batch: PatternBatch) -> List[int]:
    """Primary-output patterns of a reversible circuit on a batch."""
    return outputs_from_states(circuit, simulate_reversible_states(circuit, batch))


def simulate_truth_table(table: TruthTable, batch: PatternBatch) -> List[int]:
    """Evaluate an explicit truth table on a batch; one int per output.

    An exhaustive chunk reads its slice of the table's rows; any other
    batch gathers the rows of its patterns' minterms.
    """
    if batch.num_inputs != table.num_inputs:
        raise ValueError(
            f"batch has {batch.num_inputs} inputs, table has "
            f"{table.num_inputs}"
        )
    first = batch.first_minterm
    if first is not None:
        selected = table.words[first : first + batch.num_patterns]
    else:
        num_bytes = (batch.num_patterns + 7) // 8
        minterms = np.zeros(batch.num_patterns, dtype=np.int64)
        for i, pattern in enumerate(batch.inputs):
            raw = np.frombuffer(
                pattern.to_bytes(num_bytes, "little"), dtype=np.uint8
            )
            bits = np.unpackbits(raw, bitorder="little")[: batch.num_patterns]
            minterms |= bits.astype(np.int64) << i
        selected = table.words[minterms]
    columns = []
    for j in range(table.num_outputs):
        bits = ((selected >> np.uint64(j)) & np.uint64(1)).astype(np.uint8)
        packed = np.packbits(bits, bitorder="little").tobytes()
        columns.append(int.from_bytes(packed, "little"))
    return columns


def first_difference(a: Sequence[int], b: Sequence[int]) -> Optional[int]:
    """Index of the first pattern on which two output lists disagree.

    The lowest set bit of the OR of the output XORs; ``None`` when they
    agree everywhere.
    """
    diff = 0
    for value_a, value_b in zip(a, b):
        diff |= value_a ^ value_b
    if not diff:
        return None
    return (diff & -diff).bit_length() - 1


def output_word_at(outputs: Sequence[int], pattern_index: int) -> int:
    """One pattern's output word (bit ``j`` = output ``j``)."""
    value = 0
    for j, pattern in enumerate(outputs):
        value |= ((pattern >> pattern_index) & 1) << j
    return value
