"""Bit-parallel word-batch simulation of AIGs, XMGs and reversible circuits.

All simulators in this module share one data layout: a batch of ``P`` input
patterns is stored as a ``uint64`` numpy matrix with one *row per signal*
and one *column per 64 patterns* — bit ``t`` of word ``w`` in a row is the
signal's value in test vector ``64*w + t``.  One sweep over a structure
therefore evaluates 64 test vectors per machine word, which is what makes
exhaustive checking of the paper's bit-widths and heavy differential
fuzzing affordable in pure Python.

Two batch constructors cover the two verification regimes of the paper's
``cec`` step:

* :func:`exhaustive_batch` packs all ``2**n`` minterms (complete checking),
* :func:`random_batch` draws seeded random patterns (falsification for
  input counts where exhaustion is impossible).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.logic.aig import Aig
from repro.logic.xmg import Xmg
from repro.reversible.circuit import ReversibleCircuit
from repro.logic.truth_table import TruthTable

__all__ = [
    "PatternBatch",
    "exhaustive_batch",
    "outputs_from_states",
    "pack_bits",
    "random_batch",
    "simulate_aig",
    "simulate_reversible",
    "simulate_reversible_states",
    "simulate_truth_table",
    "simulate_xmg",
    "unpack_bits",
]

_WORD_BITS = 64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Pattern of input variable ``i`` (``i < 6``) within one 64-bit word when
#: minterms are enumerated in order: variable 0 alternates every pattern,
#: variable 5 every 32 patterns.
_VAR_WORDS = (
    np.uint64(0xAAAAAAAAAAAAAAAA),
    np.uint64(0xCCCCCCCCCCCCCCCC),
    np.uint64(0xF0F0F0F0F0F0F0F0),
    np.uint64(0xFF00FF00FF00FF00),
    np.uint64(0xFFFF0000FFFF0000),
    np.uint64(0xFFFFFFFF00000000),
)


def _num_words(num_patterns: int) -> int:
    return (num_patterns + _WORD_BITS - 1) // _WORD_BITS


def _tail_mask_words(num_patterns: int) -> np.ndarray:
    """Per-word mask selecting only the valid bits of a pattern batch."""
    mask = np.full(_num_words(num_patterns), _ALL_ONES, dtype=np.uint64)
    tail = num_patterns % _WORD_BITS
    if tail:
        mask[-1] = np.uint64((1 << tail) - 1)
    return mask


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean matrix ``(rows, P)`` into ``uint64`` words ``(rows, W)``.

    Bit ``t`` of word ``w`` in a row is ``bits[row, 64*w + t]``; the unused
    tail bits of the last word are zero.
    """
    bits = np.asarray(bits, dtype=bool)
    if bits.ndim == 1:
        bits = bits[np.newaxis, :]
    num_patterns = bits.shape[-1]
    words = _num_words(num_patterns)
    padded = np.zeros(bits.shape[:-1] + (words * _WORD_BITS,), dtype=np.uint64)
    padded[..., :num_patterns] = bits
    grouped = padded.reshape(bits.shape[:-1] + (words, _WORD_BITS))
    shifts = np.arange(_WORD_BITS, dtype=np.uint64)
    return np.bitwise_or.reduce(grouped << shifts, axis=-1)


def unpack_bits(words: np.ndarray, num_patterns: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: ``(rows, W)`` words to ``(rows, P)`` bools."""
    words = np.asarray(words, dtype=np.uint64)
    if words.ndim == 1:
        words = words[np.newaxis, :]
    shifts = np.arange(_WORD_BITS, dtype=np.uint64)
    bits = (words[..., :, np.newaxis] >> shifts) & np.uint64(1)
    flat = bits.reshape(words.shape[:-1] + (words.shape[-1] * _WORD_BITS,))
    return flat[..., :num_patterns].astype(bool)


class PatternBatch:
    """A batch of input patterns in bit-parallel layout.

    ``inputs`` has shape ``(num_inputs, num_words)``; row ``i`` is the
    packed simulation pattern of primary input ``i``.  ``exhaustive``
    records whether the batch enumerates *all* minterms (in natural order),
    which is what lets a differential check report completeness.
    """

    __slots__ = ("num_inputs", "num_patterns", "inputs", "exhaustive")

    def __init__(
        self, num_inputs: int, num_patterns: int, inputs: np.ndarray, exhaustive: bool
    ):
        inputs = np.asarray(inputs, dtype=np.uint64)
        if inputs.shape != (num_inputs, _num_words(num_patterns)):
            raise ValueError(
                f"expected input matrix of shape "
                f"({num_inputs}, {_num_words(num_patterns)}), got {inputs.shape}"
            )
        self.num_inputs = num_inputs
        self.num_patterns = num_patterns
        self.inputs = inputs
        self.exhaustive = exhaustive

    @property
    def num_words(self) -> int:
        """Number of 64-bit simulation words per signal."""
        return _num_words(self.num_patterns)

    def tail_mask(self) -> np.ndarray:
        """Per-word mask selecting only the valid pattern bits."""
        return _tail_mask_words(self.num_patterns)

    def minterm(self, pattern_index: int) -> int:
        """The input minterm of one pattern position (as a Python integer)."""
        if not 0 <= pattern_index < self.num_patterns:
            raise ValueError(f"pattern index {pattern_index} out of range")
        word, bit = divmod(pattern_index, _WORD_BITS)
        value = 0
        for i in range(self.num_inputs):
            if (int(self.inputs[i, word]) >> bit) & 1:
                value |= 1 << i
        return value

    def minterms(self) -> List[int]:
        """All input minterms of the batch, in pattern order."""
        return [self.minterm(t) for t in range(self.num_patterns)]


def exhaustive_batch(num_inputs: int) -> PatternBatch:
    """All ``2**num_inputs`` minterms in natural order, 64 per word.

    Variable ``i < 6`` has a periodic in-word pattern; variable ``i >= 6``
    is constant within each word (bit ``i - 6`` of the word index), so the
    packing is built without touching individual patterns.
    """
    if num_inputs < 0:
        raise ValueError("num_inputs must be non-negative")
    if num_inputs > 30:
        raise ValueError(
            f"exhaustive batch over {num_inputs} inputs is not tractable"
        )
    num_patterns = 1 << num_inputs
    words = _num_words(num_patterns)
    inputs = np.zeros((num_inputs, words), dtype=np.uint64)
    word_index = np.arange(words, dtype=np.uint64)
    tail = num_patterns % _WORD_BITS
    in_word_mask = np.uint64((1 << tail) - 1) if tail else _ALL_ONES
    for i in range(num_inputs):
        if i < 6:
            inputs[i, :] = _VAR_WORDS[i] & in_word_mask
        else:
            high = (word_index >> np.uint64(i - 6)) & np.uint64(1)
            inputs[i, :] = np.where(high.astype(bool), _ALL_ONES, np.uint64(0))
    return PatternBatch(num_inputs, num_patterns, inputs, exhaustive=True)


def random_batch(num_inputs: int, num_patterns: int, seed: int = 1) -> PatternBatch:
    """A seeded batch of uniformly random input patterns."""
    if num_patterns <= 0:
        raise ValueError("num_patterns must be positive")
    rng = np.random.default_rng(seed)
    words = _num_words(num_patterns)
    inputs = rng.integers(
        0, 1 << 64, size=(max(num_inputs, 1), words), dtype=np.uint64
    )[:num_inputs]
    inputs = inputs & np.broadcast_to(
        _tail_mask_words(num_patterns), (num_inputs, words)
    )
    return PatternBatch(num_inputs, num_patterns, inputs, exhaustive=False)


# ---------------------------------------------------------------------------
# Structure simulators
# ---------------------------------------------------------------------------

#: Word-column chunk of the network simulators.  The per-node value matrix
#: of a chunk is ``num_nodes * _CHUNK_WORDS * 8`` bytes (~32 MB per 1000
#: nodes), so even exhaustive batches over wide designs stay memory-bounded
#: instead of allocating a ``(num_nodes, 2**n / 64)`` matrix at once.
_CHUNK_WORDS = 4096


def simulate_aig(aig: Aig, batch: PatternBatch) -> np.ndarray:
    """Evaluate every AIG output on a batch; returns ``(num_pos, W)`` words."""
    if batch.num_inputs != aig.num_pis():
        raise ValueError(
            f"batch has {batch.num_inputs} inputs, AIG has {aig.num_pis()} PIs"
        )
    num_nodes = len(aig._fanin0)
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    pos = aig.pos()
    outputs = np.empty((len(pos), batch.num_words), dtype=np.uint64)

    for start in range(0, batch.num_words, _CHUNK_WORDS):
        stop = min(start + _CHUNK_WORDS, batch.num_words)
        values = np.zeros((num_nodes, stop - start), dtype=np.uint64)
        for i, node in enumerate(aig._pis):
            values[node] = batch.inputs[i, start:stop]

        def lit_value(lit: int) -> np.ndarray:
            value = values[lit >> 1]
            if lit & 1:
                return value ^ _ALL_ONES
            return value

        for node in range(num_nodes):
            f0 = fanin0[node]
            if f0 != -1:
                values[node] = lit_value(f0) & lit_value(fanin1[node])
        for j, po in enumerate(pos):
            outputs[j, start:stop] = lit_value(po)
    return outputs & batch.tail_mask()


def simulate_xmg(xmg: Xmg, batch: PatternBatch) -> np.ndarray:
    """Evaluate every XMG output on a batch; returns ``(num_pos, W)`` words."""
    if batch.num_inputs != xmg.num_pis():
        raise ValueError(
            f"batch has {batch.num_inputs} inputs, XMG has {xmg.num_pis()} PIs"
        )
    num_nodes = len(xmg._kind)
    pos = xmg.pos()
    outputs = np.empty((len(pos), batch.num_words), dtype=np.uint64)

    for start in range(0, batch.num_words, _CHUNK_WORDS):
        stop = min(start + _CHUNK_WORDS, batch.num_words)
        values = np.zeros((num_nodes, stop - start), dtype=np.uint64)
        for i, node in enumerate(xmg._pis):
            values[node] = batch.inputs[i, start:stop]

        def lit_value(lit: int) -> np.ndarray:
            value = values[lit >> 1]
            if lit & 1:
                return value ^ _ALL_ONES
            return value

        for node in range(num_nodes):
            if xmg.is_maj(node):
                a, b, c = (lit_value(f) for f in xmg.fanins(node))
                values[node] = (a & b) | (a & c) | (b & c)
            elif xmg.is_xor(node):
                a, b = (lit_value(f) for f in xmg.fanins(node))
                values[node] = a ^ b
        for j, po in enumerate(pos):
            outputs[j, start:stop] = lit_value(po)
    return outputs & batch.tail_mask()


def simulate_reversible_states(
    circuit: ReversibleCircuit, batch: PatternBatch
) -> np.ndarray:
    """Final line states of a reversible circuit on a batch.

    Returns ``(num_lines, W)`` words: row ``l`` is the packed final value of
    line ``l`` across the batch.  Input lines start from the batch patterns,
    constant lines from their declared value, unbound lines from 0.  While
    the cascade runs, each line is one Python int of ``num_patterns`` bits:
    a gate ANDs its control rows (``~row`` for a negative control) into a
    trigger and XORs the trigger into its target row.
    """
    if batch.num_inputs != circuit.num_inputs():
        raise ValueError(
            f"batch has {batch.num_inputs} inputs, circuit has "
            f"{circuit.num_inputs()} input lines"
        )
    full = (1 << batch.num_patterns) - 1
    state = [0] * circuit.num_lines()
    for line, info in enumerate(circuit.lines()):
        if info.input_index is not None:
            row = batch.inputs[info.input_index].astype("<u8").tobytes()
            state[line] = int.from_bytes(row, "little") & full
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
    row_bytes = 8 * batch.num_words
    packed = b"".join(value.to_bytes(row_bytes, "little") for value in state)
    words = np.frombuffer(packed, dtype="<u8").astype(np.uint64)
    return words.reshape(len(state), batch.num_words)


def outputs_from_states(
    circuit: ReversibleCircuit, states: np.ndarray
) -> np.ndarray:
    """Select the primary-output rows from a final-state matrix.

    Rows are ordered by primary-output index (matching
    :meth:`ReversibleCircuit.evaluate` bit order).
    """
    output_lines = circuit.output_lines()
    if not output_lines:
        # np.array([]) would be shape (0,), not (0, W); downstream masking
        # and first-difference scans need the word axis even when empty.
        return np.zeros((0, states.shape[1]), dtype=np.uint64)
    return np.array(
        [states[output_lines[j]] for j in sorted(output_lines)], dtype=np.uint64
    )


def simulate_reversible(
    circuit: ReversibleCircuit, batch: PatternBatch
) -> np.ndarray:
    """Primary-output patterns of a reversible circuit on a batch.

    Returns ``(num_outputs, W)`` words ordered by primary-output index
    (matching :meth:`ReversibleCircuit.evaluate` bit order).
    """
    return outputs_from_states(circuit, simulate_reversible_states(circuit, batch))


def simulate_truth_table(table: TruthTable, batch: PatternBatch) -> np.ndarray:
    """Evaluate an explicit truth table on a batch; ``(num_outputs, W)`` words."""
    if batch.num_inputs != table.num_inputs:
        raise ValueError(
            f"batch has {batch.num_inputs} inputs, table has "
            f"{table.num_inputs}"
        )
    if batch.exhaustive:
        selected = table.words
    else:
        bits = unpack_bits(batch.inputs, batch.num_patterns)
        minterms = np.zeros(batch.num_patterns, dtype=np.int64)
        for i in range(batch.num_inputs):
            minterms |= bits[i].astype(np.int64) << i
        selected = table.words[minterms]
    columns = (
        (selected[np.newaxis, :] >> np.arange(table.num_outputs, dtype=np.uint64)[:, np.newaxis])
        & np.uint64(1)
    ).astype(bool)
    return pack_bits(columns)


def first_difference(
    a: np.ndarray, b: np.ndarray, batch: PatternBatch
) -> Optional[int]:
    """Index of the first pattern on which two output matrices disagree.

    ``a`` and ``b`` are ``(num_outputs, W)`` matrices as produced by the
    simulators above (already masked to the batch's valid patterns).
    Returns ``None`` when they agree everywhere.
    """
    diff = np.bitwise_or.reduce(a ^ b, axis=0) if a.size else np.zeros(0)
    nonzero = np.nonzero(diff)[0]
    if nonzero.size == 0:
        return None
    word = int(nonzero[0])
    bits = int(diff[word])
    bit = (bits & -bits).bit_length() - 1
    return word * _WORD_BITS + bit


def output_word_at(outputs: np.ndarray, pattern_index: int) -> int:
    """Extract one pattern's output word from an ``(num_outputs, W)`` matrix."""
    word, bit = divmod(pattern_index, _WORD_BITS)
    value = 0
    for j in range(outputs.shape[0]):
        if (int(outputs[j, word]) >> bit) & 1:
            value |= 1 << j
    return value
