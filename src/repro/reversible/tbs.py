"""Transformation-based synthesis (Miller–Maslov–Dueck) of reversible functions.

The functional synthesis flow of the paper uses the symbolic variant [7] of
the classical transformation-based algorithm [5]: Toffoli gates are chosen
that transform the function into the identity; the collected gates, suitably
reordered, realise the function.  The algorithm never adds lines, so
combined with an optimum embedding it yields line-optimal circuits — at the
price of very large multiple-controlled Toffoli gates (and therefore a large
T-count), exactly the trade-off reported in Table II.

The kernel (:func:`synthesize_permutation_masks`) works on a care table: the
images of the ``2^k`` rows that the circuit is ever applied to (for an
embedding, the inputs with the constant lines at 0), not the whole
``2^L``-state permutation, which is the special case ``k = L``.  Rows are
fixed in ascending order and no gate fires on a finished row, so the kernel
stops after row ``2^k - 1``.  It keeps two tables of ``2^k`` entries over
one index space, the image set of the input table ``P0``: the output-gate
cascade ``Z = Gout`` and ``Y = (P0 o Gin)^-1``, so the current function is
``Z o Y^-1``.  Each table is bit-sliced (one packed big-int bit column per
line), so applying a Toffoli gate is a handful of word-parallel bitwise
operations — ``column[target] ^= AND(control columns)`` — and the
bidirectional image/preimage lookups are an equality query on one table and
a read of the other at the matched index.  An index whose row is finished
never changes again; finished indices are checked and compacted away, so
the columns shrink as the rows are fixed.  Candidate gates are costed on
integer control masks alone; :func:`synthesize_permutation_gates`
materialises the winning cascade as :class:`ToffoliGate` objects.  A
cascade that misses the identity raises :class:`RuntimeError`, also under
``python -O``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.quantum.tcount import mct_t_count
from repro.reversible.circuit import ReversibleCircuit
from repro.reversible.gates import ToffoliGate
from repro.utils.bitops import bit_count

__all__ = [
    "MAX_TBS_LINES",
    "transformation_based_synthesis",
    "synthesize_permutation_masks",
    "synthesize_permutation_gates",
]

#: Hard cap on the number ``k`` of care inputs accepted by the explicit
#: (truth-table) synthesis entry points.  The kernel holds a ``2^k``-row
#: table, so beyond this the allocation alone is gigabytes; callers get a
#: clear :class:`ValueError` up front instead of an opaque ``MemoryError``
#: (or a machine grinding into swap).  The line count is not capped by it:
#: a care table of ``2^k`` rows over ``L > k`` lines costs the same.
MAX_TBS_LINES = 24

#: Line states and care images are 64-bit integers; the embeddings share
#: this cap.
MAX_STATE_LINES = 63

#: Finished indices are compacted away only from columns at least this many
#: bits long: below it the NumPy round trip costs more than the big-int work
#: it saves (the 3–5-line tables of ``lut_synth='tbs'`` never compact).
_COMPACT_FLOOR = 1024

#: Compact once the live indices fill less than this share of the columns.
_COMPACT_RATIO = 0.85

#: T-count per control arity, memoised once per process (the same handful of
#: arities is costed for every row of every synthesis run).
_MCT_COST_MEMO: Dict[int, int] = {}


def _mct_cost(num_controls: int) -> int:
    cost = _MCT_COST_MEMO.get(num_controls)
    if cost is None:
        cost = _MCT_COST_MEMO[num_controls] = mct_t_count(num_controls)
    return cost


def _reduced_controls_mask(available: int, protect_below: int) -> int:
    """Minimal control mask taken from the 1-bits of ``available``.

    A gate with positive controls ``C`` triggers on some state ``v`` iff the
    bits of ``C`` are all set in ``v``; the smallest such ``v`` is exactly
    the mask of ``C``.  The MMD invariant only requires that no state below
    ``protect_below`` (the rows already fixed to the identity) triggers, so
    any subset of the available bits whose mask is at least ``protect_below``
    is safe.  Greedily keeping the highest available bits yields much smaller
    control sets (and therefore far cheaper Toffoli gates) than the textbook
    choice of using *all* available bits.
    """
    mask = 0
    avail = available
    while mask < protect_below:
        line = avail.bit_length() - 1
        if line < 0:  # pragma: no cover - a fixed row was broken
            raise RuntimeError("cannot build a safe control set")
        mask |= 1 << line
        avail &= ~(1 << line)
    return mask


def _gate_masks_transforming(
    start: int, goal: int, protect_below: int
) -> Tuple[List[Tuple[int, int]], int]:
    """Toffoli gates (in application order) mapping ``start`` to ``goal``.

    The gates follow the MMD construction: bits present in ``goal`` but not
    in ``start`` are set using positive controls on (a reduced subset of)
    the current bits; bits present in ``start`` but not in ``goal`` are then
    cleared using controls on (a reduced subset of) the bits of ``goal``.
    Provided ``start``, ``goal`` and the control masks are all at least
    ``protect_below``, none of these gates disturbs the rows already mapped
    to themselves.

    Returns ``(controls_mask, target_line)`` pairs and the total T-count of
    the candidate, without constructing :class:`ToffoliGate` objects.  The
    target of a phase-two gate is never part of its control set (targets
    come from ``current & ~goal``, controls from ``goal``), and the
    phase-two control mask only depends on ``goal``, so it is computed once.
    """
    masks: List[Tuple[int, int]] = []
    cost = 0
    current = start
    memo = _MCT_COST_MEMO

    pending = goal & ~current
    while pending:
        bit = pending & -pending
        # Inlined _reduced_controls_mask(current, protect_below) — this is
        # the innermost loop of candidate construction.
        controls = 0
        avail = current
        while controls < protect_below:
            line = avail.bit_length() - 1
            if line < 0:  # a fixed row was broken
                raise RuntimeError("cannot build a safe control set")
            top = 1 << line
            controls |= top
            avail ^= top
        masks.append((controls, bit.bit_length() - 1))
        arity = bit_count(controls)
        gate_cost = memo.get(arity)
        if gate_cost is None:
            gate_cost = _mct_cost(arity)
        cost += gate_cost
        current |= bit
        pending &= pending - 1

    pending = current & ~goal
    if pending:
        controls = _reduced_controls_mask(goal, protect_below)
        per_gate = _mct_cost(bit_count(controls))
        while pending:
            bit = pending & -pending
            masks.append((controls, bit.bit_length() - 1))
            cost += per_gate
            pending &= pending - 1

    return masks, cost


def _gate_from_mask(controls_mask: int, target: int, num_lines: int) -> ToffoliGate:
    controls: List[Tuple[int, bool]] = []
    mask = controls_mask
    while mask:
        bit = mask & -mask
        controls.append((bit.bit_length() - 1, True))
        mask ^= bit
    return ToffoliGate(tuple(controls), target)


def _to_columns(bits: np.ndarray) -> List[int]:
    """Pack each row of a ``(num_lines, length)`` 0/1 matrix into a big int.

    Bit ``i`` of column ``j`` is ``bits[j, i]``; the pad bits of the last
    byte are zero, so no column has a bit at or above ``length``.
    """
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _to_bits(columns: List[int], length: int) -> np.ndarray:
    """Inverse of :func:`_to_columns`: packed columns back to a 0/1 matrix."""
    num_bytes = (length + 7) // 8
    raw = np.frombuffer(
        b"".join(column.to_bytes(num_bytes, "little") for column in columns),
        dtype=np.uint8,
    ).reshape(len(columns), num_bytes)
    return np.unpackbits(raw, axis=1, count=length, bitorder="little")


def _compact(
    col_z: List[int], col_y: List[int], length: int, row: int
) -> Tuple[List[int], List[int]]:
    """Drop the finished indices ``m`` (``Y(m) < row``) from both tables.

    All rows below ``row`` are fixed, so a finished index has
    ``Z(m) = Y(m)``; this is checked before the index is dropped.
    """
    bits_z = _to_bits(col_z, length)
    bits_y = _to_bits(col_y, length)
    weights = np.left_shift(1, np.arange(len(col_y), dtype=np.int64))
    live = weights @ bits_y >= row
    done = ~live
    if not np.array_equal(bits_z[:, done], bits_y[:, done]):
        raise RuntimeError(
            f"synthesis broke a row below {row} that it had already fixed"
        )
    return _to_columns(bits_z[:, live]), _to_columns(bits_y[:, live])


def _complements(
    col_z: List[int], col_y: List[int], length: int
) -> Tuple[int, List[int], List[int]]:
    """The all-ones column of ``length`` bits and both tables' complements.

    The complement columns are kept in lockstep (complementing commutes
    with the XOR updates), so equality queries need no big-int negation.
    """
    full = (1 << length) - 1
    ncol_z = [column ^ full for column in col_z]
    return full, ncol_z, [column ^ full for column in col_y]


def _check_care_table(images: Sequence[int], num_lines: int) -> np.ndarray:
    """Validate a care table; return it as an ``int64`` array."""
    size = len(images)
    num_inputs = size.bit_length() - 1
    if size == 0 or size != 1 << num_inputs:
        raise ValueError(f"the table has {size} entries, not a power of two")
    if num_inputs > num_lines:
        raise ValueError(
            f"2^{num_inputs} care rows do not fit {num_lines} lines"
        )
    if num_lines > MAX_STATE_LINES:
        raise ValueError(
            f"{num_lines} lines exceed the 64-bit line states "
            f"(at most {MAX_STATE_LINES} lines)"
        )
    values = [int(value) for value in images]
    if len(set(values)) != size:
        raise ValueError("the images are not distinct")
    if min(values) < 0 or max(values) >= 1 << num_lines:
        raise ValueError(f"an image lies outside 0..2^{num_lines} - 1")
    return np.asarray(values, dtype=np.int64)


def synthesize_permutation_masks(
    images: Sequence[int], num_lines: int, bidirectional: bool = True
) -> List[Tuple[int, int]]:
    """Synthesise a Toffoli cascade realising ``images`` over ``num_lines``.

    ``images`` is a care table: ``images[x]`` is the required image of the
    line state ``x`` for the ``2^k`` care rows ``x < 2^k`` (``k <= num_lines``,
    the images distinct); every other state is a don't-care.  A full
    permutation is the case ``k = num_lines``.

    Returns ``(controls_mask, target_line)`` pairs in application order
    (first gate applied first) — every control is positive, so the pair is
    the complete gate description and feeds straight into
    :meth:`~repro.reversible.circuit.ReversibleCircuit.extend_masks`
    without constructing a single :class:`ToffoliGate`.
    :func:`synthesize_permutation_gates` materialises the same cascade as
    gate objects.

    Rows are fixed in ascending order, and every gate's control mask is at
    least the current row, so no gate fires on a finished row: once row
    ``2^k - 1`` is fixed, the cascade is correct on every care row and the
    don't-care rows are never visited.

    The kernel is bit-sliced.  With ``Gout``/``Gin`` the output/input gate
    cascades collected so far, the current function is
    ``perm = Gout o P0 o Gin``.  The kernel keeps ``Z = Gout`` (initially
    the identity) and ``Y = (P0 o Gin)^-1`` (initially ``P0^-1``), both
    indexed by the sorted image set of ``P0``, as ``num_lines`` packed bit
    columns each (bit ``m`` of column ``j`` is bit ``j`` of the value at
    index ``m``).  Then ``perm = Z o Y^-1``, so the image of a row is
    ``Z(Y^-1(row))`` and its preimage ``Y(Z^-1(row))``: an equality query on
    one table gives a one-hot ``match`` and the value is read from the other
    table at that bit.  A row that no care row currently maps to has no
    preimage and takes the output side; a care-row preimage differs from
    the row on input lines only, so the input-side gates target input
    lines and keep ``Y`` a bijection onto the care rows.  An all-positive
    Toffoli gate composes into ``Z`` from the left for an output gate
    (``perm <- g o perm``) and into ``Y`` for an input gate
    (``perm <- perm o g``, i.e. ``Y <- g o Y``), and costs
    ``match = AND(columns[control] for control in C); columns[t] ^= match``.
    The cascade is complete once ``Z == Y``.

    Once ``Y(m) < row``, index ``m`` is finished: the rows below ``row``
    are fixed, so ``Z(m) = Y(m)``, and no later gate fires there because
    every control mask is at least ``row``.  When the live indices fill
    less than ``_COMPACT_RATIO`` of columns at least ``_COMPACT_FLOOR``
    bits long, the finished ones are checked and dropped from both tables,
    so the big-int work shrinks with the rows still to do.  A cascade that
    breaks a fixed row or misses the identity raises :class:`RuntimeError`.

    Raises :class:`ValueError` for a table that is not a care table over
    ``num_lines`` lines or has more than :data:`MAX_TBS_LINES` care inputs.
    """
    if len(images) > 1 << MAX_TBS_LINES:
        raise ValueError(
            f"transformation-based synthesis of {len(images)} care rows would "
            f"need a table as large; the explicit kernel is capped at "
            f"MAX_TBS_LINES={MAX_TBS_LINES} care inputs"
        )
    perm0 = _check_care_table(images, num_lines)
    size = len(perm0)
    if num_lines == 0:
        return []  # the one state is already fixed

    # Index m of both tables is the m-th smallest image.
    order = np.argsort(perm0)
    codomain = perm0[order]
    shifts = np.arange(num_lines, dtype=np.int64)[:, None]
    col_z = _to_columns(((codomain >> shifts) & 1).astype(np.uint8))
    col_y = _to_columns(((order >> shifts) & 1).astype(np.uint8))
    lines = range(num_lines)
    upper_lines = range(1, num_lines)

    length = size
    full, ncol_z, ncol_y = _complements(col_z, col_y, length)

    def find(columns: List[int], ncolumns: List[int], value: int) -> int:
        # Equality match over the packed columns: one-hot at the index, 0
        # when no index holds the value.
        match = columns[0] if value & 1 else ncolumns[0]
        for line in upper_lines:
            match &= columns[line] if (value >> line) & 1 else ncolumns[line]
        return match

    def read(columns: List[int], match: int) -> int:
        # ANDing with the one-hot match touches the bits below the hit,
        # shifting touches those above it: take the shorter side.
        pos = match.bit_length() - 1
        value = 0
        if pos + pos < length:
            for line in lines:
                if columns[line] & match:
                    value |= 1 << line
        else:
            for line in lines:
                value |= ((columns[line] >> pos) & 1) << line
        return value

    out_gates: List[Tuple[int, int]] = []
    in_gates: List[Tuple[int, int]] = []

    for row in range(size):
        if length >= _COMPACT_FLOOR and size - row < _COMPACT_RATIO * length:
            col_z, col_y = _compact(col_z, col_y, length, row)
            length = size - row
            full, ncol_z, ncol_y = _complements(col_z, col_y, length)

        image = read(col_z, find(col_y, ncol_y, row))
        if image == row:
            continue

        output_masks, output_cost = _gate_masks_transforming(image, row, row)
        input_masks: List[Tuple[int, int]] = []
        use_input_side = False
        if bidirectional:
            match = find(col_z, ncol_z, row)
            preimage = read(col_y, match) if match else row
            if preimage != row:
                input_masks, input_cost = _gate_masks_transforming(row, preimage, row)
                use_input_side = input_cost < output_cost

        if use_input_side:
            # Register the domain transformation row -> preimage; gates must
            # be registered in reverse construction order so that the
            # earliest constructed gate ends up closest to the circuit inputs.
            masks = input_masks[::-1]
            columns, ncolumns, gates = col_y, ncol_y, in_gates
        else:
            masks = output_masks
            columns, ncolumns, gates = col_z, ncol_z, out_gates
        for controls_mask, target in masks:
            # AND of the control columns, started from the top one rather
            # than from `full`; a gate without controls fires everywhere.
            match = full
            controls = controls_mask
            if controls:
                line = controls.bit_length() - 1
                match = columns[line]
                controls ^= 1 << line
            while controls:
                line = controls.bit_length() - 1
                match &= columns[line]
                controls ^= 1 << line
            columns[target] ^= match
            ncolumns[target] ^= match
        gates += masks

    # perm = Z o Y^-1 must now be the identity; the dropped indices were
    # checked when they were compacted away.
    if col_z != col_y:
        raise RuntimeError("synthesis did not reach the identity")
    # id = OUT o f o IN  =>  f = IN_order + reversed(OUT_order) in time order.
    return in_gates + out_gates[::-1]


def synthesize_permutation_gates(
    images: Sequence[int], num_lines: int, bidirectional: bool = True
) -> List[ToffoliGate]:
    """Gate-object view of :func:`synthesize_permutation_masks`.

    The same reduced control masks recur across many rows (the greedy
    reduction favours the topmost lines), so the immutable
    :class:`ToffoliGate` objects are memoised and shared across the
    cascade.
    """
    masks = synthesize_permutation_masks(images, num_lines, bidirectional)
    gate_memo: Dict[Tuple[int, int], ToffoliGate] = {}
    gates: List[ToffoliGate] = []
    for controls_mask, target in masks:
        gate = gate_memo.get((controls_mask, target))
        if gate is None:
            gate = gate_memo[(controls_mask, target)] = _gate_from_mask(
                controls_mask, target, num_lines
            )
        gates.append(gate)
    return gates


def transformation_based_synthesis(
    images: Sequence[int],
    num_lines: int,
    bidirectional: bool = True,
    name: str = "tbs",
) -> ReversibleCircuit:
    """Synthesise a :class:`ReversibleCircuit` for a permutation or care table.

    The circuit has ``num_lines`` anonymous lines; callers that synthesised
    an embedding should annotate the boundary roles afterwards (as
    :func:`repro.reversible.symbolic_tbs.symbolic_tbs` does).

    Raises :class:`ValueError` if the table has more than
    :data:`MAX_TBS_LINES` care inputs (it would not be allocatable).
    """
    masks = synthesize_permutation_masks(images, num_lines, bidirectional)
    circuit = ReversibleCircuit(name)
    for line in range(num_lines):
        circuit.add_line(f"x{line}")
    # All controls are positive, so care == polarity == the controls mask and
    # the cascade lands in the columnar store without creating gate objects.
    circuit.extend_masks((mask, mask, target) for mask, target in masks)
    return circuit
