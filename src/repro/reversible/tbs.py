"""Transformation-based synthesis (Miller–Maslov–Dueck) of reversible functions.

The functional synthesis flow of the paper uses the symbolic variant [7] of
the classical transformation-based algorithm [5]: Toffoli gates are chosen
that transform the function into the identity; the collected gates, suitably
reordered, realise the function.  The algorithm never adds lines, so
combined with an optimum embedding it yields line-optimal circuits — at the
price of very large multiple-controlled Toffoli gates (and therefore a large
T-count), exactly the trade-off reported in Table II.

The kernel (:func:`synthesize_permutation_masks`) maintains a bit-sliced
view of the permutation *and* of its inverse in lockstep (one packed
big-int bit column per line, for the output-gate side and the input-gate
side respectively), so applying a Toffoli gate is a handful of
word-parallel bitwise operations — ``column[target] ^= AND(control
columns)`` — instead of an O(2^n) masked update, and the bidirectional
image/preimage lookups are point/equality queries on those columns instead
of a full ``np.nonzero(perm == row)`` scan per row.  Candidate gates are
costed on integer control masks alone; :func:`synthesize_permutation_gates`
materialises the winning cascade as :class:`ToffoliGate` objects.
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

#: Hard cap on the number of circuit lines accepted by the explicit
#: (truth-table) synthesis entry points.  The algorithm materialises the
#: full ``2^n`` state table, so beyond this the allocation alone is tens of
#: gigabytes; callers get a clear :class:`ValueError` up front instead of an
#: opaque ``MemoryError`` (or a machine grinding into swap).
MAX_TBS_LINES = 24

#: T-count per control arity, memoised once per process (the same handful of
#: arities is costed for every row of every synthesis run).
_MCT_COST_MEMO: Dict[int, int] = {}


def _mct_cost(num_controls: int) -> int:
    cost = _MCT_COST_MEMO.get(num_controls)
    if cost is None:
        cost = _MCT_COST_MEMO[num_controls] = mct_t_count(num_controls)
    return cost


def _check_num_lines(num_lines: int) -> None:
    if num_lines > MAX_TBS_LINES:
        raise ValueError(
            f"transformation-based synthesis over {num_lines} lines would "
            f"need a 2^{num_lines}-entry state table; the explicit kernel "
            f"is capped at MAX_TBS_LINES={MAX_TBS_LINES} lines"
        )


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
        if line < 0:  # pragma: no cover - guaranteed by the caller
            raise AssertionError("cannot build a safe control set")
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
            if line < 0:  # pragma: no cover - guaranteed by the caller
                raise AssertionError("cannot build a safe control set")
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


def _pack_column(values: np.ndarray, line: int) -> int:
    """Bit ``line`` of every entry of ``values``, packed into one big int."""
    bits = ((values >> line) & 1).astype(np.uint8)
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _unpack_columns(columns: List[int], size: int) -> np.ndarray:
    """Inverse of :func:`_pack_column`: bit columns back to a value array."""
    values = np.zeros(size, dtype=np.int64)
    num_bytes = (size + 7) // 8
    for line, column in enumerate(columns):
        raw = np.frombuffer(column.to_bytes(num_bytes, "little"), dtype=np.uint8)
        bits = np.unpackbits(raw, bitorder="little")[:size]
        values |= bits.astype(np.int64) << line
    return values


def synthesize_permutation_masks(
    permutation: Sequence[int], num_lines: int, bidirectional: bool = True
) -> List[Tuple[int, int]]:
    """Synthesise a Toffoli cascade realising ``permutation`` over ``num_lines``.

    Returns ``(controls_mask, target_line)`` pairs in application order
    (first gate applied first) — every control is positive, so the pair is
    the complete gate description and feeds straight into
    :meth:`~repro.reversible.circuit.ReversibleCircuit.extend_masks`
    without constructing a single :class:`ToffoliGate`.
    :func:`synthesize_permutation_gates` materialises the same cascade as
    gate objects.

    The kernel is bit-sliced.  With ``Gout``/``Gin`` the output/input gate
    cascades collected so far, the current function is
    ``perm = Gout o P0 o Gin``; the kernel maintains ``X = Gout o P0`` and
    ``Y = (P0 o Gin)^-1`` as ``num_lines`` packed bit columns (bit ``x`` of
    column ``j`` is bit ``j`` of the image of ``x``).  An all-positive
    Toffoli gate then costs a handful of word-parallel big-int operations on
    the table it composes into from the left — ``X`` for output gates
    (``perm <- g o perm``), ``Y`` for input gates (``perm <- perm o g``,
    i.e. ``Y <- g o Y``):
    ``match = AND(columns[control] for control in C); columns[t] ^= match``.
    The per-row image and preimage come from point/equality queries on the
    two tables (``perm = X o P0^-1 o Y^-1`` and ``perm^-1 = Y o P0 o X^-1``),
    replacing an O(2^n) ``np.nonzero(perm == row)`` scan per row.
    """
    _check_num_lines(num_lines)
    size = 1 << num_lines
    perm0 = np.asarray(permutation, dtype=np.int64).copy()
    if perm0.shape != (size,):
        raise ValueError(f"permutation must have {size} entries")
    if sorted(perm0.tolist()) != list(range(size)):
        raise ValueError("input is not a permutation")

    states = np.arange(size, dtype=np.int64)
    inv0 = np.empty(size, dtype=np.int64)
    inv0[perm0] = states
    p0 = perm0.tolist()
    p0_inv = inv0.tolist()

    full = (1 << size) - 1
    col_x = [_pack_column(perm0, line) for line in range(num_lines)]
    col_y = [_pack_column(inv0, line) for line in range(num_lines)]
    # Complement columns are kept in lockstep (complementing commutes with
    # the XOR updates) so equality queries need no fresh big-int negations.
    ncol_x = [column ^ full for column in col_x]
    ncol_y = [column ^ full for column in col_y]
    lines = range(num_lines)

    def preimage_query(columns: List[int], ncolumns: List[int], value: int) -> int:
        # Equality match over the packed columns; exactly one bit survives.
        match = full
        for line in lines:
            match &= columns[line] if (value >> line) & 1 else ncolumns[line]
        return match.bit_length() - 1

    def point_query(columns: List[int], x: int) -> int:
        value = 0
        for line in lines:
            value |= ((columns[line] >> x) & 1) << line
        return value

    out_gates: List[Tuple[int, int]] = []
    in_gates: List[Tuple[int, int]] = []

    for row in range(size):
        image = point_query(col_x, p0_inv[preimage_query(col_y, ncol_y, row)])
        if image == row:
            continue

        output_masks, output_cost = _gate_masks_transforming(image, row, row)
        input_masks: List[Tuple[int, int]] = []
        use_input_side = False
        if bidirectional:
            preimage = point_query(col_y, p0[preimage_query(col_x, ncol_x, row)])
            if preimage != row:
                input_masks, input_cost = _gate_masks_transforming(row, preimage, row)
                use_input_side = input_cost < output_cost

        if not use_input_side:
            for controls_mask, target in output_masks:
                match = full
                controls = controls_mask
                while controls:
                    bit = controls & -controls
                    match &= col_x[bit.bit_length() - 1]
                    controls ^= bit
                col_x[target] ^= match
                ncol_x[target] ^= match
                out_gates.append((controls_mask, target))
        else:
            # Register the domain transformation row -> preimage; gates must
            # be registered in reverse construction order so that the
            # earliest constructed gate ends up closest to the circuit inputs.
            for controls_mask, target in reversed(input_masks):
                match = full
                controls = controls_mask
                while controls:
                    bit = controls & -controls
                    match &= col_y[bit.bit_length() - 1]
                    controls ^= bit
                col_y[target] ^= match
                ncol_y[target] ^= match
                in_gates.append((controls_mask, target))

    # perm = X o P0^-1 o Y^-1 must now be the identity.
    x_arr = _unpack_columns(col_x, size)
    y_arr = _unpack_columns(col_y, size)
    y_inv = np.empty(size, dtype=np.int64)
    y_inv[y_arr] = states
    assert np.array_equal(
        x_arr[inv0[y_inv]], states
    ), "synthesis did not reach the identity"
    # id = OUT o f o IN  =>  f = IN_order + reversed(OUT_order) in time order.
    return list(in_gates) + list(reversed(out_gates))


def synthesize_permutation_gates(
    permutation: Sequence[int], num_lines: int, bidirectional: bool = True
) -> List[ToffoliGate]:
    """Gate-object view of :func:`synthesize_permutation_masks`.

    The same reduced control masks recur across many rows (the greedy
    reduction favours the topmost lines), so the immutable
    :class:`ToffoliGate` objects are memoised and shared across the
    cascade.
    """
    masks = synthesize_permutation_masks(permutation, num_lines, bidirectional)
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
    permutation: Sequence[int],
    num_lines: int,
    bidirectional: bool = True,
    name: str = "tbs",
) -> ReversibleCircuit:
    """Synthesise a :class:`ReversibleCircuit` for a permutation.

    The circuit has ``num_lines`` anonymous lines; callers that synthesised
    an embedding should annotate the boundary roles afterwards (as
    :func:`repro.reversible.symbolic_tbs.symbolic_tbs` does).

    Raises :class:`ValueError` if ``num_lines`` exceeds :data:`MAX_TBS_LINES`
    (the explicit ``2^n`` state table would not be allocatable).
    """
    _check_num_lines(num_lines)
    masks = synthesize_permutation_masks(permutation, num_lines, bidirectional)
    circuit = ReversibleCircuit(name)
    for line in range(num_lines):
        circuit.add_line(f"x{line}")
    # All controls are positive, so care == polarity == the controls mask and
    # the cascade lands in the columnar store without creating gate objects.
    circuit.extend_masks((mask, mask, target) for mask, target in masks)
    return circuit
