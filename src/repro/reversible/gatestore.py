"""Packed columnar storage of Toffoli-gate cascades.

The symbolic flow produces cascades of hundreds of thousands of
multiple-controlled Toffoli gates (467k gates for INTDIV(16); full-table
TBS produced 211k already for INTDIV(8)).  Holding one frozen :class:`~repro.reversible.gates.ToffoliGate`
dataclass per gate makes every cost sweep, peephole pass and replay an
interpreted per-object loop — the bookkeeping, not the synthesis kernels,
becomes the bit-width ceiling.

:class:`GateStore` therefore keeps the cascade as parallel *columns*:

* ``targets`` — the target line of every gate,
* ``care`` / ``polarity`` — the control masks of every gate, as Python
  big-ints (width-agnostic: lines may be added to a circuit after gates
  exist, so no word width is ever fixed),
* an optional parallel list of lazily materialised gate objects, so the
  object API (``gates()``, pickling, equality against hand-built circuits)
  is preserved without paying for objects on the mask-native hot path.

The mask encoding is exactly that of
:meth:`~repro.reversible.gates.ToffoliGate.control_masks`: a gate triggers
on state ``s`` iff ``s & care == polarity``.  Gates hold their controls
sorted and duplicate-free, so a gate materialised from its masks equals
the object the caller supplied, and mask equality coincides with object
equality — the invariant the mask-native peephole passes of
:mod:`repro.reversible.optimize` rely on.

:meth:`control_counts` caches the ``(G,)`` NumPy array of control counts
(the popcount of each care mask), which the vectorised T-count and gate
histograms consume.  That cache and the derived statistics
(:attr:`stats`) are invalidated on mutation and shared across
:meth:`copy`, so a pipeline that threads an unchanged cascade through
several passes computes each statistic once.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.reversible.gates import ToffoliGate
from repro.utils.bitops import bit_count

__all__ = ["GateStore"]


class GateStore:
    """Columnar gate storage with lazy object materialisation."""

    __slots__ = (
        "_targets",
        "_care",
        "_polarity",
        "_objects",
        "_pending_front",
        "_memo",
        "_control_counts",
        "_stats",
    )

    def __init__(self) -> None:
        self._targets: List[int] = []
        self._care: List[int] = []
        self._polarity: List[int] = []
        #: Parallel list of materialised gate objects (``None`` holes for
        #: mask-appended gates); ``None`` while no object exists at all.
        self._objects: Optional[List[Optional[ToffoliGate]]] = None
        #: Prepended gates in call order (newest last); merged into the
        #: columns lazily so ``prepend`` is amortised O(1).
        self._pending_front: List[Tuple[int, int, int, Optional[ToffoliGate]]] = []
        #: (care, polarity, target) -> materialised gate; shared across
        #: copies (content-keyed and append-only, so sharing is safe).
        self._memo: Dict[Tuple[int, int, int], ToffoliGate] = {}
        self._control_counts: Optional[np.ndarray] = None
        #: Derived statistics (t_count per model, depth, ...) keyed by the
        #: consumers; cleared on every mutation, carried across copies.
        self._stats: Dict[object, object] = {}

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_columns(
        cls, targets: List[int], care: List[int], polarity: List[int]
    ) -> "GateStore":
        """Build a store directly from parallel columns (takes ownership)."""
        store = cls()
        store._targets = targets
        store._care = care
        store._polarity = polarity
        return store

    # -- invariants and caches ------------------------------------------------

    def _invalidate(self) -> None:
        self._control_counts = None
        if self._stats:
            self._stats = {}

    def _consolidate(self) -> None:
        """Merge pending prepends into the front of the columns."""
        front = self._pending_front
        if not front:
            return
        self._pending_front = []
        front.reverse()  # newest prepend must end up first in cascade order
        self._targets[:0] = [entry[0] for entry in front]
        self._care[:0] = [entry[1] for entry in front]
        self._polarity[:0] = [entry[2] for entry in front]
        if self._objects is None and any(entry[3] is not None for entry in front):
            self._objects = [None] * (len(self._targets) - len(front))
        if self._objects is not None:
            self._objects[:0] = [entry[3] for entry in front]

    @property
    def stats(self) -> Dict[object, object]:
        """Mutation-invalidated scratch space for derived statistics."""
        return self._stats

    # -- size -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._targets) + len(self._pending_front)

    # -- mutation -------------------------------------------------------------

    def append(
        self, target: int, care: int, polarity: int, obj: Optional[ToffoliGate]
    ) -> None:
        """Append one gate given its mask encoding (and optional object)."""
        self._targets.append(target)
        self._care.append(care)
        self._polarity.append(polarity)
        if self._objects is not None:
            self._objects.append(obj)
        elif obj is not None:
            self._objects = [None] * (len(self._targets) - 1)
            self._objects.append(obj)
        self._invalidate()

    def prepend(
        self, target: int, care: int, polarity: int, obj: Optional[ToffoliGate]
    ) -> None:
        """Insert one gate at the cascade front (amortised O(1))."""
        self._pending_front.append((target, care, polarity, obj))
        self._invalidate()

    def extend_masks(self, triples: Sequence[Tuple[int, int, int]]) -> None:
        """Bulk mask-native append of ``(care, polarity, target)`` triples.

        The caller is responsible for validation (the circuit wrapper
        checks line bounds and mask consistency).
        """
        append_target = self._targets.append
        append_care = self._care.append
        append_pol = self._polarity.append
        objects = self._objects
        count = 0
        for care, polarity, target in triples:
            append_target(target)
            append_care(care)
            append_pol(polarity)
            count += 1
        if objects is not None:
            objects.extend([None] * count)
        self._invalidate()

    # -- object access --------------------------------------------------------

    def _materialize(self, care: int, polarity: int, target: int) -> ToffoliGate:
        key = (care, polarity, target)
        gate = self._memo.get(key)
        if gate is None:
            controls: List[Tuple[int, bool]] = []
            mask = care
            while mask:
                low = mask & -mask
                line = low.bit_length() - 1
                controls.append((line, bool((polarity >> line) & 1)))
                mask ^= low
            gate = ToffoliGate(tuple(controls), target)
            self._memo[key] = gate
        return gate

    def gate_at(self, index: int) -> ToffoliGate:
        """The gate object at ``index`` (materialised and cached on demand)."""
        self._consolidate()
        objects = self._objects
        if objects is not None:
            gate = objects[index]
            if gate is not None:
                return gate
        gate = self._materialize(
            self._care[index], self._polarity[index], self._targets[index]
        )
        if objects is None:
            objects = self._objects = [None] * len(self._targets)
        objects[index] = gate
        return gate

    def iter_objects(self) -> Iterator[ToffoliGate]:
        """Iterate the gate objects in cascade order without copying.

        Gates appended mask-natively are materialised (and cached) on the
        fly; the iterator is lazy, so consuming a prefix only materialises
        that prefix.  Mutating the store while iterating is undefined.
        """
        self._consolidate()
        targets, care, polarity = self._targets, self._care, self._polarity
        objects = self._objects
        if objects is None:
            objects = self._objects = [None] * len(targets)
        materialize = self._materialize
        for index in range(len(targets)):
            gate = objects[index]
            if gate is None:
                gate = objects[index] = materialize(
                    care[index], polarity[index], targets[index]
                )
            yield gate

    def num_materialized(self) -> int:
        """How many gate objects currently exist (for laziness regressions)."""
        front = sum(1 for entry in self._pending_front if entry[3] is not None)
        if self._objects is None:
            return front
        return front + sum(1 for gate in self._objects if gate is not None)

    # -- columnar access ------------------------------------------------------

    def columns(self) -> Tuple[List[int], List[int], List[int]]:
        """The raw ``(targets, care, polarity)`` columns.

        The returned lists are the store's own storage — callers must treat
        them as read-only.
        """
        self._consolidate()
        return self._targets, self._care, self._polarity

    def control_counts(self) -> np.ndarray:
        """Cached ``(G,)`` control count of every gate (its care popcount)."""
        self._consolidate()
        counts = self._control_counts
        if counts is None:
            counts = np.fromiter(
                map(bit_count, self._care), dtype=np.int64, count=len(self._care)
            )
            self._control_counts = counts
        return counts

    # -- copies ---------------------------------------------------------------

    def copy(self) -> "GateStore":
        """An independent copy sharing the materialisation memo and caches."""
        new = GateStore.__new__(GateStore)
        new._targets = list(self._targets)
        new._care = list(self._care)
        new._polarity = list(self._polarity)
        new._objects = list(self._objects) if self._objects is not None else None
        new._pending_front = list(self._pending_front)
        new._memo = self._memo
        new._control_counts = self._control_counts
        new._stats = dict(self._stats)
        return new

    def reversed_copy(self) -> "GateStore":
        """A copy with the cascade order reversed (for circuit inversion).

        Order-independent statistics (T-counts, histograms) carry over;
        order-dependent ones (greedy depth) are dropped.
        """
        self._consolidate()
        new = GateStore.__new__(GateStore)
        new._targets = self._targets[::-1]
        new._care = self._care[::-1]
        new._polarity = self._polarity[::-1]
        new._objects = self._objects[::-1] if self._objects is not None else None
        new._pending_front = []
        new._memo = self._memo
        new._control_counts = None
        new._stats = {
            key: value
            for key, value in self._stats.items()
            if isinstance(key, tuple) and key and key[0] in ("t_count", "t_hist")
        }
        return new

    # -- pickling -------------------------------------------------------------

    def __getstate__(self):
        self._consolidate()
        objects = self._objects
        if objects is not None and all(gate is None for gate in objects):
            objects = None
        return {
            "targets": self._targets,
            "care": self._care,
            "polarity": self._polarity,
            "objects": objects,
        }

    def __setstate__(self, state) -> None:
        self._targets = state["targets"]
        self._care = state["care"]
        self._polarity = state["polarity"]
        self._objects = state["objects"]
        self._pending_front = []
        self._memo = {}
        self._control_counts = None
        self._stats = {}

    def __repr__(self) -> str:
        return (
            f"GateStore(gates={len(self)}, "
            f"materialized={self.num_materialized()})"
        )
