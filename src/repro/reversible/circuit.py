"""Reversible circuits: cascades of Toffoli gates over a fixed set of lines.

A :class:`ReversibleCircuit` owns its lines (qubits) and a gate cascade.
Every line carries a :class:`LineInfo` describing its role at the circuit
boundary:

* an *input* line receives bit ``input_index`` of the primary input,
* a *constant* line is initialised to a fixed value (an ancilla),
* an *output* line carries bit ``output_index`` of the function result after
  the cascade,
* a *garbage* line carries a value that is discarded.

A line may simultaneously be an input and an output (in-place computation,
as produced by the functional synthesis flow).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.reversible.gates import ToffoliGate
from repro.reversible.gatestore import GateStore

__all__ = ["LineInfo", "LinePool", "ReversibleCircuit"]


@dataclass(frozen=True)
class LineInfo:
    """Boundary role of one circuit line."""

    name: str
    input_index: Optional[int] = None
    constant: Optional[int] = None
    output_index: Optional[int] = None
    garbage: bool = False

    def is_input(self) -> bool:
        """True if the line receives a primary input bit."""
        return self.input_index is not None

    def is_constant(self) -> bool:
        """True if the line is an ancilla with a fixed initial value."""
        return self.constant is not None

    def is_output(self) -> bool:
        """True if the line carries a primary output bit."""
        return self.output_index is not None


class ReversibleCircuit:
    """A cascade of mixed-polarity multiple-controlled Toffoli gates.

    Gates are held in a packed columnar :class:`~repro.reversible.gatestore.
    GateStore` (target / care-mask / polarity-mask columns);
    :class:`~repro.reversible.gates.ToffoliGate` objects are materialised
    lazily, so the object API (:meth:`gates`, pickling, equality) is
    preserved while the cost kernels and synthesis emitters operate on the
    masks directly (:meth:`append_masks` / :meth:`extend_masks` /
    :meth:`gate_store`).
    """

    #: Target tag of the :mod:`repro.opt` pass manager (cf.
    #: :func:`repro.opt.targets.target_kind`).
    network_type = "rev"

    def __init__(self, name: str = "circuit"):
        self.name = name
        self._lines: List[LineInfo] = []
        self._store = GateStore()

    def __setstate__(self, state) -> None:
        # Back-compat with pickles from the object-list representation.
        gates = state.pop("_gates", None)
        self.__dict__.update(state)
        if "_store" not in state:
            self._store = GateStore()
            if gates:
                self.extend(gates)

    # -- lines ----------------------------------------------------------------

    def add_line(
        self,
        name: Optional[str] = None,
        input_index: Optional[int] = None,
        constant: Optional[int] = None,
        output_index: Optional[int] = None,
        garbage: bool = False,
    ) -> int:
        """Add a line and return its index."""
        if input_index is not None and constant is not None:
            raise ValueError("a line cannot be both an input and a constant")
        if constant is not None and constant not in (0, 1):
            raise ValueError("constant initial values must be 0 or 1")
        index = len(self._lines)
        if name is None:
            name = f"line{index}"
        self._lines.append(
            LineInfo(name, input_index, constant, output_index, garbage)
        )
        return index

    def add_input_line(self, input_index: int, name: Optional[str] = None) -> int:
        """Add a primary-input line."""
        return self.add_line(name or f"x{input_index}", input_index=input_index)

    def add_constant_line(self, value: int = 0, name: Optional[str] = None) -> int:
        """Add an ancilla line initialised to ``value``."""
        return self.add_line(name, constant=value)

    def set_output(self, line: int, output_index: int) -> None:
        """Mark ``line`` as carrying primary output ``output_index``."""
        self._check_line(line)
        self._lines[line] = replace(
            self._lines[line], output_index=output_index, garbage=False
        )

    def set_line_name(self, line: int, name: str) -> None:
        """Rename a line (e.g. a reused ancilla promoted to an output)."""
        self._check_line(line)
        self._lines[line] = replace(self._lines[line], name=name)

    def set_garbage(self, line: int) -> None:
        """Mark ``line`` as garbage."""
        self._check_line(line)
        self._lines[line] = replace(self._lines[line], garbage=True, output_index=None)

    def line_info(self, line: int) -> LineInfo:
        """Boundary role of a line."""
        self._check_line(line)
        return self._lines[line]

    def lines(self) -> List[LineInfo]:
        """All line descriptors in index order."""
        return list(self._lines)

    def num_lines(self) -> int:
        """Number of circuit lines (qubits)."""
        return len(self._lines)

    def num_qubits(self) -> int:
        """Alias of :meth:`num_lines` (the paper's cost metric name)."""
        return len(self._lines)

    def input_lines(self) -> Dict[int, int]:
        """Map primary-input bit index to line index."""
        return {
            info.input_index: line
            for line, info in enumerate(self._lines)
            if info.input_index is not None
        }

    def output_lines(self) -> Dict[int, int]:
        """Map primary-output bit index to line index."""
        return {
            info.output_index: line
            for line, info in enumerate(self._lines)
            if info.output_index is not None
        }

    def constant_lines(self) -> Dict[int, int]:
        """Map line index to initial constant value for all ancilla lines."""
        return {
            line: info.constant
            for line, info in enumerate(self._lines)
            if info.constant is not None
        }

    def num_inputs(self) -> int:
        """Number of primary-input bits."""
        return len(self.input_lines())

    def num_outputs(self) -> int:
        """Number of primary-output bits."""
        return len(self.output_lines())

    def _check_line(self, line: int) -> None:
        if not 0 <= line < len(self._lines):
            raise ValueError(f"line {line} does not exist")

    # -- gates ----------------------------------------------------------------

    def _gate_masks(self, gate: ToffoliGate) -> Tuple[int, int]:
        """Validated ``(care, polarity)`` masks of a gate."""
        care, polarity = gate.control_masks()
        max_line = care.bit_length() - 1
        if gate.target > max_line:
            max_line = gate.target
        if max_line >= len(self._lines):
            raise ValueError(
                f"gate {gate} uses line {max_line} but the circuit has "
                f"only {len(self._lines)} lines"
            )
        return care, polarity

    def append(self, gate: ToffoliGate) -> None:
        """Append a gate to the cascade."""
        care, polarity = self._gate_masks(gate)
        self._store.append(gate.target, care, polarity, gate)

    def extend(self, gates: Iterable[ToffoliGate]) -> None:
        """Append several gates."""
        for gate in gates:
            self.append(gate)

    def prepend(self, gate: ToffoliGate) -> None:
        """Insert a gate at the beginning of the cascade (amortised O(1))."""
        care, polarity = self._gate_masks(gate)
        self._store.prepend(gate.target, care, polarity, gate)

    def append_masks(self, care: int, polarity: int, target: int) -> None:
        """Append a gate mask-natively (no :class:`ToffoliGate` object).

        ``care`` / ``polarity`` follow the
        :meth:`~repro.reversible.gates.ToffoliGate.control_masks` encoding:
        the gate triggers on state ``s`` iff ``s & care == polarity``.
        """
        num_lines = len(self._lines)
        if target < 0 or target >= num_lines or care >> num_lines:
            raise ValueError(
                f"gate masks (care={care:#x}, target={target}) exceed the "
                f"circuit's {num_lines} lines"
            )
        if (care >> target) & 1:
            raise ValueError("the target line may not also be a control line")
        if polarity & ~care:
            raise ValueError("polarity mask has bits outside the care mask")
        self._store.append(target, care, polarity, None)

    def extend_masks(self, triples: Iterable[Tuple[int, int, int]]) -> None:
        """Bulk mask-native append of ``(care, polarity, target)`` triples."""
        num_lines = len(self._lines)
        checked = []
        for care, polarity, target in triples:
            if (
                target < 0
                or target >= num_lines
                or care >> num_lines
                or (care >> target) & 1
                or polarity & ~care
            ):
                raise ValueError(
                    f"gate masks (care={care:#x}, polarity={polarity:#x}, "
                    f"target={target}) are invalid for a circuit with "
                    f"{num_lines} lines"
                )
            checked.append((care, polarity, target))
        self._store.extend_masks(checked)

    def append_controls(
        self, controls: Sequence[Tuple[int, bool]], target: int
    ) -> None:
        """Append a gate from a control list, mask-natively when possible.

        Controls in strictly ascending line order (the shape every
        synthesis emitter produces) take the packed path and skip
        :class:`ToffoliGate` construction; any other shape goes through
        the gate constructor, which sorts and validates them.
        """
        care = 0
        polarity = 0
        previous = -1
        ascending = True
        for line, positive in controls:
            if line <= previous or line < 0:
                ascending = False
                break
            previous = line
            bit = 1 << line
            care |= bit
            if positive:
                polarity |= bit
        if ascending:
            self.append_masks(care, polarity, target)
        else:
            self.append(ToffoliGate(tuple(controls), target))

    def extend_controls(
        self, gates: Iterable[Tuple[Sequence[Tuple[int, bool]], int]]
    ) -> None:
        """Append several ``(controls, target)`` gate descriptions."""
        for controls, target in gates:
            self.append_controls(controls, target)

    def gates(self) -> List[ToffoliGate]:
        """The gate cascade in application order (a fresh list)."""
        return list(self._store.iter_objects())

    def iter_gates(self) -> Iterator[ToffoliGate]:
        """Iterate the cascade lazily, without copying the gate list.

        Mask-appended gates are materialised (and cached) on demand, so
        consuming a prefix only pays for that prefix.  Mutating the
        circuit while iterating is undefined.
        """
        return self._store.iter_objects()

    def gate_store(self) -> GateStore:
        """The packed columnar gate store (the mask-native kernel surface)."""
        return self._store

    def num_gates(self) -> int:
        """Number of Toffoli gates in the cascade."""
        return len(self._store)

    def _control_counts(self) -> np.ndarray:
        """Control count of every gate (cached on the gate store)."""
        return self._store.control_counts()

    def gate_histogram(self) -> Dict[int, int]:
        """Histogram mapping control count to number of gates."""
        counts = np.bincount(self._control_counts())
        return {int(k): int(counts[k]) for k in np.nonzero(counts)[0]}

    def max_controls(self) -> int:
        """Largest control count of any gate."""
        counts = self._control_counts()
        return int(counts.max()) if len(counts) else 0

    def t_count(self, model: str = "rtof") -> int:
        """T-count of the cascade under a named cost model.

        Delegates to :func:`repro.quantum.tcount.circuit_t_count`; see that
        module for the available models.
        """
        from repro.quantum.tcount import circuit_t_count

        return circuit_t_count(self, model=model)

    def _with_store(
        self, store: GateStore, name: Optional[str] = None
    ) -> "ReversibleCircuit":
        """A circuit with this circuit's lines but a different gate store."""
        result = ReversibleCircuit(name or self.name)
        result._lines = list(self._lines)
        result._store = store
        return result

    def inverse(self) -> "ReversibleCircuit":
        """The inverse circuit (reversed cascade; Toffoli gates are involutions)."""
        return self._with_store(self._store.reversed_copy(), f"{self.name}_inv")

    def copy(self) -> "ReversibleCircuit":
        """An independent copy of the circuit."""
        return self._with_store(self._store.copy())

    def with_gates(self, gates: Iterable[ToffoliGate]) -> "ReversibleCircuit":
        """A copy with the same lines/roles but a different gate cascade."""
        result = ReversibleCircuit(self.name)
        result._lines = list(self._lines)
        result.extend(gates)
        return result

    # -- semantics ---------------------------------------------------------------

    def apply_to_state(self, state: int) -> int:
        """Apply the cascade to a basis state (integer over all lines)."""
        targets, cares, polarities = self._store.columns()
        for care, polarity, target in zip(cares, polarities, targets):
            if state & care == polarity:
                state ^= 1 << target
        return state

    def initial_state(self, input_word: int) -> int:
        """Build the initial line state for a primary-input word.

        Input lines receive their input bit, constant lines their constant
        and every other line starts at 0.
        """
        state = 0
        for line, info in enumerate(self._lines):
            if info.input_index is not None:
                bit = (input_word >> info.input_index) & 1
            elif info.constant is not None:
                bit = info.constant
            else:
                bit = 0
            state |= bit << line
        return state

    def evaluate(self, input_word: int) -> int:
        """Run the circuit on a primary-input word and return the output word."""
        state = self.apply_to_state(self.initial_state(input_word))
        word = 0
        for line, info in enumerate(self._lines):
            if info.output_index is not None and (state >> line) & 1:
                word |= 1 << info.output_index
        return word

    def final_state(self, input_word: int) -> int:
        """Full final line state for a primary-input word."""
        return self.apply_to_state(self.initial_state(input_word))

    def to_permutation(self) -> np.ndarray:
        """The permutation realised over all ``2**num_lines`` basis states.

        Only sensible for circuits with a modest number of lines; larger
        circuits should be checked against their specification with
        :func:`repro.verify.check_equivalent` instead.
        """
        size = 1 << len(self._lines)
        states = np.arange(size, dtype=np.int64)
        targets, cares, polarities = self._store.columns()
        for care, polarity, target in zip(cares, polarities, targets):
            mask = (states & care) == polarity
            states[mask] ^= 1 << target
        return states

    def __repr__(self) -> str:
        return (
            f"ReversibleCircuit(name={self.name!r}, lines={self.num_lines()}, "
            f"gates={self.num_gates()})"
        )


@dataclass
class LinePool:
    """Allocator for zero-initialised ancilla lines with reuse.

    The invariant of a synthesis back-end that recycles lines: only a line
    whose value has returned to zero may be ``release``d, so a subsequent
    ``acquire`` can hand it out as a fresh ancilla (or as a primary-output
    target).
    """

    circuit: ReversibleCircuit
    free_lines: List[int] = field(default_factory=list)

    def acquire(self, name: Optional[str] = None) -> int:
        """A zeroed line: the last freed line if any, else a new one."""
        if self.free_lines:
            line = self.free_lines.pop()
            if name is not None:
                self.circuit.set_line_name(line, name)
            return line
        return self.circuit.add_constant_line(
            0, name=name or f"anc{self.circuit.num_lines()}"
        )

    def release(self, line: int) -> None:
        """Return a line (which must hold zero again) to the pool."""
        self.free_lines.append(line)
