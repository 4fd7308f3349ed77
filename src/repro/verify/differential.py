"""Differential equivalence checking across representation layers.

One checker for every pair of layers of the reproduction: a specification
and an implementation — any of :class:`~repro.logic.truth_table.TruthTable`,
:class:`~repro.logic.aig.Aig`, :class:`~repro.logic.xmg.Xmg`,
:class:`~repro.reversible.circuit.ReversibleCircuit` or a mapped Clifford+T
:class:`~repro.quantum.circuit.QuantumCircuit` (via
:func:`mapped_circuit_simulator`) — are evaluated on the *same* bit-parallel
pattern batch and compared word-by-word.  On disagreement the first
differing minterm is reconstructed and reported together with both output
words, which is what makes a failing fuzz run actionable.

Three modes mirror the paper's ``cec`` regimes:

* ``"full"``    — exhaustive over all ``2**n`` minterms (complete),
* ``"sampled"`` — a seeded random batch (falsification only),
* ``"auto"``    — full when the input count permits, sampled otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.logic.aig import Aig
from repro.logic.truth_table import TruthTable
from repro.logic.xmg import Xmg
from repro.quantum.circuit import QuantumCircuit
from repro.reversible.circuit import ReversibleCircuit
from repro.verify import bitsim
from repro.verify.bitsim import PatternBatch, exhaustive_batch, random_batch

__all__ = [
    "DifferentialResult",
    "MappedCircuitError",
    "VERIFY_MODES",
    "check_equivalent",
    "check_quantum_equivalent",
    "mapped_circuit_simulator",
    "normalize_verify_mode",
    "simulator_for",
]

#: The verification modes understood by :func:`check_equivalent` and the
#: flow/CLI layers (``"off"`` is handled by the callers, not here).
VERIFY_MODES = ("off", "sampled", "full", "auto")


def normalize_verify_mode(value) -> str:
    """Map a flow/engine ``verify`` argument to a canonical mode string.

    Booleans keep their historical meaning: ``True`` is the automatic
    policy (exhaustive when the input count permits, sampled otherwise),
    ``False`` disables verification.  ``None`` also maps to ``"off"``.
    """
    if value is None:
        return "off"
    if isinstance(value, bool):
        return "auto" if value else "off"
    mode = str(value).lower()
    if mode not in VERIFY_MODES:
        raise ValueError(
            f"unknown verification mode {value!r}; expected a bool or one of "
            f"{', '.join(VERIFY_MODES)}"
        )
    return mode

#: ``"auto"`` checks exhaustively up to this many inputs.
AUTO_FULL_LIMIT = 12


class MappedCircuitError(ValueError):
    """A circuit violated its classical contract on one input.

    Raised by the reversible simulator when an ancilla line ends dirty, and
    by the mapped-circuit simulator when a basis state does not map to a
    basis state or an ancilla qubit ends dirty; carries the offending
    minterm so :func:`check_equivalent` can turn it into a failing
    :class:`DifferentialResult` instead of a crash.
    """

    def __init__(self, minterm: int, message: str):
        super().__init__(message)
        self.minterm = minterm


@dataclass(frozen=True)
class DifferentialResult:
    """Outcome of a differential check between two representations."""

    equivalent: bool
    complete: bool
    num_patterns: int
    counterexample: Optional[int] = None
    spec_word: Optional[int] = None
    impl_word: Optional[int] = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.equivalent


class _Simulator:
    """A uniform functional view: input/output counts plus batch evaluation."""

    def __init__(self, num_inputs: int, num_outputs: int, run, kind: str):
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        self._run = run
        self.kind = kind

    def simulate(self, batch: PatternBatch) -> np.ndarray:
        return self._run(batch)


def simulator_for(obj: Any) -> _Simulator:
    """Wrap a supported representation in the uniform simulator interface.

    Accepts a :class:`TruthTable`, :class:`Aig`, :class:`Xmg`,
    :class:`ReversibleCircuit`, an existing simulator, or a bare
    :class:`QuantumCircuit` — the latter is rejected with a pointer to
    :func:`mapped_circuit_simulator`, because a quantum circuit alone does
    not know which qubits are inputs and outputs.
    """
    if isinstance(obj, _Simulator):
        return obj
    if isinstance(obj, TruthTable):
        return _Simulator(
            obj.num_inputs,
            obj.num_outputs,
            lambda batch: bitsim.simulate_truth_table(obj, batch),
            "truth-table",
        )
    if isinstance(obj, Aig):
        return _Simulator(
            obj.num_pis(),
            obj.num_pos(),
            lambda batch: bitsim.simulate_aig(obj, batch),
            "aig",
        )
    if isinstance(obj, Xmg):
        return _Simulator(
            obj.num_pis(),
            obj.num_pos(),
            lambda batch: bitsim.simulate_xmg(obj, batch),
            "xmg",
        )
    if isinstance(obj, ReversibleCircuit):
        return _reversible_simulator(obj)
    if isinstance(obj, QuantumCircuit):
        raise TypeError(
            "a bare QuantumCircuit has no input/output qubit roles; wrap it "
            "with repro.verify.differential.mapped_circuit_simulator"
        )
    raise TypeError(f"cannot build a simulator for {type(obj).__name__}")


def _reversible_simulator(circuit: ReversibleCircuit) -> _Simulator:
    """Simulator for a reversible circuit that also checks its ancillas.

    Every constant line that is neither an output nor garbage must end at
    its initial value; the first dirty one raises
    :class:`MappedCircuitError` with the offending minterm.
    """
    ancillas = [
        (line, info.constant)
        for line, info in enumerate(circuit.lines())
        if info.is_constant() and not info.is_output() and not info.garbage
    ]
    rows = np.array([line for line, _ in ancillas], dtype=np.intp)
    ones = np.array([bool(value) for _, value in ancillas], dtype=bool)

    def run(batch: PatternBatch) -> np.ndarray:
        states = bitsim.simulate_reversible_states(circuit, batch)
        initial = np.where(ones[:, np.newaxis], batch.tail_mask(), 0)
        diff = states[rows] ^ initial
        dirty_rows, dirty_words = np.nonzero(diff)
        if dirty_rows.size:
            row, word = int(dirty_rows[0]), int(dirty_words[0])
            bits = int(diff[row, word])
            bit = (bits & -bits).bit_length() - 1
            minterm = batch.minterm(word * 64 + bit)
            raise MappedCircuitError(
                minterm,
                f"ancilla line {int(rows[row])} not restored on input {minterm}",
            )
        return bitsim.outputs_from_states(circuit, states)

    return _Simulator(
        circuit.num_inputs(), circuit.num_outputs(), run, "reversible"
    )


def mapped_circuit_simulator(
    quantum: QuantumCircuit, reversible: ReversibleCircuit
) -> _Simulator:
    """Simulator for a Clifford+T circuit mapped from a reversible circuit.

    The reversible circuit supplies the line roles (which qubits carry
    primary inputs, constants and outputs); the quantum circuit is run on
    the corresponding computational basis states with the dense statevector
    simulator, so each pattern proves the mapped circuit acts as the same
    classical permutation (no stray superpositions or phases between basis
    states).  Exponential in the qubit count — only sensible for small
    mapped circuits; sampled mode is recommended.
    """
    from repro.quantum.statevector import simulate_basis_state

    if quantum.num_qubits < reversible.num_lines():
        raise ValueError(
            "quantum circuit has fewer qubits than the reversible circuit "
            "it supposedly maps"
        )
    output_lines = reversible.output_lines()
    ordered_outputs = [output_lines[j] for j in sorted(output_lines)]

    def run(batch: PatternBatch) -> np.ndarray:
        columns = np.zeros(
            (len(ordered_outputs), batch.num_patterns), dtype=bool
        )
        for t in range(batch.num_patterns):
            minterm = batch.minterm(t)
            initial = reversible.initial_state(minterm)
            try:
                final = simulate_basis_state(quantum, initial)
            except ValueError as exc:
                # Superposition / stray-phase final state: the circuit is
                # not even classical on this input.
                raise MappedCircuitError(
                    minterm,
                    f"mapped circuit is not a classical permutation on "
                    f"input {minterm}: {exc}",
                ) from exc
            if final >> reversible.num_lines():
                raise MappedCircuitError(
                    minterm,
                    f"mapped circuit left ancilla qubits dirty on input "
                    f"{minterm}",
                )
            for j, line in enumerate(ordered_outputs):
                columns[j, t] = bool((final >> line) & 1)
        return bitsim.pack_bits(columns)

    return _Simulator(
        reversible.num_inputs(), reversible.num_outputs(), run, "clifford+t"
    )


#: Qubit ceiling of :func:`check_quantum_equivalent` — each sampled basis
#: state costs one dense statevector simulation of both circuits.
QUANTUM_EQUIV_QUBIT_LIMIT = 16


def check_quantum_equivalent(
    spec: QuantumCircuit,
    impl: QuantumCircuit,
    mode: str = "auto",
    num_samples: int = 16,
    seed: int = 1,
    atol: float = 1e-9,
) -> DifferentialResult:
    """Differentially compare two Clifford+T circuits as unitaries.

    Unlike :func:`check_equivalent` this does not need input/output roles:
    both circuits are applied to the same computational basis states and
    the full final statevectors are compared amplitude by amplitude
    (phases included, so a peephole pass dropping a lone ``s`` or ``t``
    gate is caught even though probabilities match).  ``mode`` follows the
    usual regimes — ``"full"`` simulates every basis state, ``"sampled"``
    a seeded random subset, ``"auto"`` picks full for small circuits.
    Exponential in the qubit count; circuits beyond
    :data:`QUANTUM_EQUIV_QUBIT_LIMIT` qubits are rejected with a
    :class:`ValueError` rather than silently skipped.
    """
    from repro.quantum.statevector import Statevector

    if spec.num_qubits != impl.num_qubits:
        return DifferentialResult(
            False,
            True,
            0,
            message=(
                f"qubit counts differ: {spec.num_qubits} vs {impl.num_qubits}"
            ),
        )
    n = spec.num_qubits
    if n > QUANTUM_EQUIV_QUBIT_LIMIT:
        raise ValueError(
            f"{n} qubits exceed the {QUANTUM_EQUIV_QUBIT_LIMIT}-qubit "
            "statevector equivalence limit"
        )
    mode = normalize_verify_mode(mode)
    if mode == "off":
        raise ValueError("mode 'off' is handled by callers, not the checker")
    if mode == "auto":
        mode = "full" if n <= 8 else "sampled"
    if mode == "full" or num_samples >= (1 << n):
        basis_states = list(range(1 << n))
        complete = True
    else:
        rng = np.random.default_rng(seed)
        basis_states = [
            int(state)
            for state in rng.integers(0, 1 << n, size=num_samples, dtype=np.int64)
        ]
        complete = False
    for state in basis_states:
        spec_vec = Statevector(n, state)
        spec_vec.apply_circuit(spec)
        impl_vec = Statevector(n, state)
        impl_vec.apply_circuit(impl)
        if not np.allclose(spec_vec.amplitudes, impl_vec.amplitudes, atol=atol):
            return DifferentialResult(
                False,
                complete,
                len(basis_states),
                counterexample=state,
                message=(
                    f"statevectors diverge on basis state {state} "
                    f"(max deviation "
                    f"{np.max(np.abs(spec_vec.amplitudes - impl_vec.amplitudes)):.3g})"
                ),
            )
    return DifferentialResult(True, complete, len(basis_states), message="ok")


def _make_batch(
    num_inputs: int,
    mode: str,
    num_samples: int,
    seed: int,
    auto_full_limit: int,
) -> PatternBatch:
    if mode == "auto":
        mode = "full" if num_inputs <= auto_full_limit else "sampled"
    if mode == "full":
        return exhaustive_batch(num_inputs)
    if mode == "sampled":
        total = 1 << num_inputs if num_inputs < 63 else None
        if total is not None and num_samples >= total:
            # Sampling at least the whole input space degrades to the
            # exhaustive batch: no duplicate draws, and the verdict is
            # complete.
            return exhaustive_batch(num_inputs)
        return random_batch(num_inputs, num_samples, seed=seed)
    raise ValueError(
        f"unknown verification mode {mode!r}; expected one of "
        f"{', '.join(m for m in VERIFY_MODES if m != 'off')}"
    )


def check_equivalent(
    spec: Any,
    impl: Any,
    mode: str = "auto",
    num_samples: int = 256,
    seed: int = 1,
    auto_full_limit: int = AUTO_FULL_LIMIT,
) -> DifferentialResult:
    """Differentially compare two representations of a Boolean function.

    ``spec`` and ``impl`` are any mix of truth table / AIG / XMG /
    reversible circuit / :func:`mapped_circuit_simulator` views.  Both are
    simulated on the same pattern batch; the result carries the first
    differing minterm and both output words on disagreement.  A reversible
    circuit must also return every constant line that is neither an output
    nor garbage to its initial value; a dirty one fails the check with that
    line and the offending minterm in the message.
    ``auto_full_limit`` is the input count up to which ``"auto"`` checks
    exhaustively — the single place that policy lives.
    """
    spec_sim = simulator_for(spec)
    impl_sim = simulator_for(impl)
    if spec_sim.num_inputs != impl_sim.num_inputs:
        return DifferentialResult(
            False,
            True,
            0,
            message=(
                f"input counts differ: {spec_sim.num_inputs} "
                f"({spec_sim.kind}) vs {impl_sim.num_inputs} ({impl_sim.kind})"
            ),
        )
    if spec_sim.num_outputs != impl_sim.num_outputs:
        return DifferentialResult(
            False,
            True,
            0,
            message=(
                f"output counts differ: {spec_sim.num_outputs} "
                f"({spec_sim.kind}) vs {impl_sim.num_outputs} ({impl_sim.kind})"
            ),
        )

    batch = _make_batch(
        spec_sim.num_inputs, mode, num_samples, seed, auto_full_limit
    )
    try:
        spec_out = spec_sim.simulate(batch)
        impl_out = impl_sim.simulate(batch)
    except MappedCircuitError as exc:
        return DifferentialResult(
            False,
            batch.exhaustive,
            batch.num_patterns,
            counterexample=exc.minterm,
            message=str(exc),
        )
    index = bitsim.first_difference(spec_out, impl_out, batch)
    if index is None:
        return DifferentialResult(
            True, batch.exhaustive, batch.num_patterns, message="ok"
        )
    minterm = batch.minterm(index)
    spec_word = bitsim.output_word_at(spec_out, index)
    impl_word = bitsim.output_word_at(impl_out, index)
    return DifferentialResult(
        False,
        batch.exhaustive,
        batch.num_patterns,
        counterexample=minterm,
        spec_word=spec_word,
        impl_word=impl_word,
        message=(
            f"output mismatch on input {minterm}: {impl_sim.kind} produced "
            f"{impl_word}, {spec_sim.kind} expected {spec_word}"
        ),
    )
