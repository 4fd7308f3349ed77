"""The big-int cascade simulator against the NumPy word-row oracle.

:func:`repro.verify.bitsim.simulate_reversible_states` keeps each line's
state across the batch as one Python int.  It must return exactly the
line states the per-gate NumPy replay on ``uint64`` word rows of
:mod:`oracles.circuits` returns — on random cascades with negative
controls, uncontrolled NOTs, constant-1 and unbound lines, for batch
sizes on both sides of every word boundary, and on the Table II cascade.
"""

import random

import pytest

from oracles.circuits import simulate_reversible_states_reference
from repro.reversible.circuit import ReversibleCircuit
from repro.reversible.gates import ToffoliGate
from repro.verify.bitsim import (
    PatternBatch,
    exhaustive_chunks,
    random_batch,
    simulate_reversible_states,
)

BATCH_SIZES = (1, 63, 64, 65, 70, 256, 4096)


def _random_cascade(rng, num_inputs, num_lines, num_gates):
    """Input, constant-0, constant-1 and unbound lines under random gates."""
    circuit = ReversibleCircuit()
    for index in range(num_inputs):
        circuit.add_input_line(index)
    for _ in range(num_lines - num_inputs):
        role = rng.randrange(3)
        if role == 2:
            circuit.add_line()
        else:
            circuit.add_constant_line(role)
    for _ in range(num_gates):
        target = rng.randrange(num_lines)
        others = [line for line in range(num_lines) if line != target]
        arity = 0 if rng.random() < 0.2 else rng.randint(0, min(5, len(others)))
        controls = [
            (line, rng.random() < 0.6) for line in rng.sample(others, arity)
        ]
        circuit.append(ToffoliGate(tuple(controls), target))
    return circuit


def _cases():
    """100 seeded (cascade, batch) pairs over every batch size."""
    rng = random.Random(2024)
    cases = []
    for index in range(100):
        num_patterns = BATCH_SIZES[index % len(BATCH_SIZES)]
        if index % 2:
            num_inputs = num_patterns.bit_length() - 1
            if 1 << num_inputs != num_patterns:
                num_inputs = rng.randint(0, 6)
            batch = next(exhaustive_chunks(num_inputs))
        else:
            num_inputs = rng.randint(0, 8)
            batch = random_batch(num_inputs, num_patterns, seed=index)
        # Every tenth cascade spans more than 64 lines (multi-word masks).
        num_lines = num_inputs + (rng.randint(60, 70) if index % 10 == 9
                                  else rng.randint(1, 6))
        circuit = _random_cascade(rng, num_inputs, num_lines, rng.randint(0, 80))
        cases.append((circuit, batch))
    return cases


CASES = _cases()


def _assert_matches_oracle(circuit, batch):
    states = simulate_reversible_states(circuit, batch)
    assert len(states) == circuit.num_lines()
    assert states == simulate_reversible_states_reference(circuit, batch)
    return states


def test_cases_cover_every_batch_size_and_line_role():
    sizes = {
        (batch.num_patterns, batch.first_minterm is not None) for _, batch in CASES
    }
    assert {size for size, _ in sizes} >= set(BATCH_SIZES)
    assert {(1, True), (64, True), (256, True), (4096, True)} <= sizes
    assert {(size, False) for size in BATCH_SIZES} <= sizes
    lines = [info for circuit, _ in CASES for info in circuit.lines()]
    assert any(info.constant == 1 for info in lines)
    assert any(info.constant is None and info.input_index is None for info in lines)
    columns = [circuit.gate_store().columns() for circuit, _ in CASES]
    assert any(0 in cares for _, cares, _ in columns)
    assert any(
        care & ~polarity
        for _, cares, polarities in columns
        for care, polarity in zip(cares, polarities)
    )


@pytest.mark.parametrize("index", range(len(CASES)))
def test_random_cascade_matches_oracle(index):
    circuit, batch = CASES[index]
    _assert_matches_oracle(circuit, batch)


def test_bits_beyond_the_batch_are_ignored():
    # A hand-built batch may carry set bits past num_patterns; the batch
    # masks them off, and the states stay within it, NOT gates included.
    rng = random.Random(7)
    circuit = _random_cascade(rng, 3, 6, 40)
    circuit.append(ToffoliGate.x(5))
    batch = PatternBatch(3, 70, [(1 << 128) - 1] * 3)
    assert batch.inputs == [batch.mask] * 3
    states = _assert_matches_oracle(circuit, batch)
    assert all(0 <= state <= batch.mask for state in states)


def test_empty_circuit_has_no_states():
    assert _assert_matches_oracle(ReversibleCircuit(), next(exhaustive_chunks(0))) == []


@pytest.mark.parametrize("exhaustive", [True, False])
def test_intdiv8_symbolic_cascade_matches_oracle(
    intdiv8_symbolic_cascade, exhaustive
):
    circuit = intdiv8_symbolic_cascade
    batch = (
        next(exhaustive_chunks(circuit.num_inputs()))
        if exhaustive
        else random_batch(circuit.num_inputs(), 70, seed=3)
    )
    _assert_matches_oracle(circuit, batch)
