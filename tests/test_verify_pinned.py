"""Pinned ``check_equivalent`` results.

Every case below is a pair from the fuzz corpora of :mod:`repro.verify.fuzz`
(or a cascade synthesised from one), usually with one side mutated, and
the expected :class:`~repro.verify.differential.DifferentialResult` was
recorded field by field before the simulators moved from ``uint64`` word
matrices to one Python int per signal.  A change to the random pattern
draw, to the bit order of a batch, to the first-difference scan or to the
ancilla scan changes at least one of them.
"""

import random

import pytest

from repro.core.flows import run_flow
from repro.logic.aig import Aig
from repro.logic.truth_table import TruthTable
from repro.logic.xmg import Xmg
from repro.logic.xmg_mapping import aig_to_xmg
from repro.quantum.mapping import map_to_clifford_t
from repro.reversible.gates import ToffoliGate
from repro.reversible.symbolic_tbs import symbolic_tbs
from repro.verify.differential import check_equivalent, mapped_circuit_simulator
from repro.verify.fuzz import random_aig, random_truth_table, random_xmg


def _flip_aig(aig: Aig, seed: int) -> Aig:
    """A copy of ``aig`` with the first fanin of one AND node complemented."""
    ands = [node for node in aig.nodes() if aig.is_and(node)]
    victim = random.Random(seed).choice(ands)
    result = Aig(aig.name)
    mapping = {0: 0}
    for pi in aig.pis():
        mapping[pi >> 1] = result.add_pi()
    for node in ands:
        f0, f1 = aig.fanins(node)
        mapping[node] = result.create_and(
            mapping[f0 >> 1] ^ (f0 & 1) ^ (node == victim),
            mapping[f1 >> 1] ^ (f1 & 1),
        )
    for po in aig.pos():
        result.add_po(mapping[po >> 1] ^ (po & 1))
    return result


def _flip_xmg(xmg: Xmg, seed: int) -> Xmg:
    """A copy of ``xmg`` with the first fanin of one gate complemented."""
    gates = xmg.gate_nodes()
    victim = random.Random(seed).choice(gates)
    result = Xmg(xmg.name)
    mapping = {0: 0}
    for pi in xmg.pis():
        mapping[pi >> 1] = result.add_pi()
    for node in gates:
        operands = [mapping[f >> 1] ^ (f & 1) for f in xmg.fanins(node)]
        operands[0] ^= node == victim
        create = result.create_maj if xmg.is_maj(node) else result.create_xor
        mapping[node] = create(*operands)
    for po in xmg.pos():
        result.add_po(mapping[po >> 1] ^ (po & 1))
    return result


def _flip_table(table: TruthTable, seed: int, dense: bool) -> TruthTable:
    """``table`` with one output bit flipped on one minterm, or on about half."""
    rng = random.Random(seed)
    words = table.words.copy()
    output = rng.randrange(table.num_outputs)
    minterms = (
        [x for x in range(len(words)) if rng.random() < 0.5]
        if dense
        else [rng.randrange(len(words))]
    )
    for x in minterms:
        words[x] ^= 1 << output
    return TruthTable(table.num_inputs, table.num_outputs, words)


def _esop_cascade(aig: Aig):
    return run_flow("esop", aig, aig.num_pis(), verify=False).circuit


def _with_gate(circuit, seed: int):
    """``circuit`` with one Toffoli on an output line appended."""
    rng = random.Random(seed)
    mutated = circuit.copy()
    inputs = sorted(circuit.input_lines().values())
    a, b = rng.sample(inputs, 2)
    target = rng.choice(sorted(circuit.output_lines().values()))
    mutated.append(ToffoliGate(((a, True), (b, False)), target))
    return mutated


def _dirty_ancilla(circuit, controls, constant=0):
    """``circuit`` with a new ancilla that ``controls`` flip and never restore."""
    dirty = circuit.copy()
    ancilla = dirty.add_constant_line(constant)
    inputs = dirty.input_lines()
    dirty.append(
        ToffoliGate(tuple((inputs[i], True) for i in controls), ancilla)
    )
    return dirty


def _tbs(seed, num_inputs):
    table = random_truth_table(seed, num_inputs=num_inputs, num_outputs=num_inputs)
    return table, symbolic_tbs(table)


def _case_aig_full():
    spec = random_aig(1, num_pis=7, num_gates=40, num_pos=4)
    return spec, _flip_aig(spec, 1), {"mode": "full"}


def _case_aig_sampled():
    spec = random_aig(2, num_pis=12, num_gates=60, num_pos=4)
    return spec, _flip_aig(spec, 17), {"mode": "sampled", "num_samples": 100, "seed": 5}


def _case_aig_auto_sampled():
    spec = random_aig(3, num_pis=14, num_gates=60, num_pos=3)
    return spec, _flip_aig(spec, 3), {"mode": "auto"}


def _case_aig_equal_sampled():
    spec = random_aig(12, num_pis=13, num_gates=50, num_pos=3)
    return spec, spec.cleanup(), {"mode": "sampled", "num_samples": 300, "seed": 9}


def _case_xmg_full():
    spec = random_xmg(4, num_pis=7, num_gates=30, num_pos=3)
    return spec, _flip_xmg(spec, 4), {"mode": "full"}


def _case_xmg_sampled():
    spec = random_xmg(5, num_pis=11, num_gates=40, num_pos=3)
    return spec, _flip_xmg(spec, 7), {"mode": "sampled", "num_samples": 70, "seed": 2}


def _case_aig_xmg_full():
    spec = random_aig(6, num_pis=6, num_gates=30, num_pos=3)
    return spec, _flip_xmg(aig_to_xmg(spec, k=3), 6), {"mode": "full"}


def _case_tt_full():
    spec = random_truth_table(7, num_inputs=8, num_outputs=5)
    return spec, _flip_table(spec, 7, dense=False), {"mode": "full"}


def _case_tt_sampled():
    spec = random_truth_table(8, num_inputs=12, num_outputs=4)
    return (
        spec,
        _flip_table(spec, 8, dense=True),
        {"mode": "sampled", "num_samples": 200, "seed": 3},
    )


def _case_tt_aig_full():
    aig = random_aig(13, num_pis=6, num_gates=30, num_pos=3)
    return aig.to_truth_table(), _flip_aig(aig, 2), {"mode": "full"}


def _case_rev_full():
    spec = random_aig(9, num_pis=6, num_gates=25, num_pos=3)
    return spec, _with_gate(_esop_cascade(spec), 9), {"mode": "full"}


def _case_rev_sampled():
    spec = random_aig(10, num_pis=11, num_gates=40, num_pos=3)
    return (
        spec,
        _with_gate(_esop_cascade(spec), 10),
        {"mode": "sampled", "num_samples": 90, "seed": 4},
    )


def _case_rev_tt_full():
    table, circuit = _tbs(11, 5)
    return table, _with_gate(circuit, 11), {"mode": "full"}


def _case_rev_equal_sampled():
    spec = random_aig(14, num_pis=10, num_gates=40, num_pos=3)
    return spec, _esop_cascade(spec), {"mode": "sampled", "num_samples": 130, "seed": 6}


def _case_ancilla_full():
    table, circuit = _tbs(2, 4)
    return table, _dirty_ancilla(circuit, [1, 3]), {"mode": "full"}


def _case_ancilla_two_lines_full():
    # The lower line is dirty first on input 3, the higher one on input 1:
    # the scan names the lower line.
    table, circuit = _tbs(5, 4)
    return table, _dirty_ancilla(_dirty_ancilla(circuit, [0, 1]), [0]), {"mode": "full"}


def _case_ancilla_sampled():
    spec = random_aig(15, num_pis=10, num_gates=30, num_pos=3)
    dirty = _dirty_ancilla(_esop_cascade(spec), [0, 4, 7])
    return spec, dirty, {"mode": "sampled", "num_samples": 80, "seed": 8}


def _case_ancilla_one_cleared_full():
    table, circuit = _tbs(3, 3)
    cleared = circuit.copy()
    ancilla = cleared.add_constant_line(1)
    cleared.append(ToffoliGate(((0, False),), ancilla))
    return table, cleared, {"mode": "full"}


def _case_mapped_full():
    _, circuit = _tbs(8, 3)
    corrupted = map_to_clifford_t(circuit)
    corrupted.add("x", sorted(circuit.output_lines().values())[1])
    return circuit, mapped_circuit_simulator(corrupted, circuit), {"mode": "full"}


def _case_mapped_sampled():
    _, circuit = _tbs(16, 4)
    corrupted = map_to_clifford_t(circuit)
    corrupted.add("x", sorted(circuit.output_lines().values())[0])
    return (
        circuit,
        mapped_circuit_simulator(corrupted, circuit),
        {"mode": "sampled", "num_samples": 6, "seed": 7},
    )


def _case_mapped_nonclassical_full():
    _, circuit = _tbs(9, 3)
    corrupted = map_to_clifford_t(circuit)
    corrupted.add("h", sorted(circuit.output_lines().values())[0])
    return circuit, mapped_circuit_simulator(corrupted, circuit), {"mode": "full"}


def _case_mapped_equal_sampled():
    _, circuit = _tbs(17, 3)
    quantum = map_to_clifford_t(circuit)
    return (
        circuit,
        mapped_circuit_simulator(quantum, circuit),
        {"mode": "sampled", "num_samples": 5, "seed": 11},
    )


CASES = {
    name[len("_case_"):]: builder
    for name, builder in sorted(globals().items())
    if name.startswith("_case_")
}

#: ``(equivalent, complete, num_patterns, counterexample, spec_word,
#: impl_word, message)`` of every case.
PINNED = {
    'aig_auto_sampled': (
        False, False, 256, 2817, 2, 3,
        'output mismatch on input 2817: aig produced 3, aig expected 2',
    ),
    'aig_equal_sampled': (
        True, False, 300, None, None, None,
        'ok',
    ),
    'aig_full': (
        False, True, 128, 72, 5, 13,
        'output mismatch on input 72: aig produced 13, aig expected 5',
    ),
    'aig_sampled': (
        False, False, 100, 2276, 2, 0,
        'output mismatch on input 2276: aig produced 0, aig expected 2',
    ),
    'aig_xmg_full': (
        False, True, 64, 1, 4, 5,
        'output mismatch on input 1: xmg produced 5, aig expected 4',
    ),
    'ancilla_full': (
        False, True, 16, 6, None, None,
        'ancilla line 6 not restored on input 6',
    ),
    'ancilla_one_cleared_full': (
        False, True, 8, 0, None, None,
        'ancilla line 5 not restored on input 0',
    ),
    'ancilla_sampled': (
        False, False, 80, 151, None, None,
        'ancilla line 13 not restored on input 151',
    ),
    'ancilla_two_lines_full': (
        False, True, 16, 3, None, None,
        'ancilla line 6 not restored on input 3',
    ),
    'mapped_equal_sampled': (
        True, False, 5, None, None, None,
        'ok',
    ),
    'mapped_full': (
        False, True, 8, 0, 5, 7,
        'output mismatch on input 0: clifford+t produced 7, reversible expected 5',
    ),
    'mapped_nonclassical_full': (
        False, True, 8, 0, None, None,
        'mapped circuit is not a classical permutation on input 0: state is not a computational basis state',
    ),
    'mapped_sampled': (
        False, False, 6, 3, 6, 7,
        'output mismatch on input 3: clifford+t produced 7, reversible expected 6',
    ),
    'rev_equal_sampled': (
        True, False, 130, None, None, None,
        'ok',
    ),
    'rev_full': (
        False, True, 64, 8, 1, 3,
        'output mismatch on input 8: reversible produced 3, aig expected 1',
    ),
    'rev_sampled': (
        False, False, 90, 1788, 5, 7,
        'output mismatch on input 1788: reversible produced 7, aig expected 5',
    ),
    'rev_tt_full': (
        False, True, 32, 2, 25, 17,
        'output mismatch on input 2: reversible produced 17, truth-table expected 25',
    ),
    'tt_aig_full': (
        False, True, 64, 32, 3, 1,
        'output mismatch on input 32: aig produced 1, truth-table expected 3',
    ),
    'tt_full': (
        False, True, 256, 77, 26, 30,
        'output mismatch on input 77: truth-table produced 30, truth-table expected 26',
    ),
    'tt_sampled': (
        False, False, 200, 4034, 11, 9,
        'output mismatch on input 4034: truth-table produced 9, truth-table expected 11',
    ),
    'xmg_full': (
        False, True, 128, 8, 5, 1,
        'output mismatch on input 8: xmg produced 1, xmg expected 5',
    ),
    'xmg_sampled': (
        False, False, 70, 189, 6, 2,
        'output mismatch on input 189: xmg produced 2, xmg expected 6',
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_equivalent_result_is_pinned(name):
    spec, impl, options = CASES[name]()
    result = check_equivalent(spec, impl, **options)
    assert (
        result.equivalent,
        result.complete,
        result.num_patterns,
        result.counterexample,
        result.spec_word,
        result.impl_word,
        result.message,
    ) == PINNED[name]


def test_every_case_is_pinned_and_most_fail():
    assert set(PINNED) == set(CASES)
    failing = [name for name, pinned in PINNED.items() if not pinned[0]]
    assert len(failing) >= len(PINNED) - 4
