"""Unit tests for the bit-parallel simulation core (repro.verify.bitsim).

The load-bearing property is exact agreement with the per-minterm reference
semantics of every structure (the network walks of :mod:`oracles.logic`,
``ReversibleCircuit.evaluate``/``final_state``, ``TruthTable.evaluate``) —
the acceptance criterion of the subsystem is "identical verdicts to the
legacy per-input paths".
"""

import numpy as np
import pytest

from oracles.logic import simulate_minterm
from repro.core.flows import run_flow
from repro.logic.truth_table import TruthTable, tt_var
from repro.reversible.circuit import ReversibleCircuit
from repro.reversible.gates import ToffoliGate
from repro.verify import bitsim
from repro.verify.bitsim import (
    PatternBatch,
    exhaustive_chunks,
    random_batch,
    simulate_reversible,
    simulate_reversible_states,
    simulate_truth_table,
)
from repro.verify.fuzz import random_aig, random_truth_table, random_xmg


def _simulate(network, batch):
    return network.simulate_words(batch.inputs, batch.num_patterns)


class TestBatches:
    @pytest.mark.parametrize("num_inputs", [0, 1, 3, 5, 6, 7, 9])
    def test_one_chunk_enumerates_all_minterms(self, num_inputs):
        (batch,) = exhaustive_chunks(num_inputs)
        assert batch.first_minterm == 0
        assert batch.num_patterns == 1 << num_inputs
        assert batch.minterms() == list(range(1 << num_inputs))

    def test_exhaustive_chunks_reject_huge_and_negative_inputs(self):
        with pytest.raises(ValueError):
            next(exhaustive_chunks(31))
        with pytest.raises(ValueError):
            next(exhaustive_chunks(-1))

    @pytest.mark.parametrize("num_inputs", [0, 2, 3, 5])
    def test_chunks_enumerate_every_minterm_in_order(self, monkeypatch, num_inputs):
        monkeypatch.setattr(bitsim, "CHUNK_INPUTS", 3)
        chunks = list(exhaustive_chunks(num_inputs))
        assert len(chunks) == 1 << max(num_inputs - 3, 0)
        size = 1 << min(num_inputs, 3)
        assert all(chunk.num_patterns == size for chunk in chunks)
        assert [chunk.first_minterm for chunk in chunks] == [
            c * size for c in range(len(chunks))
        ]
        minterms = [x for chunk in chunks for x in chunk.minterms()]
        assert minterms == list(range(1 << num_inputs))

    def test_one_chunk_up_to_sixteen_inputs(self):
        (chunk,) = exhaustive_chunks(16)
        assert chunk.num_patterns == 1 << 16
        assert chunk.inputs == [tt_var(i, 16) for i in range(16)]

    def test_seventeen_inputs_take_two_chunks(self):
        low, high = exhaustive_chunks(17)
        assert low.num_patterns == high.num_patterns == 1 << 16
        assert low.inputs[16] == 0 and high.inputs[16] == high.mask
        assert high.minterm(0) == 1 << 16
        assert high.minterm(5) == (1 << 16) + 5
        assert (low.first_minterm, high.first_minterm) == (0, 1 << 16)

    def test_random_batch_is_seed_deterministic(self):
        a = random_batch(5, 100, seed=7)
        b = random_batch(5, 100, seed=7)
        c = random_batch(5, 100, seed=8)
        assert a.inputs == b.inputs
        assert a.inputs != c.inputs
        assert a.first_minterm is None

    def test_random_batch_reads_the_uint64_draw_bit_for_bit(self):
        # Pattern t of input i is bit t % 64 of word t // 64 of row i of
        # the seeded (inputs, words) uint64 matrix.
        batch = random_batch(4, 130, seed=3)
        rng = np.random.default_rng(3)
        matrix = rng.integers(0, 1 << 64, size=(4, 3), dtype=np.uint64)
        for i, pattern in enumerate(batch.inputs):
            for t in range(130):
                word = int(matrix[i, t // 64])
                assert (pattern >> t) & 1 == (word >> (t % 64)) & 1

    def test_random_batch_masks_tail_bits(self):
        batch = random_batch(4, 70, seed=3)
        assert batch.mask == (1 << 70) - 1
        assert all(0 <= pattern <= batch.mask for pattern in batch.inputs)
        assert any(pattern >> 64 for pattern in batch.inputs)

    def test_minterm_reads_bit_t_of_each_input(self):
        batch = PatternBatch(3, 4, [0b0110, 0b1100, 0b1000])
        assert batch.minterms() == [0b000, 0b001, 0b011, 0b110]

    def test_minterm_out_of_range(self):
        batch = next(exhaustive_chunks(3))
        with pytest.raises(ValueError):
            batch.minterm(8)

    def test_input_count_validation(self):
        with pytest.raises(ValueError):
            PatternBatch(2, 64, [0])
        with pytest.raises(ValueError):
            PatternBatch(2, 0, [0, 0])


class TestStructureSimulators:
    @pytest.mark.parametrize("seed", range(5))
    def test_aig_matches_per_minterm_reference(self, seed):
        aig = random_aig(seed, num_pis=5, num_gates=15, num_pos=3)
        outputs = _simulate(aig, next(exhaustive_chunks(5)))
        for x in range(32):
            assert bitsim.output_word_at(outputs, x) == simulate_minterm(aig, x)

    @pytest.mark.parametrize("seed", range(5))
    def test_xmg_matches_per_minterm_reference(self, seed):
        xmg = random_xmg(seed, num_pis=5, num_gates=12, num_pos=3)
        outputs = _simulate(xmg, next(exhaustive_chunks(5)))
        for x in range(32):
            assert bitsim.output_word_at(outputs, x) == simulate_minterm(xmg, x)

    @pytest.mark.parametrize("seed", range(3))
    def test_truth_table_random_batch_matches_evaluate(self, seed):
        table = random_truth_table(seed, num_inputs=6, num_outputs=4)
        batch = random_batch(6, 100, seed=seed + 1)
        outputs = simulate_truth_table(table, batch)
        for t, minterm in enumerate(batch.minterms()):
            assert bitsim.output_word_at(outputs, t) == table.evaluate(minterm)

    def test_reversible_matches_evaluate_and_final_state(self):
        # A circuit with inputs, a set constant, negative controls and an
        # uncontrolled NOT, exercising every initial-state and trigger path.
        circuit = ReversibleCircuit("mix")
        x0 = circuit.add_input_line(0)
        x1 = circuit.add_input_line(1)
        anc = circuit.add_constant_line(1)
        out = circuit.add_constant_line(0)
        circuit.set_output(out, 0)
        circuit.append(ToffoliGate.from_lines([x0], [x1], out))
        circuit.append(ToffoliGate.cnot(anc, out))
        circuit.append(ToffoliGate.x(anc))
        circuit.append(ToffoliGate.toffoli(x0, x1, out))
        batch = next(exhaustive_chunks(2))
        outputs = simulate_reversible(circuit, batch)
        states = simulate_reversible_states(circuit, batch)
        for x in range(4):
            assert bitsim.output_word_at(outputs, x) == circuit.evaluate(x)
            reference = circuit.final_state(x)
            for line in range(circuit.num_lines()):
                assert (states[line] >> x) & 1 == (reference >> line) & 1

    def test_zero_output_circuit(self):
        circuit = ReversibleCircuit("no-outputs")
        x0 = circuit.add_input_line(0)
        x1 = circuit.add_input_line(1)
        circuit.append(ToffoliGate.cnot(x0, x1))
        outputs = simulate_reversible(circuit, random_batch(2, 70, seed=9))
        assert outputs == []
        assert bitsim.first_difference(outputs, list(outputs)) is None

    def test_networks_agree_across_chunks(self, monkeypatch):
        # Tiny chunks: a 9-input space crosses 31 chunk boundaries, and
        # every chunk's outputs must match the per-minterm walk.
        monkeypatch.setattr(bitsim, "CHUNK_INPUTS", 4)
        aig = random_aig(3, num_pis=9, num_gates=20, num_pos=3)
        xmg = random_xmg(4, num_pis=9, num_gates=15, num_pos=2)
        for chunk in exhaustive_chunks(9):
            aig_outputs = _simulate(aig, chunk)
            xmg_outputs = _simulate(xmg, chunk)
            for t in range(0, chunk.num_patterns, 3):
                x = chunk.minterm(t)
                assert bitsim.output_word_at(aig_outputs, t) == simulate_minterm(aig, x)
                assert bitsim.output_word_at(xmg_outputs, t) == simulate_minterm(xmg, x)

    def test_truth_table_chunk_reads_its_own_minterms(self, monkeypatch):
        # A chunk slices the table's rows from its first minterm; the same
        # patterns without a first minterm take the gather and agree.
        monkeypatch.setattr(bitsim, "CHUNK_INPUTS", 3)
        table = random_truth_table(5, num_inputs=6, num_outputs=3)
        for chunk in exhaustive_chunks(6):
            outputs = simulate_truth_table(table, chunk)
            for t, minterm in enumerate(chunk.minterms()):
                assert bitsim.output_word_at(outputs, t) == table.evaluate(minterm)
            gathered = PatternBatch(6, chunk.num_patterns, chunk.inputs)
            assert simulate_truth_table(table, gathered) == outputs

    def test_input_count_mismatch_rejected(self):
        aig = random_aig(0, num_pis=4)
        with pytest.raises(ValueError):
            _simulate(aig, next(exhaustive_chunks(3)))
        xmg = random_xmg(0, num_pis=4)
        with pytest.raises(ValueError):
            _simulate(xmg, next(exhaustive_chunks(3)))
        table = random_truth_table(0, num_inputs=4)
        with pytest.raises(ValueError):
            simulate_truth_table(table, next(exhaustive_chunks(3)))
        with pytest.raises(ValueError):
            aig.simulate_words([0] * 4, 0)


class TestDifferenceHelpers:
    def test_first_difference_and_word_extraction(self):
        table = random_truth_table(1, num_inputs=7, num_outputs=3)
        words = np.array(table.words)
        words[100] ^= np.uint64(0b10)  # flip output 1 of minterm 100
        mutated = TruthTable(7, 3, words)
        batch = next(exhaustive_chunks(7))
        a = simulate_truth_table(table, batch)
        b = simulate_truth_table(mutated, batch)
        index = bitsim.first_difference(a, b)
        assert index == 100
        assert bitsim.output_word_at(a, 100) ^ bitsim.output_word_at(b, 100) == 0b10

    def test_first_difference_is_the_lowest_pattern_over_all_outputs(self):
        assert bitsim.first_difference([0b1000, 0b0], [0b0, 0b0100]) == 2

    def test_first_difference_none_on_equal(self):
        table = random_truth_table(2, num_inputs=5, num_outputs=2)
        a = simulate_truth_table(table, next(exhaustive_chunks(5)))
        assert bitsim.first_difference(a, list(a)) is None


class TestLegacyAgreement:
    """bitsim verdicts equal the per-input loop on real flow outputs."""

    @pytest.mark.parametrize(
        "flow,design,bitwidth,parameters",
        [
            ("symbolic", "intdiv", 3, {}),
            ("esop", "intdiv", 4, {"p": 0}),
            ("esop", "newton", 2, {"p": 1}),
            ("hierarchical", "intdiv", 4, {"strategy": "bennett"}),
            ("hierarchical", "newton", 2, {"strategy": "per_output"}),
        ],
    )
    def test_flow_outputs_agree_with_per_input_loop(
        self, flow, design, bitwidth, parameters
    ):
        result = run_flow(flow, design, bitwidth, verify=False, **parameters)
        circuit = result.circuit
        batch = next(exhaustive_chunks(circuit.num_inputs()))
        outputs = simulate_reversible(circuit, batch)
        for x in range(batch.num_patterns):
            assert bitsim.output_word_at(outputs, x) == circuit.evaluate(x)
