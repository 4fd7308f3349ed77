"""Differential verification across representation layers.

This is the fuzzing backbone promised by the verify subsystem: for each of
the paper's three flows, ≥25 random structures (logic networks and HDL
expression designs) are pushed through the full pipeline and every layer
is cross-checked against the next with ``repro.verify.differential`` —
bit-blasted AIG ↔ synthesised reversible circuit, and (where the mapped
circuit stays small) reversible circuit ↔ Clifford+T expansion.
"""

import numpy as np
import pytest

from repro.core.flows import run_flow
from repro.hdl.synthesize import synthesize_verilog
from repro.logic.truth_table import TruthTable
from repro.logic.xmg_mapping import aig_to_xmg
from repro.quantum.mapping import map_to_clifford_t
from repro.reversible.circuit import ReversibleCircuit
from repro.reversible.gates import ToffoliGate
from repro.reversible.symbolic_tbs import symbolic_tbs
from repro.verify.differential import (
    VERIFY_MODES,
    check_equivalent,
    mapped_circuit_simulator,
    normalize_verify_mode,
    simulator_for,
)
from repro.verify.fuzz import random_aig, random_hdl_design, random_truth_table

FLOW_PARAMETERS = {
    "symbolic": {},
    "esop": {"p": 1},
    "hierarchical": {"strategy": "bennett"},
}

#: The mapped Clifford+T cross-check simulates a dense statevector per
#: pattern; keep it to circuits this small.
QUANTUM_QUBIT_LIMIT = 12

NUM_FUZZ_CASES = 25


class TestFuzzedFlowAgreement:
    """AIG ↔ reversible ↔ Clifford+T agreement on fuzzed inputs, per flow."""

    @pytest.mark.parametrize("flow", sorted(FLOW_PARAMETERS))
    @pytest.mark.parametrize("seed", range(NUM_FUZZ_CASES))
    def test_random_aigs_survive_flow(self, flow, seed):
        aig = random_aig(seed, num_pis=3, num_gates=10, num_pos=2)
        result = run_flow(flow, aig, 3, verify=False, **FLOW_PARAMETERS[flow])
        check = check_equivalent(aig, result.circuit, mode="full")
        assert check.equivalent, check.message
        assert check.complete

        quantum = map_to_clifford_t(result.circuit)
        if quantum.num_qubits <= QUANTUM_QUBIT_LIMIT:
            quantum_check = check_equivalent(
                result.circuit,
                mapped_circuit_simulator(quantum, result.circuit),
                mode="sampled",
                num_samples=4,
                seed=seed,
            )
            assert quantum_check.equivalent, quantum_check.message

    @pytest.mark.parametrize("flow", sorted(FLOW_PARAMETERS))
    @pytest.mark.parametrize("seed", range(NUM_FUZZ_CASES))
    def test_random_hdl_designs_survive_flow(self, flow, seed):
        source = random_hdl_design(seed, width=2, num_inputs=2, num_wires=4)
        aig = synthesize_verilog(source)
        result = run_flow(
            flow, "fuzz", 2, verify=False, verilog=source, **FLOW_PARAMETERS[flow]
        )
        check = check_equivalent(aig, result.circuit, mode="full")
        assert check.equivalent, f"seed {seed}: {check.message}"
        assert check.complete


class TestDifferentialApi:
    def test_cross_representation_pairs(self):
        # One function, four representations: every pair must agree.
        source = random_hdl_design(11, width=2, num_inputs=2, num_wires=4)
        aig = synthesize_verilog(source)
        xmg = aig_to_xmg(aig, k=3)
        table = aig.to_truth_table()
        circuit = run_flow("esop", aig, 2, verify=False).circuit
        views = [aig, xmg, table, circuit]
        for spec in views:
            for impl in views:
                check = check_equivalent(spec, impl, mode="full")
                assert check.equivalent, check.message

    def test_counterexample_is_concrete(self):
        table = random_truth_table(3, num_inputs=4, num_outputs=3)
        words = np.array(table.words)
        words[9] ^= np.uint64(0b100)
        mutated = TruthTable(4, 3, words)
        check = check_equivalent(table, mutated, mode="full")
        assert not check.equivalent
        assert check.counterexample == 9
        assert check.spec_word == table.evaluate(9)
        assert check.impl_word == mutated.evaluate(9)
        assert "input 9" in check.message

    def test_sampled_mode_finds_gross_difference(self):
        table = random_truth_table(4, num_inputs=14, num_outputs=2)
        words = np.array(table.words)
        inverted = TruthTable(14, 2, words ^ np.uint64(0b11))
        check = check_equivalent(table, inverted, mode="sampled", num_samples=64)
        assert not check.equivalent
        assert not check.complete
        assert table.evaluate(check.counterexample) != inverted.evaluate(
            check.counterexample
        )

    def test_sampled_mode_degrades_to_exhaustive_on_small_spaces(self):
        table = random_truth_table(5, num_inputs=3, num_outputs=2)
        check = check_equivalent(table, table, mode="sampled", num_samples=4096)
        assert check.equivalent
        assert check.complete
        assert check.num_patterns == 8

    def test_auto_mode_switches_on_input_count(self):
        small = random_truth_table(6, num_inputs=4, num_outputs=1)
        check = check_equivalent(small, small, mode="auto")
        assert check.complete
        big = random_truth_table(7, num_inputs=16, num_outputs=1)
        check = check_equivalent(big, big, mode="auto", num_samples=32)
        assert not check.complete
        assert check.num_patterns == 32

    def test_interface_mismatches_reported(self):
        a = random_truth_table(0, num_inputs=3, num_outputs=2)
        b = random_truth_table(0, num_inputs=4, num_outputs=2)
        c = random_truth_table(0, num_inputs=3, num_outputs=3)
        assert "input counts differ" in check_equivalent(a, b).message
        assert "output counts differ" in check_equivalent(a, c).message

    def test_unknown_mode_rejected(self):
        table = random_truth_table(1)
        with pytest.raises(ValueError):
            check_equivalent(table, table, mode="thorough")

    def test_bare_quantum_circuit_rejected(self):
        circuit = run_flow("esop", random_aig(2, num_pis=3), 3, verify=False).circuit
        quantum = map_to_clifford_t(circuit)
        with pytest.raises(TypeError):
            simulator_for(quantum)

    def test_unsupported_object_rejected(self):
        with pytest.raises(TypeError):
            simulator_for(42)

    def test_mapped_simulator_detects_broken_mapping(self):
        table = random_truth_table(8, num_inputs=3, num_outputs=3)
        circuit = symbolic_tbs(table)
        quantum = map_to_clifford_t(circuit)
        # Corrupt the mapped circuit with one stray X gate on an output.
        corrupted = map_to_clifford_t(circuit)
        corrupted.add("x", circuit.output_lines()[0])
        good = check_equivalent(
            circuit, mapped_circuit_simulator(quantum, circuit), mode="full"
        )
        assert good.equivalent, good.message
        bad = check_equivalent(
            circuit, mapped_circuit_simulator(corrupted, circuit), mode="full"
        )
        assert not bad.equivalent

    def test_nonclassical_mapping_fails_gracefully(self):
        # A mapped circuit that leaves a superposition must yield a failing
        # DifferentialResult with a counterexample, not an exception.
        table = random_truth_table(9, num_inputs=3, num_outputs=3)
        circuit = symbolic_tbs(table)
        corrupted = map_to_clifford_t(circuit)
        corrupted.add("h", circuit.output_lines()[0])
        result = check_equivalent(
            circuit, mapped_circuit_simulator(corrupted, circuit), mode="full"
        )
        assert not result.equivalent
        assert result.counterexample is not None
        assert "not a classical permutation" in result.message


class TestVerifyModeNormalization:
    def test_booleans_and_none(self):
        assert normalize_verify_mode(True) == "auto"
        assert normalize_verify_mode(False) == "off"
        assert normalize_verify_mode(None) == "off"

    @pytest.mark.parametrize("mode", VERIFY_MODES)
    def test_canonical_modes_pass_through(self, mode):
        assert normalize_verify_mode(mode) == mode
        assert normalize_verify_mode(mode.upper()) == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            normalize_verify_mode("exhaustive-ish")


class TestReversibleCircuitChecks:
    """Sampling budgets and line-boundary semantics of reversible circuits."""

    def _circuit_and_spec(self, seed=0):
        table = random_truth_table(seed, num_inputs=3, num_outputs=3)
        return symbolic_tbs(table), table

    def test_oversampling_degrades_to_exhaustive(self):
        circuit, spec = self._circuit_and_spec()
        # 2**3 == 8 input words; a budget of 8 or more must check them all
        # exactly once and report a complete verdict.
        for budget in (8, 9, 4096):
            result = check_equivalent(
                spec, circuit, mode="sampled", num_samples=budget
            )
            assert result.equivalent
            assert result.complete, f"budget {budget} not reported complete"

    def test_undersampling_stays_incomplete(self):
        circuit, spec = self._circuit_and_spec()
        result = check_equivalent(spec, circuit, mode="sampled", num_samples=4)
        assert result.equivalent
        assert not result.complete

    def test_exhaustive_detects_output_corruption(self):
        circuit, spec = self._circuit_and_spec(seed=1)
        broken = circuit.copy()
        # Corrupt one output line at the end of the cascade.
        broken.append(ToffoliGate.x(circuit.output_lines()[0]))
        result = check_equivalent(spec, broken, mode="full")
        assert not result.equivalent
        assert result.complete
        assert result.counterexample is not None
        # The reported counterexample genuinely disagrees.
        assert broken.evaluate(result.counterexample) != spec.evaluate(
            result.counterexample
        )

    def test_dirty_ancilla_is_not_equivalent(self):
        circuit, spec = self._circuit_and_spec(seed=2)
        dirty = circuit.copy()
        anc = dirty.add_constant_line(0)
        input_line = next(iter(dirty.input_lines().values()))
        dirty.append(ToffoliGate.cnot(input_line, anc))
        assert check_equivalent(spec, circuit, mode="full")
        result = check_equivalent(spec, dirty, mode="full")
        assert not result.equivalent
        assert result.complete
        assert f"ancilla line {anc} not restored" in result.message
        x = result.counterexample
        assert (dirty.final_state(x) >> anc) & 1
        # The outputs are still right: only the ancilla fails the check.
        assert dirty.evaluate(x) == spec.evaluate(x)

    def test_ancilla_initialised_to_one_must_end_at_one(self):
        circuit, spec = self._circuit_and_spec(seed=3)
        kept = circuit.copy()
        anc = kept.add_constant_line(1)
        # A 4-pattern random batch leaves most of the word masked off.
        assert check_equivalent(spec, kept, mode="sampled", num_samples=4)
        assert check_equivalent(spec, kept, mode="full")
        cleared = kept.copy()
        cleared.append(ToffoliGate.x(anc))
        result = check_equivalent(spec, cleared, mode="full")
        assert not result.equivalent
        assert f"ancilla line {anc} not restored" in result.message
        assert result.counterexample == 0
        assert not (cleared.final_state(0) >> anc) & 1

    @pytest.mark.parametrize("seed", range(20))
    def test_ancilla_verdict_matches_per_minterm_replay(self, seed):
        # The batch check against a plain replay of every minterm: the
        # first dirty non-garbage ancilla in line order, at its first input.
        rng = np.random.default_rng(seed)
        circuit = ReversibleCircuit()
        for i in range(3):
            circuit.add_input_line(i)
            circuit.set_output(i, i)
        for _ in range(3):
            circuit.add_constant_line(int(rng.integers(2)))
        if rng.integers(2):
            circuit.set_garbage(3 + int(rng.integers(3)))

        def random_gate(targets):
            target = int(rng.choice(targets))
            controls = tuple(
                (line, bool(rng.integers(2)))
                for line in range(6)
                if line != target and rng.integers(3) == 0
            )
            return ToffoliGate(controls, target)

        gates = [random_gate(range(6)) for _ in range(6)]
        circuit.extend(gates + gates[::-1])
        circuit.extend(random_gate(range(3)) for _ in range(4))
        circuit.extend(random_gate(range(3, 6)) for _ in range(rng.integers(3)))
        spec = TruthTable.from_callable(circuit.evaluate, 3, 3)
        dirty = [
            (line, x)
            for line, info in enumerate(circuit.lines())
            if info.is_constant() and not info.garbage
            for x in range(8)
            if (circuit.final_state(x) >> line) & 1 != info.constant
        ]
        result = check_equivalent(spec, circuit, mode="full")
        if not dirty:
            assert result.equivalent, result.message
            return
        line, x = dirty[0]
        assert not result.equivalent
        assert result.counterexample == x
        assert result.message == f"ancilla line {line} not restored on input {x}"

    def test_garbage_ancilla_may_end_dirty(self):
        circuit, spec = self._circuit_and_spec(seed=2)
        dirty = circuit.copy()
        anc = dirty.add_constant_line(0)
        input_line = next(iter(dirty.input_lines().values()))
        dirty.append(ToffoliGate.cnot(input_line, anc))
        dirty.set_garbage(anc)
        assert check_equivalent(spec, dirty, mode="full")
