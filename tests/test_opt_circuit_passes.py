"""Tests for the circuit-level pass framework: rev/qc targets, libraries, flows.

The central properties: every registered reversible pass preserves the
circuit permutation on fuzzed cascades, every Clifford+T pass preserves
the full unitary (checked amplitude-by-amplitude, phases included), the
pipeline engine dispatches cost/copy/guard per target type, and the flow
parameters ``rev_opt`` / ``map_model`` / ``qc_opt`` thread end to end.
"""

import numpy as np
import pytest

from repro.core.flows import run_flow
from repro.opt import (
    DEFAULT_QC_PIPELINE,
    DEFAULT_REV_PIPELINE,
    PipelineError,
    PipelineVerificationError,
    available_passes,
    get_pass,
    named_pipelines,
    parse_pipeline,
    qc_cancel,
    qc_merge,
    target_copy,
    target_cost,
    target_kind,
    target_stats,
)
from repro.opt.targets import reversible_depth
from repro.quantum.circuit import SUPPORTED_GATES, QuantumCircuit
from repro.quantum.mapping import map_to_clifford_t
from repro.reversible.circuit import ReversibleCircuit
from repro.reversible.gates import ToffoliGate
from repro.verify.differential import check_equivalent, check_quantum_equivalent

FUZZ_SEEDS = range(10)


def random_reversible(seed, num_lines=4, max_gates=14):
    rng = np.random.default_rng(seed)
    circuit = ReversibleCircuit(f"fuzz{seed}")
    for i in range(num_lines):
        circuit.add_input_line(i)
        circuit.set_output(i, i)
    for _ in range(int(rng.integers(0, max_gates + 1))):
        target = int(rng.integers(0, num_lines))
        controls = []
        for line in range(num_lines):
            if line == target:
                continue
            draw = rng.integers(0, 3)
            if draw:
                controls.append((line, bool(draw - 1)))
        circuit.append(ToffoliGate(tuple(controls), target))
    return circuit


def random_quantum(seed, num_qubits=4, max_gates=24):
    rng = np.random.default_rng(seed)
    names = sorted(SUPPORTED_GATES)
    circuit = QuantumCircuit(num_qubits, name=f"qfuzz{seed}")
    for _ in range(int(rng.integers(0, max_gates + 1))):
        name = names[int(rng.integers(0, len(names)))]
        qubits = rng.choice(num_qubits, size=SUPPORTED_GATES[name], replace=False)
        circuit.add(name, *(int(q) for q in qubits))
    return circuit


# ---------------------------------------------------------------------------
# Target dispatch
# ---------------------------------------------------------------------------


class TestTargets:
    def test_target_kind_tags(self):
        assert target_kind(random_reversible(0)) == "rev"
        assert target_kind(random_quantum(0)) == "qc"
        with pytest.raises(TypeError):
            target_kind(object())

    def test_rev_cost_is_t_count_then_gates(self):
        circuit = random_reversible(1)
        assert target_cost(circuit) == (circuit.t_count(), circuit.num_gates())

    def test_qc_cost_is_t_count_then_gates(self):
        circuit = random_quantum(1)
        assert target_cost(circuit) == (circuit.t_count(), circuit.num_gates())

    def test_target_copy_is_isolated(self):
        circuit = random_reversible(2)
        copy = target_copy(circuit)
        copy.append(ToffoliGate.x(0))
        assert copy.num_gates() == circuit.num_gates() + 1

    def test_target_stats_shapes(self):
        rev = random_reversible(3)
        stats = target_stats(rev)
        assert stats.kind == "rev"
        assert stats.num_gates == rev.num_gates()
        assert stats.num_pis == rev.num_inputs()
        qc = random_quantum(3)
        qstats = target_stats(qc)
        assert qstats.kind == "qc"
        assert qstats.num_gates == qc.num_gates()

    def test_reversible_depth_bounds(self):
        circuit = random_reversible(4)
        depth = reversible_depth(circuit)
        assert 0 <= depth <= circuit.num_gates()
        # Disjoint gates share a layer.
        parallel = ReversibleCircuit()
        for i in range(4):
            parallel.add_input_line(i)
        parallel.append(ToffoliGate.cnot(0, 1))
        parallel.append(ToffoliGate.cnot(2, 3))
        assert reversible_depth(parallel) == 1


# ---------------------------------------------------------------------------
# Registry / CLI surface
# ---------------------------------------------------------------------------


class TestRegistryTargets:
    def test_rev_and_qc_passes_registered(self):
        rev_names = {p.name for p in available_passes("rev")}
        qc_names = {p.name for p in available_passes("qc")}
        assert {"rev_cancel", "rev_not_merge"} <= rev_names
        assert {"qc_cancel", "qc_merge"} <= qc_names
        # Target filters are disjoint from the logic-network libraries.
        assert "balance" not in rev_names and "xmg_rewrite" not in qc_names

    def test_short_aliases(self):
        assert get_pass("rc") is get_pass("rev_cancel")
        assert get_pass("rn") is get_pass("rev_not_merge")
        assert get_pass("qcc") is get_pass("qc_cancel")
        assert get_pass("qcm") is get_pass("qc_merge")

    def test_default_pipelines_registered(self):
        pipelines = named_pipelines()
        assert DEFAULT_REV_PIPELINE in pipelines
        assert DEFAULT_QC_PIPELINE in pipelines
        assert parse_pipeline(DEFAULT_REV_PIPELINE).network_types() == {"rev"}
        assert parse_pipeline(DEFAULT_QC_PIPELINE).network_types() == {"qc"}

    def test_type_mismatch_rejected(self):
        with pytest.raises(PipelineError):
            parse_pipeline("rev_cancel").run(random_quantum(0))
        with pytest.raises(TypeError):
            get_pass("qc_cancel").apply(random_reversible(0))


# ---------------------------------------------------------------------------
# Reversible pass library
# ---------------------------------------------------------------------------


class TestRevPasses:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    @pytest.mark.parametrize("name", ["rev_cancel", "rev_not_merge"])
    def test_passes_preserve_permutation(self, name, seed):
        circuit = random_reversible(seed)
        optimized = get_pass(name).apply(circuit)
        assert np.array_equal(
            circuit.to_permutation(), optimized.to_permutation()
        )
        assert optimized.num_gates() <= circuit.num_gates()

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    @pytest.mark.parametrize("name", ["rev_cancel", "rev_not_merge"])
    def test_passes_keep_gates_equal_to_their_masks(self, name, seed):
        # The passes rewrite mask columns; the gates materialised from the
        # result must be the canonical gates those masks encode.
        optimized = get_pass(name).apply(random_reversible(seed))
        targets, cares, polarities = optimized.gate_store().columns()
        rebuilt = []
        for care, polarity, target in zip(cares, polarities, targets):
            controls = [
                (line, bool((polarity >> line) & 1))
                for line in range(care.bit_length())
                if (care >> line) & 1
            ]
            rebuilt.append(ToffoliGate(tuple(controls), target))
        assert optimized.gates() == rebuilt

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_default_pipeline_guarded(self, seed):
        circuit = random_reversible(seed)
        result = parse_pipeline(DEFAULT_REV_PIPELINE).run(circuit, guard="full")
        assert result.cost == (
            result.network.t_count(),
            result.network.num_gates(),
        )
        assert result.network.t_count() <= circuit.t_count()

    def test_keep_best_under_t_count(self):
        # Three equal Toffolis (the last written with its controls in the
        # other order) around a commuting CNOT: rev_cancel removes a pair
        # and the T-count falls from 21 to 7.
        circuit = ReversibleCircuit()
        for i in range(4):
            circuit.add_input_line(i)
            circuit.set_output(i, i)
        circuit.append(ToffoliGate.toffoli(0, 1, 2))
        circuit.append(ToffoliGate.cnot(0, 3))
        circuit.append(ToffoliGate.toffoli(0, 1, 2))
        circuit.append(ToffoliGate.toffoli(1, 0, 2))
        result = parse_pipeline("rc").run(circuit)
        assert result.network.num_gates() == 2
        assert result.network.t_count() == 7
        assert result.cost == (7, 2)

    def test_guard_catches_broken_pass(self):
        from repro.opt import Pass, register_pass, unregister_pass

        def break_it(circuit):
            damaged = circuit.copy()
            damaged.append(ToffoliGate.x(0))
            return damaged

        register_pass(
            Pass("rev_broken_tmp", break_it, network_types=("rev",))
        )
        try:
            with pytest.raises(PipelineVerificationError):
                parse_pipeline("rev_broken_tmp").run(
                    random_reversible(0, max_gates=4), guard="full"
                )
        finally:
            unregister_pass("rev_broken_tmp")

    def test_guard_catches_dirty_ancilla(self):
        from repro.opt import Pass, register_pass, unregister_pass

        circuit = random_reversible(0, max_gates=4)
        ancilla = circuit.add_constant_line(0)

        def dirty_it(circuit):
            # The outputs stay right; only the ancilla is left holding x0.
            damaged = circuit.copy()
            damaged.append(ToffoliGate.cnot(0, ancilla))
            return damaged

        register_pass(Pass("rev_dirty_tmp", dirty_it, network_types=("rev",)))
        try:
            with pytest.raises(
                PipelineVerificationError, match=f"ancilla line {ancilla} "
            ):
                parse_pipeline("rev_dirty_tmp").run(circuit, guard="full")
        finally:
            unregister_pass("rev_dirty_tmp")


# ---------------------------------------------------------------------------
# Clifford+T pass library
# ---------------------------------------------------------------------------


class TestQcPasses:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    @pytest.mark.parametrize("func", [qc_cancel, qc_merge])
    def test_passes_preserve_unitary(self, func, seed):
        circuit = random_quantum(seed)
        optimized = func(circuit)
        check = check_quantum_equivalent(circuit, optimized, mode="full")
        assert check.equivalent, check.message
        assert optimized.num_gates() <= circuit.num_gates()

    def test_cancel_involutions_and_inverses(self):
        circuit = QuantumCircuit(2)
        circuit.add("h", 0)
        circuit.add("h", 0)
        circuit.add("t", 1)
        circuit.add("tdg", 1)
        circuit.add("cx", 0, 1)
        circuit.add("cx", 0, 1)
        assert qc_cancel(circuit).num_gates() == 0

    def test_merge_folds_t_pairs_into_clifford(self):
        circuit = QuantumCircuit(1)
        circuit.add("t", 0)
        circuit.add("t", 0)
        merged = qc_merge(circuit)
        assert [g.name for g in merged.gates()] == ["s"]
        assert merged.t_count() == 0

    def test_merge_skips_unrepresentable_sums(self):
        circuit = QuantumCircuit(1)
        circuit.add("t", 0)
        circuit.add("s", 0)  # 3 π/4 units: no single-gate replacement
        merged = qc_merge(circuit)
        assert merged.num_gates() == 2

    def test_cancellation_across_commuting_gates(self):
        circuit = QuantumCircuit(2)
        circuit.add("t", 0)
        circuit.add("cx", 0, 1)  # diagonal on the control commutes
        circuit.add("tdg", 0)
        optimized = qc_cancel(circuit)
        assert [g.name for g in optimized.gates()] == ["cx"]

    def test_no_cancellation_across_blocking_gate(self):
        circuit = QuantumCircuit(2)
        circuit.add("t", 1)
        circuit.add("cx", 0, 1)  # writes the target: blocks
        circuit.add("tdg", 1)
        assert qc_cancel(circuit).num_gates() == 3

    def test_guard_catches_phase_only_change(self):
        from repro.opt import Pass, register_pass, unregister_pass

        def drop_phase(circuit):
            return circuit.with_gates(
                [g for g in circuit.gates() if g.name != "t"]
            )

        register_pass(Pass("qc_broken_tmp", drop_phase, network_types=("qc",)))
        try:
            circuit = QuantumCircuit(2)
            circuit.add("h", 0)
            circuit.add("t", 0)
            circuit.add("h", 0)
            with pytest.raises(PipelineVerificationError):
                parse_pipeline("qc_broken_tmp").run(circuit, guard="full")
        finally:
            unregister_pass("qc_broken_tmp")

    def test_default_pipeline_shrinks_mapped_cascades(self):
        # Two identical Toffolis in a row: the mapped circuit folds to
        # nothing under cancellation.
        rev = ReversibleCircuit()
        for i in range(3):
            rev.add_input_line(i)
            rev.set_output(i, i)
        gate = ToffoliGate.toffoli(0, 1, 2)
        rev.append(gate)
        rev.append(gate)
        quantum = map_to_clifford_t(rev)
        result = parse_pipeline(DEFAULT_QC_PIPELINE).run(quantum, guard="full")
        assert result.network.t_count() < quantum.t_count()


# ---------------------------------------------------------------------------
# Flow threading
# ---------------------------------------------------------------------------


class TestFlowThreading:
    def test_rev_opt_parameter_runs_and_verifies(self):
        plain = run_flow("lut", "intdiv", 4, verify="full",
                         strategy="eager", k=3)
        optimized = run_flow("lut", "intdiv", 4, verify="full",
                             strategy="eager", k=3, rev_opt="rev-default")
        assert optimized.report.verified is True
        assert optimized.report.gate_count <= plain.report.gate_count
        assert optimized.report.extra["rev_opt_pipeline"]

    def test_rev_default_on_hierarchical(self):
        result = run_flow("hierarchical", "intdiv", 3, verify="full",
                          rev_opt="rev-default")
        assert result.report.verified is True
        assert result.report.extra["rev_opt_pipeline"]

    def test_post_optimize_is_no_longer_a_parameter(self):
        with pytest.raises(ValueError, match=(
            r"unknown parameter 'post_optimize' for flow 'hierarchical' "
            r"\(declared: .*\brev_opt\b"
        )):
            run_flow("hierarchical", "intdiv", 3, verify=False,
                     post_optimize=True)

    @pytest.mark.parametrize(
        "parameters", [{"qc_opt": "qc-default"}, {"qc_opt_guard": "full"}]
    )
    def test_qc_parameters_without_map_model_fail(self, parameters):
        with pytest.raises(ValueError, match="require map_model"):
            run_flow("esop", "intdiv", 3, verify="off", **parameters)

    def test_map_model_folds_resources_into_report(self):
        result = run_flow("esop", "intdiv", 4, verify="full",
                          p=0, map_model="rtof")
        report = result.report
        assert report.t_depth is not None
        assert 0 < report.t_depth <= report.t_count
        assert report.qc_depth >= report.t_depth
        assert report.qc_qubits >= report.qubits
        assert report.extra["qc_t_count"] == report.t_count
        assert report.extra["map_model"] == "rtof"
        # Serialisation round-trip keeps the new first-class fields.
        from repro.core.cost import CostReport

        clone = CostReport.from_dict(report.to_dict())
        assert clone.t_depth == report.t_depth

    def test_map_model_off_by_default(self):
        result = run_flow("esop", "intdiv", 3, verify="off", p=0)
        assert result.report.t_depth is None
        assert "resources" not in result.context

    def test_qc_opt_never_increases_t_count(self):
        base = run_flow("esop", "intdiv", 4, verify="off", p=0,
                        map_model="rtof")
        folded = run_flow("esop", "intdiv", 4, verify="off", p=0,
                          map_model="rtof", qc_opt="qc-default")
        assert (
            folded.context["resources"].t_count
            <= base.context["resources"].t_count
        )

    def test_qc_opt_inherits_opt_guard(self):
        from repro.opt import Pass, register_pass, unregister_pass

        def drop_t(circuit):
            return circuit.with_gates(
                [g for g in circuit.gates() if not g.is_t_like()]
            )

        register_pass(Pass("qc_broken_flow_tmp", drop_t, network_types=("qc",)))
        try:
            # Unguarded: the broken pass silently corrupts the mapping.
            result = run_flow("esop", "intdiv", 3, verify="off", p=0,
                              map_model="rtof", qc_opt="qc_broken_flow_tmp")
            assert result.context["resources"].t_count == 0
            # opt_guard reaches the qc stage (the mapped circuit is small
            # enough for the statevector checker) and fails loudly.
            with pytest.raises(PipelineVerificationError):
                run_flow("esop", "intdiv", 3, verify="off", p=0,
                         map_model="rtof", qc_opt="qc_broken_flow_tmp",
                         opt_guard="full")
            # An explicit qc_opt_guard="off" opts back out.
            result = run_flow("esop", "intdiv", 3, verify="off", p=0,
                              map_model="rtof", qc_opt="qc_broken_flow_tmp",
                              opt_guard="full", qc_opt_guard="off")
            assert result.context["resources"].t_count == 0
        finally:
            unregister_pass("qc_broken_flow_tmp")

    def test_rev_opt_in_explorer_sweep(self):
        from repro.core.explorer import flow_default_configurations

        labels = [c.label() for c in flow_default_configurations("esop")]
        assert any("rev_opt=rev-default" in label for label in labels)
