"""Golden regression table for the paper's named designs.

Pins the (qubits, T-count) results of every flow configuration on the
reciprocal designs at small bit-widths.  The flows are deterministic, so
any change to these numbers is a *semantic* change to a synthesis
algorithm — intentional improvements must update this table explicitly in
the same commit, and accidental drift fails loudly.

Runtime is excluded on purpose (it is the one non-deterministic metric,
cf. ``CostReport.metrics``).
"""

import pytest

from repro.core.flows import run_flow

#: (design, bitwidth, flow, parameters) -> (qubits, T-count under "rtof").
GOLDEN_COSTS = [
    ("intdiv", 3, "symbolic", {}, 5, 29),
    ("intdiv", 3, "esop", {"p": 0}, 6, 36),
    ("intdiv", 3, "esop", {"p": 1}, 6, 36),
    ("intdiv", 3, "hierarchical", {"strategy": "bennett"}, 51, 532),
    ("intdiv", 3, "hierarchical", {"strategy": "per_output"}, 49, 868),
    ("intdiv", 4, "symbolic", {}, 7, 170),
    ("intdiv", 4, "esop", {"p": 0}, 8, 142),
    ("intdiv", 4, "esop", {"p": 1}, 12, 120),
    ("intdiv", 4, "hierarchical", {"strategy": "bennett"}, 115, 1190),
    ("intdiv", 4, "hierarchical", {"strategy": "per_output"}, 112, 2688),
    ("intdiv", 5, "symbolic", {}, 9, 688),
    ("intdiv", 5, "esop", {"p": 0}, 10, 336),
    ("intdiv", 5, "esop", {"p": 1}, 15, 248),
    ("intdiv", 5, "hierarchical", {"strategy": "bennett"}, 188, 1960),
    ("intdiv", 5, "hierarchical", {"strategy": "per_output"}, 184, 5432),
    ("newton", 2, "symbolic", {}, 3, 7),
    ("newton", 2, "esop", {"p": 0}, 4, 7),
    ("newton", 2, "esop", {"p": 1}, 4, 7),
    ("newton", 2, "hierarchical", {"strategy": "bennett"}, 5, 14),
    ("newton", 2, "hierarchical", {"strategy": "per_output"}, 4, 14),
    ("newton", 3, "symbolic", {}, 5, 28),
    ("newton", 3, "esop", {"p": 0}, 6, 44),
    ("newton", 3, "esop", {"p": 1}, 7, 43),
    ("newton", 3, "hierarchical", {"strategy": "bennett"}, 635, 6370),
    ("newton", 3, "hierarchical", {"strategy": "per_output"}, 608, 17346),
    # LUT-based pebbling flow: one (strategy, k) grid per design so both
    # the scheduler and the area-flow mapper are pinned.
    ("intdiv", 3, "lut", {"strategy": "bennett", "k": 2}, 64, 658),
    ("intdiv", 3, "lut", {"strategy": "bennett", "k": 3}, 9, 58),
    ("intdiv", 3, "lut", {"strategy": "eager", "k": 2}, 62, 1106),
    ("intdiv", 3, "lut", {"strategy": "bounded", "k": 2, "max_pebbles": 0.5}, 30, 1302),
    ("intdiv", 4, "lut", {"strategy": "bennett", "k": 3}, 55, 1088),
    ("intdiv", 4, "lut", {"strategy": "eager", "k": 3}, 52, 2488),
    ("intdiv", 4, "lut", {"strategy": "bounded", "k": 3, "max_pebbles": 0.5}, 32, 2270),
]


#: Explicit rtof-mapped resources on a pinned sub-grid:
#: (design, bitwidth, flow, parameters) -> (T-count, T-depth, mapped qubits).
#: The T-count column must equal the closed-form column of GOLDEN_COSTS for
#: the same configuration — the explicit expansion realizes the model.
GOLDEN_RTOF_RESOURCES = [
    ("intdiv", 3, "symbolic", {}, 29, 16, 6),
    ("intdiv", 3, "esop", {"p": 0}, 36, 19, 7),
    ("intdiv", 3, "hierarchical", {"strategy": "bennett"}, 532, 192, 51),
    ("intdiv", 3, "lut", {"strategy": "bennett", "k": 3}, 58, 31, 10),
    ("intdiv", 4, "esop", {"p": 0}, 142, 90, 10),
    ("intdiv", 4, "esop", {"p": 1}, 120, 49, 13),
    ("intdiv", 4, "hierarchical", {"strategy": "bennett"}, 1190, 322, 115),
    ("intdiv", 4, "lut", {"strategy": "bennett", "k": 3}, 1088, 487, 56),
    ("newton", 2, "symbolic", {}, 7, 4, 3),
    ("newton", 3, "esop", {"p": 0}, 44, 26, 7),
    ("newton", 3, "hierarchical", {"strategy": "bennett"}, 6370, 901, 635),
]


def _label(case):
    design, bitwidth, flow, parameters, _, _ = case
    params = ",".join(f"{k}={v}" for k, v in parameters.items())
    return f"{design}({bitwidth})/{flow}" + (f"[{params}]" if params else "")


def _rtof_label(case):
    design, bitwidth, flow, parameters, _, _, _ = case
    params = ",".join(f"{k}={v}" for k, v in parameters.items())
    return f"{design}({bitwidth})/{flow}" + (f"[{params}]" if params else "")


@pytest.mark.parametrize("case", GOLDEN_COSTS, ids=_label)
def test_golden_cost(case):
    design, bitwidth, flow, parameters, qubits, t_count = case
    result = run_flow(flow, design, bitwidth, verify="full", **parameters)
    assert result.report.verified is True
    assert (result.report.qubits, result.report.t_count) == (qubits, t_count), (
        f"{_label(case)} drifted to "
        f"({result.report.qubits}, {result.report.t_count})"
    )


@pytest.mark.parametrize("case", GOLDEN_RTOF_RESOURCES, ids=_rtof_label)
def test_golden_rtof_resources(case):
    """The explicit rtof mapping is pinned: T-count, T-depth, mapped qubits.

    The mapper itself asserts that every expanded gate spends exactly the
    closed-form ``mct_t_count``; this table additionally pins the resulting
    resource vector so T-depth regressions are loud.
    """
    design, bitwidth, flow, parameters, t_count, t_depth, qc_qubits = case
    result = run_flow(
        flow, design, bitwidth, verify="full", map_model="rtof", **parameters
    )
    report = result.report
    assert report.verified is True
    # The explicit circuit realizes the closed-form rtof T-count exactly.
    assert report.extra["qc_t_count"] == report.t_count
    assert (report.t_count, report.t_depth, report.qc_qubits) == (
        t_count,
        t_depth,
        qc_qubits,
    ), (
        f"{_rtof_label(case)} drifted to "
        f"({report.t_count}, {report.t_depth}, {report.qc_qubits})"
    )


def test_rtof_golden_t_counts_match_closed_form_table():
    """The rtof grid's T-count column agrees with GOLDEN_COSTS."""
    closed_form = {
        (design, bitwidth, flow, tuple(sorted(parameters.items()))): t
        for design, bitwidth, flow, parameters, _, t in GOLDEN_COSTS
    }
    for design, bitwidth, flow, parameters, t_count, _, _ in GOLDEN_RTOF_RESOURCES:
        key = (design, bitwidth, flow, tuple(sorted(parameters.items())))
        if key in closed_form:
            assert closed_form[key] == t_count, key


@pytest.mark.parametrize("model", ["rtof", "barenco"])
def test_explicit_t_count_equals_closed_form_on_fuzzed_circuits(model):
    """Property: map_to_clifford_t(model=m) spends circuit_t_count(m) T gates."""
    import numpy as np

    from repro.quantum.mapping import map_to_clifford_t
    from repro.quantum.tcount import circuit_t_count
    from repro.reversible.circuit import ReversibleCircuit
    from repro.reversible.gates import ToffoliGate

    for seed in range(20):
        rng = np.random.default_rng(seed)
        num_lines = int(rng.integers(3, 8))
        circuit = ReversibleCircuit(f"fuzz{seed}")
        for i in range(num_lines):
            circuit.add_input_line(i)
            circuit.set_output(i, i)
        for _ in range(int(rng.integers(0, 12))):
            target = int(rng.integers(0, num_lines))
            controls = tuple(
                (line, bool(rng.integers(0, 2)))
                for line in range(num_lines)
                if line != target and rng.integers(0, 2)
            )
            circuit.append(ToffoliGate(controls, target))
        quantum = map_to_clifford_t(circuit, model=model)
        assert quantum.t_count() == circuit_t_count(circuit, model=model), seed


def test_golden_table_covers_every_flow_configuration():
    configurations = {
        (flow, tuple(sorted(parameters.items())))
        for _, _, flow, parameters, _, _ in GOLDEN_COSTS
    }
    # The paper's five configurations plus six lut (strategy, k) points.
    assert len(configurations) == 5 + 6
    flows = {flow for _, _, flow, _, _, _ in GOLDEN_COSTS}
    assert flows == {"symbolic", "esop", "hierarchical", "lut"}
