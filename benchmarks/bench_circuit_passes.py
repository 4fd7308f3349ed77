"""Circuit-level pass benchmark: reversible peepholes and T-depth reporting.

The circuit-level pass framework exists to (a) shrink the synthesised
Toffoli cascades before they are costed and mapped, and (b) realize the
closed-form T-counts as explicit Clifford+T circuits whose T-depth can be
reported.  This bench pins both payoffs on ``INTDIV(8)``:

* the default reversible pipeline (``rev-default``) removes at least 5 %
  of the gates of a recompute-heavy INTDIV(8) cascade, and the optimised
  circuit is differentially verified against the bit-blasted design
  (full, exhaustive check — the reduction is *correct*, not just large),
* a design-space sweep with the explicit ``rtof`` mapping enabled reports
  the T-depth for every Pareto point, and every explicit T-count equals
  the closed-form model (asserted gate-for-gate inside the mapper).
"""

from __future__ import annotations

from conftest import write_result
from repro.core.explorer import pareto_front_of
from repro.core.flows import run_flow
from repro.opt import DEFAULT_REV_PIPELINE, parse_pipeline
from repro.utils.tables import format_table
from repro.verify.differential import check_equivalent

BITWIDTH = 8

#: Required relative gate-count reduction of the reversible pipeline on
#: the recompute-heavy configuration.
MIN_GATE_REDUCTION = 0.05

#: Cascade sources for the reduction table: label -> (flow, parameters).
#: ``lut/eager`` recomputes shared logic per output cone, which is exactly
#: the uncompute/recompute seam structure the cancellation pass removes.
REDUCTION_CONFIGURATIONS = [
    ("lut/eager", "lut", {"strategy": "eager", "k": 4}),
    ("hier/per_output+xmg", "hierarchical",
     {"strategy": "per_output", "xmg_opt": "xmg-default"}),
    ("hier/bennett", "hierarchical", {"strategy": "bennett"}),
]

#: Sweep of the T-depth Pareto table (all mapped under ``rtof``).
PARETO_CONFIGURATIONS = [
    ("esop(p=0)", "esop", {"p": 0}),
    ("esop(p=1)", "esop", {"p": 1}),
    ("esop(p=0)+rev", "esop", {"p": 0, "rev_opt": DEFAULT_REV_PIPELINE}),
    ("hier(bennett)+xmg", "hierarchical",
     {"strategy": "bennett", "xmg_opt": "xmg-default"}),
    ("lut(bennett)", "lut", {"strategy": "bennett", "k": 4}),
    ("lut(eager)+rev", "lut",
     {"strategy": "eager", "k": 4, "rev_opt": DEFAULT_REV_PIPELINE}),
]


def test_rev_pipeline_verified_gate_reduction(benchmark):
    """Gate: >= 5 % verified gate reduction on the recompute-heavy cascade."""
    pipeline = parse_pipeline(DEFAULT_REV_PIPELINE)
    rows = []
    reductions = {}
    for label, flow, parameters in REDUCTION_CONFIGURATIONS:
        result = run_flow(flow, "intdiv", BITWIDTH, verify="off", **parameters)
        circuit = result.circuit
        optimized = pipeline.run(circuit).network

        # The reduction only counts if the optimised circuit still computes
        # the design: exhaustive differential check against the
        # pre-optimisation AIG (the flow's specification).
        spec = result.context["spec_aig"]
        check = check_equivalent(spec, optimized, mode="full")
        assert check.equivalent, f"{label}: {check.message}"

        reduction = (circuit.num_gates() - optimized.num_gates()) / max(
            circuit.num_gates(), 1
        )
        reductions[label] = reduction
        rows.append(
            (
                label,
                circuit.num_gates(),
                optimized.num_gates(),
                f"{100 * reduction:.1f}%",
                circuit.t_count(),
                optimized.t_count(),
            )
        )
    text = format_table(
        ["cascade", "gates", "gates (opt)", "reduction", "T", "T (opt)"],
        rows,
        title=(
            f"Reversible pipeline ({DEFAULT_REV_PIPELINE}) on "
            f"INTDIV({BITWIDTH}), exhaustively verified"
        ),
    )
    write_result(
        "circuit_pass_reduction",
        text,
        metrics={
            label: round(reduction, 4) for label, reduction in reductions.items()
        },
        config={
            "design": "intdiv",
            "bitwidth": BITWIDTH,
            "pipeline": DEFAULT_REV_PIPELINE,
            "min_gate_reduction": MIN_GATE_REDUCTION,
        },
    )

    best = max(reductions.values())
    assert best >= MIN_GATE_REDUCTION, (
        f"best verified gate reduction {100 * best:.1f}% below the "
        f"{100 * MIN_GATE_REDUCTION:.0f}% gate"
    )

    benchmark.pedantic(
        lambda: pipeline.run(
            run_flow(
                "lut", "intdiv", BITWIDTH, verify="off",
                strategy="eager", k=4,
            ).circuit
        ),
        rounds=1,
        iterations=1,
    )


def test_pareto_front_reports_t_depth(benchmark):
    """Gate: every Pareto point of the rtof-mapped sweep carries a T-depth."""
    reports = {}
    for label, flow, parameters in PARETO_CONFIGURATIONS:
        result = run_flow(
            flow, "intdiv", BITWIDTH, verify="off",
            map_model="rtof", **parameters,
        )
        report = result.report
        # The explicit mapping realizes the closed-form rtof model exactly.
        assert report.extra["qc_t_count"] == report.t_count, label
        reports[label] = report

    front = pareto_front_of(reports)
    assert front, "empty Pareto front"
    for point in front:
        assert point.report.t_depth is not None, point.configuration
        assert 0 < point.report.t_depth <= point.report.t_count

    rows = [
        (
            p.configuration,
            p.qubits,
            p.t_count,
            p.report.t_depth,
            p.report.qc_depth,
            p.report.qc_qubits,
        )
        for p in front
    ]
    text = format_table(
        ["Pareto point", "qubits", "T-count", "T-depth", "depth", "mapped qubits"],
        rows,
        title=(
            f"Pareto front of INTDIV({BITWIDTH}) with explicit rtof mapping"
        ),
    )
    write_result(
        "circuit_pass_pareto_tdepth",
        text,
        metrics={
            p.configuration: {
                "qubits": p.qubits,
                "t_count": p.t_count,
                "t_depth": p.report.t_depth,
                "qc_depth": p.report.qc_depth,
            }
            for p in front
        },
        config={
            "design": "intdiv",
            "bitwidth": BITWIDTH,
            "map_model": "rtof",
        },
    )

    benchmark.pedantic(
        run_flow,
        args=("esop", "intdiv", BITWIDTH),
        kwargs={"verify": False, "p": 0, "map_model": "rtof"},
        rounds=3,
        iterations=1,
    )
