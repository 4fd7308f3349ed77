"""Pass-manager benchmark: XMG MAJ-count reduction and pipeline overhead.

The XMG pass library exists to cut the MAJ count — and therefore the
Toffoli blocks and the T-count — of the hierarchical and LUT flows.  This
bench pins that payoff on ``INTDIV(8)`` with three acceptance gates:

* the default XMG pipeline (``xmg-default``) reduces the MAJ count of the
  mapped ``INTDIV(8)`` XMG by at least 10 %,
* the hierarchical and LUT flows report *strictly lower* T-count with the
  pipeline enabled than with it disabled, both runs differentially
  verified against the bit-blasted design,
* the pipeline-based AIG optimise stage does not regress wall-time
  against the fixed two-round ``resyn2`` loop it replaced (the pipeline
  wraps the same passes; the tolerance absorbs CI noise).
"""

from __future__ import annotations

import time

from conftest import write_result
from repro.core.flows import frontend_artifacts, run_flow
from repro.logic.aig_opt import resyn2
from repro.logic.xmg_mapping import aig_to_xmg
from repro.opt import DEFAULT_XMG_PIPELINE, parse_pipeline
from repro.utils.tables import format_table
from repro.verify.differential import check_equivalent

BITWIDTH = 8

#: Required relative MAJ-count reduction of the default XMG pipeline.
MIN_MAJ_REDUCTION = 0.10

#: Wall-time tolerance of the pipeline-based optimise stage vs the legacy
#: fixed-script loop (both run the same passes; >1 absorbs timer noise).
MAX_OPTIMIZE_SLOWDOWN = 1.5


def _optimized_intdiv_xmg():
    artifacts = frontend_artifacts("intdiv", BITWIDTH)
    aig = artifacts["aig"]
    optimized = parse_pipeline("(resyn2)*2").run(aig).network
    return aig, aig_to_xmg(optimized, k=4)


def test_default_xmg_pipeline_maj_reduction(benchmark):
    """Gate: >= 10 % MAJ reduction on the INTDIV(8) XMG, equivalence kept."""
    _, xmg = _optimized_intdiv_xmg()
    pipeline = parse_pipeline(DEFAULT_XMG_PIPELINE)
    outcome = pipeline.run(xmg)
    optimized = outcome.network

    check = check_equivalent(xmg, optimized, mode="full")
    assert check.equivalent, f"pipeline broke INTDIV({BITWIDTH}): {check.message}"

    reduction = (xmg.num_maj() - optimized.num_maj()) / xmg.num_maj()
    rows = [
        ("MAJ", xmg.num_maj(), optimized.num_maj(), f"{100 * reduction:.1f}%"),
        ("XOR", xmg.num_xor(), optimized.num_xor(), "-"),
        ("gates", xmg.num_gates(), optimized.num_gates(), "-"),
        ("depth", xmg.depth(), optimized.depth(), "-"),
    ]
    text = format_table(
        ["metric", "before", "after", "reduction"],
        rows,
        title=(
            f"Default XMG pipeline ({DEFAULT_XMG_PIPELINE}) on "
            f"INTDIV({BITWIDTH})"
        ),
    )
    text += "\n\nPer-pass log:\n" + "\n".join(
        "  " + report.summary() for report in outcome.reports
    )
    write_result(
        "xmg_pass_reduction",
        text,
        metrics={
            "maj_before": xmg.num_maj(),
            "maj_after": optimized.num_maj(),
            "maj_reduction": round(reduction, 4),
        },
        config={
            "design": "intdiv",
            "bitwidth": BITWIDTH,
            "pipeline": DEFAULT_XMG_PIPELINE,
            "min_maj_reduction": MIN_MAJ_REDUCTION,
        },
    )

    assert reduction >= MIN_MAJ_REDUCTION, (
        f"MAJ reduction {100 * reduction:.1f}% below the "
        f"{100 * MIN_MAJ_REDUCTION:.0f}% gate"
    )

    benchmark.pedantic(
        lambda: pipeline.run(xmg), rounds=3, iterations=1
    )


def test_pipeline_cuts_t_count_across_flows(benchmark):
    """Gate: hierarchical + lut report strictly lower T with the pipeline on."""
    rows = []
    for flow, enabled_params, disabled_params in (
        (
            "hierarchical",
            {"strategy": "bennett", "xmg_opt": DEFAULT_XMG_PIPELINE},
            {"strategy": "bennett"},
        ),
        (
            "lut",
            {"strategy": "bennett", "k": 4, "xmg_opt": DEFAULT_XMG_PIPELINE},
            {"strategy": "bennett", "k": 4},
        ),
    ):
        enabled = run_flow(
            flow, "intdiv", BITWIDTH, verify="full", **enabled_params
        )
        disabled = run_flow(
            flow, "intdiv", BITWIDTH, verify="full", **disabled_params
        )
        assert enabled.report.verified is True
        assert disabled.report.verified is True
        assert enabled.report.t_count < disabled.report.t_count, (
            f"{flow}: pipeline enabled T-count {enabled.report.t_count} not "
            f"below disabled {disabled.report.t_count}"
        )
        rows.append(
            (
                flow,
                disabled.report.t_count,
                enabled.report.t_count,
                disabled.report.qubits,
                enabled.report.qubits,
            )
        )
    write_result(
        "pipeline_t_count",
        format_table(
            ["flow", "T (off)", "T (on)", "qubits (off)", "qubits (on)"],
            rows,
            title=f"Optimisation pipelines on INTDIV({BITWIDTH}), verified",
        ),
        metrics={
            row[0]: {"t_off": row[1], "t_on": row[2]} for row in rows
        },
        config={
            "design": "intdiv",
            "bitwidth": BITWIDTH,
            "pipeline": DEFAULT_XMG_PIPELINE,
        },
    )
    benchmark.pedantic(
        run_flow,
        args=("hierarchical", "intdiv", BITWIDTH),
        kwargs={"verify": False, "xmg_opt": DEFAULT_XMG_PIPELINE},
        rounds=1,
        iterations=1,
    )


def test_optimize_stage_wall_time_not_regressed(benchmark):
    """Gate: the pipeline stage is not slower than the legacy script loop."""
    artifacts = frontend_artifacts("intdiv", BITWIDTH)
    aig = artifacts["aig"]

    def legacy():
        # The pre-pass-manager optimise stage: a fixed two-round script
        # loop keeping the smaller result.
        best = aig.cleanup()
        current = best
        for _ in range(2):
            current = resyn2(current)
            if current.num_nodes() < best.num_nodes():
                best = current
        return best

    pipeline = parse_pipeline("(resyn2)*2")

    def managed():
        return pipeline.run(aig).network

    # Interleave and keep per-variant minima: robust against one-off jitter.
    legacy_times, managed_times = [], []
    for _ in range(3):
        start = time.perf_counter()
        legacy_result = legacy()
        legacy_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        managed_result = managed()
        managed_times.append(time.perf_counter() - start)
    assert managed_result.num_nodes() <= legacy_result.num_nodes()

    legacy_best = min(legacy_times)
    managed_best = min(managed_times)
    write_result(
        "pass_manager_overhead",
        format_table(
            ["variant", "best of 3 [s]"],
            [
                ("legacy two-round resyn2 loop", f"{legacy_best:.3f}"),
                ("pass-manager pipeline", f"{managed_best:.3f}"),
            ],
            title=f"Optimise stage wall-time on INTDIV({BITWIDTH}), resyn2 x2",
        ),
        metrics={
            "legacy_seconds": round(legacy_best, 4),
            "pipeline_seconds": round(managed_best, 4),
        },
        config={
            "design": "intdiv",
            "bitwidth": BITWIDTH,
            "max_slowdown": MAX_OPTIMIZE_SLOWDOWN,
        },
    )
    assert managed_best <= legacy_best * MAX_OPTIMIZE_SLOWDOWN, (
        f"pipeline stage {managed_best:.3f}s vs legacy {legacy_best:.3f}s "
        f"exceeds the {MAX_OPTIMIZE_SLOWDOWN}x tolerance"
    )

    benchmark.pedantic(managed, rounds=3, iterations=1)
