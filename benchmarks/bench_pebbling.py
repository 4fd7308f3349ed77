"""Pebbling-strategy benchmark: the qubit/T-count tradeoff curve.

The point of the LUT-based flow is that the pebbling strategy (and the
``bounded`` strategy's pebble budget) turns qubit count against T-count on
one design.  This bench regenerates that curve for ``INTDIV(8)``: the
Bennett schedule (max qubits, min T), the eager per-output schedule, and
the bounded scheduler at three budgets.  The acceptance gates mirror the
subsystem's contract:

* every ``bounded(B)`` run respects its pebble budget,
* the strategies yield at least three distinct Pareto points on the
  (qubits, T-count) plane.
"""

from __future__ import annotations

from conftest import write_result
from repro.core.explorer import pareto_front_of
from repro.core.flows import run_flow
from repro.utils.tables import format_table

BITWIDTH = 8

#: label -> lut flow parameters.
CONFIGURATIONS = [
    ("bennett", {"strategy": "bennett"}),
    ("eager", {"strategy": "eager"}),
    ("bounded(0.25)", {"strategy": "bounded", "max_pebbles": 0.25}),
    ("bounded(0.5)", {"strategy": "bounded", "max_pebbles": 0.5}),
    ("bounded(0.75)", {"strategy": "bounded", "max_pebbles": 0.75}),
]


def test_pebbling_tradeoff_curve(benchmark):
    reports = {}
    rows = []
    for label, parameters in CONFIGURATIONS:
        result = run_flow(
            "lut", "intdiv", BITWIDTH, verify=False, **parameters
        )
        report = result.report
        reports[label] = report
        extra = report.extra
        if parameters["strategy"] == "bounded":
            schedule = result.context["schedule"]
            assert extra["pebble_peak"] <= schedule.max_pebbles, (
                f"{label}: peak {extra['pebble_peak']} exceeds budget "
                f"{schedule.max_pebbles}"
            )
        rows.append(
            (
                label,
                report.qubits,
                report.t_count,
                extra["pebble_peak"],
                extra["recomputes"],
                f"{report.runtime_seconds:.2f}",
            )
        )

    front = pareto_front_of(reports)
    text = format_table(
        ["strategy", "qubits", "T-count", "pebble peak", "recomputes", "runtime [s]"],
        rows,
        title=f"LUT pebbling strategies on INTDIV({BITWIDTH}), k = 4",
    )
    text += "\n\nPareto front: " + ", ".join(
        f"{p.configuration} ({p.qubits} qubits, {p.t_count} T)" for p in front
    )
    write_result(
        "pebbling_tradeoff",
        text,
        metrics={
            "pareto_points": len(front),
            "strategies": {
                label: {"qubits": r.qubits, "t_count": r.t_count}
                for label, r in reports.items()
            },
        },
        config={
            "design": "intdiv",
            "bitwidth": BITWIDTH,
            "k": 4,
            "min_pareto_points": 3,
        },
    )

    # The acceptance gate: the strategy sweep genuinely explores the
    # qubit/T-count plane instead of collapsing onto one point.
    assert len(front) >= 3, f"only {len(front)} Pareto points: {front}"

    benchmark.pedantic(
        run_flow,
        args=("lut", "intdiv", BITWIDTH),
        kwargs={"verify": False, "strategy": "bennett"},
        rounds=3,
        iterations=1,
    )


#: Wall-clock ceiling of the exact configuration's flow run — the SAT
#: engines must pay for themselves inside an interactive budget.
EXACT_TIME_LIMIT = 60.0

#: SAT budget handed to the exact pebbling strategy (well under the
#: wall-clock gate; the exact ESOP covers come from a table, not a solver).
EXACT_SAT_BUDGET = 20.0


def test_pebbling_exact_dominates_greedy(benchmark, monkeypatch):
    """The SAT-exact configuration strictly beats the greedy bounded front.

    Gates: the exact run finishes within :data:`EXACT_TIME_LIMIT` seconds,
    its schedule survives :func:`validate_schedule`, and its (qubits,
    T-count) point strictly dominates at least one greedy ``bounded``
    front point — no more qubits, strictly fewer T gates.  The exact run
    starts from a cold exact-ESOP memo; its memo counters and total SAT
    conflicts are recorded with the result.
    """
    import time

    import repro.logic.exact_esop as exact_esop
    import repro.reversible.exact_pebbling as exact_pebbling
    from repro.reversible.pebbling import validate_schedule

    bounded = {}
    rows = []
    for fraction in (0.25, 0.5, 0.75):
        report = run_flow(
            "lut", "intdiv", BITWIDTH, verify=False,
            strategy="bounded", max_pebbles=fraction,
        ).report
        bounded[f"bounded({fraction})"] = report
        rows.append((f"bounded({fraction})", report.qubits, report.t_count))

    conflicts = []

    def counting(solve):
        def counted(cnf, *args, **kwargs):
            result = solve(cnf, *args, **kwargs)
            conflicts.append(result.conflicts)
            return result

        return counted

    for module in (exact_esop, exact_pebbling):
        monkeypatch.setattr(module, "solve", counting(module.solve))
    exact_esop.reset_exact_esop_memo()
    start = time.monotonic()
    result = run_flow(
        "lut", "intdiv", BITWIDTH, verify=False,
        strategy="exact", lut_synth="exact",
        max_pebbles=0.5, exact_time_budget=EXACT_SAT_BUDGET,
    )
    elapsed = time.monotonic() - start
    esop_stats = exact_esop.exact_esop_stats()
    monkeypatch.undo()
    exact = result.report
    rows.append(("exact", exact.qubits, exact.t_count))
    validate_schedule(result.context["schedule"])

    dominated = [
        label
        for label, report in bounded.items()
        if exact.qubits <= report.qubits and exact.t_count < report.t_count
    ]
    text = format_table(
        ["configuration", "qubits", "T-count"],
        rows,
        title=f"Exact vs greedy bounded on INTDIV({BITWIDTH}), k = 4",
    )
    text += (
        f"\n\nexact runtime: {elapsed:.1f} s"
        f"\nstrictly dominated: {', '.join(dominated) or 'none'}"
    )
    write_result(
        "pebbling_exact",
        text,
        metrics={
            "exact": {"qubits": exact.qubits, "t_count": exact.t_count},
            "bounded": {
                label: {"qubits": r.qubits, "t_count": r.t_count}
                for label, r in bounded.items()
            },
            "dominated": dominated,
            "exact_runtime_seconds": elapsed,
            "pebble_engine": exact.extra.get("pebble_engine"),
            "exact_esop": esop_stats,
            "sat_conflicts": sum(conflicts),
        },
        config={
            "design": "intdiv",
            "bitwidth": BITWIDTH,
            "k": 4,
            "exact_time_limit": EXACT_TIME_LIMIT,
            "exact_sat_budget": EXACT_SAT_BUDGET,
        },
    )

    assert elapsed <= EXACT_TIME_LIMIT, (
        f"exact configuration took {elapsed:.1f} s > {EXACT_TIME_LIMIT} s"
    )
    assert dominated, (
        f"exact ({exact.qubits} qubits, {exact.t_count} T) dominates no "
        f"greedy bounded point: {rows}"
    )

    benchmark.pedantic(
        run_flow,
        args=("lut", "intdiv", BITWIDTH),
        kwargs={
            "verify": False,
            "strategy": "exact",
            "lut_synth": "exact",
            "max_pebbles": 0.5,
            "exact_time_budget": EXACT_SAT_BUDGET,
        },
        rounds=1,
        iterations=1,
    )
