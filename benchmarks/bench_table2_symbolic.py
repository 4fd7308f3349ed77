"""Table II: results with symbolic functional reversible synthesis.

Paper columns: for INTDIV(n) and NEWTON(n), n = 4..16 — number of qubits
(always the optimum 2n-1), T-count and flow runtime.

Checks (the paper's observations):

* the number of qubits is the optimum 2n - 1 for both designs,
* INTDIV and NEWTON give essentially the same qubit count and T-counts of
  the same magnitude,
* the T-count explodes with n (large multiple-controlled Toffoli gates),
* runtimes grow steeply (the paper needed 3.2 days for n = 16 on a
  server).  Transformation-based synthesis works on the embedding's care
  rows only (the ``2^n`` inputs, not the ``2^(2n-1)``-state permutation),
  so INTDIV(16) takes seconds here; NEWTON's cost at large n is the BDD
  collapse of its larger AIG.

Every point is verified exhaustively against the bit-blasted design.
Default sweep: n = 4..9; ``REPRO_BENCH_LARGE=1`` adds n = 10..16, for
NEWTON up to :data:`NEWTON_MAX_BITWIDTH`.
"""

from __future__ import annotations

import pytest

from conftest import large_benchmarks_enabled, write_result
from repro.core.flows import run_flow
from repro.core.reports import side_by_side_table

PAPER_TABLE2 = {
    # n: (qubits, intdiv_t, newton_t)
    4: (7, 597, 589),
    5: (9, 1613, 1848),
    6: (11, 5963, 6419),
    7: (13, 20008, 17867),
    8: (15, 51386, 56379),
    9: (17, 142901, 148913),
}


#: NEWTON's BDD collapse outgrows a small machine above this width:
#: NEWTON(13) takes 59 s and 3.6 GB in ``collapse``, against 0.15 s in TBS.
NEWTON_MAX_BITWIDTH = 12


def _bitwidths():
    widths = [4, 5, 6, 7, 8, 9]
    if large_benchmarks_enabled():
        widths += list(range(10, 17))
    return widths


@pytest.fixture(scope="module")
def table2_reports():
    reports = {"INTDIV": [], "NEWTON": []}
    for n in _bitwidths():
        for design, key in (("intdiv", "INTDIV"), ("newton", "NEWTON")):
            if design == "newton" and n > NEWTON_MAX_BITWIDTH:
                continue
            result = run_flow("symbolic", design, n, verify="full")
            reports[key].append(result.report)
    return reports


def test_table2_report(benchmark, table2_reports):
    text = benchmark.pedantic(
        side_by_side_table,
        args=(table2_reports,),
        kwargs={"title": "Table II - symbolic functional synthesis"},
        rounds=1,
        iterations=1,
    )
    write_result(
        "table2_symbolic",
        text,
        metrics={
            design: {
                str(r.bitwidth): {"qubits": r.qubits, "t_count": r.t_count}
                for r in reports
            }
            for design, reports in table2_reports.items()
        },
        config={"flow": "symbolic", "bitwidths": _bitwidths()},
    )
    assert "INTDIV qubits" in text


def test_table2_optimum_qubits(table2_reports):
    """Both designs reach the optimum 2n - 1 qubits, as in the paper."""
    for reports in table2_reports.values():
        for report in reports:
            assert report.qubits == 2 * report.bitwidth - 1
            if report.bitwidth in PAPER_TABLE2:
                assert report.qubits == PAPER_TABLE2[report.bitwidth][0]


def test_table2_tcount_explodes(table2_reports):
    """T-count grows super-exponentially in n (the flow's known weakness)."""
    for reports in table2_reports.values():
        t_counts = [r.t_count for r in sorted(reports, key=lambda r: r.bitwidth)]
        for smaller, larger in zip(t_counts, t_counts[1:]):
            assert larger > 1.8 * smaller


def test_table2_designs_comparable(table2_reports):
    """INTDIV and NEWTON behave alike through the functional flow."""
    intdiv = {r.bitwidth: r for r in table2_reports["INTDIV"]}
    newton = {r.bitwidth: r for r in table2_reports["NEWTON"]}
    for n in intdiv.keys() & newton.keys():
        assert intdiv[n].qubits == newton[n].qubits
        ratio = newton[n].t_count / max(1, intdiv[n].t_count)
        assert 0.3 < ratio < 3.0


def test_table2_magnitude_vs_paper(table2_reports):
    """Measured T-counts versus the paper's.

    Care-set TBS with reduced control sets lands at 0.28-0.43 of the
    paper's T-counts (n = 4..9).  A low T-count alone could also mean a
    smaller problem was solved, so that is checked directly instead: every
    point was verified exhaustively against the bit-blasted design (the
    fixture runs ``verify="full"``, which raises on a mismatch) and uses
    the optimum 2n - 1 qubits.  The T-counts must also stay within three
    orders of magnitude of the paper's.
    """
    for key, column in (("INTDIV", 1), ("NEWTON", 2)):
        for report in table2_reports[key]:
            assert report.verified is True
            assert report.qubits == 2 * report.bitwidth - 1
            if report.bitwidth in PAPER_TABLE2:
                paper_t = PAPER_TABLE2[report.bitwidth][column]
                assert report.t_count / paper_t < 1000


@pytest.mark.parametrize("design", ["intdiv", "newton"])
def test_table2_flow_benchmark(benchmark, design):
    n = 5
    result = benchmark.pedantic(
        run_flow, args=("symbolic", design, n), kwargs={"verify": False}, rounds=1, iterations=1
    )
    benchmark.extra_info["qubits"] = result.report.qubits
    benchmark.extra_info["t_count"] = result.report.t_count
