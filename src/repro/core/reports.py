"""Paper-style table rendering for the benchmark harness.

The benchmark scripts collect :class:`repro.core.cost.CostReport` objects and
use these helpers to print rows shaped like the paper's Tables I-IV
(bit-width, qubits, T-count, runtime per design).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.cost import CostReport
from repro.utils.tables import format_table

__all__ = [
    "paper_table",
    "side_by_side_table",
    "ratio_summary",
    "flow_graph_description",
    "check_label",
    "outcome_table",
    "verification_label",
    "reports_to_json",
    "reports_from_json",
]


def paper_table(reports: Sequence[CostReport], title: str = "") -> str:
    """Render one flow's reports as an ``n / qubits / T-count / runtime`` table."""
    rows = [report.as_table_row() for report in sorted(reports, key=lambda r: r.bitwidth)]
    return format_table(["n", "qubits", "T-count", "runtime [s]"], rows, title=title)


def side_by_side_table(
    groups: Dict[str, Sequence[CostReport]], title: str = ""
) -> str:
    """Render several designs side by side (like INTDIV vs NEWTON columns)."""
    bitwidths = sorted(
        {report.bitwidth for reports in groups.values() for report in reports}
    )
    headers = ["n"]
    for name in groups:
        headers += [f"{name} qubits", f"{name} T-count", f"{name} runtime [s]"]
    rows = []
    for n in bitwidths:
        row: List[object] = [n]
        for name, reports in groups.items():
            match = next((r for r in reports if r.bitwidth == n), None)
            if match is None:
                row += [None, None, None]
            else:
                row += [match.qubits, match.t_count, match.runtime_seconds]
        rows.append(row)
    return format_table(headers, rows, title=title)


def ratio_summary(
    reports: Sequence[CostReport], baselines: Dict[int, Tuple[int, int]]
) -> List[Tuple[int, float, float]]:
    """Qubit and T-count ratios versus a baseline (paper Section V narrative).

    ``baselines`` maps bit-width to ``(qubits, t_count)``.  Returns rows
    ``(n, qubit_ratio, t_ratio)`` where a ratio below 1 means the flow beats
    the baseline.
    """
    rows = []
    for report in sorted(reports, key=lambda r: r.bitwidth):
        if report.bitwidth not in baselines:
            continue
        base_qubits, base_t = baselines[report.bitwidth]
        rows.append(
            (
                report.bitwidth,
                report.qubits / base_qubits if base_qubits else float("inf"),
                report.t_count / base_t if base_t else float("inf"),
            )
        )
    return rows


def check_label(complete: bool, num_patterns: int) -> str:
    """How a check ran, e.g. ``"sampled, 256 patterns"``."""
    kind = "exhaustive" if complete else "sampled"
    return f"{kind}, {num_patterns} patterns"


def verification_label(report: CostReport) -> str:
    """How a report's circuit was checked, or ``"off"``; see :func:`check_label`."""
    if report.verify_patterns is None:
        return "off"
    return check_label(report.verify_complete, report.verify_patterns)


def outcome_table(outcomes: Sequence, title: str = "") -> str:
    """Render engine outcomes — including failures and cache hits — as a table.

    ``outcomes`` are :class:`repro.core.explorer.ConfigurationOutcome`
    objects (typed loosely to avoid an import cycle).  Failed
    configurations show their error message instead of metrics, so a sweep
    report never silently drops a configuration.
    """
    rows = []
    for outcome in outcomes:
        if outcome.ok:
            report = outcome.report
            status = "cached" if outcome.cached else "ok"
            rows.append(
                (
                    outcome.label(),
                    report.qubits,
                    report.t_count,
                    f"{report.runtime_seconds:.3f}",
                    verification_label(report),
                    status,
                )
            )
        else:
            rows.append((outcome.label(), "-", "-", "-", "-", f"error: {outcome.error}"))
    return format_table(
        ["configuration", "qubits", "T-count", "runtime [s]", "check", "status"],
        rows,
        title=title,
    )


def reports_to_json(reports: Iterable[CostReport], indent: Optional[int] = 2) -> str:
    """Serialise a collection of reports as a JSON array."""
    return json.dumps([report.to_dict() for report in reports], indent=indent)


def reports_from_json(text: str) -> List[CostReport]:
    """Inverse of :func:`reports_to_json`."""
    return [CostReport.from_dict(entry) for entry in json.loads(text)]


def flow_graph_description() -> str:
    """A textual rendering of Fig. 1 (the design-flow graph)."""
    lines = [
        "design level        INTDIV(n) / NEWTON(n)   [Verilog]",
        "                         |",
        "logic synthesis     bit-blast -> AIG -> {dc2 | resyn2} optimisation",
        "                         |",
        "                 +-------+----------------+----------------------+",
        "                 |                        |                      |",
        "              collapse                 exorcism               xmglut",
        "               (BDD)                   (ESOP)                  (XMG)",
        "                 |                        |                      |",
        "reversible   symbolic functional   ESOP-based (REVS, p)   hierarchical (REVS)",
        "synthesis        |                        |                      |",
        "                 +------------+-----------+----------+-----------+",
        "                              |",
        "quantum level        Clifford+T mapping / T-count cost models",
    ]
    return "\n".join(lines)
