"""Ablations: the design choices DESIGN.md calls out.

The paper's flows contain several tuning knobs whose influence the running
text discusses qualitatively (optimisation effort at the AIG level, the LUT
size of the XMG mapping, the factoring parameter, the cleanup strategy, the
bidirectional mode of the transformation-based synthesis).  This bench
quantifies each knob on a fixed design so that the trade-offs can be
inspected — and asserts the directions that the paper's argument relies on.
"""

from __future__ import annotations

import pytest

from conftest import write_result
from repro.core.flows import run_flow
from repro.hdl.synthesize import synthesize_reciprocal_design
from repro.logic.collapse import collapse_to_esop
from repro.logic.truth_table import TruthTable
from repro.logic.xmg_mapping import aig_to_xmg
from repro.opt import as_pipeline, parse_pipeline
from repro.reversible.esop_synth import esop_synthesis
from repro.reversible.lut_synth import hierarchical_synthesis
from repro.reversible.symbolic_tbs import symbolic_tbs
from repro.reversible.tbs import synthesize_permutation_gates
from repro.reversible.embedding import optimum_embedding
from repro.hdl.designs import intdiv_reference
from repro.quantum.tcount import mct_t_count
from repro.utils.tables import format_table

DESIGN_N = 8


@pytest.fixture(scope="module")
def intdiv_aig():
    _, aig = synthesize_reciprocal_design("intdiv", DESIGN_N)
    return aig


# -- AIG optimisation effort ---------------------------------------------------


def test_ablation_aig_optimization(benchmark, intdiv_aig):
    """More AIG optimisation never hurts the XMG-level T-count much."""
    rows = []
    results = {}
    for rounds in (0, 1, 2):
        aig = (
            intdiv_aig
            if rounds == 0
            else parse_pipeline(f"resyn2*{rounds}").run(intdiv_aig).network
        )
        xmg = aig_to_xmg(aig, k=4)
        circuit = hierarchical_synthesis(xmg)
        results[rounds] = circuit
        rows.append((rounds, aig.num_nodes(), xmg.num_gates(), circuit.num_lines(), circuit.t_count()))
    text = benchmark.pedantic(
        format_table,
        args=(["resyn2 rounds", "AIG nodes", "XMG gates", "qubits", "T-count"], rows),
        kwargs={"title": f"Ablation: AIG optimisation effort (INTDIV({DESIGN_N}), hierarchical flow)"},
        rounds=1,
        iterations=1,
    )
    write_result(
        "ablation_aig_optimization",
        text,
        metrics={
            str(rounds): {"qubits": c.num_lines(), "t_count": c.t_count()}
            for rounds, c in results.items()
        },
        config={"design": "intdiv", "bitwidth": DESIGN_N, "flow": "hierarchical"},
    )
    assert results[2].t_count() <= results[0].t_count() * 1.2


def test_ablation_lut_size(intdiv_aig):
    """Larger LUTs reduce the node count but may grow individual cubes."""
    rows = []
    t_counts = {}
    for k in (3, 4, 5):
        xmg = aig_to_xmg(parse_pipeline("dc2").run(intdiv_aig).network, k=k)
        circuit = hierarchical_synthesis(xmg)
        t_counts[k] = circuit.t_count()
        rows.append((k, xmg.num_maj(), xmg.num_xor(), circuit.num_lines(), circuit.t_count()))
    write_result(
        "ablation_lut_size",
        format_table(
            ["k", "MAJ nodes", "XOR nodes", "qubits", "T-count"],
            rows,
            title=f"Ablation: xmglut LUT size (INTDIV({DESIGN_N}))",
        ),
        metrics={str(k): t for k, t in t_counts.items()},
        config={"design": "intdiv", "bitwidth": DESIGN_N, "k": [3, 4, 5]},
    )
    # All LUT sizes must produce working circuits of comparable magnitude.
    assert max(t_counts.values()) <= 4 * min(t_counts.values())


# -- ESOP factoring and minimisation ---------------------------------------------


def test_ablation_esop_minimization(intdiv_aig):
    """Exorcism-style minimisation reduces (or keeps) the cube count."""
    optimized = parse_pipeline("dc2").run(intdiv_aig).network
    raw = collapse_to_esop(optimized, minimize=False)
    minimized = collapse_to_esop(optimized, minimize=True)
    raw_circuit = esop_synthesis(raw)
    minimized_circuit = esop_synthesis(minimized)
    rows = [
        ("raw PSDKRO", raw.num_terms(), raw_circuit.t_count()),
        ("+ exorcism", minimized.num_terms(), minimized_circuit.t_count()),
    ]
    write_result(
        "ablation_esop_minimization",
        format_table(
            ["cover", "terms", "T-count"],
            rows,
            title=f"Ablation: ESOP minimisation (INTDIV({DESIGN_N}))",
        ),
        metrics={
            "raw_terms": raw.num_terms(),
            "minimized_terms": minimized.num_terms(),
            "raw_t": raw_circuit.t_count(),
            "minimized_t": minimized_circuit.t_count(),
        },
        config={"design": "intdiv", "bitwidth": DESIGN_N},
    )
    assert minimized.num_terms() <= raw.num_terms()
    assert minimized_circuit.t_count() <= raw_circuit.t_count()


def test_ablation_factoring_parameter(intdiv_aig):
    """Sweep of the REVS factoring parameter p (qubits vs T-count)."""
    cover = collapse_to_esop(parse_pipeline("dc2").run(intdiv_aig).network)
    rows = []
    t_by_p = {}
    for p in (0, 1, 2, 3):
        circuit = esop_synthesis(cover, p=p)
        t_by_p[p] = circuit.t_count()
        rows.append((p, circuit.num_lines(), circuit.num_gates(), circuit.t_count()))
    write_result(
        "ablation_factoring",
        format_table(
            ["p", "qubits", "gates", "T-count"],
            rows,
            title=f"Ablation: REVS factoring parameter (INTDIV({DESIGN_N}))",
        ),
        metrics={str(p): t for p, t in t_by_p.items()},
        config={"design": "intdiv", "bitwidth": DESIGN_N, "p": [0, 1, 2, 3]},
    )
    assert t_by_p[1] <= t_by_p[0] * 1.15
    rows_by_p = {row[0]: row for row in rows}
    assert rows_by_p[1][1] >= rows_by_p[0][1]  # factoring costs qubits


# -- TBS options -------------------------------------------------------------------


def test_ablation_tbs_bidirectional():
    """The bidirectional mode never loses against the unidirectional one by much."""
    n = 5
    table = TruthTable.from_callable(lambda x: intdiv_reference(n, x), n, n)
    embedding = optimum_embedding(table)
    rows = []
    costs = {}
    for bidirectional in (False, True):
        gates = synthesize_permutation_gates(
            embedding.care_images, embedding.num_lines, bidirectional=bidirectional
        )
        t_count = sum(mct_t_count(g.num_controls()) for g in gates)
        costs[bidirectional] = t_count
        rows.append(("bidirectional" if bidirectional else "unidirectional", len(gates), t_count))
    write_result(
        "ablation_tbs_direction",
        format_table(
            ["mode", "gates", "T-count"],
            rows,
            title=f"Ablation: transformation-based synthesis direction (INTDIV({n}))",
        ),
        metrics={
            "unidirectional_t": costs[False],
            "bidirectional_t": costs[True],
        },
        config={"design": "intdiv", "bitwidth": n},
    )
    assert costs[True] <= costs[False] * 1.1


# -- cleanup strategy and post-optimisation ----------------------------------------


def test_ablation_cleanup_strategy(intdiv_aig):
    """Bennett vs per-output cleanup: qubits/T-count trade-off."""
    xmg = aig_to_xmg(parse_pipeline("dc2").run(intdiv_aig).network, k=4)
    rows = []
    circuits = {}
    for strategy in ("bennett", "per_output"):
        circuit = hierarchical_synthesis(xmg, strategy=strategy)
        circuits[strategy] = circuit
        rows.append((strategy, circuit.num_lines(), circuit.num_gates(), circuit.t_count()))
    write_result(
        "ablation_cleanup_strategy",
        format_table(
            ["strategy", "qubits", "gates", "T-count"],
            rows,
            title=f"Ablation: hierarchical cleanup strategy (INTDIV({DESIGN_N}))",
        ),
        metrics={
            strategy: {"qubits": c.num_lines(), "t_count": c.t_count()}
            for strategy, c in circuits.items()
        },
        config={"design": "intdiv", "bitwidth": DESIGN_N},
    )
    assert circuits["per_output"].num_lines() <= circuits["bennett"].num_lines()
    assert circuits["per_output"].num_gates() >= circuits["bennett"].num_gates()


def test_ablation_post_optimization(intdiv_aig):
    """The peephole pass only ever removes gates."""
    xmg = aig_to_xmg(parse_pipeline("dc2").run(intdiv_aig).network, k=4)
    circuit = hierarchical_synthesis(xmg)
    optimized = as_pipeline("rev-default").run(circuit).network
    rows = [
        ("as synthesised", circuit.num_gates(), circuit.t_count()),
        ("peephole optimised", optimized.num_gates(), optimized.t_count()),
    ]
    write_result(
        "ablation_post_optimization",
        format_table(
            ["circuit", "gates", "T-count"],
            rows,
            title=f"Ablation: reversible peephole optimisation (INTDIV({DESIGN_N}), hierarchical)",
        ),
        metrics={
            "gates_before": circuit.num_gates(),
            "gates_after": optimized.num_gates(),
            "t_before": circuit.t_count(),
            "t_after": optimized.t_count(),
        },
        config={"design": "intdiv", "bitwidth": DESIGN_N, "flow": "hierarchical"},
    )
    assert optimized.num_gates() <= circuit.num_gates()
    assert optimized.t_count() <= circuit.t_count()
