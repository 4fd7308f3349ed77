"""Integration tests for the design flows and design space exploration."""

import pytest

from repro.core.cost import CostReport
from repro.core.explorer import DesignSpaceExplorer, FlowConfiguration
from repro.core.flow import Flow, FlowStage
from repro.core.flows import available_flows, design_source, make_flow, run_flow
from repro.core.reports import (
    flow_graph_description,
    paper_table,
    ratio_summary,
    side_by_side_table,
    verification_label,
)
from repro.hdl.designs import intdiv_reference
from repro.hdl.synthesize import synthesize_reciprocal_design
from repro.opt import parse_pipeline
from repro.verify.differential import check_equivalent


class TestFlowInfrastructure:
    def test_available_flows(self):
        assert set(available_flows()) == {"symbolic", "esop", "hierarchical", "lut"}

    def test_design_source_errors(self):
        with pytest.raises(ValueError):
            design_source("cordic", 8)

    def test_unknown_flow_rejected(self):
        with pytest.raises(ValueError):
            run_flow("magic", "intdiv", 4)

    def test_flow_requires_circuit(self):
        broken = Flow("broken", [FlowStage("noop", lambda context: None)])
        with pytest.raises(RuntimeError):
            broken.run("intdiv", 4)

    def test_flow_needs_stages(self):
        with pytest.raises(ValueError):
            Flow("empty", [])

    def test_stage_annotations_are_resolved_once_per_body(self, monkeypatch):
        # Every job and sweep builds fresh flows; their declarations must
        # not re-run typing.get_type_hints on the same stage bodies.
        import repro.core.flow as flow_module

        resolved = []
        get_type_hints = flow_module.get_type_hints

        def counting(body, **kwargs):
            resolved.append(body.__code__)
            return get_type_hints(body, **kwargs)

        monkeypatch.setattr(flow_module, "get_type_hints", counting)
        monkeypatch.setattr(flow_module, "_DECLARED", {})
        first = make_flow("lut").parameters()
        assert len(resolved) == len(set(resolved)) == len(make_flow("lut").stages)
        assert make_flow("lut").parameters() == first
        assert len(resolved) == len(make_flow("lut").stages)


class TestSymbolicFlow:
    @pytest.mark.parametrize("design", ["intdiv", "newton"])
    def test_end_to_end(self, design):
        result = run_flow("symbolic", design, 4)
        report = result.report
        assert report.qubits == 2 * 4 - 1  # optimum line count (Table II)
        assert report.verified is True
        assert report.t_count > 0
        assert set(result.stage_runtimes) >= {"frontend", "collapse", "embed", "tbs"}

    def test_in_place_computation(self):
        # The symbolic flow applies the function in place: fewer lines than
        # inputs + outputs.
        result = run_flow("symbolic", "intdiv", 5)
        assert result.report.qubits < 10


class TestEsopFlow:
    @pytest.mark.parametrize("p", [0, 1])
    def test_end_to_end(self, p):
        result = run_flow("esop", "intdiv", 5, p=p)
        assert result.report.verified is True
        if p == 0:
            assert result.report.qubits == 10  # 2n lines as in Table III
        else:
            assert result.report.qubits >= 10
        assert result.report.max_controls <= 5
        assert result.report.extra["esop_terms"] > 0

    def test_newton_design(self):
        result = run_flow("esop", "newton", 4, p=0)
        assert result.report.verified is True


@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("design", ["intdiv", "newton"])
@pytest.mark.parametrize(
    "flow, parameters", [("symbolic", {}), ("esop", {"p": 0}), ("esop", {"p": 1})]
)
def test_functional_flows_ignore_aig_optimisation(flow, parameters, design, n):
    """Why the functional flows run no AIG optimisation.

    Both read only the design AIG's function, and ``dc2`` never changes
    it: the paper's ``(dc2)*2`` AIG gives the same cascade, gate for gate.
    """
    raw = run_flow(flow, design, n, verify=False, **parameters)
    spec = raw.context["spec_aig"]
    optimised = parse_pipeline("(dc2)*2").run(spec).network
    assert optimised.num_gates() < spec.num_gates()
    seeded = run_flow(flow, optimised, n, verify=False, **parameters)
    assert seeded.circuit.num_lines() == raw.circuit.num_lines()
    assert seeded.circuit.gate_store().columns() == raw.circuit.gate_store().columns()


class TestVerificationLabel:
    """Each report says how its circuit was checked."""

    @pytest.mark.parametrize(
        "verify, complete, patterns",
        [("auto", True, 256), ("sampled", False, 64), ("off", None, None)],
    )
    def test_report_carries_the_check(self, verify, complete, patterns):
        result = run_flow("esop", "intdiv", 8, verify=verify, verify_samples=64)
        report = result.report
        assert (report.verify_complete, report.verify_patterns) == (complete, patterns)
        assert report.verified is (None if verify == "off" else True)
        for data in (report.to_dict(), report.metrics()):
            assert data["verify_complete"] is complete
            assert data["verify_patterns"] == patterns
        if verify != "off":
            assert result.context["verify_complete"] is complete

    def test_label_names_the_kind_and_the_pattern_count(self):
        def label(verify, samples):
            result = run_flow("esop", "intdiv", 8, verify=verify, verify_samples=samples)
            return verification_label(result.report)

        assert label("full", 64) == "exhaustive, 256 patterns"
        assert label("sampled", 64) == "sampled, 64 patterns"
        # A sample as large as the input space is the exhaustive check.
        assert label("sampled", 256) == "exhaustive, 256 patterns"
        assert label("off", 64) == "off"


class TestHierarchicalFlow:
    @pytest.mark.parametrize("strategy", ["bennett", "per_output"])
    def test_end_to_end(self, strategy):
        result = run_flow("hierarchical", "intdiv", 4, strategy=strategy)
        assert result.report.verified is True
        assert result.report.max_controls <= 2
        assert result.report.extra["xmg_maj"] > 0

    def test_custom_aig_input(self):
        _, aig = synthesize_reciprocal_design("intdiv", 4)
        result = run_flow("hierarchical", aig, 4)
        assert result.report.verified is True
        assert check_equivalent(aig.to_truth_table(), result.circuit, mode="full")


class TestLutFlow:
    @pytest.mark.parametrize("strategy", ["bennett", "eager", "bounded"])
    def test_end_to_end(self, strategy):
        result = run_flow("lut", "intdiv", 4, k=3, strategy=strategy)
        assert result.report.verified is True
        assert result.report.max_controls <= 3  # controls bounded by k
        assert result.report.extra["num_luts"] > 0
        assert set(result.stage_runtimes) >= {
            "frontend", "lut-map", "pebble", "lut-synthesis", "verify"
        }

    def test_strategies_trade_qubits_for_gates(self):
        bennett = run_flow("lut", "intdiv", 4, k=2, verify=False,
                           strategy="bennett").report
        bounded = run_flow("lut", "intdiv", 4, k=2, verify=False,
                           strategy="bounded", max_pebbles=0.25).report
        assert bounded.qubits < bennett.qubits
        assert bounded.t_count >= bennett.t_count

    def test_custom_aig_input(self):
        _, aig = synthesize_reciprocal_design("intdiv", 4)
        result = run_flow("lut", aig, 4, k=3)
        assert result.report.verified is True

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            run_flow("lut", "intdiv", 3, verify=False, strategy="sideways")

    def test_tbs_sub_synthesizer(self):
        result = run_flow("lut", "intdiv", 3, k=3, lut_synth="tbs")
        assert result.report.verified is True


class TestFlowTradeOffs:
    """The qualitative orderings the paper's experiments emphasise."""

    @pytest.fixture(scope="class")
    def reports(self):
        n = 5
        return {
            "symbolic": run_flow("symbolic", "intdiv", n).report,
            "esop": run_flow("esop", "intdiv", n, p=0).report,
            "hierarchical": run_flow("hierarchical", "intdiv", n).report,
        }

    def test_symbolic_has_fewest_qubits(self, reports):
        assert reports["symbolic"].qubits <= reports["esop"].qubits
        assert reports["symbolic"].qubits <= reports["hierarchical"].qubits

    def test_symbolic_costs_more_t_than_esop(self, reports):
        assert reports["symbolic"].t_count >= reports["esop"].t_count

    def test_symbolic_t_count_grows_fastest_in_n(self, reports):
        # Tables II and IV: the functional flow's T-count grows much faster
        # with the bit-width than hierarchical synthesis' (INTDIV(3 -> 5):
        # about 24x against 3.7x), although at n = 5 it is still the lower.
        growth = {
            flow: reports[flow].t_count
            / run_flow(flow, "intdiv", 3, verify=False).report.t_count
            for flow in ("symbolic", "hierarchical")
        }
        assert growth["symbolic"] > growth["hierarchical"]

    def test_hierarchical_has_most_qubits(self, reports):
        assert reports["hierarchical"].qubits >= reports["esop"].qubits

    def test_esop_controls_bounded_by_inputs(self, reports):
        assert reports["esop"].max_controls <= 5
        assert reports["symbolic"].max_controls > reports["hierarchical"].max_controls


class TestExplorer:
    def test_explore_and_pareto(self):
        explorer = DesignSpaceExplorer(
            "intdiv",
            4,
            configurations=[
                FlowConfiguration("symbolic"),
                FlowConfiguration("esop", (("p", 0),)),
                FlowConfiguration("hierarchical", (("strategy", "bennett"),)),
            ],
        )
        reports = explorer.explore()
        assert len(reports) == 3
        front = explorer.pareto_front()
        assert front
        # The fewest-qubit and fewest-T points are always on the front.
        labels = {point.configuration for point in front}
        best_qubits = min(reports.items(), key=lambda item: item[1].qubits)[0]
        best_t = min(reports.items(), key=lambda item: item[1].t_count)[0]
        assert best_qubits in labels
        assert best_t in labels
        assert explorer.best_by_qubits().qubits <= explorer.best_by_t_count().qubits

    def test_summary_rows(self):
        explorer = DesignSpaceExplorer(
            "intdiv", 3, configurations=[FlowConfiguration("esop", (("p", 0),))]
        )
        rows = explorer.summary_rows()
        assert len(rows) == 1
        assert rows[0][0] == "esop(p=0)"


class TestReports:
    def build_report(self, n, qubits, t):
        return CostReport("intdiv", "esop", n, qubits, t, 10, 3, 0.5)

    def test_paper_table_contains_rows(self):
        text = paper_table([self.build_report(4, 8, 100), self.build_report(5, 10, 200)])
        assert "qubits" in text and "T-count" in text
        assert "100" in text and "200" in text

    def test_side_by_side(self):
        groups = {
            "INTDIV": [self.build_report(4, 8, 100)],
            "NEWTON": [self.build_report(4, 9, 150)],
        }
        text = side_by_side_table(groups, title="Table")
        assert "INTDIV qubits" in text and "NEWTON T-count" in text

    def test_ratio_summary(self):
        rows = ratio_summary([self.build_report(4, 8, 100)], {4: (16, 50)})
        assert rows == [(4, 0.5, 2.0)]

    def test_flow_graph_description_mentions_all_flows(self):
        text = flow_graph_description()
        for keyword in ("Verilog", "BDD", "ESOP", "XMG", "Clifford+T"):
            assert keyword in text
