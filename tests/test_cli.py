"""Tests for the command-line interface."""

import re
from collections import Counter

import pytest

from repro.cli import build_parser, main
from repro.core.explorer import parse_sweep_spec
from repro.core.flows import available_flows, make_flow
from repro.service import JobSpec


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_flow_defaults(self):
        args = build_parser().parse_args(["flow", "--flow", "esop"])
        assert args.bitwidth == 8
        assert args.design == "intdiv"
        assert args.parameters == {}  # the flow fills in its own defaults

    def test_unknown_flow_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["flow", "--flow", "magic"])


class TestCommands:
    def test_designs_command_prints_verilog(self, capsys):
        assert main(["designs", "--design", "newton", "-n", "4"]) == 0
        output = capsys.readouterr().out
        assert "module newton" in output

    def test_baselines_command(self, capsys):
        assert main(["baselines", "-n", "4"]) == 0
        output = capsys.readouterr().out
        assert "RESDIV" in output and "QNEWTON" in output

    def test_flow_command_esop(self, capsys):
        assert main(["flow", "--flow", "esop", "--design", "intdiv", "-n", "4"]) == 0
        output = capsys.readouterr().out
        assert "T-count" in output
        assert "verified" in output
        assert re.search(r"check +exhaustive, 16 patterns", output)

    def test_flow_command_says_when_the_check_was_sampled(self, capsys):
        argv = ["flow", "--flow", "esop", "-n", "8", "--verify", "sampled",
                "--verify-samples", "64"]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert re.search(r"verified +1", output)
        assert re.search(r"check +sampled, 64 patterns", output)

    def test_flow_command_writes_real_and_qasm(self, tmp_path, capsys):
        real_path = tmp_path / "circuit.real"
        qasm_path = tmp_path / "circuit.qasm"
        exit_code = main(
            [
                "flow",
                "--flow",
                "esop",
                "--design",
                "intdiv",
                "-n",
                "4",
                "--real",
                str(real_path),
                "--qasm",
                str(qasm_path),
            ]
        )
        assert exit_code == 0
        assert real_path.exists() and ".numvars" in real_path.read_text()
        assert qasm_path.exists() and "OPENQASM 2.0;" in qasm_path.read_text()

    def test_flow_command_with_verilog_file(self, tmp_path, capsys):
        source = tmp_path / "buffer.v"
        source.write_text(
            "module buffer (input [2:0] a, output [2:0] y); assign y = a; endmodule\n"
        )
        exit_code = main(
            [
                "flow",
                "--flow",
                "hierarchical",
                "--design",
                "buffer",
                "-n",
                "3",
                "--verilog",
                str(source),
            ]
        )
        assert exit_code == 0
        assert "qubits" in capsys.readouterr().out

    @pytest.mark.parametrize("source, message", [
        ("module top (input [1:0] a, output [1:0] y); assign y = a & bb; "
         "endmodule\n", "unknown identifier 'bb'"),
        ("module top (input clk, input a, output reg y); "
         "always @(posedge clk) y <= a; endmodule\n", "unexpected character"),
        (None, "No such file"),
    ])
    def test_flow_command_reports_bad_verilog(self, source, message, tmp_path,
                                              capsys):
        path = tmp_path / "top.v"
        if source is not None:
            path.write_text(source)
        exit_code = main(["flow", "--flow", "lut", "--design", "top",
                          "--verilog", str(path)])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1

    def test_flow_command_lut_bounded(self, capsys):
        exit_code = main(
            ["flow", "--flow", "lut", "--design", "intdiv", "-n", "4",
             "-k", "3", "--strategy", "bounded", "--max-pebbles", "0.5"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "lut" in output and "verified" in output

    def test_flow_command_rejects_non_integer_budget(self, capsys):
        exit_code = main(
            ["flow", "--flow", "lut", "--design", "intdiv", "-n", "4",
             "--strategy", "bounded", "--max-pebbles", "2.5"]
        )
        assert exit_code == 2
        assert "integer pebble count" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--flow", "hierarchical", "-k", "6"],
        ["--flow", "hierarchical", "-p", "2"],
        ["--flow", "symbolic", "--strategy", "bennett"],
        ["--flow", "esop", "--lut-synth", "exact"],
    ])
    def test_flow_command_rejects_undeclared_options(self, argv, capsys):
        exit_code = main(["flow", *argv, "--design", "intdiv", "-n", "3"])
        assert exit_code == 2
        assert "unknown parameter" in capsys.readouterr().err

    def test_unknown_name_suggests_and_lists_only_settable_names(self, capsys):
        # verify, aig and verilog are declared, but no configuration sets them.
        argv = ["explore", "-n", "3", "--sweep", "esop:verif=auto", "--quiet"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "unknown parameter 'verif'" in err and "'verify'" not in err
        argv = ["flow", "--flow", "hierarchical", "-k", "6", "-n", "3"]
        assert main(argv) == 2
        declared = capsys.readouterr().err.partition("(declared: ")[2]
        names = declared.strip().rstrip(")").split(", ")
        assert "lut_size" in names
        assert not {"aig", "verify", "verilog"} & set(names)

    def test_flow_command_rejects_budget_of_unbudgeted_strategy(self, capsys):
        exit_code = main(
            ["flow", "--flow", "lut", "--design", "intdiv", "-n", "4",
             "--strategy", "bennett", "--max-pebbles", "3"]
        )
        assert exit_code == 2
        assert "takes no pebble budget" in capsys.readouterr().err

    def test_flow_command_infeasible_budget_exits_2(self, capsys):
        exit_code = main(
            ["flow", "--flow", "lut", "--design", "intdiv", "-n", "4",
             "-k", "2", "--strategy", "bounded", "--max-pebbles", "2"]
        )
        assert exit_code == 2
        assert "minimum" in capsys.readouterr().err

    def test_explore_flow_lut_sweeps_strategies(self, capsys):
        exit_code = main(
            ["explore", "--flow", "lut", "--design", "intdiv", "-n", "4",
             "--no-verify", "--quiet"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "lut(strategy=bennett)" in output
        assert "lut(strategy=eager)" in output
        assert "max_pebbles=0.5" in output
        assert "Pareto front" in output

    def test_explore_sweep_spec_for_lut_parameters(self, capsys):
        exit_code = main(
            ["explore", "--design", "intdiv", "-n", "3", "--no-verify",
             "--quiet", "--sweep", "lut:strategy=bennett,eager:k=2,3"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "lut(k=2, strategy=bennett)" in output
        assert "lut(k=3, strategy=eager)" in output

    def test_explore_command(self, capsys):
        exit_code = main(["explore", "--design", "intdiv", "-n", "4", "--no-verify"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Pareto front" in output
        assert "symbolic" in output

    def test_explore_verify_mode_flag(self, capsys):
        exit_code = main(
            ["explore", "--design", "intdiv", "-n", "3",
             "--sweep", "esop:p=0", "--verify", "full", "--quiet"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "esop(p=0)" in output
        assert re.search(r"esop\(p=0\) .* exhaustive, 8 patterns +ok", output)

    def test_explore_rejects_unknown_verify_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["explore", "--design", "intdiv", "--verify", "sometimes"]
            )

    def test_verify_command_all_flows(self, capsys):
        exit_code = main(["verify", "--design", "intdiv", "-n", "3", "--mode", "full"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Differential verification of intdiv(3)" in output
        header = output.splitlines()[1].split()
        assert header == ["flow", "pair", "check", "result"]
        for flow in ("symbolic", "esop", "hierarchical", "lut"):
            assert re.search(
                rf"^ *{flow} +aig = circuit +exhaustive, 8 patterns +ok *$",
                output,
                re.MULTILINE,
            ), output
        assert "FAIL" not in output

    def test_verify_command_quantum_leg(self, capsys):
        exit_code = main(
            ["verify", "--design", "intdiv", "-n", "3",
             "--flows", "esop", "--quantum", "--samples", "4"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert re.search(
            r"^ *esop +circuit = clifford\+t +sampled, 4 patterns +ok *$",
            output,
            re.MULTILINE,
        ), output

    def test_verify_command_with_verilog_file(self, tmp_path, capsys):
        source = tmp_path / "buffer.v"
        source.write_text(
            "module buffer (input [2:0] a, output [2:0] y); assign y = a; endmodule\n"
        )
        exit_code = main(
            ["verify", "--design", "buffer", "-n", "3",
             "--verilog", str(source), "--flows", "esop"]
        )
        assert exit_code == 0
        assert "buffer.v(3)" in capsys.readouterr().out


class TestPassManagerCli:
    def test_passes_command_lists_passes_and_pipelines(self, capsys):
        assert main(["passes"]) == 0
        output = capsys.readouterr().out
        assert "balance" in output and "xmg_refactor" in output
        assert "xmg-default" in output
        assert "aig" in output and "xmg" in output

    def test_passes_command_network_filter(self, capsys):
        assert main(["passes", "--network", "aig"]) == 0
        output = capsys.readouterr().out
        assert "balance" in output
        assert "xmg_refactor" not in output

    def test_passes_command_target_qc(self, capsys):
        assert main(["passes", "--target", "qc"]) == 0
        output = capsys.readouterr().out
        assert "qc_cancel" in output and "qc_merge" in output
        assert "qc-default" in output
        assert "balance" not in output and "rev_cancel" not in output

    def test_passes_command_target_rev(self, capsys):
        assert main(["passes", "--target", "rev"]) == 0
        output = capsys.readouterr().out
        assert "rev_cancel" in output and "rev-default" in output
        assert "qc_cancel" not in output

    def test_passes_command_lists_all_targets(self, capsys):
        assert main(["passes"]) == 0
        output = capsys.readouterr().out
        for name in ("balance", "xmg_refactor", "rev_cancel", "qc_merge"):
            assert name in output

    def test_flow_opt_override(self, capsys):
        exit_code = main(
            ["flow", "--flow", "hierarchical", "--design", "intdiv", "-n", "3",
             "--opt", "b;rw;rf"]
        )
        assert exit_code == 0
        assert "T-count" in capsys.readouterr().out

    def test_functional_flow_has_no_opt(self, capsys):
        exit_code = main(["flow", "--flow", "esop", "-n", "3", "--opt", "dc2"])
        assert exit_code == 2
        assert "unknown parameter 'opt' for flow 'esop'" in capsys.readouterr().err

    def test_flow_xmg_opt_improves_t_count(self, capsys):
        assert main(
            ["flow", "--flow", "hierarchical", "--design", "intdiv", "-n", "3"]
        ) == 0
        plain = capsys.readouterr().out
        assert main(
            ["flow", "--flow", "hierarchical", "--design", "intdiv", "-n", "3",
             "--xmg-opt", "xmg-default", "--opt-guard", "full"]
        ) == 0
        optimized = capsys.readouterr().out

        def t_count(text):
            for line in text.splitlines():
                if "T-count" in line:
                    return int(line.split()[-1])
            raise AssertionError(f"no T-count in {text!r}")

        assert t_count(optimized) < t_count(plain)

    def test_flow_unknown_opt_fails_with_suggestion(self, capsys):
        exit_code = main(
            ["flow", "--flow", "hierarchical", "--design", "intdiv", "-n", "3",
             "--opt", "rewritee"]
        )
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "did you mean" in err and "rewrite" in err

    def test_flow_rev_opt_and_map_model(self, capsys):
        exit_code = main(
            ["flow", "--flow", "esop", "--design", "intdiv", "-n", "4",
             "--rev-opt", "rev-default", "--map-model", "rtof"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "T-depth" in output
        assert "mapped qubits" in output

    def test_flow_qc_opt_requires_map_model(self, capsys):
        exit_code = main(
            ["flow", "--flow", "esop", "--design", "intdiv", "-n", "3",
             "--qc-opt", "qc-default"]
        )
        assert exit_code == 2
        assert "map_model" in capsys.readouterr().err

    def test_flow_unknown_rev_opt_fails_with_suggestion(self, capsys):
        exit_code = main(
            ["flow", "--flow", "esop", "--design", "intdiv", "-n", "3",
             "--rev-opt", "rev_cancell"]
        )
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "did you mean" in err and "rev_cancel" in err

    def test_flow_qasm_respects_map_model(self, tmp_path, capsys):
        qasm_path = tmp_path / "circuit.qasm"
        exit_code = main(
            ["flow", "--flow", "esop", "--design", "intdiv", "-n", "3",
             "--map-model", "barenco", "--qasm", str(qasm_path)]
        )
        assert exit_code == 0
        assert qasm_path.exists()
        from repro.io.qasm import parse_qasm

        parsed = parse_qasm(qasm_path.read_text())
        output = capsys.readouterr().out
        assert f"{parsed.t_count()} T" in output

    def test_explore_rev_opt_sweeps_pipelines(self, capsys):
        exit_code = main(
            ["explore", "--design", "intdiv", "-n", "3", "--no-verify",
             "--quiet", "--sweep", "esop:p=0",
             "--rev-opt", "none", "--rev-opt", "rev-default"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "rev_opt=none" in output
        assert "rev_opt=rev-default" in output

    def test_explore_rev_opt_cross_deduplicates_default_points(self, capsys):
        # The esop default sweep already ships a (p=0, rev_opt=rev-default)
        # point; crossing with --rev-opt rev-default must not run it twice.
        exit_code = main(
            ["explore", "--flow", "esop", "--design", "intdiv", "-n", "3",
             "--no-verify", "--quiet", "--rev-opt", "rev-default"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        # One row in the design-space table (the Pareto table repeats the
        # label without the design prefix).
        assert output.count("intdiv(3)/esop(p=0, rev_opt=rev-default)") == 1

    def test_explore_flow_esop_default_sweep_has_rev_opt(self, capsys):
        exit_code = main(
            ["explore", "--flow", "esop", "--design", "intdiv", "-n", "3",
             "--no-verify", "--quiet"]
        )
        assert exit_code == 0
        assert "rev_opt=rev-default" in capsys.readouterr().out

    def test_explore_opt_sweeps_pipelines(self, capsys):
        exit_code = main(
            ["explore", "--design", "intdiv", "-n", "3", "--no-verify",
             "--quiet", "--sweep", "hierarchical:strategy=bennett",
             "--opt", "dc2", "--opt", "b;rw;rf"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "opt=dc2" in output
        assert "opt=b;rw;rf" in output

    def test_explore_opt_crosses_only_the_flows_that_optimise(self, capsys):
        exit_code = main(
            ["explore", "--design", "intdiv", "-n", "3", "--no-verify",
             "--opt", "dc2", "--opt", "b;rw;rf"]
        )
        assert exit_code == 0
        labels = re.findall(
            r"^\[\d+/\d+\] intdiv\(3\)/(.*): \d+ qubits",
            capsys.readouterr().out, re.MULTILINE,
        )
        assert len(labels) == len(set(labels)) == 7
        assert Counter(label.split("(")[0] for label in labels) == {
            "symbolic": 1, "esop": 2, "hierarchical": 4,
        }
        for strategy in ("bennett", "per_output"):
            for spec in ("dc2", "b;rw;rf"):
                assert f"hierarchical(strategy={strategy}, opt={spec})" in labels

    def test_explore_opt_no_flow_declares_fails(self, capsys):
        exit_code = main(
            ["explore", "--design", "intdiv", "-n", "3", "--no-verify",
             "--quiet", "--sweep", "esop:p=0,1", "--opt", "dc2"]
        )
        assert exit_code == 2
        assert "unknown parameter 'opt' for flow 'esop'" in capsys.readouterr().err

    def test_explore_unknown_opt_fails_fast(self, capsys):
        exit_code = main(
            ["explore", "--design", "intdiv", "-n", "3", "--no-verify",
             "--quiet", "--opt", "xmg_strassh"]
        )
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "did you mean" in err and "xmg_strash" in err


class TestDeclaredSchema:
    @pytest.mark.parametrize("flow", sorted(available_flows()))
    def test_flow_help_lists_exactly_the_flows_parameters(self, flow, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["flow", "--flow", flow, "--help"])
        assert exited.value.code == 0
        help_text = capsys.readouterr().out
        section = help_text.split(f"parameters of the {flow} flow:", 1)[1]
        listed = re.findall(r"^  (-{1,2}[a-z][a-z-]*) VALUE", section, re.MULTILINE)
        declared = make_flow(flow).parameters()
        names = sorted(set(declared) - {"aig", "verilog"})
        assert listed == [
            ("-" if len(name) == 1 else "--") + name.replace("_", "-") for name in names
        ]
        flat = " ".join(section.split())
        for name in names:
            default = declared[name].default
            assert f"(default: {'unset' if default is None else default})" in flat

    def test_hierarchical_lut_size_is_reachable(self, capsys):
        exit_code = main(
            ["flow", "--flow", "hierarchical", "--design", "intdiv", "-n", "3",
             "--lut-size", "3"]
        )
        assert exit_code == 0
        assert "hierarchical" in capsys.readouterr().out

    @pytest.mark.parametrize("sweep, value, expected", [
        ("esop:p=true", True, "an int"),
        ("esop:p=1.0", 1.0, "an int"),
        ("lut:k=four", "four", "an int"),
        ("lut:k=4.0", 4.0, "an int"),
        ("symbolic:bidirectional=0", 0, "a bool"),
    ])
    def test_ill_typed_value_is_rejected_at_every_entry_point(
        self, sweep, value, expected, capsys
    ):
        flow, _, setting = sweep.partition(":")
        name, _, text = setting.partition("=")
        fragments = [f"flow {flow!r}", f"parameter {name!r}", f"expects {expected}"]
        exit_code = main(["explore", "-n", "3", "--sweep", sweep, "--quiet"])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert all(fragment in err for fragment in fragments), err
        payloads = [
            {"sweeps": [sweep]},
            {"configurations": [{"flow": flow, "parameters": {name: value}}]},
        ]
        for payload in payloads:
            with pytest.raises(ValueError) as raised:
                JobSpec.from_payload({"bitwidth": 3, **payload})
            assert all(fragment in str(raised.value) for fragment in fragments)

    def test_well_typed_values_coerce_as_declared(self):
        values = lambda spec, name: [c.as_kwargs()[name] for c in parse_sweep_spec(spec)]
        budgets = values("lut:strategy=bounded:max_pebbles=2,0.5", "max_pebbles")
        assert budgets == [2, 0.5] and [type(b) for b in budgets] == [int, float]
        assert values("esop:p=0,1", "p") == [0, 1]
        assert values("symbolic:bidirectional=true,False", "bidirectional") == [True, False]
        assert values("esop:rev_opt=none,rev-default", "rev_opt") == ["none", "rev-default"]
        assert values("esop:opt_guard=true,sampled", "opt_guard") == [True, "sampled"]
        spec = JobSpec.from_payload({"configurations": [
            {"flow": "esop", "parameters": {"opt_guard": True}},
        ]})
        assert spec.configurations[0].as_kwargs() == {"opt_guard": True}

    @pytest.mark.parametrize("option, value, choice", [
        ("--map-model", "bogus", "barenco, rtof"),
        ("--lut-synth", "magic", "esop, exact, tbs"),
        ("--opt-guard", "often", "off, sampled, full, auto"),
        ("--verify", "maybe", "off, sampled, full, auto"),
    ])
    def test_value_outside_the_owners_choices_fails_before_the_run(
        self, option, value, choice, capsys
    ):
        argv = ["flow", "--flow", "lut", "-n", "3", option, value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"got {value!r}: not one of {choice}" in err
        assert value in err and option[2:].replace("-", "_") in err

    def test_flow_verify_option_sets_the_mode(self, capsys):
        assert main(["flow", "--flow", "esop", "-n", "3"]) == 0
        assert re.search(r"verified\s+1$", capsys.readouterr().out, re.MULTILINE)
        assert main(["flow", "--flow", "esop", "-n", "3", "--verify", "false"]) == 0
        assert re.search(r"verified\s+-$", capsys.readouterr().out, re.MULTILINE)
