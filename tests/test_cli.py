"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_flow_defaults(self):
        args = build_parser().parse_args(["flow", "--flow", "esop"])
        args.bitwidth == 8
        assert args.design == "intdiv"
        assert args.factoring == 0

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

    def test_flow_command_infeasible_budget_exits_2(self, capsys):
        exit_code = main(
            ["flow", "--flow", "lut", "--design", "intdiv", "-n", "4",
             "-k", "2", "--strategy", "bounded", "--max-pebbles", "2"]
        )
        assert exit_code == 2
        assert "minimum" in capsys.readouterr().err

    def test_flow_command_misplaced_exact_time_budget_exits_2(self, capsys):
        exit_code = main(
            ["flow", "--flow", "lut", "--design", "intdiv", "-n", "4",
             "--strategy", "bounded", "--max-pebbles", "0.5",
             "--exact-time-budget", "3"]
        )
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "exact_time_budget=3.0" in err and "'bounded'" in err

    def test_flow_command_non_positive_exact_time_budget_exits_2(self, capsys):
        exit_code = main(
            ["flow", "--flow", "lut", "--design", "intdiv", "-n", "4",
             "--strategy", "exact", "--max-pebbles", "0.5",
             "--exact-time-budget", "-1"]
        )
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "exact_time_budget must be a positive" in err and "-1.0" in err

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
        assert "esop(p=0)" in capsys.readouterr().out

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
        assert "aig = circuit" in output
        for flow in ("symbolic", "esop", "hierarchical"):
            assert flow in output
        assert "FAIL" not in output

    def test_verify_command_quantum_leg(self, capsys):
        exit_code = main(
            ["verify", "--design", "intdiv", "-n", "3",
             "--flows", "esop", "--quantum", "--samples", "4"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "circuit = clifford+t" in output

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
            ["flow", "--flow", "esop", "--design", "intdiv", "-n", "3",
             "--opt", "b;rw;rf"]
        )
        assert exit_code == 0
        assert "T-count" in capsys.readouterr().out

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
            ["flow", "--flow", "esop", "--design", "intdiv", "-n", "3",
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
        assert "--map-model" in capsys.readouterr().err

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
             "--quiet", "--sweep", "esop:p=0",
             "--opt", "dc2", "--opt", "b;rw;rf"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "opt=dc2" in output
        assert "opt=b;rw;rf" in output

    def test_explore_unknown_opt_fails_fast(self, capsys):
        exit_code = main(
            ["explore", "--design", "intdiv", "-n", "3", "--no-verify",
             "--quiet", "--opt", "xmg_strassh"]
        )
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "did you mean" in err and "xmg_strash" in err
