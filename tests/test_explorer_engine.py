"""Tests for the batch exploration engine: sweeps, parallelism, caching."""

import json

import pytest

from repro.core.cache import ResultCache
from repro.core.cost import CostReport
from repro.core.explorer import (
    ConfigurationOutcome,
    DesignSpaceExplorer,
    ExplorationEngine,
    ExplorationTask,
    FlowConfiguration,
    ParameterGrid,
    _prefix_keys,
    build_sweep,
    pareto_front_of,
)
from repro.core.flows import run_flow
from repro.core.reports import outcome_table, reports_from_json, reports_to_json
from repro.cli import main, build_parser, parse_sweep_spec

FAST_GRIDS = [
    ParameterGrid("symbolic"),
    ParameterGrid("esop", p=[0, 1]),
    ParameterGrid("hierarchical", strategy=["bennett", "per_output"]),
]


from repro.core.explorer import _execute_task as _real_execute_task


def _exit_worker_on_symbolic(spec):
    """Module-level (picklable) worker stand-in that hard-kills its process."""
    if spec["flow"] == "symbolic":
        import os

        os._exit(3)
    return _real_execute_task(spec)


class TestParameterGrid:
    def test_cartesian_expansion(self):
        grid = ParameterGrid("esop", p=[0, 1, 2])
        labels = [c.label() for c in grid]
        assert labels == ["esop(p=0)", "esop(p=1)", "esop(p=2)"]
        assert len(grid) == 3

    def test_scalar_values_are_fixed(self):
        grid = ParameterGrid("hierarchical", strategy="bennett", lut_size=[3, 4])
        assert len(grid) == 2
        for config in grid:
            assert dict(config.parameters)["strategy"] == "bennett"

    def test_no_parameters(self):
        assert [c.label() for c in ParameterGrid("symbolic")] == ["symbolic"]

    def test_explicit_value_order_preserved(self):
        grid = ParameterGrid("esop", p=[2, 10, 1])
        assert [c.label() for c in grid] == ["esop(p=2)", "esop(p=10)", "esop(p=1)"]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            ParameterGrid("esop", p=[])


class TestBuildSweep:
    def test_expands_designs_bitwidths_and_grids(self):
        tasks = build_sweep(["intdiv", "newton"], [3, 4], FAST_GRIDS)
        assert len(tasks) == 2 * 2 * 5
        assert len({t.label() for t in tasks}) == len(tasks)

    def test_accepts_scalars_and_plain_configurations(self):
        tasks = build_sweep("intdiv", 4, [FlowConfiguration("symbolic")])
        assert len(tasks) == 1
        assert tasks[0].label() == "intdiv(4)/symbolic"

    def test_attaches_custom_verilog(self):
        source = "module buf (input a, output y); assign y = a; endmodule\n"
        tasks = build_sweep("buf", 1, [FlowConfiguration("esop")], verilog=source)
        assert tasks[0].source() == source


class TestEngineExecution:
    def test_parallel_matches_serial(self):
        tasks = build_sweep(["intdiv", "newton"], [3, 4], FAST_GRIDS)
        assert len(tasks) >= 20
        serial = ExplorationEngine(jobs=1, verify=False).run(tasks)
        engine = ExplorationEngine(jobs=2, verify=False)
        parallel = engine.run(tasks)
        assert engine.failures == 0
        assert engine.executed == len(tasks)
        assert [o.report.metrics() for o in parallel] == [
            o.report.metrics() for o in serial
        ]

    def test_streaming_results(self):
        tasks = build_sweep("intdiv", 3, FAST_GRIDS)
        seen = []
        engine = ExplorationEngine(jobs=1, verify=False, on_result=seen.append)
        outcomes = list(engine.run_iter(tasks))
        assert len(seen) == len(outcomes) == len(tasks)
        assert all(isinstance(o, ConfigurationOutcome) for o in seen)

    def test_error_isolation(self):
        tasks = build_sweep("intdiv", 3, [FlowConfiguration("esop", (("p", 0),))])
        tasks += build_sweep("no_such_design", 3, [FlowConfiguration("symbolic")])
        tasks += build_sweep("newton", 3, [FlowConfiguration("esop", (("p", 0),))])
        engine = ExplorationEngine(jobs=1, verify=False)
        outcomes = engine.run(tasks)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert engine.failures == 1
        assert "no_such_design" in outcomes[1].error
        assert outcomes[1].report is None

    def test_pool_tasks_do_not_serialize_the_frontend(self):
        # Regression: pool dispatch used to pickle the shared AIG into every
        # task spec.  With the fork-once handoff the per-task payload is just
        # the configuration tuple — a few hundred bytes, not a network.
        tasks = build_sweep("intdiv", 3, FAST_GRIDS)
        engine = ExplorationEngine(jobs=2, verify=False)
        outcomes = engine.run(tasks)
        assert all(o.ok for o in outcomes)
        assert 0 < engine.last_task_payload_bytes < 2048

    def test_serial_runs_report_zero_payload(self):
        tasks = build_sweep("intdiv", 3, FAST_GRIDS)
        engine = ExplorationEngine(jobs=1, verify=False)
        engine.run(tasks)
        assert engine.last_task_payload_bytes == 0

    def test_error_isolation_in_pool(self):
        tasks = build_sweep(["intdiv", "no_such_design"], 3, [
            FlowConfiguration("esop", (("p", 0),)),
        ])
        engine = ExplorationEngine(jobs=2, verify=False)
        outcomes = engine.run(tasks)
        assert sum(o.ok for o in outcomes) == 1
        assert engine.failures == 1

    def test_timeout_captured_as_failure(self):
        tasks = build_sweep("intdiv", 6, [FlowConfiguration("symbolic")])
        engine = ExplorationEngine(jobs=1, verify=False, timeout=1e-3)
        outcomes = engine.run(tasks)
        assert not outcomes[0].ok
        assert "timeout" in outcomes[0].error.lower()

    def test_absurd_timeout_degrades_to_no_guard(self):
        import signal

        handler_before = signal.getsignal(signal.SIGALRM)
        tasks = build_sweep("intdiv", 3, [FlowConfiguration("esop", (("p", 0),))])
        outcomes = ExplorationEngine(jobs=1, verify=False, timeout=1e12).run(tasks)
        assert outcomes[0].ok  # setitimer overflow must not fail the task
        assert signal.getsignal(signal.SIGALRM) is handler_before

    def test_unpicklable_parameter_fails_only_its_task(self):
        tasks = build_sweep("intdiv", 3, [
            FlowConfiguration("esop", (("p", 0), ("hook", lambda: None))),
            FlowConfiguration("esop", (("p", 1),)),
        ])
        engine = ExplorationEngine(jobs=2, verify=False)
        outcomes = engine.run(tasks)
        assert not outcomes[0].ok
        assert outcomes[1].ok  # the healthy pool keeps serving other tasks
        assert engine.failures == 1

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            ExplorationEngine(jobs=0)

    def test_interleaved_serial_engines_do_not_cross_frontends(self):
        configs = [FlowConfiguration("esop", (("p", 0),)), FlowConfiguration("esop", (("p", 1),))]
        a_tasks = build_sweep("intdiv", 3, configs)
        b_tasks = build_sweep("newton", 3, configs)
        a = ExplorationEngine(jobs=1, verify=True).run_iter(a_tasks)
        b = ExplorationEngine(jobs=1, verify=True).run_iter(b_tasks)
        next(a)
        next(b)  # must not clobber engine A's shared frontend table
        second_a = next(a)
        reference = ExplorationEngine(jobs=1, verify=True).run(a_tasks)
        assert second_a.report.metrics() == reference[1].report.metrics()

    def test_duplicate_task_objects_keep_positions(self):
        task = ExplorationTask("intdiv", 3, FlowConfiguration("esop", (("p", 0),)))
        other = ExplorationTask("intdiv", 3, FlowConfiguration("symbolic"))
        outcomes = ExplorationEngine(jobs=1, verify=False).run([task, other, task])
        assert [o.task.configuration.flow for o in outcomes] == [
            "esop", "symbolic", "esop",
        ]

    def test_dead_worker_does_not_abort_sweep(self, monkeypatch):
        import repro.core.explorer as explorer_module

        monkeypatch.setattr(explorer_module, "_execute_task", _exit_worker_on_symbolic)
        tasks = build_sweep("intdiv", 3, [
            FlowConfiguration("symbolic"),
            FlowConfiguration("esop", (("p", 0),)),
        ])
        engine = ExplorationEngine(jobs=2, verify=False)
        outcomes = engine.run(tasks)  # must not raise BrokenProcessPool
        assert len(outcomes) == 2
        symbolic = next(o for o in outcomes if o.task.configuration.flow == "symbolic")
        assert not symbolic.ok and "worker process died" in symbolic.error
        assert engine.failures >= 1

    def test_none_artifact_does_not_skip_stage(self):
        result = run_flow("esop", "intdiv", 3, verify=False, p=0, aig=None)
        assert result.report.qubits > 0
        assert "frontend" not in result.skipped_stages


class TestCaching:
    def test_cache_hit_skips_execution(self, tmp_path):
        tasks = build_sweep("intdiv", [3, 4], FAST_GRIDS)
        first = ExplorationEngine(jobs=1, cache=str(tmp_path), verify=False)
        initial = first.run(tasks)
        assert first.executed == len(tasks)
        assert first.cache_hits == 0

        second = ExplorationEngine(jobs=1, cache=str(tmp_path), verify=False)
        cached = second.run(tasks)
        assert second.executed == 0  # zero flow re-executions
        assert second.cache_hits == len(tasks)
        assert all(o.cached for o in cached)
        assert [o.report.metrics() for o in cached] == [
            o.report.metrics() for o in initial
        ]

    def test_cache_key_is_content_addressed(self, tmp_path):
        def key(
            flow="esop",
            parameters=(("p", 0),),
            verify=True,
            design="x",
            bitwidth=4,
            verilog="module a;",
        ):
            task = ExplorationTask(
                design, bitwidth, FlowConfiguration(flow, parameters), verilog
            )
            engine = ExplorationEngine(cache=str(tmp_path), verify=verify)
            chain = _prefix_keys(engine._task_spec(0, task), {})
            return engine._cache_key(task, chain, {})

        base = key()
        assert base == key(parameters=())  # p=0 is the declared default
        assert base != key(verilog="module b;")
        assert base != key(parameters=(("p", 1),))
        assert base != key(flow="symbolic", parameters=())
        assert base != key(bitwidth=5)
        assert base != key(verify=False)
        # two designs sharing one Verilog source must not collide
        assert base != key(design="y")

    def test_spelt_out_defaults_share_one_entry(self, tmp_path):
        configurations = [
            FlowConfiguration("lut"),
            FlowConfiguration("lut", (("k", 4),)),
            FlowConfiguration("lut", (("strategy", "bennett"),)),
        ]
        tasks = build_sweep("intdiv", 3, configurations)
        ExplorationEngine(cache=str(tmp_path), verify=False).run(tasks)
        assert len(ResultCache(tmp_path)) == 1
        rerun = ExplorationEngine(cache=str(tmp_path), verify=False)
        assert all(outcome.cached for outcome in rerun.run(tasks))
        assert (rerun.executed, rerun.cache_hits) == (0, 3)

    def test_undeclared_parameter_is_never_a_cache_hit(self, tmp_path):
        # The prefix key ignores undeclared names, so ``kk=4`` must get no
        # key at all rather than the default configuration's entry.
        lut = build_sweep("intdiv", 3, [FlowConfiguration("lut")])
        ExplorationEngine(cache=str(tmp_path), verify=False).run(lut)
        typo = build_sweep("intdiv", 3, [FlowConfiguration("lut", (("kk", 4),))])
        engine = ExplorationEngine(cache=str(tmp_path), verify=False)
        (outcome,) = engine.run(typo)
        assert not outcome.ok and not outcome.cached
        assert "did you mean 'k'" in outcome.error
        assert (engine.executed, engine.cache_hits) == (1, 0)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        report = CostReport("intdiv", "esop", 4, 8, 100, 10, 3, 0.5)
        cache.put("k1", report)
        assert cache.get("k1").metrics() == report.metrics()
        (tmp_path / "k2.json").write_text("not json {")
        assert "k2" not in cache
        assert cache.get("k2") is None
        assert (cache.counters()["hits"], cache.counters()["misses"]) == (1, 1)
        # The corrupt entry is unlinked by the failed get, so it neither
        # counts as an entry nor satisfies membership ever again.
        assert len(cache) == 1
        assert cache.clear() == 1

    def test_report_serialisation_roundtrip(self):
        report = CostReport(
            "intdiv", "esop", 4, 8, 100, 10, 3, 0.5,
            verified=True, extra={"esop_terms": 7},
        )
        assert CostReport.from_dict(report.to_dict()) == report
        assert reports_from_json(reports_to_json([report])) == [report]


class TestParetoDeduplication:
    def build_report(self, flow, qubits, t):
        return CostReport("intdiv", flow, 4, qubits, t, 10, 3, 0.5)

    def test_identical_points_collapse_to_one(self):
        reports = {
            "b": self.build_report("esop", 8, 100),
            "a": self.build_report("esop", 8, 100),
            "c": self.build_report("symbolic", 7, 200),
        }
        front = pareto_front_of(reports)
        assert [(p.configuration, p.qubits, p.t_count) for p in front] == [
            ("c", 7, 200),
            ("a", 8, 100),  # lexicographically smallest duplicate survives
        ]

    def test_collapsed_point_records_its_aliases(self):
        # Regression: distinct strategies landing on the same (qubits,
        # T-count) point used to appear as duplicate front entries (the
        # bounded(0.25)/bounded(0.5) pair); they must collapse to one
        # labeled point carrying the other configurations as aliases.
        reports = {
            "lut(strategy=bounded, max_pebbles=0.25)": self.build_report("lut", 9, 300),
            "lut(strategy=bounded, max_pebbles=0.5)": self.build_report("lut", 9, 300),
            "lut(strategy=eager)": self.build_report("lut", 9, 300),
            "lut(strategy=bennett)": self.build_report("lut", 12, 280),
        }
        front = pareto_front_of(reports)
        assert len(front) == 2
        merged = front[0]
        assert merged.configuration == "lut(strategy=bounded, max_pebbles=0.25)"
        assert merged.aliases == (
            "lut(strategy=bounded, max_pebbles=0.5)",
            "lut(strategy=eager)",
        )
        assert merged.label() == (
            "lut(strategy=bounded, max_pebbles=0.25) "
            "[= lut(strategy=bounded, max_pebbles=0.5), lut(strategy=eager)]"
        )
        solo = front[1]
        assert solo.aliases == ()
        assert solo.label() == "lut(strategy=bennett)"

    def test_dominated_points_removed(self):
        reports = {
            "good": self.build_report("esop", 8, 100),
            "bad": self.build_report("esop", 9, 100),
            "worse": self.build_report("esop", 9, 200),
        }
        front = pareto_front_of(reports)
        assert [p.configuration for p in front] == ["good"]

    def test_explorer_front_deduplicates(self):
        explorer = DesignSpaceExplorer("intdiv", 4, verify=False)
        explorer.reports = {
            "x": self.build_report("esop", 8, 100),
            "y": self.build_report("hierarchical", 8, 100),
        }
        front = explorer.pareto_front()
        assert len(front) == 1


class TestExplorerDelegation:
    def test_explorer_with_jobs_and_cache(self, tmp_path):
        explorer = DesignSpaceExplorer(
            "intdiv", 3, verify=False, jobs=2, cache_dir=str(tmp_path)
        )
        reports = explorer.explore()
        assert len(reports) == 5
        assert not explorer.errors

        warm = DesignSpaceExplorer(
            "intdiv", 3, verify=False, jobs=1, cache_dir=str(tmp_path)
        )
        warm.explore()
        assert warm.engine.executed == 0
        assert warm.engine.cache_hits == 5
        assert {
            label: report.metrics() for label, report in warm.reports.items()
        } == {label: report.metrics() for label, report in reports.items()}

    def test_explorer_captures_errors(self):
        explorer = DesignSpaceExplorer(
            "intdiv",
            3,
            configurations=[
                FlowConfiguration("esop", (("p", 0),)),
                FlowConfiguration("no_such_flow"),
            ],
            verify=False,
        )
        reports = explorer.explore()
        assert "esop(p=0)" in reports
        assert "no_such_flow" in explorer.errors
        assert "unknown flow" in explorer.errors["no_such_flow"]

    def test_all_failures_raise_with_causes_and_do_not_rerun(self):
        explorer = DesignSpaceExplorer(
            "intdiv", 3, configurations=[FlowConfiguration("no_such_flow")],
            verify=False,
        )
        with pytest.raises(RuntimeError, match="no_such_flow"):
            explorer.best_by_qubits()
        # the failed sweep must not silently re-run on the next accessor
        explorer.engine.on_result = lambda outcome: pytest.fail(
            "accessor re-ran the sweep"
        )
        assert explorer.pareto_front() == []
        assert explorer.summary_rows() == []

    def test_retry_clears_stale_errors(self):
        explorer = DesignSpaceExplorer(
            "intdiv", 3, configurations=[FlowConfiguration("esop", (("p", 0),))],
            verify=False,
        )
        explorer.errors = {"esop(p=0)": "stale failure from a previous run"}
        explorer.explore()
        assert explorer.errors == {}


class TestCliExplore:
    def test_sweep_spec_parsing(self):
        grid = parse_sweep_spec("esop:p=0,1,2")
        assert grid.flow == "esop"
        assert len(grid) == 3
        grid = parse_sweep_spec("hierarchical:strategy=bennett,per_output:lut_size=3,4")
        assert len(grid) == 4
        values = {dict(c.parameters)["lut_size"] for c in grid}
        assert values == {3, 4}
        assert len(parse_sweep_spec("symbolic")) == 1

    def test_sweep_spec_errors(self):
        with pytest.raises(ValueError):
            parse_sweep_spec(":p=1")
        with pytest.raises(ValueError):
            parse_sweep_spec("esop:p")
        with pytest.raises(ValueError):
            parse_sweep_spec("esop:p=")
        with pytest.raises(ValueError, match="duplicate"):
            parse_sweep_spec("esop:p=0:p=1")
        with pytest.raises(ValueError, match="reserved"):
            parse_sweep_spec("esop:flow=1")

    def test_explore_flag_parsing(self):
        args = build_parser().parse_args(
            [
                "explore",
                "--designs", "intdiv", "newton",
                "--bitwidths", "3", "4",
                "--sweep", "esop:p=0,1",
                "--jobs", "4",
                "--cache", "/tmp/cache",
                "--timeout", "2.5",
            ]
        )
        assert args.designs == ["intdiv", "newton"]
        assert args.bitwidths == [3, 4]
        assert args.sweep == ["esop:p=0,1"]
        assert args.jobs == 4
        assert str(args.cache) == "/tmp/cache"
        assert args.timeout == 2.5

    def test_explore_defaults_preserved(self):
        args = build_parser().parse_args(["explore"])
        assert args.design == "intdiv"
        assert args.bitwidth == 6
        assert args.jobs == 1
        assert args.cache is None
        assert args.sweep == []

    def test_explore_command_with_sweep_jobs_and_cache(self, tmp_path, capsys):
        argv = [
            "explore",
            "--design", "intdiv",
            "--bitwidths", "3",
            "--sweep", "esop:p=0,1",
            "--jobs", "2",
            "--cache", str(tmp_path / "cache"),
            "--json", str(tmp_path / "reports.json"),
            "--no-verify",
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "Pareto front" in output
        assert "esop(p=0)" in output and "esop(p=1)" in output
        assert "2 flow(s) executed" in output
        reports = reports_from_json((tmp_path / "reports.json").read_text())
        assert len(reports) == 2

        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "2 hit(s), 0 flow(s) executed" in output

    def test_explore_command_reports_failures_in_exit_code(self, capsys):
        exit_code = main(
            [
                "explore",
                "--designs", "no_such_design",
                "--bitwidths", "3",
                "--sweep", "esop:p=0",
                "--quiet",
                "--no-verify",
            ]
        )
        assert exit_code == 1
        assert "error" in capsys.readouterr().out


class TestOutcomeTable:
    def test_mixed_outcomes_render(self):
        task_ok = ExplorationTask("intdiv", 4, FlowConfiguration("esop", (("p", 0),)))
        task_bad = ExplorationTask("intdiv", 4, FlowConfiguration("symbolic"))
        report = CostReport("intdiv", "esop", 4, 8, 100, 10, 3, 0.5)
        text = outcome_table(
            [
                ConfigurationOutcome(task_ok, report=report, cached=True),
                ConfigurationOutcome(task_bad, error="boom"),
            ],
            title="sweep",
        )
        assert "cached" in text
        assert "error: boom" in text
