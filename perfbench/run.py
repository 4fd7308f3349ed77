"""The repository benchmark: design-space sweeps and the job service, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``RATIONALE.md`` for why each was chosen):

``symbolic``    ``explore --flow symbolic`` default sweep on INTDIV(8)
``structural``  esop + hierarchical default sweeps on INTDIV(8), NEWTON(6)
``lut``         lut default sweep on INTDIV(8), bounded pebbling on NEWTON(6)
``service``     closed-loop client of a ``repro serve`` process (1 worker)

Every sweep runs in a fresh interpreter, serially, through
``ExplorationEngine.run_iter`` with ``verify="auto"``.  With ``--trace 0``
the sweep (or service session) is repeated, each time with a fresh
process, until ``--seconds`` have passed (at least once; three times for
``service``), and the end-to-end metrics are medians over the
repetitions (per-configuration latencies: each configuration's median).  Times are reported
in reference seconds (see ``calibrate.py``); raw wall times are printed
too.  With ``--trace 1`` the benchmark runs one untraced repetition in
canonical order and one traced repetition in seed-shuffled order, and
reports the per-layer metrics and the tracing overhead.

Every configuration is checked against the design's software model, and
counts must repeat exactly across repetitions, which use different seeds.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only if every output is
correct.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

#: Fresh-interpreter imports timed for ``setup_s`` of the sweep workloads.
SETUP_SAMPLES = 5
#: Server start/stop cycles timed for ``setup_s`` of ``service``.
SERVICE_SETUP_SAMPLES = 5
#: A service session is short; medians need at least this many per run.
SERVICE_MIN_SESSIONS = 3
#: Every child process must end within this many seconds of the start.
RUN_DEADLINE_S = 170.0
#: The program imports whose cost ``setup_s`` measures.
SETUP_IMPORT = "import repro.cli, repro.core.explorer"


class BenchmarkError(RuntimeError):
    """The benchmark could not run to the end."""


def derived_seed(seed: int, repetition: int) -> int:
    """The seed of one repetition: every repetition shuffles differently."""
    return seed * 1000 + repetition


def run_process(command, env, deadline, **kwargs) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before starting a child process")
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=remaining, **kwargs,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"child process timed out: {command}") from None
    if done.returncode != 0:
        raise BenchmarkError(
            f"child process failed ({done.returncode}): {command}\n{done.stderr[-2000:]}"
        )
    return done


def run_child(args, env, deadline) -> dict:
    done = run_process([sys.executable, str(HERE / "sweep_child.py"), *args], env, deadline)
    return json.loads(done.stdout.strip().splitlines()[-1])


def import_seconds(env, deadline) -> float:
    """One fresh-interpreter import of the program, in reference seconds."""
    with calibrate.ConcurrentSampler() as sampler:
        start = time.perf_counter()
        run_process([sys.executable, "-c", SETUP_IMPORT], env, deadline)
        end = time.perf_counter()
    return sampler.to_reference(end - start, start, end)


def config_latencies(repetitions) -> tuple:
    """``(p50, max)`` over configurations of each one's median latency.

    ``repetitions`` holds one latency list per repetition, every list in
    the same configuration order.
    """
    per_config = [statistics.median(times) for times in zip(*repetitions)]
    return statistics.median(per_config), max(per_config)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Checker:
    """Counts attempted and failed outcomes and collects what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.verified = 0
        self.problems = []
        self.flagged = []

    def outcome(self, label, problems, verified) -> None:
        self.attempted += 1
        self.verified += bool(verified)
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")

    def fail(self, problem) -> None:
        """A wrong output found outside the per-outcome checks."""
        self.failed += 1
        self.problems.append(problem)

    def same(self, what, first, other) -> None:
        if first != other:
            self.fail(f"not repeatable: {what}: {first} != {other}")


# -- sweep workloads ---------------------------------------------------------------


def check_sweep_children(children, checker: Checker) -> None:
    for child in children:
        for config in child["configs"]:
            problems = []
            if not config["ok"]:
                problems.append(f"failed: {config.get('error')}")
            elif config.get("verified") is not True:
                problems.append("not verified")
            elif config.get("verify_complete") is not True:
                problems.append("verified on a sample only")
            if config.get("mismatches"):
                problems.append(f"reference mismatch on inputs {config['mismatches']}")
            elif config["ok"] and not config.get("checked"):
                problems.append("no reference check")
            if config.get("budget_bound"):
                checker.flagged.append(f"{config['label']}: {config['budget_bound']}")
            checker.outcome(config["label"], problems, config.get("verified") is True
                            and config.get("verify_complete") is True)

    def outputs(child):
        return {
            c["label"]: (c.get("qubits"), c.get("t_count"), c.get("gates"))
            for c in child["configs"] if not c.get("budget_bound")
        }

    def counters(child):
        cuts = child["cut_cache"]
        return {**child["exact_esop"], "cut_hits": cuts["hits"], "cut_misses": cuts["misses"]}

    # A budget-bound search may end elsewhere on another run.
    budget_bound = any(c.get("budget_bound") for child in children for c in child["configs"])
    first = children[0]
    for child in children[1:]:
        theirs = outputs(child)
        for label, value in outputs(first).items():
            if label in theirs:
                checker.same(label, value, theirs[label])
        if not budget_bound:
            checker.same("memo and cut-cache counters", counters(first), counters(child))


def sweep_end_to_end(children, setup, checker: Checker) -> dict:
    p50, slowest = config_latencies(
        [[c["ref_s"] for c in child["configs"]] for child in children]
    )
    kept = [c for c in children[0]["configs"] if c["ok"] and not c.get("budget_bound")]
    return {
        "setup_s": statistics.median(setup),
        "sweep_s": statistics.median(c["sweep_s"] for c in children),
        "sweep_cpu_s": statistics.median(c["sweep_cpu_s"] for c in children),
        "config_p50_s": p50,
        "config_max_s": slowest,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
        "verified_ratio": checker.verified / checker.attempted,
        "t_count_geomean": geomean(c["t_count"] for c in kept),
        "qubits_geomean": geomean(c["qubits"] for c in kept),
    }


def bench_sweep(args, env, workdir, deadline, checker: Checker):
    workload = ["--workload", args.workload]
    if args.trace:
        base = run_child(workload + ["--seed", str(derived_seed(args.seed, 0))], env, deadline)
        traced = run_child(
            workload + ["--seed", str(derived_seed(args.seed, 1)), "--shuffle",
                        "--trace", str(workdir / "sweep.trace.json")],
            env, deadline,
        )
        children = [base, traced]
        check_sweep_children(children, checker)
        summary = traced["trace"]
        time_s = {name: layer["time_s"] for name, layer in summary["layers"].items()}
        engine_s = time_s["sweep"] - time_s.get("flow", 0.0) - time_s.get("refcheck", 0.0)
        metrics = per_layer_metrics(summary, traced["sweep_s"], base["sweep_s"], engine_s)
        return children, metrics
    setup = [import_seconds(env, deadline) for _ in range(SETUP_SAMPLES)]
    children = []
    begin = time.monotonic()
    while not children or time.monotonic() - begin < args.seconds:
        seed = derived_seed(args.seed, len(children))
        children.append(run_child(workload + ["--seed", str(seed)], env, deadline))
    check_sweep_children(children, checker)
    return children, sweep_end_to_end(children, setup, checker)


# -- service workload -------------------------------------------------------------


def _report_metrics(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "runtime_seconds"}


def check_service_sessions(sessions, payloads, env, deadline, checker, seed):
    from repro.core.explorer import FlowConfiguration

    configs = {}
    for payload in payloads:
        for entry in payload["configurations"]:
            configuration = FlowConfiguration(
                entry["flow"], tuple(sorted(entry["parameters"].items()))
            )
            configs[configuration.label()] = entry

    reference = {}
    for index, session in enumerate(sessions):
        jobs = session["jobs"]
        expected_cached = [(jobs["cold"], False)] + [(job, True) for job in jobs["resubmits"]]
        expected_cached.append((jobs["third"], None))
        cold_reports = {}
        for job, cached in expected_cached:
            for _, event in job["events"]:
                if event["type"] != "outcome":
                    continue
                problems = []
                report = event.get("report") or {}
                if not event["ok"]:
                    problems.append(f"failed: {event.get('error')}")
                elif report.get("verified") is not True:
                    problems.append("not verified")
                want_cached = cached if cached is not None else event["bitwidth"] == 7
                if event["cached"] != want_cached:
                    problems.append(f"cached={event['cached']}, expected {want_cached}")
                if event["ok"]:
                    key = (event["design"], event["bitwidth"], event["configuration"])
                    metrics = _report_metrics(report)
                    if job is jobs["cold"] or not event["cached"]:
                        cold_reports[key] = metrics
                    elif cold_reports.get(key) != metrics:
                        problems.append("cached report differs from the computed one")
                    if index == 0 and not event["cached"]:
                        reference[key] = report
                    elif key in reference and _report_metrics(reference[key]) != metrics:
                        problems.append("report differs from the first session's")
                checker.outcome(event["label"], problems, report.get("verified") is True)

    items = [
        {"design": design, "bitwidth": bitwidth, "label": label,
         "flow": configs[label]["flow"], "parameters": configs[label]["parameters"],
         "report": report}
        for (design, bitwidth, label), report in sorted(reference.items())
    ]
    path = Path(sessions[0]["workdir"]) / "service-reports.json"
    path.write_text(json.dumps(items))
    checked = run_child(["--service-reports", str(path), "--seed", str(seed)], env, deadline)
    for item in checked["configs"]:
        if not item["same_report"]:
            checker.fail(f"{item['label']}: service report differs from a local run")
        if item["mismatches"]:
            checker.fail(f"{item['label']}: reference mismatch on inputs {item['mismatches']}")
        if item["verify_complete"] is not True:
            checker.fail(f"{item['label']}: local run verified on a sample only")
    return [report for report in reference.values()]


def bench_service(args, env, workdir, deadline, checker: Checker):
    import service_session

    def session(repetition, trace=False):
        rng = random.Random(derived_seed(args.seed, repetition)) if trace else None
        cold, third = workloads.service_payloads(rng)
        directory = workdir / f"session{repetition}"
        directory.mkdir()
        result = service_session.run_session(ROOT, env, directory, cold, third, trace)
        result["workdir"] = str(directory)
        return result, (cold, third)

    if args.trace:
        base, payloads = session(0)
        traced, _ = session(1, trace=True)
        (Path(traced["workdir"]) / "probe.trace.json").rename(workdir / "server.trace.json")
        sessions = [base, traced]
    else:
        setup = []
        for index in range(SERVICE_SETUP_SAMPLES):
            directory = workdir / f"startup{index}"
            directory.mkdir()
            setup.append(service_session.measure_startup(ROOT, env, directory))
        sessions = []
        begin = time.monotonic()
        while len(sessions) < SERVICE_MIN_SESSIONS or time.monotonic() - begin < args.seconds:
            result, payloads = session(len(sessions))
            sessions.append(result)
    # Every server has been waited for; the reference check's child has not.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    reports = check_service_sessions(
        sessions, payloads, env, deadline, checker, derived_seed(args.seed, 0)
    )

    if args.trace:
        summary = traced["trace"]
        latency = traced["metrics"]["latency"]["job_seconds"]
        flow_s = summary["layers"].get("flow", {}).get("time_s", 0.0)
        service = base["metrics"]["latency"]
        metrics = per_layer_metrics(
            summary, traced["sweep_s"], base["sweep_s"],
            engine_s=latency["count"] * latency["mean"] - flow_s,
            service={
                "service.flow_p50_s": service["flow_seconds"]["p50"],
                "service.job_p50_s": service["job_seconds"]["p50"],
                "service.queue_wait_s": base["queue_wait_s"],
                "service.stream_events": base["stream_events"],
                "service.first_result_s": base["first_result_s"],
                "service.job_s": base["job_s"],
                "service.resubmit_s": base["resubmit_s"],
            },
        )
        return sessions, metrics

    p50, slowest = config_latencies([s["flow_s"] for s in sessions])
    return sessions, {
        "setup_s": statistics.median(setup),
        "sweep_s": statistics.median(s["sweep_s"] for s in sessions),
        "sweep_cpu_s": statistics.median(s["sweep_cpu_s"] for s in sessions),
        "config_p50_s": p50,
        "config_max_s": slowest,
        "peak_rss_mb": peak_rss_mb,
        "verified_ratio": checker.verified / checker.attempted,
        "t_count_geomean": geomean(r["t_count"] for r in reports),
        "qubits_geomean": geomean(r["qubits"] for r in reports),
    }


# -- per-layer metrics --------------------------------------------------------------

#: The spans whose inclusive and self time are reported, by span name.
TIMED_LAYERS = (
    "hdl", "opt.aig", "opt.xmg", "opt.rev", "cuts", "xmg_map", "exorcism",
    "collapse", "embed", "tbs", "esop_synth", "hier_synth", "pebble",
    "exact_pebble", "lut_synth", "exact_esop", "sat", "verify", "flow",
)


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(summary, traced_s, untraced_s, engine_s, service=None) -> dict:
    layers, counts = summary["layers"], summary["counts"]
    esop, cuts = summary["exact_esop"], summary["cut_cache"]
    metrics = {}
    for name in TIMED_LAYERS:
        layer = layers.get(name, {"time_s": 0.0, "self_s": 0.0})
        metrics[f"{name}.time_s"] = layer["time_s"]
        metrics[f"{name}.self_s"] = layer["self_s"]
    for kind in ("aig", "xmg", "rev"):
        runs = counts.get(f"opt.{kind}.pass_runs", 0)
        metrics[f"opt.{kind}.calls"] = counts.get(f"opt.{kind}.calls", 0)
        metrics[f"opt.{kind}.pass_runs"] = runs
        metrics[f"opt.{kind}.improving_ratio"] = _ratio(
            counts.get(f"opt.{kind}.improving", 0), runs
        )
    sat_calls = counts.get("sat.solve_calls", 0)
    cache_gets = counts.get("cache.gets", 0)
    metrics.update({
        "hdl.aig_gates": counts.get("hdl.aig_gates", 0),
        "opt.aig.gates_out": counts.get("opt.aig.gates_out", 0),
        "cuts.cache_hit_ratio": _ratio(cuts["hits"], cuts["hits"] + cuts["misses"]),
        "cuts.nodes_reused_ratio": _ratio(
            cuts["nodes_reused"], cuts["nodes_reused"] + cuts["nodes_computed"]
        ),
        "exorcism.terms": counts.get("exorcism.terms", 0),
        "collapse.bdd_nodes": counts.get("collapse.bdd_nodes", 0),
        "tbs.gates": counts.get("tbs.gates", 0),
        "hier_synth.gates": counts.get("hier_synth.gates", 0),
        "pebble.min_pebbles_s": layers.get("pebble.min", {}).get("time_s", 0.0),
        "pebble.recomputes": counts.get("pebble.recomputes", 0),
        "exact_pebble.windows": counts.get("exact_pebble.windows", 0),
        "exact_pebble.improved_ratio": _ratio(
            counts.get("exact_pebble.windows_improved", 0),
            counts.get("exact_pebble.windows", 0),
        ),
        "exact_esop.misses": esop["misses"],
        "exact_esop.memo_hit_ratio": _ratio(esop["hits"], esop["hits"] + esop["misses"]),
        "exact_esop.fallbacks": esop["fallbacks"],
        "sat.solve_calls": sat_calls,
        "sat.conflicts": counts.get("sat.conflicts", 0),
        "sat.unknown_ratio": _ratio(counts.get("sat.unknown", 0), sat_calls),
        "sat.unknown_time_bound": counts.get("sat.unknown_time_bound", 0),
        "verify.calls": layers.get("verify", {}).get("calls", 0),
        "engine.overhead_s": engine_s,
        "engine.frontends_built": counts.get("engine.frontends_built", 0),
        "cache.get_s": layers.get("cache.get", {}).get("time_s", 0.0),
        "cache.put_s": layers.get("cache.put", {}).get("time_s", 0.0),
        "cache.hit_ratio": _ratio(counts.get("cache.hits", 0), cache_gets),
        "cache.entry_bytes": _ratio(
            counts.get("cache.entry_bytes", 0), counts.get("cache.puts", 0)
        ),
        "trace.spans": summary["spans"],
        "trace.overhead_ratio": traced_s / untraced_s - 1,
    })
    service_keys = ("service.flow_p50_s", "service.job_p50_s", "service.queue_wait_s",
                    "service.stream_events", "service.first_result_s", "service.job_s",
                    "service.resubmit_s")
    for key in service_keys:
        metrics[key] = (service or {}).get(key, 0.0)
    return metrics


# -- entry point -------------------------------------------------------------------


def declared_metrics(trace: bool) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    deadline = time.monotonic() + RUN_DEADLINE_S
    units = declared_metrics(bool(args.trace))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    workdir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    checker = Checker()
    try:
        import_seconds(env, deadline)  # compiles bytecode once, untimed
        bench = bench_service if args.workload == "service" else bench_sweep
        runs, metrics = bench(args, env, workdir, deadline, checker)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        # Only the Chrome traces of a traced run are kept.
        for path in workdir.iterdir():
            if not path.name.endswith(".trace.json"):
                shutil.rmtree(path) if path.is_dir() else path.unlink()
        if not any(workdir.iterdir()):
            workdir.rmdir()

    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    print(f"{args.workload}: {len(runs)} repetition(s), {checker.attempted} outcome(s), "
          f"raw wall seconds per repetition {[round(r['wall_s'], 3) for r in runs]}")
    for name in units:
        print(f"  {name:28s} {metrics[name]:14.6g} {units[name]}")
    for runs_item in runs:
        for config in runs_item.get("configs", []):
            if config.get("provenance"):
                print(f"  provenance {config['label']}: {json.dumps(config['provenance'])}")
    for flag in checker.flagged:
        print(f"  FLAGGED (wall-clock budget bound, left out of geomeans): {flag}")
    for problem in checker.problems:
        print(f"  PROBLEM: {problem}")
    correct = not checker.problems
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
