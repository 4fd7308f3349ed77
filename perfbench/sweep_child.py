"""One cold sweep in a fresh interpreter, as ``python -m repro explore`` runs it.

Run by ``run.py``; prints one JSON object as its last stdout line.

    python3 perfbench/sweep_child.py --workload lut --seed 3 [--shuffle] [--trace FILE]
    python3 perfbench/sweep_child.py --service-reports FILE --seed 3

The first form runs the workload's sweep serially through
``ExplorationEngine.run_iter`` with ``verify="auto"``, in canonical order
or, with ``--shuffle``, in seed-shuffled order.  Each flow's circuit is
checked against the design's software model right after the flow
returns; that check and the speed samples of :mod:`calibrate` are timed
separately and taken out of every reported time.  ``--trace`` also wraps
each layer in spans and writes them to FILE as Chrome trace-event JSON.

The second form re-runs, in this process, each configuration a service
session returned, and checks that the service's report equals the local
one and that the local circuit matches the software model.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class Probe:
    """Checks each flow's output off the clock and records its provenance."""

    def __init__(self, rng: random.Random, sampler, tracer=None) -> None:
        self.rng = rng
        self.sampler = sampler
        self.tracer = tracer
        self.records = []
        self.excluded_wall = 0.0
        self.excluded_cpu = 0.0
        #: Searches stopped by a wall-clock budget, whose result can differ
        #: on a slower machine: SAT calls that returned "unknown" before
        #: their conflict budget ran out, and exact-ESOP calls that ran
        #: past their deadline.
        self.budget_stops = 0

    def install(self) -> None:
        import repro.core.explorer as explorer
        import repro.logic.exact_esop as exact_esop
        import repro.reversible.exact_pebbling as exact_pebbling

        run_flow = explorer.run_flow

        def probed(flow, design, bitwidth, **kwargs):
            esop_before = exact_esop.exact_esop_stats()
            stops_before = self.budget_stops
            try:
                result = run_flow(flow, design, bitwidth, **kwargs)
            except BaseException as exc:
                self.records.append({"error": f"{type(exc).__name__}: {exc}"})
                raise
            wall, cpu = time.perf_counter(), time.process_time()
            span = self.tracer.span("refcheck") if self.tracer else contextlib.nullcontext()
            with span, self.sampler.paused():
                record = self._check(result, design, bitwidth, kwargs)
            esop = {
                key: value - esop_before[key]
                for key, value in exact_esop.exact_esop_stats().items()
            }
            stops = self.budget_stops - stops_before
            if esop["fallbacks"] or stops:
                record["budget_bound"].append(
                    f"{stops} search(es) stopped by a time budget, "
                    f"{esop['fallbacks']} exact-ESOP fallback(s)"
                )
            if esop["hits"] or esop["misses"]:
                record["provenance"]["exact_esop"] = esop
            self.excluded_wall += time.perf_counter() - wall
            self.excluded_cpu += time.process_time() - cpu
            self.records.append(record)
            return result

        explorer.run_flow = probed
        for module in (exact_esop, exact_pebbling):
            module.solve = self._counting(module.solve)
        exact_esop_cubes = exact_esop.exact_esop_cubes

        def timed(truth, num_vars, time_budget=exact_esop.DEFAULT_TIME_BUDGET):
            start = time.perf_counter()
            cubes = exact_esop_cubes(truth, num_vars, time_budget)
            if time.perf_counter() - start >= time_budget:  # its deadline passed
                self.budget_stops += 1
            return cubes

        exact_esop.exact_esop_cubes = timed

    def _counting(self, solve):
        def counted(cnf, *args, **kwargs):
            result = solve(cnf, *args, **kwargs)
            budget = kwargs.get("conflict_budget")
            if result.status == "unknown" and (budget is None or result.conflicts < budget):
                self.budget_stops += 1
            return result

        return counted

    def _check(self, result, design, bitwidth, parameters):
        from repro.reversible.exact_pebbling import DEFAULT_TIME_BUDGET

        circuit = result.circuit
        inputs = workloads.reference_inputs(self.rng, bitwidth, circuit.num_gates())
        mismatches = workloads.reference_mismatches(design, bitwidth, circuit, inputs)
        record = {
            "checked": len(inputs),
            "mismatches": mismatches[:8],
            "verify_complete": result.context.get("verify_complete"),
            "budget_bound": [],
            "provenance": {},
        }
        info = getattr(result.context.get("schedule"), "info", None) or {}
        if info:
            record["provenance"].update(
                pebble_engine=info.get("engine"),
                pebble_optimal=bool(info.get("optimal")),
                pebble_fallback=bool(info.get("fallback", False)),
                windows=info.get("windows"),
                windows_improved=info.get("windows_improved"),
            )
            # Windows are skipped without a SAT call once the deadline passes.
            budget = parameters.get("exact_time_budget") or DEFAULT_TIME_BUDGET
            if result.stage_runtimes.get("pebble", 0.0) >= budget:
                record["budget_bound"].append("exact pebbling ran past its time budget")
        return record


def _config_entry(outcome, record, gap, cpu):
    entry = {"label": outcome.label(), "ok": outcome.ok, "wall_s": gap, "cpu_s": cpu}
    if outcome.ok:
        report = outcome.report
        entry.update(
            qubits=report.qubits,
            t_count=report.t_count,
            gates=report.gate_count,
            verified=report.verified,
        )
    else:
        entry["error"] = outcome.error
    if record is not None:
        entry.update(record)
    return entry


def run_sweep(workload: str, seed: int, shuffle: bool, trace_path) -> dict:
    from repro.core.explorer import ExplorationEngine
    from repro.logic.cuts import cut_enumeration_cache_stats
    from repro.logic.exact_esop import exact_esop_stats

    rng = random.Random(seed)
    tasks = workloads.sweep_tasks(workload)
    if shuffle:
        rng.shuffle(tasks)
    tracer = spans.Tracer() if trace_path else None
    if tracer is not None:
        spans.install_layers(tracer)
    sampler = calibrate.SpeedSampler()
    probe = Probe(rng, sampler, tracer)
    probe.install()

    def excluded():
        return (probe.excluded_wall + sampler.excluded_wall,
                probe.excluded_cpu + sampler.excluded_cpu)

    engine = ExplorationEngine(jobs=1, verify="auto")
    configs = []
    root_span = tracer.span("sweep") if tracer else contextlib.nullcontext()
    with root_span, sampler:
        last_wall, last_cpu, last_excluded = time.perf_counter(), time.process_time(), excluded()
        for outcome in engine.run_iter(tasks):
            now, cpu, skipped = time.perf_counter(), time.process_time(), excluded()
            gap = now - last_wall - (skipped[0] - last_excluded[0])
            cpu_gap = cpu - last_cpu - (skipped[1] - last_excluded[1])
            record = probe.records[-1] if len(probe.records) > len(configs) else None
            entry = _config_entry(outcome, record, gap, cpu_gap)
            entry["ref_s"] = sampler.to_reference(gap, last_wall, now)
            entry["ref_cpu_s"] = sampler.to_reference(cpu_gap, last_wall, now)
            configs.append(entry)
            last_wall, last_cpu, last_excluded = now, cpu, skipped
    result = {
        "sweep_s": sum(c["ref_s"] for c in configs),
        "sweep_cpu_s": sum(c["ref_cpu_s"] for c in configs),
        "wall_s": sum(c["wall_s"] for c in configs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "configs": configs,
        "exact_esop": exact_esop_stats(),
        "cut_cache": cut_enumeration_cache_stats(),
    }
    if tracer is not None:
        tracer.write_chrome_trace(trace_path)
        result["trace"] = tracer.summary()
    return result


def check_service_reports(path: str, seed: int) -> dict:
    """Re-run each configuration a service returned; compare and check it."""
    from repro.core.flows import run_flow

    rng = random.Random(seed)
    checked = []
    for item in json.loads(Path(path).read_text()):
        result = run_flow(
            item["flow"], item["design"], item["bitwidth"], verify="auto",
            **item["parameters"],
        )
        local = json.loads(json.dumps(result.report.metrics()))
        remote = {k: v for k, v in item["report"].items() if k != "runtime_seconds"}
        inputs = workloads.reference_inputs(
            rng, item["bitwidth"], result.circuit.num_gates()
        )
        checked.append(
            {
                "label": item["label"],
                "same_report": local == remote,
                "checked": len(inputs),
                "mismatches": workloads.reference_mismatches(
                    item["design"], item["bitwidth"], result.circuit, inputs
                )[:8],
                "verify_complete": result.context.get("verify_complete"),
            }
        )
    return {"configs": checked}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.SWEEP_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--shuffle", action="store_true",
                        help="run the configurations in seed-shuffled order")
    parser.add_argument("--trace", metavar="FILE")
    parser.add_argument("--service-reports", metavar="FILE")
    args = parser.parse_args()
    if args.service_reports:
        output = check_service_reports(args.service_reports, args.seed)
    elif args.workload:
        output = run_sweep(args.workload, args.seed, args.shuffle, args.trace)
    else:
        parser.error("give --workload or --service-reports")
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
