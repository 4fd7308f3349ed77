"""In-memory span recorder and the layer wrappers of the traced run.

A :class:`Tracer` records one span per call of a wrapped public entry
point: name, start, end, parent span and thread.  Spans stay in memory
and are written out once, as Chrome trace-event JSON, when the traced
process ends.  :func:`install_layers` wraps the entry points of every
layer the benchmark reports on; nothing inside ``src/`` is edited, the
wrappers are attribute patches made by this file at run time.

Counters are recorded at the same boundaries as the spans, so ratios
(memo hits, improving passes, SAT unknowns) are measured where the work
happens.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Union


class Tracer:
    """Nested spans per thread plus named counters, all kept in memory."""

    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent index or -1, thread id]
        self.spans: List[list] = []
        self.counts: Dict[str, float] = collections.Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1,
                  threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            stack.pop()

    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: Union[str, Callable[..., str]],
        after: Callable[..., None] = None,
    ) -> None:
        """Replace ``owner.attr`` by a version that runs inside a span.

        ``layer`` is the span name, or a function of the call's arguments
        returning it; ``after(tracer, result, args, kwargs)`` records
        counters from the result once the span has closed.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            name = layer if isinstance(layer, str) else layer(*args, **kwargs)
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(self, result, args, kwargs)
            return result

        setattr(owner, attr, traced)

    # -- read-out ---------------------------------------------------------------

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: inclusive time, self time and call count.

        Inclusive time counts only the outermost span of a name, so a layer
        that re-enters itself (``lut_map`` inside ``aig_to_xmg`` inside
        another ``lut_map``) is not counted twice.  Self time is a span's
        duration minus the part covered by its direct children.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        layers: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            entry = layers.setdefault(name, {"time_s": 0.0, "self_s": 0.0, "calls": 0})
            duration = end - start
            entry["calls"] += 1
            entry["self_s"] += (duration - child_ns[index]) / 1e9
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                entry["time_s"] += duration / 1e9
        return layers

    def write_chrome_trace(self, path: str) -> None:
        """Write every span as a Chrome trace-event ``X`` (complete) event."""
        origin = min((span[1] for span in self.spans), default=0)
        pid = os.getpid()
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": pid,
                "tid": tid,
                "args": {"id": index, "parent": parent},
            }
            for index, (name, start, end, parent, tid) in enumerate(self.spans)
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)

    def summary(self) -> Dict[str, Any]:
        """The JSON-ready read-out a traced process hands to run.py."""
        from repro.logic.cuts import cut_enumeration_cache_stats
        from repro.logic.exact_esop import exact_esop_stats

        return {
            "layers": self.layer_times(),
            "counts": dict(self.counts),
            "spans": len(self.spans),
            "exact_esop": exact_esop_stats(),
            "cut_cache": cut_enumeration_cache_stats(),
        }


# -- the layer wrappers -----------------------------------------------------------


def _pipeline_layer(pipeline, network, *args, **kwargs) -> str:
    from repro.opt.targets import target_kind

    return "opt." + target_kind(network)


def _after_pipeline(tracer, result, args, kwargs) -> None:
    kind = result.reports[0].before.kind if result.reports else None
    if kind is None:
        return
    tracer.add(f"opt.{kind}.calls")
    tracer.add(f"opt.{kind}.pass_runs", len(result.reports))
    if kind == "aig":
        tracer.add("opt.aig.gates_out", result.network.num_gates())


def _stats_cost(stats) -> tuple:
    if stats.kind == "xmg":
        return (stats.num_maj, stats.num_gates, stats.depth)
    return (stats.num_gates, stats.depth)


def _hook_pass_run(tracer: Tracer) -> None:
    """Count passes that lowered the pipeline's keep-best objective."""
    from repro.opt.passes import Pass
    from repro.opt.targets import target_cost

    original = Pass.run

    @functools.wraps(original)
    def run(self, network):
        result, report = original(self, network)
        kind = report.before.kind
        if kind in ("aig", "xmg"):
            improved = _stats_cost(report.after) < _stats_cost(report.before)
        else:  # the T-count is not in the report; it is cached per cascade
            improved = target_cost(result) < target_cost(network)
        if improved:
            tracer.add(f"opt.{kind}.improving")
        return result, report

    Pass.run = run


def _after_flow(tracer, result, args, kwargs) -> None:
    extra = result.report.extra
    tracer.add("collapse.bdd_nodes", extra.get("bdd_nodes", 0))
    tracer.add("pebble.recomputes", extra.get("recomputes", 0))
    schedule = result.context.get("schedule")
    info = getattr(schedule, "info", None) or {}
    if "windows" in info:
        tracer.add("exact_pebble.windows", info["windows"])
        tracer.add("exact_pebble.windows_improved", info["windows_improved"])


def _after_solve(tracer, result, args, kwargs) -> None:
    tracer.add("sat.solve_calls")
    tracer.add("sat.conflicts", result.conflicts)
    if result.status == "unknown":
        tracer.add("sat.unknown")
        budget = kwargs.get("conflict_budget")
        if budget is None or result.conflicts < budget:
            tracer.add("sat.unknown_time_bound")


def _after_cache_get(tracer, result, args, kwargs) -> None:
    tracer.add("cache.gets")
    if result is not None:
        tracer.add("cache.hits")


def _after_cache_put(tracer, result, args, kwargs) -> None:
    cache, key = args[0], args[1]
    tracer.add("cache.puts")
    try:
        tracer.add("cache.entry_bytes", (cache.directory / f"{key}.json").stat().st_size)
    except OSError:
        pass


def _add_count(counter: str, measure: Callable[[Any], float]):
    def after(tracer, result, args, kwargs):
        tracer.add(counter, measure(result))

    return after


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry point of every reported layer in a span."""
    import repro.core.explorer as explorer
    import repro.core.flows as flows
    import repro.logic.cuts as cuts
    import repro.logic.exact_esop as exact_esop
    import repro.logic.xmg_mapping as xmg_mapping
    import repro.opt.xmg_passes as xmg_passes
    import repro.reversible.exact_pebbling as exact_pebbling
    import repro.reversible.lut_synth as lut_synth
    import repro.reversible.pebbling as pebbling
    from repro.core.cache import ResultCache
    from repro.opt.pipeline import Pipeline

    tracer.wrap(explorer, "run_flow", "flow", _after_flow)
    tracer.wrap(explorer, "frontend_artifacts", "frontend",
                _add_count("engine.frontends_built", lambda artifacts: 1))
    tracer.wrap(flows, "synthesize_verilog", "hdl",
                _add_count("hdl.aig_gates", lambda aig: aig.num_gates()))
    tracer.wrap(Pipeline, "run", _pipeline_layer, _after_pipeline)
    _hook_pass_run(tracer)
    for module in (cuts, xmg_passes, xmg_mapping, lut_synth):
        tracer.wrap(module, "lut_map", "cuts")
    tracer.wrap(flows, "aig_to_xmg", "xmg_map")
    tracer.wrap(xmg_mapping, "xmg_to_aig", "xmg_map")
    tracer.wrap(flows, "collapse_to_esop", "exorcism",
                _add_count("exorcism.terms", lambda cover: cover.num_terms()))
    tracer.wrap(flows, "collapse_to_bdd", "collapse")
    tracer.wrap(flows, "bdd_to_truth_table", "collapse")
    tracer.wrap(flows, "optimum_embedding", "embed")
    tracer.wrap(flows, "symbolic_tbs", "tbs",
                _add_count("tbs.gates", lambda circuit: circuit.num_gates()))
    tracer.wrap(flows, "esop_synthesis", "esop_synth")
    tracer.wrap(flows, "hierarchical_synthesis", "hier_synth",
                _add_count("hier_synth.gates", lambda circuit: circuit.num_gates()))
    tracer.wrap(pebbling, "make_schedule", "pebble")
    for module in (pebbling, exact_pebbling):
        tracer.wrap(module, "minimum_pebbles", "pebble.min")
    tracer.wrap(exact_pebbling, "exact_schedule", "exact_pebble")
    tracer.wrap(lut_synth, "synthesize_schedule", "lut_synth")
    tracer.wrap(exact_esop, "exact_esop_cubes", "exact_esop")
    for module in (exact_esop, exact_pebbling):
        tracer.wrap(module, "solve", "sat", _after_solve)
    tracer.wrap(flows, "check_equivalent", "verify")
    tracer.wrap(ResultCache, "get", "cache.get", _after_cache_get)
    tracer.wrap(ResultCache, "put", "cache.put", _after_cache_put)
