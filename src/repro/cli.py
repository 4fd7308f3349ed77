"""Command-line interface: run the paper's flows from a shell.

Examples::

    python -m repro flow --flow esop --design intdiv -n 8 -p 0
    python -m repro flow --flow hierarchical --verilog adder.v -n 8 --real out.real
    python -m repro flow --flow hierarchical --design intdiv -n 8 \
        --opt "resyn2*3" --xmg-opt xmg-default         # pipeline overrides
    python -m repro flow --flow lut --design intdiv -n 8 -k 4 \
        --strategy bounded --max-pebbles 64            # LUT pebbling flow
    python -m repro flow --flow lut --help             # the lut flow's parameters
    python -m repro flow --flow esop --design intdiv -n 8 \
        --rev-opt rev-default --map-model rtof         # peephole + T-depth
    python -m repro passes                             # list optimisation passes
    python -m repro passes --target qc                 # Clifford+T passes only
    python -m repro explore --design intdiv -n 8 --rev-opt none \
        --rev-opt rev-default                          # peephole sweep
    python -m repro explore --design intdiv -n 6
    python -m repro explore --flow lut --design intdiv -n 8   # strategy sweep
    python -m repro explore --design intdiv -n 8 \
        --opt "dc2*2" --opt "b;rw;rf"                  # AIG sweep, hierarchical
    python -m repro explore --design intdiv -n 8 --verify sampled
    python -m repro verify --design intdiv -n 4 --mode full --quantum
    python -m repro explore --designs intdiv newton --bitwidths 4 5 6 \
        --sweep esop:p=0,1 --sweep hierarchical:strategy=bennett,per_output \
        --jobs 4 --cache ~/.cache/repro                   # parallel cached sweep
    python -m repro designs --design newton -n 8          # print generated Verilog
    python -m repro baselines -n 8                        # Table I style numbers

The CLI is a thin layer over :mod:`repro.core`; everything it prints can be
obtained programmatically from :func:`repro.run_flow` and
:class:`repro.DesignSpaceExplorer`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.baselines.qnewton import qnewton_resources
from repro.baselines.resdiv import resdiv_resources
from repro.core.explorer import (
    ExplorationEngine,
    ParameterGrid,
    build_sweep,
    default_configurations,
    flow_default_configurations,
    pareto_front_of,
    parse_sweep_spec,
)
from repro.core.flow import FRONTEND_SEEDS
from repro.core.flows import available_flows, design_source, make_flow, run_flow
from repro.core.reports import (
    check_label,
    outcome_table,
    reports_to_json,
    verification_label,
)
from repro.io.qasm import write_qasm
from repro.io.realfmt import write_real
from repro.quantum.mapping import map_to_clifford_t
from repro.utils.tables import format_table
from repro.verify.differential import check_equivalent, mapped_circuit_simulator

__all__ = ["main", "build_parser"]


def build_parser(shown: Optional[str] = None) -> argparse.ArgumentParser:
    """The argparse parser of the ``repro`` command-line interface.

    ``shown`` names the flow whose parameters ``repro flow --help`` lists.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Design automation and design space exploration for quantum computers",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    flow = subparsers.add_parser(
        "flow",
        help="run one design flow",
        description="Run one design flow; `repro flow --flow F --help` lists "
        "the parameters flow F declares, with their defaults.",
    )
    flow.add_argument("--flow", choices=sorted(available_flows()), required=True)
    flow.add_argument("--design", default="intdiv", help="intdiv / newton / isqrt or a name for --verilog")
    flow.add_argument("--verilog", type=Path, help="path to a Verilog file to synthesise")
    flow.add_argument("-n", "--bitwidth", type=int, default=8)
    flow.add_argument("--cost-model", default="rtof", choices=["rtof", "barenco"])
    flow.add_argument("--real", type=Path, help="write the reversible circuit as RevLib .real")
    flow.add_argument(
        "--qasm", type=Path,
        help="map to Clifford+T (under --map-model, default rtof) and "
        "write OpenQASM 2.0",
    )
    _add_parameter_options(flow, shown)

    explore = subparsers.add_parser("explore", help="design space exploration")
    _add_sweep_arguments(explore, bitwidth=6, verify="auto")
    explore.add_argument(
        "--no-verify", action="store_true",
        help="alias for --verify off (kept for compatibility)",
    )
    explore.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes (1 = serial, default)",
    )
    explore.add_argument(
        "--cache", type=Path, metavar="DIR",
        help="persistent result cache directory (content-addressed)",
    )
    explore.add_argument(
        "--opt", action="append", default=[], metavar="PIPELINE",
        help="AIG optimisation pipeline applied to every configuration whose "
        "flow optimises the AIG (hierarchical, lut); repeat to sweep "
        "pipelines (e.g. --opt 'dc2*2' --opt 'b;rw;rf')",
    )
    explore.add_argument(
        "--rev-opt", action="append", default=[], metavar="PIPELINE",
        help="reversible peephole pipeline applied to every configuration; "
        "repeat to sweep pipelines (e.g. --rev-opt none --rev-opt "
        "rev-default)",
    )
    explore.add_argument(
        "--json", type=Path, metavar="FILE",
        help="also write the successful reports as a JSON array",
    )

    verify = subparsers.add_parser(
        "verify",
        help="differentially verify flow outputs across representation layers",
        description="Run flows and cross-check every layer with the "
        "bit-parallel differential checker: bit-blasted AIG vs synthesised "
        "reversible circuit, and optionally vs the mapped Clifford+T "
        "circuit (--quantum).",
    )
    verify.add_argument("--design", default="intdiv")
    verify.add_argument("--verilog", type=Path, help="path to a Verilog file to verify instead")
    verify.add_argument("-n", "--bitwidth", type=int, default=4)
    verify.add_argument(
        "--flows", nargs="+", metavar="FLOW", choices=sorted(available_flows()),
        help="flows to check (default: all)",
    )
    verify.add_argument(
        "--mode", choices=["sampled", "full", "auto"], default="auto",
        help="pattern regime of the differential check (default: auto)",
    )
    verify.add_argument(
        "--samples", type=int, default=256,
        help="pattern budget for sampled checks (default: 256)",
    )
    verify.add_argument("--seed", type=int, default=1, help="sampling seed")
    verify.add_argument(
        "--quantum", action="store_true",
        help="also map to Clifford+T and check the mapped circuit acts as "
        "the same permutation (statevector simulation; small circuits only)",
    )
    verify.add_argument("--cost-model", default="rtof", choices=["rtof", "barenco"])

    passes = subparsers.add_parser(
        "passes",
        help="list registered optimisation passes and named pipelines",
        description="Every pass the pass manager knows, with its aliases, "
        "the target types it applies to (aig / xmg / rev / qc) and the "
        "named pipelines usable in --opt/--xmg-opt/--rev-opt/--qc-opt "
        "specs.",
    )
    passes.add_argument(
        "--target", "--network", dest="target",
        choices=["aig", "xmg", "rev", "qc"],
        help="only list passes applicable to this target type "
        "(--network is the historical spelling)",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the synthesis-as-a-service job server",
        description="Long-running asyncio HTTP/JSON server over the "
        "exploration engine: clients POST sweeps to /jobs, stream Pareto "
        "updates from /jobs/<id>/stream, and share one content-addressed "
        "result cache so no configuration is ever computed twice.",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8177, help="0 = ephemeral")
    serve.add_argument(
        "--cache", type=Path, metavar="DIR",
        help="shared result cache directory (strongly recommended)",
    )
    serve.add_argument(
        "--cache-max-entries", type=int, metavar="N",
        help="bound the cache to N entries (LRU eviction by file mtime)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="worker threads = concurrently running jobs (default: 2)",
    )
    serve.add_argument(
        "--engine-jobs", type=int, default=1, metavar="N",
        help="per-job concurrency limit: worker processes one job's engine "
        "may use (default: 1)",
    )
    serve.add_argument(
        "--rate", type=float, metavar="R",
        help="per-client token-bucket rate limit on submissions, in "
        "jobs/second (default: unlimited)",
    )
    serve.add_argument(
        "--burst", type=float, default=5, metavar="B",
        help="token-bucket burst capacity (default: 5)",
    )

    submit = subparsers.add_parser(
        "submit",
        help="submit a sweep to a running job server and stream results",
        description="The client side of `repro serve`: POST one sweep as a "
        "job, stream its outcome events (each carrying the Pareto front so "
        "far), and print the final front.",
    )
    _add_sweep_arguments(submit, bitwidth=4, verify="off")
    submit.add_argument(
        "--url", default="http://127.0.0.1:8177", help="server base URL"
    )
    submit.add_argument(
        "--client-id", metavar="ID",
        help="rate-limiting identity sent as X-Client-Id",
    )
    submit.add_argument(
        "--no-stream", action="store_true",
        help="submit and print the job id without waiting for results",
    )
    submit.add_argument(
        "--shutdown", action="store_true",
        help="instead of submitting, ask the server to shut down gracefully",
    )

    designs = subparsers.add_parser("designs", help="print generated Verilog for a built-in design")
    designs.add_argument("--design", default="intdiv")
    designs.add_argument("-n", "--bitwidth", type=int, default=8)

    baselines = subparsers.add_parser("baselines", help="RESDIV/QNEWTON baseline figures (Table I)")
    baselines.add_argument("-n", "--bitwidth", type=int, default=8)

    return parser


def _add_sweep_arguments(
    parser: argparse.ArgumentParser, bitwidth: int, verify: str
) -> None:
    """The sweep options of ``explore`` and ``submit``."""
    parser.add_argument(
        "--flow", choices=sorted(available_flows()),
        help="sweep only this flow's default configurations (e.g. the "
        "pebbling strategies of the lut flow); --sweep overrides",
    )
    parser.add_argument("--design", default="intdiv")
    parser.add_argument(
        "--designs", nargs="+", metavar="DESIGN",
        help="sweep several designs (overrides --design)",
    )
    parser.add_argument("-n", "--bitwidth", type=int, default=bitwidth)
    parser.add_argument(
        "--bitwidths", nargs="+", type=int, metavar="N",
        help="sweep several bitwidths (overrides --bitwidth)",
    )
    parser.add_argument(
        "--sweep", action="append", default=[], metavar="FLOW[:PARAM=V1,V2,...]",
        help="configuration sweep, e.g. esop:p=0,1,2, typed by the flow's "
        "declared parameters (repeatable; default: the paper's five "
        "configurations)",
    )
    parser.add_argument(
        "--verify", choices=["off", "sampled", "full", "auto"], default=verify,
        help="equivalence checking of every synthesised circuit: off, "
        "sampled (random patterns), full (exhaustive), or auto "
        f"(full when the input count permits); default: {verify}",
    )
    parser.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        help="per-configuration wall-clock budget",
    )
    parser.add_argument("--cost-model", default="rtof", choices=["rtof", "barenco"])
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-configuration progress"
    )


class _ParameterText(argparse.Action):
    """Collect one flow parameter's text into ``namespace.parameters``."""

    def __call__(self, parser, namespace, values, option_string=None):
        namespace.parameters = {**namespace.parameters, self.dest: values}


def _add_parameter_options(
    parser: argparse.ArgumentParser, shown: Optional[str]
) -> None:
    """One option per declared flow parameter that the design entry does not seed.

    A one-letter name gets a one-dash flag; ``_`` becomes ``-``.  Every
    flow's options parse, so one the chosen flow does not declare fails in
    :meth:`~repro.core.flow.Flow.check_parameters` with its did-you-mean;
    ``--help`` lists only the ``shown`` flow's, with its choices and defaults.
    """
    flows = {name: make_flow(name) for name in available_flows()}
    listed = flows[shown].parameters() if shown in flows else {}
    title = f"parameters of the {shown} flow" if listed else None
    group = parser.add_argument_group(title)
    parser.set_defaults(parameters={})
    names = {name for flow in flows.values() for name in flow.parameter_names()}
    for name in sorted(names - FRONTEND_SEEDS):
        help_text = argparse.SUPPRESS
        if name in listed:
            declared = listed[name]
            default = "unset" if declared.default is None else declared.default
            choices = ": " + ", ".join(declared.choices) if declared.choices else ""
            help_text = f"{declared.help}{choices} (default: {default})"
            help_text = help_text.replace("%", "%%")
        group.add_argument(
            ("-" if len(name) == 1 else "--") + name.replace("_", "-"),
            dest=name, action=_ParameterText, metavar="VALUE", help=help_text,
        )


def _flow_named(argv: List[str]) -> Optional[str]:
    """The flow a ``repro flow --flow F`` command line names, if any."""
    if argv[:1] != ["flow"]:
        return None
    for index, arg in enumerate(argv):
        if arg == "--flow" and index + 1 < len(argv):
            return argv[index + 1]
        if arg.startswith("--flow="):
            return arg.partition("=")[2]
    return None


def _command_flow(args: argparse.Namespace) -> int:
    # Only the options the user set: the flow fills in its own defaults.
    texts = dict(args.parameters)
    verify = texts.pop("verify", None)
    try:
        flow = make_flow(args.flow)
        parameters = {
            name: flow.settable(name).parse(text) for name, text in texts.items()
        }
        if verify is not None:
            parameters["verify"] = flow.parameters()["verify"].parse(verify)
        if args.verilog is not None:
            parameters["verilog"] = args.verilog.read_text()
        result = run_flow(
            args.flow, args.design, args.bitwidth, cost_model=args.cost_model,
            **parameters,
        )
    except ValueError as exc:
        # Bad user input (unknown strategy, infeasible pebble budget, ...):
        # report it like the explore command does instead of a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = result.report
    rows = [
        ("design", report.design),
        ("flow", report.flow),
        ("bitwidth", report.bitwidth),
        ("qubits", report.qubits),
        ("T-count", report.t_count),
        ("gates", report.gate_count),
        ("max controls", report.max_controls),
        ("runtime [s]", f"{report.runtime_seconds:.3f}"),
        ("verified", report.verified),
        ("check", verification_label(report)),
    ]
    if report.t_depth is not None:
        rows[5:5] = [
            ("T-depth", report.t_depth),
            ("circuit depth", report.qc_depth),
            ("mapped qubits", report.qc_qubits),
        ]
    print(format_table(["metric", "value"], rows))

    if args.real is not None:
        args.real.write_text(write_real(result.circuit))
        print(f"wrote {args.real}")
    if args.qasm is not None:
        quantum = result.context.get("quantum_circuit")
        if quantum is None:
            quantum = map_to_clifford_t(
                result.circuit, model=parameters.get("map_model") or "rtof"
            )
        args.qasm.write_text(write_qasm(quantum))
        print(f"wrote {args.qasm} ({quantum.num_qubits} qubits, {quantum.t_count()} T)")
    return 0


def _command_explore(args: argparse.Namespace) -> int:
    designs = args.designs or [args.design]
    bitwidths = args.bitwidths or [args.bitwidth]
    try:
        if args.sweep:
            configurations = [parse_sweep_spec(spec) for spec in args.sweep]
        elif args.flow is not None:
            configurations = flow_default_configurations(args.flow)
        else:
            configurations = default_configurations()
        # Cross the configuration list with every requested pipeline sweep
        # (--opt for the AIG stage, --rev-opt for the reversible cascade).
        # A configuration whose flow does not declare the parameter (the
        # functional flows run no AIG optimisation) stays as it is.
        crossed = False
        flows = {name: make_flow(name) for name in available_flows()}
        for parameter, specs in (("opt", args.opt), ("rev_opt", args.rev_opt)):
            if not specs:
                continue
            expanded = []
            for entry in configurations:
                if isinstance(entry, ParameterGrid):
                    expanded.extend(entry.configurations())
                else:
                    expanded.append(entry)
            declaring = {
                c.flow for c in expanded if parameter in flows[c.flow].parameters()
            }
            if not declaring:  # settable raises the unknown-parameter error
                flows[expanded[0].flow].settable(parameter)
            configurations = [
                configuration.with_parameter(
                    parameter, flows[configuration.flow].settable(parameter).parse(spec)
                )
                if configuration.flow in declaring
                else configuration
                for spec in specs
                for configuration in expanded
            ]
            crossed = True
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if crossed:
        # Crossing repeats the configurations it leaves as they are, and can
        # collide with sweep points that already carried the parameter (the
        # default sweeps ship rev_opt points): run each distinct
        # configuration once, keeping first-seen order.
        seen = set()
        unique = []
        for configuration in configurations:
            key = (configuration.flow, tuple(sorted(configuration.parameters)))
            if key not in seen:
                seen.add(key)
                unique.append(configuration)
        configurations = unique
    tasks = build_sweep(designs, bitwidths, configurations)

    progress = {"done": 0}

    def on_result(outcome):
        progress["done"] += 1
        if not args.quiet:
            print(_progress_line(
                f"[{progress['done']}/{len(tasks)}] {outcome.label()}",
                outcome.report.to_dict() if outcome.ok else None,
                outcome.cached,
                outcome.error,
            ))

    verify_mode = "off" if args.no_verify else args.verify
    try:
        engine = ExplorationEngine(
            jobs=args.jobs,
            cache=args.cache,
            verify=verify_mode,
            cost_model=args.cost_model,
            timeout=args.timeout,
            on_result=on_result,
        )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    outcomes = engine.run(tasks)

    for design in designs:
        for bitwidth in bitwidths:
            group = [
                o for o in outcomes
                if o.task.design == design and o.task.bitwidth == bitwidth
            ]
            print()
            print(
                outcome_table(
                    group, title=f"Design space of {design}({bitwidth})"
                )
            )
            front = pareto_front_of(
                {
                    o.task.configuration.label(): o.report
                    for o in group
                    if o.ok
                }
            )
            rows = [(point.label(), point.qubits, point.t_count) for point in front]
            _print_front("Pareto front", rows)

    if args.cache is not None:
        print()
        print(
            f"cache: {engine.cache_hits} hit(s), {engine.executed} flow(s) executed"
        )
    if args.json is not None:
        args.json.write_text(
            reports_to_json([o.report for o in outcomes if o.ok])
        )
        print(f"wrote {args.json}")
    return 0 if engine.failures == 0 else 1


def _progress_line(prefix: str, report: Optional[dict], cached: bool, error) -> str:
    """One configuration's progress line; ``report`` holds qubits and t_count."""
    if report is None:
        return f"{prefix}: error: {error}"
    cached_note = " (cached)" if cached else ""
    return f"{prefix}: {report['qubits']} qubits, {report['t_count']} T{cached_note}"


def _print_front(title: str, rows: List[tuple]) -> None:
    """Print one Pareto front's (label, qubits, T-count) rows."""
    print()
    print(format_table(["Pareto point", "qubits", "T-count"], rows, title=title))


#: ``repro verify --quantum`` falls back to skipping the Clifford+T leg
#: above this many qubits: the statevector check is exponential in the
#: qubit count and exists to validate the mapping, not to scale.
_QUANTUM_VERIFY_QUBIT_LIMIT = 14

#: Pattern budget of the Clifford+T leg (each pattern is one dense
#: statevector simulation of the whole mapped circuit).
_QUANTUM_VERIFY_MAX_SAMPLES = 32


def _command_verify(args: argparse.Namespace) -> int:
    flows = args.flows or sorted(available_flows())
    parameters = {}
    if args.verilog is not None:
        parameters["verilog"] = args.verilog.read_text()

    rows = []
    failures = 0
    for flow_name in flows:
        result = run_flow(
            flow_name,
            args.design,
            args.bitwidth,
            verify="off",
            cost_model=args.cost_model,
            **parameters,
        )
        # Check against the pre-optimisation AIG so a buggy pipeline pass
        # cannot corrupt both sides of the comparison.
        check = check_equivalent(
            result.context["spec_aig"],
            result.circuit,
            mode=args.mode,
            num_samples=args.samples,
            seed=args.seed,
        )
        failures += 0 if check.equivalent else 1
        rows.append(
            (
                flow_name,
                "aig = circuit",
                check_label(check.complete, check.num_patterns),
                "ok" if check.equivalent else f"FAIL: {check.message}",
            )
        )
        if args.quantum:
            quantum = map_to_clifford_t(result.circuit)
            if quantum.num_qubits > _QUANTUM_VERIFY_QUBIT_LIMIT:
                rows.append(
                    (
                        flow_name,
                        "circuit = clifford+t",
                        "-",
                        f"skipped ({quantum.num_qubits} qubits > "
                        f"{_QUANTUM_VERIFY_QUBIT_LIMIT})",
                    )
                )
                continue
            quantum_check = check_equivalent(
                result.circuit,
                mapped_circuit_simulator(quantum, result.circuit),
                mode="sampled",
                num_samples=min(args.samples, _QUANTUM_VERIFY_MAX_SAMPLES),
                seed=args.seed,
            )
            failures += 0 if quantum_check.equivalent else 1
            rows.append(
                (
                    flow_name,
                    "circuit = clifford+t",
                    check_label(quantum_check.complete, quantum_check.num_patterns),
                    "ok" if quantum_check.equivalent else f"FAIL: {quantum_check.message}",
                )
            )

    design_label = args.design if args.verilog is None else args.verilog.name
    print(
        format_table(
            ["flow", "pair", "check", "result"],
            rows,
            title=f"Differential verification of {design_label}({args.bitwidth})",
        )
    )
    return 0 if failures == 0 else 1


def _command_passes(args: argparse.Namespace) -> int:
    from repro.opt import available_passes, named_pipelines, parse_pipeline

    rows = [
        (
            pass_.name,
            ", ".join(pass_.aliases) if pass_.aliases else "-",
            "/".join(sorted(pass_.network_types)),
            pass_.description,
        )
        for pass_ in available_passes(args.target)
    ]
    print(
        format_table(
            ["pass", "aliases", "targets", "description"],
            rows,
            title="Registered optimisation passes",
        )
    )
    pipeline_rows = []
    for name, (spec, description) in sorted(named_pipelines().items()):
        pipeline = parse_pipeline(name)
        networks = "/".join(sorted(pipeline.network_types()))
        if args.target is not None and args.target not in networks.split("/"):
            continue
        pipeline_rows.append((name, networks, spec, description))
    if pipeline_rows:
        print()
        print(
            format_table(
                ["pipeline", "targets", "expands to", "description"],
                pipeline_rows,
                title="Named pipelines",
            )
        )
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.core.cache import ResultCache
    from repro.service import JobManager, RateLimiter, SynthesisServer

    try:
        cache = None
        if args.cache is not None:
            cache = ResultCache(args.cache, max_entries=args.cache_max_entries)
        manager = JobManager(
            cache=cache, workers=args.workers, max_engine_jobs=args.engine_jobs
        )
        limiter = RateLimiter(args.rate, burst=args.burst)
        server = SynthesisServer(
            manager, host=args.host, port=args.port, ratelimiter=limiter
        )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def _main() -> bool:
        await server.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, server.request_shutdown)
            except (NotImplementedError, ValueError):
                pass  # non-POSIX platform or nested loop
        print(
            f"serving on http://{server.host}:{server.port} "
            f"(workers={manager.workers}, "
            f"cache={'on' if manager.cache is not None else 'off'}); "
            "POST /shutdown or Ctrl-C to drain and stop",
            flush=True,
        )
        return await server.serve_until_shutdown()

    try:
        drained = asyncio.run(_main())
    except KeyboardInterrupt:
        # Signal handler could not be installed: drain the pool directly.
        drained = manager.shutdown(drain=True)
    print("drained cleanly" if drained else "stopped with unfinished jobs")
    return 0 if drained else 1


def _connect(url: str, timeout: float):
    """An HTTP connection to the job server at ``url``."""
    import http.client
    from urllib.parse import urlparse

    parsed = urlparse(url)
    if parsed.scheme not in ("http", ""):
        raise ValueError(f"unsupported scheme in {url!r} (http only)")
    return http.client.HTTPConnection(
        parsed.hostname or "127.0.0.1", parsed.port or 80, timeout=timeout
    )


def _submit_request(url, method, path, body=None, headers=None, timeout=60.0):
    """One HTTP request against the job server; returns (status, bytes)."""
    import json as _json

    conn = _connect(url, timeout)
    try:
        conn.request(
            method,
            path,
            body=_json.dumps(body) if body is not None else None,
            headers=headers or {},
        )
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _command_submit(args: argparse.Namespace) -> int:
    import json as _json

    headers = {}
    if args.client_id:
        headers["X-Client-Id"] = args.client_id

    try:
        if args.shutdown:
            status, data = _submit_request(
                args.url, "POST", "/shutdown", body={}, headers=headers
            )
            print(data.decode("utf-8", "replace").strip())
            return 0 if status == 202 else 1

        payload = {
            "designs": args.designs or [args.design],
            "bitwidths": args.bitwidths or [args.bitwidth],
            "verify": args.verify,
            "cost_model": args.cost_model,
        }
        if args.timeout is not None:
            payload["timeout"] = args.timeout
        if args.sweep:
            payload["sweeps"] = args.sweep
        elif args.flow is not None:
            payload["flow"] = args.flow
        status, data = _submit_request(
            args.url, "POST", "/jobs", body=payload, headers=headers
        )
    except (OSError, ValueError) as exc:
        print(f"error: cannot reach server at {args.url}: {exc}", file=sys.stderr)
        return 2
    if status != 202:
        print(
            f"error: server rejected the job ({status}): "
            f"{data.decode('utf-8', 'replace').strip()}",
            file=sys.stderr,
        )
        return 1
    accepted = _json.loads(data)
    job_id, num_tasks = accepted["id"], accepted["num_tasks"]
    print(f"submitted {job_id} ({num_tasks} configurations)")
    if args.no_stream:
        return 0

    conn = _connect(args.url, timeout=600)
    failures = 0
    final_event = None
    try:
        conn.request("GET", accepted["stream_url"], headers=headers)
        response = conn.getresponse()
        done = 0
        while True:
            line = response.readline()
            if not line:
                break
            event = _json.loads(line)
            if event["type"] == "outcome":
                done += 1
                failures += 0 if event["ok"] else 1
                if not args.quiet:
                    print(_progress_line(
                        f"[{done}/{num_tasks}] {event['label']}",
                        event.get("report"), event["cached"], event.get("error"),
                    ))
            elif event["type"] == "done":
                final_event = event
    except OSError as exc:
        print(f"error: stream interrupted: {exc}", file=sys.stderr)
        return 1
    finally:
        conn.close()
    if final_event is None:
        print("error: stream ended without a done event", file=sys.stderr)
        return 1
    for group in final_event["pareto"]:
        rows = [
            (
                point["configuration"]
                + (f" [= {', '.join(point['aliases'])}]" if point["aliases"] else ""),
                point["qubits"],
                point["t_count"],
            )
            for point in group["points"]
        ]
        _print_front(f"Pareto front of {group['design']}({group['bitwidth']})", rows)
    state = final_event["state"]
    if state != "done" or failures:
        print(f"job finished as {state} with {failures} failure(s)")
        return 1
    return 0


def _command_designs(args: argparse.Namespace) -> int:
    print(design_source(args.design, args.bitwidth), end="")
    return 0


def _command_baselines(args: argparse.Namespace) -> int:
    resdiv = resdiv_resources(args.bitwidth)
    qnewton = qnewton_resources(args.bitwidth)
    print(
        format_table(
            ["baseline", "qubits", "T-count"],
            [
                (resdiv.name, resdiv.qubits, resdiv.t_count),
                (qnewton.name, qnewton.qubits, qnewton.t_count),
            ],
            title=f"Manual baselines for n = {args.bitwidth} (Table I)",
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro``."""
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(_flow_named(argv)).parse_args(argv)
    handlers = {
        "flow": _command_flow,
        "explore": _command_explore,
        "verify": _command_verify,
        "passes": _command_passes,
        "designs": _command_designs,
        "baselines": _command_baselines,
        "serve": _command_serve,
        "submit": _command_submit,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:  # e.g. `repro explore | head`
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
