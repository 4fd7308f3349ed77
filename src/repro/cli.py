"""Command-line interface: run the paper's flows from a shell.

Examples::

    python -m repro flow --flow esop --design intdiv -n 8 -p 0
    python -m repro flow --flow hierarchical --verilog adder.v -n 8 --real out.real
    python -m repro flow --flow hierarchical --design intdiv -n 8 \
        --opt "resyn2*3" --xmg-opt xmg-default         # pipeline overrides
    python -m repro flow --flow lut --design intdiv -n 8 -k 4 \
        --strategy bounded --max-pebbles 64            # LUT pebbling flow
    python -m repro flow --flow esop --design intdiv -n 8 \
        --rev-opt rev-default --map-model rtof         # peephole + T-depth
    python -m repro passes                             # list optimisation passes
    python -m repro passes --target qc                 # Clifford+T passes only
    python -m repro explore --design intdiv -n 8 --rev-opt none \
        --rev-opt rev-default                          # peephole sweep
    python -m repro explore --design intdiv -n 6
    python -m repro explore --flow lut --design intdiv -n 8   # strategy sweep
    python -m repro explore --design intdiv -n 8 --opt "dc2*2" --opt "b;rw;rf"
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
)
from repro.core.flows import available_flows, design_source, run_flow
from repro.core.reports import outcome_table, reports_to_json
from repro.io.qasm import write_qasm
from repro.io.realfmt import write_real
from repro.quantum.mapping import map_to_clifford_t
from repro.utils.tables import format_table
from repro.verify.differential import check_equivalent, mapped_circuit_simulator

__all__ = ["main", "build_parser", "parse_sweep_spec"]


#: Names the engine/flow machinery claims for itself: sweeping them would
#: collide with run_flow keyword arguments or silently clobber seeded
#: context artifacts, so they are rejected at parse time.
_RESERVED_SWEEP_PARAMETERS = frozenset(
    {"flow", "self", "design", "bitwidth", "verify", "cost_model",
     "aig", "verilog", "index", "timeout", "memo"}
)


def parse_sweep_spec(spec: str) -> ParameterGrid:
    """Parse one ``--sweep`` specification into a :class:`ParameterGrid`.

    Format: ``FLOW[:PARAM=V1,V2,...[:PARAM=...]]`` — e.g. ``esop:p=0,1,2``
    or ``hierarchical:strategy=bennett,per_output``.  Values are parsed as
    int, float or bool where possible and kept as strings otherwise.
    """
    segments = spec.split(":")
    flow = segments[0].strip()
    if not flow:
        raise ValueError(f"sweep spec {spec!r} does not name a flow")
    ranges = {}
    for segment in segments[1:]:
        if "=" not in segment:
            raise ValueError(
                f"sweep segment {segment!r} is not of the form PARAM=V1,V2,..."
            )
        name, _, values = segment.partition("=")
        name = name.strip()
        if name in _RESERVED_SWEEP_PARAMETERS:
            raise ValueError(f"reserved sweep parameter name {name!r} in {spec!r}")
        if name in ranges:
            raise ValueError(f"duplicate sweep parameter {name!r} in {spec!r}")
        parsed = [_parse_sweep_value(value) for value in values.split(",") if value != ""]
        if not parsed:
            raise ValueError(f"sweep parameter {name!r} has no values")
        ranges[name] = parsed
    return ParameterGrid(flow, **ranges)


def _parse_sweep_value(text: str):
    text = text.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for converter in (int, float):
        try:
            return converter(text)
        except ValueError:
            continue
    return text


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the ``repro`` command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Design automation and design space exploration for quantum computers",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    flow = subparsers.add_parser("flow", help="run one design flow")
    flow.add_argument("--flow", choices=sorted(available_flows()), required=True)
    flow.add_argument("--design", default="intdiv", help="intdiv / newton / isqrt or a name for --verilog")
    flow.add_argument("--verilog", type=Path, help="path to a Verilog file to synthesise")
    flow.add_argument("-n", "--bitwidth", type=int, default=8)
    flow.add_argument("-p", "--factoring", type=int, default=0, help="ESOP factoring parameter")
    flow.add_argument(
        "--strategy", default="bennett",
        help="cleanup/pebbling strategy (hierarchical: bennett/per_output; "
        "lut: any registered strategy — bennett/eager/bounded/exact)",
    )
    flow.add_argument(
        "-k", "--lut-size", type=int, default=4,
        help="LUT size of the lut flow (default: 4)",
    )
    flow.add_argument(
        "--max-pebbles", type=float, metavar="B",
        help="pebble budget of the lut flow's bounded strategy: an integer "
        "number of pebbles, or a fraction in (0, 1) of the LUT count",
    )
    flow.add_argument(
        "--lut-synth", choices=["esop", "exact", "tbs"], default="esop",
        help="per-LUT sub-synthesizer of the lut flow (default: esop; "
        "exact = T-cost-optimal ESOP for LUTs of up to 4 inputs)",
    )
    flow.add_argument(
        "--exact-time-budget", type=float, metavar="SECONDS",
        help="per-call SAT time budget of the lut flow's exact pebbling "
        "strategy, in positive seconds; only valid with --strategy exact "
        "(default: the strategy's built-in budget)",
    )
    flow.add_argument(
        "--opt", metavar="PIPELINE",
        help="AIG optimisation pipeline spec overriding the flow default, "
        "e.g. 'b;rw;rf', 'dc2*3' or 'none' (see `repro passes`)",
    )
    flow.add_argument(
        "--xmg-opt", metavar="PIPELINE",
        help="XMG optimisation pipeline of the hierarchical flow (applied "
        "to the mapped XMG) and of the lut flow (applied as an AIG-XMG-AIG "
        "round-trip), e.g. 'xmg-default' (default: disabled)",
    )
    flow.add_argument(
        "--rev-opt", metavar="PIPELINE",
        help="reversible peephole pipeline applied to the synthesised "
        "cascade, e.g. 'rev-default' or 'rn;rc' (default: disabled)",
    )
    flow.add_argument(
        "--map-model", choices=["rtof", "barenco"],
        help="map the cascade to an explicit Clifford+T circuit under this "
        "decomposition model and report T-depth/depth resource metrics "
        "(default: no mapping)",
    )
    flow.add_argument(
        "--qc-opt", metavar="PIPELINE",
        help="Clifford+T peephole pipeline applied to the mapped circuit "
        "(requires --map-model), e.g. 'qc-default' (default: disabled)",
    )
    flow.add_argument(
        "--opt-guard", choices=["off", "sampled", "full", "auto"],
        default="off",
        help="differentially check every optimisation pass application "
        "(default: off)",
    )
    flow.add_argument("--no-verify", action="store_true", help="skip equivalence checking")
    flow.add_argument("--cost-model", default="rtof", choices=["rtof", "barenco"])
    flow.add_argument("--real", type=Path, help="write the reversible circuit as RevLib .real")
    flow.add_argument(
        "--qasm", type=Path,
        help="map to Clifford+T (under --map-model, default rtof) and "
        "write OpenQASM 2.0",
    )

    explore = subparsers.add_parser("explore", help="design space exploration")
    explore.add_argument(
        "--flow", choices=sorted(available_flows()),
        help="sweep only this flow's default configurations (e.g. the "
        "pebbling strategies of the lut flow); --sweep overrides",
    )
    explore.add_argument("--design", default="intdiv")
    explore.add_argument(
        "--designs", nargs="+", metavar="DESIGN",
        help="sweep several designs (overrides --design)",
    )
    explore.add_argument("-n", "--bitwidth", type=int, default=6)
    explore.add_argument(
        "--bitwidths", nargs="+", type=int, metavar="N",
        help="sweep several bitwidths (overrides --bitwidth)",
    )
    explore.add_argument(
        "--verify", choices=["off", "sampled", "full", "auto"], default="auto",
        help="equivalence checking of every synthesised circuit: off, "
        "sampled (random patterns), full (exhaustive), or auto "
        "(full when the input count permits; default)",
    )
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
        "--timeout", type=float, metavar="SECONDS",
        help="per-configuration wall-clock budget",
    )
    explore.add_argument(
        "--sweep", action="append", default=[], metavar="FLOW[:PARAM=V1,V2,...]",
        help="configuration sweep, e.g. esop:p=0,1,2 (repeatable; "
        "default: the paper's five configurations)",
    )
    explore.add_argument(
        "--opt", action="append", default=[], metavar="PIPELINE",
        help="optimisation pipeline applied to every configuration; "
        "repeat to sweep pipelines (e.g. --opt 'dc2*2' --opt 'b;rw;rf')",
    )
    explore.add_argument(
        "--rev-opt", action="append", default=[], metavar="PIPELINE",
        help="reversible peephole pipeline applied to every configuration; "
        "repeat to sweep pipelines (e.g. --rev-opt none --rev-opt "
        "rev-default)",
    )
    explore.add_argument("--cost-model", default="rtof", choices=["rtof", "barenco"])
    explore.add_argument(
        "--json", type=Path, metavar="FILE",
        help="also write the successful reports as a JSON array",
    )
    explore.add_argument(
        "--quiet", action="store_true", help="suppress per-configuration progress"
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
    submit.add_argument(
        "--url", default="http://127.0.0.1:8177", help="server base URL"
    )
    submit.add_argument("--design", default="intdiv")
    submit.add_argument(
        "--designs", nargs="+", metavar="DESIGN",
        help="sweep several designs (overrides --design)",
    )
    submit.add_argument("-n", "--bitwidth", type=int, default=4)
    submit.add_argument(
        "--bitwidths", nargs="+", type=int, metavar="N",
        help="sweep several bitwidths (overrides --bitwidth)",
    )
    submit.add_argument(
        "--sweep", action="append", default=[], metavar="FLOW[:PARAM=V1,V2,...]",
        help="configuration sweep, like explore --sweep (repeatable)",
    )
    submit.add_argument(
        "--flow", choices=sorted(available_flows()),
        help="submit this flow's default sweep instead of --sweep",
    )
    submit.add_argument(
        "--verify", choices=["off", "sampled", "full", "auto"], default="off",
        help="verification mode of the submitted job (default: off)",
    )
    submit.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        help="per-configuration budget forwarded to the server",
    )
    submit.add_argument("--cost-model", default="rtof", choices=["rtof", "barenco"])
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
    submit.add_argument(
        "--quiet", action="store_true", help="suppress per-configuration progress"
    )

    designs = subparsers.add_parser("designs", help="print generated Verilog for a built-in design")
    designs.add_argument("--design", default="intdiv")
    designs.add_argument("-n", "--bitwidth", type=int, default=8)

    baselines = subparsers.add_parser("baselines", help="RESDIV/QNEWTON baseline figures (Table I)")
    baselines.add_argument("-n", "--bitwidth", type=int, default=8)

    return parser


def _validate_pipeline_specs(*specs: Optional[str]) -> Optional[str]:
    """Parse-check pipeline specs; returns an error message or ``None``.

    Validation happens before any flow runs, so an unknown pass name in
    ``--opt`` fails fast with the registry's did-you-mean suggestion
    instead of surfacing as a per-configuration failure mid-sweep.
    """
    from repro.opt import parse_pipeline

    for spec in specs:
        if spec is None:
            continue
        try:
            parse_pipeline(spec)
        except ValueError as exc:
            return str(exc)
    return None


def _command_flow(args: argparse.Namespace) -> int:
    parameters = {}
    error = _validate_pipeline_specs(
        args.opt, args.xmg_opt, args.rev_opt, args.qc_opt
    )
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.qc_opt is not None and args.map_model is None:
        print("error: --qc-opt requires --map-model", file=sys.stderr)
        return 2
    if args.opt is not None:
        parameters["opt"] = args.opt
    if args.xmg_opt is not None:
        parameters["xmg_opt"] = args.xmg_opt
    if args.rev_opt is not None:
        parameters["rev_opt"] = args.rev_opt
    if args.map_model is not None:
        parameters["map_model"] = args.map_model
    if args.qc_opt is not None:
        parameters["qc_opt"] = args.qc_opt
    if args.opt_guard != "off":
        parameters["opt_guard"] = args.opt_guard
    if args.flow == "esop":
        parameters["p"] = args.factoring
    if args.flow == "hierarchical":
        parameters["strategy"] = args.strategy
    if args.flow == "lut":
        parameters["strategy"] = args.strategy
        parameters["k"] = args.lut_size
        parameters["lut_synth"] = args.lut_synth
        if args.max_pebbles is not None:
            budget = args.max_pebbles
            if not 0 < budget < 1 and budget != int(budget):
                print(
                    f"error: --max-pebbles must be an integer pebble count "
                    f"or a fraction in (0, 1), got {budget}",
                    file=sys.stderr,
                )
                return 2
            parameters["max_pebbles"] = budget if 0 < budget < 1 else int(budget)
        if args.exact_time_budget is not None:
            parameters["exact_time_budget"] = args.exact_time_budget
    if args.verilog is not None:
        parameters["verilog"] = args.verilog.read_text()

    try:
        result = run_flow(
            args.flow,
            args.design,
            args.bitwidth,
            verify=not args.no_verify,
            cost_model=args.cost_model,
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
                result.circuit, model=args.map_model or "rtof"
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Cross the configuration list with every requested pipeline sweep
    # (--opt for the AIG stage, --rev-opt for the reversible cascade).
    crossed = False
    for parameter, specs in (("opt", args.opt), ("rev_opt", args.rev_opt)):
        if not specs:
            continue
        error = _validate_pipeline_specs(*specs)
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
            return 2
        expanded = []
        for entry in configurations:
            if isinstance(entry, ParameterGrid):
                expanded.extend(entry.configurations())
            else:
                expanded.append(entry)
        configurations = [
            configuration.with_parameter(parameter, spec)
            for spec in specs
            for configuration in expanded
        ]
        crossed = True
    if crossed:
        # Crossing can collide with sweep points that already carried the
        # parameter (the default sweeps ship rev_opt points): run each
        # distinct configuration once, keeping first-seen order.
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
        if args.quiet:
            return
        progress["done"] += 1
        if outcome.ok:
            detail = f"{outcome.report.qubits} qubits, {outcome.report.t_count} T"
            if outcome.cached:
                detail += " (cached)"
        else:
            detail = f"error: {outcome.error}"
        print(f"[{progress['done']}/{len(tasks)}] {outcome.label()}: {detail}")

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
            print()
            print(
                format_table(
                    ["Pareto point", "qubits", "T-count"],
                    [(p.label(), p.qubits, p.t_count) for p in front],
                    title="Pareto front",
                )
            )

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
        aig = result.context.get("spec_aig") or result.context["aig"]
        check = check_equivalent(
            aig,
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
                check.num_patterns,
                "full" if check.complete else "sampled",
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
                        0,
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
                    quantum_check.num_patterns,
                    "full" if quantum_check.complete else "sampled",
                    "ok" if quantum_check.equivalent else f"FAIL: {quantum_check.message}",
                )
            )

    design_label = args.design if args.verilog is None else args.verilog.name
    print(
        format_table(
            ["flow", "check", "patterns", "coverage", "result"],
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


def _submit_request(url, method, path, body=None, headers=None, timeout=60.0):
    """One HTTP request against the job server; returns (status, bytes)."""
    import http.client
    import json as _json
    from urllib.parse import urlparse

    parsed = urlparse(url)
    if parsed.scheme not in ("http", ""):
        raise ValueError(f"unsupported scheme in {url!r} (http only)")
    host = parsed.hostname or "127.0.0.1"
    port = parsed.port or 80
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
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
    import http.client
    import json as _json
    from urllib.parse import urlparse

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

    parsed = urlparse(args.url)
    conn = http.client.HTTPConnection(
        parsed.hostname or "127.0.0.1", parsed.port or 80, timeout=600
    )
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
                if event["ok"]:
                    report = event["report"]
                    detail = f"{report['qubits']} qubits, {report['t_count']} T"
                    if event["cached"]:
                        detail += " (cached)"
                else:
                    failures += 1
                    detail = f"error: {event['error']}"
                if not args.quiet:
                    print(f"[{done}/{num_tasks}] {event['label']}: {detail}")
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
        print()
        print(
            format_table(
                ["Pareto point", "qubits", "T-count"],
                [
                    (
                        point["configuration"]
                        + (
                            f" [= {', '.join(point['aliases'])}]"
                            if point["aliases"]
                            else ""
                        ),
                        point["qubits"],
                        point["t_count"],
                    )
                    for point in group["points"]
                ],
                title=(
                    f"Pareto front of {group['design']}({group['bitwidth']})"
                ),
            )
        )
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
    parser = build_parser()
    args = parser.parse_args(argv)
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
