"""The design flows of Fig. 1, plus the LUT-granular pebbling flow.

Every flow starts from a Verilog description (the generated ``INTDIV(n)`` /
``NEWTON(n)`` designs or user-provided source), performs classical logic
synthesis and hands the result to one of the reversible synthesis back-ends:

* :func:`symbolic_flow`     — ABC ``collapse`` analogue, optimum embedding,
  transformation-based synthesis (Table II),
* :func:`esop_flow`         — ESOP extraction and exorcism-style
  minimisation, REVS-style ESOP synthesis with the factoring parameter ``p``
  (Table III),
* :func:`hierarchical_flow` — repeated ``resyn2`` analogue, ``xmglut``-style
  XMG mapping, hierarchical synthesis (Table IV): the pebble game of
  :func:`lut_flow` with one gate block per XMG gate,
* :func:`lut_flow`          — k-LUT covering of the optimised AIG, a
  reversible pebble game scheduled over the LUT DAG (``strategy`` is one
  of the pebbling strategies ``bennett`` / ``eager`` / ``bounded``, the
  last with a ``max_pebbles`` qubit budget), and per-LUT
  ESOP/exact-ESOP/TBS synthesis of each schedule step (the paper's
  LUT-based hierarchical synthesis).

All flows share a common tail: an optional reversible peephole pipeline
(``rev_opt``, e.g. ``"rev-default"``) over the synthesised cascade,
differential verification against the bit-blasted design (ABC ``cec``
analogue), and an optional explicit Clifford+T mapping (``map_model``,
``"rtof"`` / ``"barenco"``) whose resource vector — T-count, T-depth,
total depth, mapped qubits — joins the cost report.  Each stage parameter
is annotated ``Annotated[type, "help"]``: the schema of :mod:`repro.core.flow`.

The functional flows read only the design AIG's function, so they skip the
paper's ``dc2``: it only kept ABC's collapse BDDs small.
"""

from __future__ import annotations

from typing import Annotated, Any, Dict, List, Optional, Union

from repro.core.flow import Flow, FlowResult, FlowStage, PipelineSpec, PrefixMemo
from repro.hdl.designs import intdiv_verilog, newton_verilog
from repro.hdl.synthesize import synthesize_verilog
from repro.logic.aig import Aig
from repro.logic.collapse import collapse_to_esop
from repro.logic.xmg_mapping import aig_to_xmg
from repro.opt import as_pipeline
from repro.quantum.tcount import available_models
from repro.reversible.embedding import optimum_embedding
from repro.reversible.esop_synth import esop_synthesis
from repro.reversible.lut_synth import LUT_SYNTHESIZERS, hierarchical_synthesis
from repro.reversible.symbolic_tbs import symbolic_tbs
from repro.verify.differential import (
    AUTO_FULL_LIMIT,
    VERIFY_MODES,
    check_equivalent,
    normalize_verify_mode,
)

__all__ = [
    "available_flows",
    "design_source",
    "esop_flow",
    "frontend_artifacts",
    "hierarchical_flow",
    "lut_flow",
    "make_flow",
    "run_flow",
    "symbolic_flow",
]


def design_source(design: str, bitwidth: int) -> str:
    """Verilog source of a named built-in design.

    ``intdiv`` and ``newton`` are the reciprocal designs of the paper;
    ``isqrt`` is the inverse-square-root companion design (the paper's
    "future work" function, see :mod:`repro.hdl.isqrt`).
    """
    design = design.lower()
    if design == "intdiv":
        return intdiv_verilog(bitwidth)
    if design == "newton":
        return newton_verilog(bitwidth)
    if design == "isqrt":
        from repro.hdl.isqrt import isqrt_verilog

        return isqrt_verilog(bitwidth)
    raise ValueError(
        f"unknown design {design!r} (expected 'intdiv', 'newton' or 'isqrt')"
    )


# -- shared stages ------------------------------------------------------------

#: Parameters more than one stage declares.
OptGuard = Annotated[
    Union[bool, str], "equivalence guard of each optimisation pass", VERIFY_MODES
]
XmgOpt = Annotated[
    Optional[PipelineSpec], "XMG optimisation pipeline, e.g. 'xmg-default'"
]
Strategy = Annotated[
    str, "pebbling strategy of the cleanup; an unknown name lists the choices"
]


def _add_metrics(context: Dict[str, Any], **metrics: Any) -> None:
    """Merge ``metrics`` into a new ``extra_metrics`` (a memo may hold the old one)."""
    context["extra_metrics"] = {**context["extra_metrics"], **metrics}


def _stage_frontend(
    context: Dict[str, Any],
    *,
    verilog: Annotated[Optional[str], "Verilog source of the design"] = None,
    aig: Annotated[Optional[Aig], "a pre-built design AIG"] = None,
) -> None:
    """Design entry: bit-blast the (generated) Verilog; a seeded ``aig`` is kept.

    The design AIG is also ``spec_aig``, the verify stage's reference, which
    no optimisation pass can corrupt.
    """
    if aig is None:
        if verilog is None:
            verilog = design_source(context["design"], context["bitwidth"])
            context["verilog"] = verilog
        context["aig"] = synthesize_verilog(verilog)
    context["spec_aig"] = context["aig"]


def frontend_artifacts(
    design: str, bitwidth: int, verilog: Optional[str] = None
) -> Dict[str, Any]:
    """The frontend stage's artefacts, ``{"verilog": source, "aig": aig}``."""
    source = design_source(design, bitwidth) if verilog is None else verilog
    return {"verilog": source, "aig": synthesize_verilog(source)}


def _stage_optimize(
    context: Dict[str, Any],
    *,
    opt: Annotated[
        Optional[PipelineSpec], "AIG optimisation pipeline, e.g. 'b;rw;rf'"
    ] = "(resyn2)*2",
    opt_guard: OptGuard = "off",
) -> None:
    """The AIG optimisation stage, a pass-manager pipeline.

    ``opt`` is a pipeline spec such as ``"b;rw;rf"`` or ``"dc2*3"``, or a
    pre-built :class:`repro.opt.Pipeline`; it defaults to ABC's
    ``(resyn2)*2`` (also when unset), and ``"none"`` disables AIG
    optimisation.  ``opt_guard`` optionally enables the per-pass
    differential equivalence guard (``off``/``sampled``/``full``/``auto``).
    """
    pipeline = as_pipeline("(resyn2)*2" if opt is None else opt)
    result = pipeline.run(context["aig"], guard=opt_guard)
    context["aig"] = result.network
    context["opt_reports"] = result.reports
    gates = result.network.num_gates()
    _add_metrics(context, opt_pipeline=str(pipeline), opt_gates=gates)


def _stage_xmg_opt(
    context: Dict[str, Any], *, xmg_opt: XmgOpt = None, opt_guard: OptGuard = "off"
) -> None:
    """Optional XMG optimisation pipeline between mapping and synthesis.

    Disabled by default (``xmg_opt`` unset/None/"none"): pass a spec such
    as ``"xmg-default"`` (the registered strash/Ω-rewrite/XOR/cut-refactor
    pipeline) or any combination of the ``xmg_*`` passes to reduce the MAJ
    count — and therefore the Toffoli blocks and T-count — of the
    hierarchical synthesis back-end.
    """
    pipeline = as_pipeline(xmg_opt)
    if len(pipeline):
        context["xmg"] = _run_xmg_pipeline(context, pipeline, context["xmg"], opt_guard)


def _run_xmg_pipeline(context: Dict[str, Any], pipeline, xmg, guard: str):
    """Run an ``xmg_opt`` pipeline on ``xmg``, record it, return the result."""
    result = pipeline.run(xmg, guard=guard)
    context["xmg_opt_reports"] = result.reports
    _add_metrics(
        context,
        xmg_opt_pipeline=str(pipeline),
        xmg_maj=result.network.num_maj(),
        xmg_xor=result.network.num_xor(),
    )
    return result.network


def _stage_rev_opt(
    context: Dict[str, Any],
    *,
    rev_opt: Annotated[
        Optional[PipelineSpec], "reversible peephole pipeline, e.g. 'rn;rc'"
    ] = None,
    opt_guard: OptGuard = "off",
) -> None:
    """Optional peephole optimisation of the synthesised cascade.

    ``rev_opt`` is a pass-manager pipeline spec over the ``rev`` target —
    e.g. ``"rev-default"`` (NOT merging and cancellation to a fixed point,
    at most four rounds) or any combination of ``rn`` / ``rc`` — executed
    with keep-best tracking under the lexicographic ``(T-count, gates)``
    objective and the optional per-pass differential guard (``opt_guard``).
    """
    pipeline = as_pipeline(rev_opt)
    if not len(pipeline):
        return
    before = context["circuit"]
    result = pipeline.run(before, guard=opt_guard)
    context["circuit"] = result.network
    context["rev_opt_reports"] = result.reports
    _add_metrics(
        context,
        rev_opt_pipeline=str(pipeline),
        rev_opt_gates_before=before.num_gates(),
        rev_opt_gates=result.network.num_gates(),
    )


def _stage_resources(
    context: Dict[str, Any],
    *,
    map_model: Annotated[
        Optional[str], "Clifford+T mapping of a resource estimate", available_models()
    ] = None,
    qc_opt: Annotated[
        Optional[PipelineSpec], "Clifford+T peephole pipeline, e.g. 'qc-default'"
    ] = None,
    qc_opt_guard: Annotated[
        Optional[Union[bool, str]], "qc_opt's guard (unset: opt_guard if small)",
        VERIFY_MODES,
    ] = None,
    opt_guard: OptGuard = "off",
) -> None:
    """Optional explicit Clifford+T mapping and resource estimation.

    ``map_model`` selects the decomposition model (``"rtof"`` — 4-T
    relative-phase Toffoli chains — or ``"barenco"``); the cascade is
    expanded into an explicit Clifford+T circuit whose per-gate T-count is
    asserted against the closed forms of :mod:`repro.quantum.tcount`, an
    optional ``qc_opt`` peephole pipeline (e.g. ``"qc-default"``) runs on
    the mapped circuit, and the resulting
    :class:`~repro.quantum.resources.ResourceEstimate` joins the flow's
    :class:`~repro.core.cost.CostReport` (T-depth, total depth, mapped
    qubits).  Skipped entirely when ``map_model`` is unset, so flows only
    pay for the expansion when asked; ``qc_opt`` or ``qc_opt_guard``
    without a ``map_model`` is a ``ValueError``.
    """
    if map_model is None:
        if qc_opt is not None or qc_opt_guard is not None:
            raise ValueError(
                "qc_opt and qc_opt_guard act on the mapped Clifford+T "
                "circuit and require map_model"
            )
        return
    from repro.quantum.mapping import map_to_clifford_t
    from repro.quantum.resources import estimate_resources
    from repro.verify.differential import QUANTUM_EQUIV_QUBIT_LIMIT

    quantum = map_to_clifford_t(context["circuit"], model=map_model)
    qc_pipeline = as_pipeline(qc_opt)
    if len(qc_pipeline):
        # The quantum guard compares full statevectors — exponential in
        # qubits.  An explicit ``qc_opt_guard`` is always honoured (and
        # raises loudly when infeasible); otherwise the stage inherits
        # ``opt_guard`` whenever the mapped circuit is small enough for
        # the statevector checker.
        guard = qc_opt_guard
        if guard is None:
            guard = opt_guard
            if quantum.num_qubits > QUANTUM_EQUIV_QUBIT_LIMIT:
                guard = "off"
        result = qc_pipeline.run(quantum, guard=guard)
        quantum = result.network
        context["qc_opt_reports"] = result.reports
    estimate = estimate_resources(quantum)
    context["quantum_circuit"] = quantum
    context["resources"] = estimate
    _add_metrics(context, map_model=map_model, qc_t_count=estimate.t_count)


def _stage_verify(
    context: Dict[str, Any],
    *,
    verify: Annotated[
        Union[bool, str], "equivalence check, true/false or a mode", VERIFY_MODES
    ] = True,
    verify_samples: Annotated[int, "patterns of a sampled check"] = 256,
    verify_seed: Annotated[int, "seed of a sampled check's patterns"] = 1,
    verify_input_limit: Annotated[
        int, "most inputs 'auto' checks in full"
    ] = AUTO_FULL_LIMIT,
) -> None:
    """ABC ``cec`` analogue: differentially compare circuit and AIG.

    ``verify`` is a bool (historical) or one of the named modes ``off`` /
    ``sampled`` / ``full`` / ``auto``; the check itself is the bit-parallel
    differential checker of :mod:`repro.verify`, which simulates the
    bit-blasted AIG and the synthesised reversible circuit on the same
    packed pattern batch.  The reference is ``spec_aig`` — the AIG *before*
    any optimisation pipeline touched it — so a buggy pass (or a buggy XMG
    round-trip) makes verification fail instead of silently verifying the
    circuit against its own corrupted input.
    """
    mode = normalize_verify_mode(verify)
    if mode == "off":
        context["verified"] = None
        return
    result = check_equivalent(
        context["spec_aig"],
        context["circuit"],
        mode=mode,
        num_samples=verify_samples,
        seed=verify_seed,
        auto_full_limit=verify_input_limit,
    )
    if not result:
        raise RuntimeError(f"flow verification failed: {result.message}")
    context["verified"] = True
    context["verification"] = result
    context["verify_complete"] = result.complete


def _tail_stages() -> List[FlowStage]:
    """The stages every flow ends with: rev-opt, verify and resources."""
    return [
        FlowStage("rev-opt", _stage_rev_opt),
        FlowStage("verify", _stage_verify),
        FlowStage("resources", _stage_resources),
    ]


# -- symbolic functional flow -----------------------------------------------------


def _stage_collapse(context: Dict[str, Any]) -> None:
    """ABC ``collapse``: the explicit function, by exhaustive AIG simulation."""
    context["function"] = context["aig"].to_truth_table()


def _removed_bdd_collapse(*args, **kwargs):
    """Stand-in for the removed BDD collapse; it raises if called.

    ``collapse_to_bdd`` and ``bdd_to_truth_table`` exist only because
    ``perfbench/spans.py`` binds both names of this module by attribute;
    the ``collapse`` stage never calls them.  ROADMAP item 4(b) removes
    them together with those wrappers.
    """
    raise NotImplementedError(
        "the BDD collapse was removed; the collapse stage simulates the AIG"
    )


collapse_to_bdd = bdd_to_truth_table = _removed_bdd_collapse


def _stage_embed(context: Dict[str, Any]) -> None:
    context["embedding"] = optimum_embedding(context["function"])


def _stage_tbs(
    context: Dict[str, Any],
    *,
    bidirectional: Annotated[bool, "TBS adds gates on the input side too"] = True,
) -> None:
    context["circuit"] = symbolic_tbs(
        context["embedding"],
        bidirectional=bidirectional,
        name=f"{context['design']}_{context['bitwidth']}_symbolic",
    )


def symbolic_flow(cost_model: str = "rtof") -> Flow:
    """The symbolic functional synthesis flow (Section IV-A / Table II)."""
    return Flow(
        "symbolic",
        [
            FlowStage("frontend", _stage_frontend),
            FlowStage("collapse", _stage_collapse),
            FlowStage("embed", _stage_embed),
            FlowStage("tbs", _stage_tbs),
            *_tail_stages(),
        ],
        cost_model=cost_model,
    )


# -- ESOP-based flow ----------------------------------------------------------------


def _stage_esop_extract(context: Dict[str, Any]) -> None:
    cover = collapse_to_esop(context["aig"], minimize=True)
    context["esop"] = cover
    terms, shared = cover.num_terms(), cover.shared_terms()
    _add_metrics(context, esop_terms=terms, esop_shared_terms=shared)


def _stage_esop_synthesis(
    context: Dict[str, Any],
    *,
    p: Annotated[int, "ESOP factoring rounds: 0 off, more trades qubits for T"] = 0,
) -> None:
    context["circuit"] = esop_synthesis(
        context["esop"],
        p=p,
        name=f"{context['design']}_{context['bitwidth']}_esop_p{p}",
    )


def esop_flow(cost_model: str = "rtof") -> Flow:
    """The ESOP-based (REVS) synthesis flow (Section IV-B / Table III)."""
    return Flow(
        "esop",
        [
            FlowStage("frontend", _stage_frontend),
            FlowStage("exorcism", _stage_esop_extract),
            FlowStage("esop-synthesis", _stage_esop_synthesis),
            *_tail_stages(),
        ],
        cost_model=cost_model,
    )


# -- hierarchical flow -----------------------------------------------------------------


def _stage_xmg_map(
    context: Dict[str, Any],
    *,
    lut_size: Annotated[int, "LUT size of the XMG mapping"] = 4,
) -> None:
    xmg = aig_to_xmg(context["aig"], k=lut_size)
    context["xmg"] = xmg
    _add_metrics(context, xmg_maj=xmg.num_maj(), xmg_xor=xmg.num_xor())


def _stage_hierarchical(
    context: Dict[str, Any], *, strategy: Strategy = "bennett"
) -> None:
    context["circuit"] = hierarchical_synthesis(
        context["xmg"],
        strategy=strategy,
        name=f"{context['design']}_{context['bitwidth']}_hier",
    )


def hierarchical_flow(cost_model: str = "rtof") -> Flow:
    """The hierarchical synthesis flow (Section IV-C / Table IV).

    Between XMG mapping and synthesis an optional XMG optimisation
    pipeline (context key ``xmg_opt``, e.g. ``"xmg-default"``) reduces
    the MAJ count that directly determines the Toffoli blocks of the
    back-end.
    """
    return Flow(
        "hierarchical",
        [
            FlowStage("frontend", _stage_frontend),
            FlowStage("optimize", _stage_optimize),
            FlowStage("xmglut", _stage_xmg_map),
            FlowStage("xmg-opt", _stage_xmg_opt),
            FlowStage("hierarchical-synthesis", _stage_hierarchical),
            *_tail_stages(),
        ],
        cost_model=cost_model,
    )


# -- LUT-based hierarchical flow (pebbling) ------------------------------------------


def _stage_xmg_roundtrip(
    context: Dict[str, Any],
    *,
    xmg_opt: XmgOpt = None,
    xmg_opt_k: Annotated[int, "LUT size of the xmg_opt round-trip"] = 4,
    opt_guard: OptGuard = "off",
) -> None:
    """Optional XMG optimisation of the LUT flow's AIG (round-trip).

    The LUT flow consumes an AIG, so the XMG pass library reaches it by
    mapping the optimised AIG into an XMG, running the ``xmg_opt``
    pipeline (same parameter as the hierarchical flow, e.g.
    ``"xmg-default"``) and expanding the result back with
    :func:`~repro.logic.xmg_mapping.xmg_to_aig`.  The round-tripped AIG
    carries the XOR/MAJ structure the pipeline found, which LUT covering
    packs into fewer, cheaper LUTs.  Disabled by default.  ``xmg_opt_k``
    sizes the AIG->XMG mapping of the round-trip; it is deliberately
    independent of the LUT covering size ``k`` downstream.
    """
    pipeline = as_pipeline(xmg_opt)
    if not len(pipeline):
        return
    from repro.logic.xmg_mapping import xmg_to_aig

    xmg = aig_to_xmg(context["aig"], k=xmg_opt_k)
    context["aig"] = xmg_to_aig(_run_xmg_pipeline(context, pipeline, xmg, opt_guard))


def _stage_lut_map(
    context: Dict[str, Any],
    *,
    k: Annotated[int, "LUT size of the covering"] = 4,
    max_cuts: Annotated[int, "priority cuts kept per node"] = 8,
    cut_selection: Annotated[str, "cut cost of the covering, e.g. 'depth'"] = "area",
) -> None:
    """k-LUT covering of the AIG (``cut_selection``: ``area`` or ``depth``)."""
    from repro.logic.cuts import lut_map

    mapping = lut_map(context["aig"], k=k, max_cuts=max_cuts, selection=cut_selection)
    context["lut_mapping"] = mapping
    _add_metrics(context, num_luts=mapping.num_luts(), lut_depth=mapping.depth())


def _stage_pebble(
    context: Dict[str, Any],
    *,
    strategy: Strategy = "bennett",
    max_pebbles: Annotated[
        Optional[Union[int, float]],
        "pebble budget of bounded: a count, or a fraction in (0, 1) of the LUTs",
    ] = None,
) -> None:
    """Schedule the LUT DAG with a pebbling strategy.

    ``max_pebbles`` is the budget of the bounded strategy (an int, or a
    float in ``(0, 1)`` as a fraction of the LUT count);
    :func:`~repro.reversible.pebbling.make_schedule` rejects it for a
    strategy that does not take it.
    """
    from repro.reversible.pebbling import make_schedule

    schedule = make_schedule(
        context["lut_mapping"], strategy=strategy, max_pebbles=max_pebbles
    )
    stats = schedule.stats()  # cached from make_schedule's validation
    context["schedule"] = schedule
    _add_metrics(
        context,
        pebble_peak=stats.pebble_peak,
        schedule_steps=stats.num_steps,
        recomputes=schedule.num_recomputes(),
    )


def _stage_lut_synthesis(
    context: Dict[str, Any],
    *,
    lut_synth: Annotated[
        str, "per-LUT synthesizer (exact: T-optimal up to 4 inputs)",
        LUT_SYNTHESIZERS,
    ] = "esop",
) -> None:
    """Per-LUT sub-synthesis (``esop``, ``exact`` or ``tbs``) of each step."""
    from repro.reversible.lut_synth import synthesize_schedule

    context["circuit"] = synthesize_schedule(
        context["schedule"],
        name=f"{context['design']}_{context['bitwidth']}_lut",
        lut_synth=lut_synth,
        validate=False,  # the pebble stage already validated
    )


def lut_flow(cost_model: str = "rtof") -> Flow:
    """The LUT-based hierarchical flow with a reversible pebbling scheduler."""
    return Flow(
        "lut",
        [
            FlowStage("frontend", _stage_frontend),
            FlowStage("optimize", _stage_optimize),
            FlowStage("xmg-opt", _stage_xmg_roundtrip),
            FlowStage("lut-map", _stage_lut_map),
            FlowStage("pebble", _stage_pebble),
            FlowStage("lut-synthesis", _stage_lut_synthesis),
            *_tail_stages(),
        ],
        cost_model=cost_model,
    )


_FLOW_FACTORIES = {
    "symbolic": symbolic_flow,
    "esop": esop_flow,
    "hierarchical": hierarchical_flow,
    "lut": lut_flow,
}


def available_flows() -> List[str]:
    """Names of the registered flows (Fig. 1 plus the ``lut`` flow)."""
    return list(_FLOW_FACTORIES)


def make_flow(flow: str, cost_model: str = "rtof") -> Flow:
    """A fresh :class:`Flow` object of one registered flow."""
    if flow not in _FLOW_FACTORIES:
        raise ValueError(
            f"unknown flow {flow!r}; available: {', '.join(available_flows())}"
        )
    return _FLOW_FACTORIES[flow](cost_model=cost_model)


def run_flow(
    flow: str,
    design: Union[str, Aig],
    bitwidth: int,
    verify: Union[bool, str] = True,
    cost_model: str = "rtof",
    memo: Optional[PrefixMemo] = None,
    **parameters: Any,
) -> FlowResult:
    """Run one named flow on one design instance.

    ``design`` is ``"intdiv"``, ``"newton"``, ``"isqrt"``, or a pre-built
    :class:`~repro.logic.aig.Aig` (in which case ``bitwidth`` is only used
    for reporting).  ``verify`` is a bool or one of the named modes
    ``off`` / ``sampled`` / ``full`` / ``auto`` (see
    :mod:`repro.verify.differential`).  ``parameters`` are the stage
    parameters: each stage body of this module declares the ones it reads,
    with their defaults, as keyword-only arguments, and
    ``make_flow(flow).parameter_names()`` lists a flow's.  A name no stage
    declares raises ``ValueError``.  ``memo`` shares stage prefixes with
    other runs (see :meth:`Flow.run`).
    """
    flow_object = make_flow(flow, cost_model)
    if isinstance(design, Aig):
        parameters = {**parameters, "aig": design}
        design_name = design.name or "custom"
    else:
        design_name = design
    return flow_object.run(
        design_name, bitwidth, memo=memo, verify=verify, **parameters
    )
