"""What each workload runs, and the independent reference check.

The sweeps are the program's own default per-flow sweeps
(``explore --flow …``), bound to the design instances chosen in
``RATIONALE.md``.  The seed never changes *what* is computed: it picks
the inputs of the reference check and, in the traced run, shuffles the
order of the configurations.  The outputs must not depend on either.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

SWEEP_WORKLOADS = ("symbolic", "structural", "lut")
WORKLOADS = SWEEP_WORKLOADS + ("service",)

#: Upper bound on gate applications one configuration's reference check
#: may cost.  Designs whose every input fits in it are checked on all
#: inputs; larger cascades (the 211k-gate symbolic ones) on a seeded sample.
GATE_EVAL_BUDGET = 4_000_000
MIN_SAMPLE = 16


def configurations(flows: Sequence[str]):
    """The concatenated default sweeps of ``flows``."""
    from repro.core.explorer import flow_default_configurations

    return [c for flow in flows for c in flow_default_configurations(flow)]


def sweep_tasks(workload: str):
    """The exploration tasks of one sweep workload, in canonical order."""
    from repro.core.explorer import FlowConfiguration, build_sweep

    if workload == "symbolic":
        return build_sweep("intdiv", 8, configurations(["symbolic"]))
    if workload == "structural":
        structural = configurations(["esop", "hierarchical"])
        return build_sweep("intdiv", 8, structural) + build_sweep("newton", 6, structural)
    if workload == "lut":
        bounded = FlowConfiguration("lut", (("strategy", "bounded"), ("max_pebbles", 0.5)))
        return build_sweep("intdiv", 8, configurations(["lut"])) + build_sweep(
            "newton", 6, [bounded]
        )
    raise ValueError(f"unknown sweep workload {workload!r}")


def service_payloads(rng: Optional[random.Random] = None) -> Tuple[Dict, Dict]:
    """The cold job (also re-submitted) and the half-cached third job.

    Both carry an explicit configuration list, shuffled when ``rng`` is
    given.
    """
    listed = [
        {"flow": c.flow, "parameters": dict(c.parameters)}
        for c in configurations(["esop", "hierarchical"])
    ]
    cold_order, third_order = list(listed), list(listed)
    if rng is not None:
        rng.shuffle(cold_order)
        rng.shuffle(third_order)
    common = {"designs": ["intdiv"], "verify": "auto", "jobs": 1}
    cold = {**common, "bitwidths": [7], "configurations": cold_order}
    third = {**common, "bitwidths": [6, 7], "configurations": third_order}
    return cold, third


def reference_inputs(rng: random.Random, bitwidth: int, num_gates: int) -> List[int]:
    """All inputs when cheap, else a seeded sample that keeps both extremes."""
    size = 1 << bitwidth
    if num_gates * size <= GATE_EVAL_BUDGET:
        return list(range(size))
    count = min(size, max(MIN_SAMPLE, GATE_EVAL_BUDGET // max(1, num_gates)))
    return sorted({0, size - 1} | set(rng.sample(range(1, size - 1), count - 2)))


def reference_mismatches(design: str, bitwidth: int, circuit, inputs) -> List[int]:
    """Inputs on which the circuit disagrees with the design's software model.

    The models of :mod:`repro.hdl.designs` are plain integer arithmetic,
    independent of every synthesis and verification path.
    """
    from repro.hdl.designs import intdiv_reference, newton_reference

    model = {"intdiv": intdiv_reference, "newton": newton_reference}[design]
    return [x for x in inputs if circuit.evaluate(x) != model(bitwidth, x)]
