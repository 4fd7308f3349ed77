"""Reversible circuits and reversible logic synthesis.

This sub-package implements the *reversible synthesis level* of the paper's
design flows:

* :mod:`repro.reversible.gates` / :mod:`repro.reversible.circuit` — mixed
  polarity multiple-controlled Toffoli gates and gate cascades,
* :mod:`repro.reversible.embedding` — Bennett and optimum-line embeddings of
  irreversible functions (Section II-B),
* :mod:`repro.reversible.tbs` / :mod:`repro.reversible.symbolic_tbs` —
  transformation-based synthesis (the functional flow),
* :mod:`repro.reversible.esop_synth` — ESOP-based synthesis with optional
  sub-expression factoring (the REVS flow, parameter ``p``),
* :mod:`repro.reversible.pebbling` / :mod:`repro.reversible.lut_synth` —
  hierarchical synthesis as a reversible pebble game: pebbling schedules
  over a k-LUT cover or an XMG's gates (Bennett / eager / budget-bounded
  strategies, all dispatched by ``make_schedule``, with a machine-checked
  schedule validator) and their execution via per-LUT ESOP/TBS blocks (the
  ``lut`` flow) or per-gate XMG blocks (the ``hierarchical`` flow).

Every synthesised circuit is checked against its irreversible
specification by :func:`repro.verify.check_equivalent`.
"""

from repro.reversible.circuit import LineInfo, LinePool, ReversibleCircuit
from repro.reversible.embedding import (
    EmbeddedFunction,
    bennett_embedding,
    minimum_additional_lines,
    optimum_embedding,
)
from repro.reversible.esop_synth import esop_synthesis
from repro.reversible.gates import ToffoliGate
from repro.reversible.lut_synth import (
    hierarchical_synthesis,
    lut_synthesis,
    synthesize_schedule,
)
from repro.reversible.pebbling import (
    InvalidScheduleError,
    PebbleSchedule,
    PebbleStep,
    bennett_schedule,
    bounded_schedule,
    eager_schedule,
    make_schedule,
    minimum_pebbles,
    validate_schedule,
)
from repro.reversible.tbs import transformation_based_synthesis
from repro.reversible.symbolic_tbs import symbolic_tbs

__all__ = [
    "EmbeddedFunction",
    "InvalidScheduleError",
    "LineInfo",
    "LinePool",
    "PebbleSchedule",
    "PebbleStep",
    "ReversibleCircuit",
    "ToffoliGate",
    "bennett_embedding",
    "bennett_schedule",
    "bounded_schedule",
    "eager_schedule",
    "esop_synthesis",
    "hierarchical_synthesis",
    "lut_synthesis",
    "make_schedule",
    "minimum_additional_lines",
    "minimum_pebbles",
    "optimum_embedding",
    "symbolic_tbs",
    "synthesize_schedule",
    "transformation_based_synthesis",
    "validate_schedule",
]
