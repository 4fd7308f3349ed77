"""Reversible-circuit pass library: the peephole passes as registered passes.

The peephole passes of :mod:`repro.reversible.optimize` become two
registered passes over the ``rev`` target — so reversible cascades get the
same pipeline specs, keep-best tracking (under the ``(T-count, gates)``
objective of :func:`repro.opt.targets.target_cost`) and per-pass
differential guards as the logic networks:

* ``rev_not_merge`` (``rn``) — absorb NOT sandwiches into control
  polarities,
* ``rev_cancel`` (``rc``) — commutation-aware cancellation of involutory
  gate pairs.

The registered default pipeline ``rev-default`` is ``(rn;rc)*4``, which
stops at a fixed point (see :meth:`~repro.opt.pipeline.Pipeline.run`).
"""

from __future__ import annotations

from repro.opt.passes import Pass
from repro.opt.registry import register_pass, register_pipeline
from repro.reversible.optimize import cancel_adjacent_gates, merge_not_gates

__all__ = ["DEFAULT_REV_PIPELINE", "register_rev_passes"]

#: Name of the default reversible peephole pipeline.
DEFAULT_REV_PIPELINE = "rev-default"


def register_rev_passes() -> None:
    """Register the reversible peephole passes (idempotent per process)."""
    for pass_ in (
        Pass(
            "rev_not_merge",
            merge_not_gates,
            network_types=("rev",),
            description="absorb NOT sandwiches into control polarities",
            aliases=("rn",),
        ),
        Pass(
            "rev_cancel",
            cancel_adjacent_gates,
            network_types=("rev",),
            description="commutation-aware cancellation of involutory pairs",
            aliases=("rc",),
        ),
    ):
        register_pass(pass_, replace=True)
    register_pipeline(
        DEFAULT_REV_PIPELINE,
        "(rn;rc)*4",
        description="NOT merging and cancellation, up to four rounds",
        replace=True,
    )
