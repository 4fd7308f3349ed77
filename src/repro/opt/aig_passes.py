"""AIG pass library: the :mod:`repro.logic.aig_opt` scripts as registered passes.

These are the ABC analogues the paper's flows iterate (``dc2`` for the
symbolic/ESOP flows, ``resyn2`` for the XMG flow), exposed under their
canonical names and the ABC short aliases (``b`` / ``rw`` / ``rf``) so
pipeline specs read like ABC scripts: ``"b;rw;rf"``, ``"dc2*3"``.
"""

from __future__ import annotations

from repro.logic import aig_opt
from repro.opt.passes import Pass
from repro.opt.registry import register_pass

__all__ = ["register_aig_passes"]


def register_aig_passes() -> None:
    """Register the AIG optimisation passes (idempotent per process)."""
    for pass_ in (
        Pass(
            "balance",
            aig_opt.balance,
            network_types=("aig",),
            description="depth-oriented rebalancing of AND trees",
            aliases=("b",),
        ),
        Pass(
            "rewrite",
            aig_opt.rewrite,
            network_types=("aig",),
            description="cut-rewriting analogue: refactoring of small cones",
            aliases=("rw",),
        ),
        Pass(
            "refactor",
            aig_opt.refactor,
            network_types=("aig",),
            description="collapse fanout-free cones and rebuild factored SOPs",
            aliases=("rf",),
        ),
        Pass(
            "dc2",
            aig_opt.dc2,
            network_types=("aig",),
            description="ABC dc2 analogue (balance/rewrite/refactor script)",
        ),
        Pass(
            "resyn2",
            aig_opt.resyn2,
            network_types=("aig",),
            description="ABC resyn2 analogue (extended rewrite/refactor script)",
        ),
    ):
        register_pass(pass_, replace=True)
