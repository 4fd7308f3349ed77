"""Collapsing multi-level networks into two-level / functional representations.

This corresponds to ``&exorcism``'s ESOP extraction used by the ESOP-based
flow.  ABC's ``collapse`` (the explicit function the symbolic flow embeds)
is :meth:`repro.logic.aig.Aig.to_truth_table`, by exhaustive simulation.
"""

from __future__ import annotations

from repro.logic.aig import Aig
from repro.logic.esop import EsopCover, esop_from_columns, minimize_esop

__all__ = ["collapse_to_esop"]


def collapse_to_esop(aig: Aig, minimize: bool = True) -> EsopCover:
    """Collapse an AIG into a multi-output ESOP cover.

    This is the ``&exorcism`` analogue used by the ESOP-based flow: the AIG
    outputs are expanded to truth tables, a PSDKRO cover is extracted and
    (optionally) minimised with exorcism-style cube merging.
    """
    cover = esop_from_columns(aig.output_columns(), aig.num_pis())
    if minimize:
        cover = minimize_esop(cover)
    return cover
