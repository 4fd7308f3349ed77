"""Classical logic synthesis substrate.

This sub-package provides the function representations and optimisation
algorithms that the paper obtains from ABC and CirKit:

* :mod:`repro.logic.truth_table` — explicit multi-output truth tables,
* :mod:`repro.logic.cube` / :mod:`repro.logic.esop` — cube covers,
  exclusive sums of products and their minimisation,
* :mod:`repro.logic.lits` / :mod:`repro.logic.network` — the shared
  literal encoding and the :class:`~repro.logic.network.LogicNetwork`
  protocol every multi-level network implements,
* :mod:`repro.logic.aig` / :mod:`repro.logic.aig_opt` — and-inverter graphs
  and ``dc2``/``resyn2``-style optimisation scripts,
* :mod:`repro.logic.xmg` / :mod:`repro.logic.xmg_mapping` — XOR-majority
  graphs and LUT-based mapping from AIGs,
* :mod:`repro.logic.cuts` — protocol-generic k-feasible cut enumeration
  and LUT covering,
* :mod:`repro.logic.collapse` — collapsing AIGs into ESOP covers (an AIG's
  truth table is :meth:`~repro.logic.aig.Aig.to_truth_table`).

Combinational equivalence checking (the paper's ABC ``cec``) lives in
:mod:`repro.verify`.
"""

from repro.logic.aig import Aig
from repro.logic.cube import Cube
from repro.logic.esop import EsopCover, esop_from_truth_table, minimize_esop
from repro.logic.network import (
    LogicNetwork,
    NetworkStats,
    network_cost,
    network_stats,
)
from repro.logic.truth_table import TruthTable
from repro.logic.xmg import Xmg

__all__ = [
    "Aig",
    "Cube",
    "EsopCover",
    "LogicNetwork",
    "NetworkStats",
    "TruthTable",
    "Xmg",
    "esop_from_truth_table",
    "minimize_esop",
    "network_cost",
    "network_stats",
]
