"""Uniform protocol over the multi-level logic networks (AIG, XMG).

The optimisation layer must not care whether it holds an
:class:`~repro.logic.aig.Aig` or an :class:`~repro.logic.xmg.Xmg`: both
share the literal encoding of :mod:`repro.logic.lits`, create nodes in
topological order and expose the same traversal surface.  This module pins
that contract down as the :class:`LogicNetwork` protocol and builds the
generic graph algorithms on top of it:

* :func:`transitive_fanin` — reachable gate set of a root set,
* :func:`network_stats` / :func:`network_cost` — uniform size/depth
  accounting; the cost tuple is the lexicographic objective every
  optimisation pass and pipeline minimises.

The protocol is *structural* (:func:`typing.runtime_checkable`): any class
providing the methods participates, no inheritance required.  The cut
enumeration of :mod:`repro.logic.cuts` and the pass manager of
:mod:`repro.opt` are written against this protocol only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Sequence,
    Set,
    Tuple,
)

try:  # Python >= 3.8
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - ancient interpreters only
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls

from repro.logic.lits import lit_node

__all__ = [
    "LogicNetwork",
    "NetworkStats",
    "network_cost",
    "network_kind",
    "network_stats",
    "transitive_fanin",
]


@runtime_checkable
class LogicNetwork(Protocol):
    """Structural protocol shared by :class:`Aig` and :class:`Xmg`.

    Literals follow :mod:`repro.logic.lits` (``2*node + complement``),
    node 0 is the constant FALSE, and nodes are topologically ordered
    (fanins always have smaller indices than their fanouts).
    """

    #: ``"aig"`` or ``"xmg"`` — the tag pass applicability is keyed on.
    network_type: str
    name: str

    # -- I/O surface ---------------------------------------------------------
    def num_pis(self) -> int: ...
    def num_pos(self) -> int: ...
    def pis(self) -> List[int]: ...
    def pos(self) -> List[int]: ...
    def pi_names(self) -> List[str]: ...
    def po_names(self) -> List[str]: ...

    # -- node classification / traversal -------------------------------------
    def nodes(self) -> Iterable[int]: ...
    def is_pi(self, node: int) -> bool: ...
    def is_const(self, node: int) -> bool: ...
    def is_gate(self, node: int) -> bool: ...
    def gate_nodes(self) -> List[int]: ...
    def num_gates(self) -> int: ...
    def fanins(self, node: int) -> Tuple[int, ...]: ...

    # -- structure queries ----------------------------------------------------
    def levels(self) -> Dict[int, int]: ...
    def depth(self) -> int: ...
    def fanout_counts(self) -> List[int]: ...

    # -- evaluation ------------------------------------------------------------
    def eval_gate(self, node: int, operands: Sequence[int]) -> int: ...
    def simulate_minterm(self, minterm: int) -> int: ...

    # -- maintenance ------------------------------------------------------------
    def cleanup(self) -> "LogicNetwork": ...


def network_kind(network: LogicNetwork) -> str:
    """The network-type tag (``"aig"`` / ``"xmg"``) of a network."""
    kind = getattr(network, "network_type", None)
    if not isinstance(kind, str):
        raise TypeError(
            f"{type(network).__name__} does not implement the LogicNetwork "
            "protocol (missing 'network_type')"
        )
    return kind


@dataclass(frozen=True)
class NetworkStats:
    """Uniform size/depth snapshot of a network.

    ``num_maj`` / ``num_xor`` are zero for networks without the
    corresponding node kinds (an AIG's AND nodes are counted in
    ``num_gates`` only), so the dataclass compares cleanly across types.
    """

    kind: str
    num_pis: int
    num_pos: int
    num_gates: int
    depth: int
    num_maj: int = 0
    num_xor: int = 0

    def as_dict(self) -> Dict[str, int]:
        """JSON-friendly metric dictionary (kind excluded)."""
        metrics = {
            "gates": self.num_gates,
            "depth": self.depth,
        }
        if self.kind == "xmg":
            metrics["maj"] = self.num_maj
            metrics["xor"] = self.num_xor
        return metrics


def network_stats(network: LogicNetwork) -> NetworkStats:
    """Snapshot the uniform statistics of any protocol network."""
    kind = network_kind(network)
    num_maj = network.num_maj() if hasattr(network, "num_maj") else 0
    num_xor = network.num_xor() if hasattr(network, "num_xor") else 0
    return NetworkStats(
        kind=kind,
        num_pis=network.num_pis(),
        num_pos=network.num_pos(),
        num_gates=network.num_gates(),
        depth=network.depth(),
        num_maj=num_maj,
        num_xor=num_xor,
    )


def network_cost(network: LogicNetwork) -> Tuple[int, ...]:
    """Lexicographic optimisation objective of a network.

    AIGs minimise ``(AND count, depth)``; XMGs minimise
    ``(MAJ count, total gates, depth)`` — MAJ nodes dominate because every
    MAJ costs a Toffoli block downstream while XOR nodes map to T-free
    CNOTs.  Pipelines keep the best network seen under this ordering.
    """
    if network_kind(network) == "xmg":
        return (network.num_maj(), network.num_gates(), network.depth())
    return (network.num_gates(), network.depth())


def transitive_fanin(
    network: LogicNetwork, roots: Iterable[int]
) -> Set[int]:
    """All gate nodes reachable (fanin-wards) from ``roots``, inclusive."""
    seen: Set[int] = set()
    stack = [node for node in roots if network.is_gate(node)]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        for fanin in network.fanins(node):
            fanin_node = lit_node(fanin)
            if network.is_gate(fanin_node):
                stack.append(fanin_node)
    return seen
