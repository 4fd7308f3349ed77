"""k-feasible cut enumeration and LUT covering for logic networks.

Cut enumeration is the engine behind the ``xmglut`` analogue
(:mod:`repro.logic.xmg_mapping`): the AIG is covered by k-input LUTs and each
LUT function is then resynthesised into XOR/majority primitives.

Cut enumeration is written against the
:class:`~repro.logic.network.LogicNetwork` protocol, not against
:class:`~repro.logic.aig.Aig`: cut merging iterates whatever fanin tuple a
gate reports (two for AND/XOR, three for MAJ).  The same machinery
therefore covers AIGs for the LUT/pebbling flow *and* XMGs for the
cut-based MAJ refactoring pass of :mod:`repro.opt`.

The implementation follows the standard *priority cuts* scheme: every node
keeps at most ``max_cuts`` cuts of at most ``k`` leaves, obtained by merging
the cut sets of its fanins; the trivial cut ``{node}`` is always kept (last)
and counts against the bound.  Dominated cuts — cuts whose leaf set is a
strict superset of another cut's leaves at the same node — are filtered out
before the priority truncation: they can never lead to a better cover and
would otherwise crowd useful cuts out of the bounded priority list.  A
node's list lives only until its last gate fanout has merged it, so
enumeration and covering hold the cuts of the network's frontier, not of
the whole network.

Truth-table extraction (:func:`cut_truth_table`) walks one cut's cone,
root to leaves, and evaluates it on big-int truth tables over the leaves;
:func:`lut_map` runs it once per chosen LUT, so extraction is linear in
the cover.  It reads :class:`~repro.logic.aig.Aig` and
:class:`~repro.logic.xmg.Xmg` networks and rejects any other class with
:class:`TypeError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.logic.lits import lit_node
from repro.logic.network import LogicNetwork
from repro.logic.truth_table import tt_mask, tt_var
from repro.utils.bitops import bit_count

__all__ = [
    "Cut",
    "enumerate_cuts",
    "cut_truth_table",
    "cut_enumeration_cache_stats",
    "LutMapping",
    "lut_map",
]


@dataclass(frozen=True)
class Cut:
    """A cut of an AIG node: the node it covers and its leaf set."""

    root: int
    leaves: Tuple[int, ...]

    def size(self) -> int:
        """Number of leaves."""
        return len(self.leaves)


# ---------------------------------------------------------------------------
# Frontier-memory cut enumeration
#
# A node's cut set depends only on the cut sets of its fanins, so one
# topological sweep computes every node's priority list and can forget a
# list as soon as its last gate fanout has merged it, as ABC's priority cuts
# do.  :func:`_selected_cuts` is that sweep: it hands each node's selected
# cuts to its consumer and keeps only the lists still to be merged, so its
# memory follows the frontier of the network, not its size.
# :func:`lut_map` keeps one leaf tuple per gate from it and builds
# :class:`Cut` objects for the chosen LUTs only; :func:`enumerate_cuts`
# collects every list.  Nothing outlives a call.
#
# Merging screens cuts on *leaf signatures*, as ABC's priority cuts do: one
# 64-bit word ORing ``1 << (leaf & 63)`` over a cut's leaves.  More than k
# bits in the OR of two signatures prove their union too large, and a cut
# whose signature is not a subset of another's cannot dominate it, so most
# fanin combinations and dominance pairs never touch a leaf tuple (INTDIV(8)
# cold: 131 -> 40 ms, see docs/architecture.md).
# ---------------------------------------------------------------------------

_ENUM_STATS = {"hits": 0, "misses": 0, "nodes_reused": 0, "nodes_computed": 0}


def cut_enumeration_cache_stats() -> Dict[str, int]:
    """Counters of the cut enumerations run in this process.

    ``misses`` counts enumerations and ``nodes_computed`` the nodes they
    processed (every node but the constant).  Enumerations share nothing,
    so ``hits`` and ``nodes_reused`` stay 0; the keys keep the shape
    benchmark reports read.
    """
    return dict(_ENUM_STATS)


#: A cut as the enumerator merges it: ``(signature, leaves, level)``, with
#: ``level`` the largest leaf level (0 for no leaves).
_CutView = Tuple[int, Tuple[int, ...], int]


def _cut_view(leaves: Tuple[int, ...], levels: Dict[int, int]) -> _CutView:
    signature = 0
    for leaf in leaves:
        signature |= 1 << (leaf & 63)
    return signature, leaves, max((levels[leaf] for leaf in leaves), default=0)


def _merge(left: List[_CutView], right: List[_CutView], k: int) -> List[_CutView]:
    """Distinct unions of one cut of each list with at most ``k`` leaves."""
    merged: Dict[Tuple[int, ...], _CutView] = {}
    for sig0, leaves0, level0 in left:
        for sig1, leaves1, level1 in right:
            signature = sig0 | sig1
            if bit_count(signature) <= k:
                leaves = tuple(sorted({*leaves0, *leaves1}))
                if len(leaves) <= k:
                    level = level0 if level0 > level1 else level1
                    merged[leaves] = (signature, leaves, level)
    return list(merged.values())


def _priority_cuts(
    candidates: List[_CutView], trivial: _CutView, max_cuts: int,
    best_area: Optional[Dict[int, int]],
) -> List[_CutView]:
    """One node's undominated cuts in priority order, trivial cut last.

    Candidates sort by ``(size, level, leaves)``, after area flow when
    ``best_area`` is given.  Leaf areas are non-negative, so either order
    puts a strict subset before its supersets: only an already kept cut
    can dominate a candidate, and the scan stops at ``max_cuts`` kept.
    A constant gate's empty cut dominates all others, the trivial one too.
    """
    keyed = sorted(
        (0 if best_area is None else 1 + sum([best_area[leaf] for leaf in leaves]),
         len(leaves), level, leaves, signature)
        for signature, leaves, level in candidates
    )
    kept: List[_CutView] = []
    for _, _, level, leaves, signature in keyed:
        for kept_signature, kept_leaves, _ in kept:
            if not kept_signature & ~signature and set(kept_leaves).issubset(leaves):
                break
        else:
            kept.append((signature, leaves, level))
            if len(kept) == max_cuts:
                break
    if kept and not kept[0][1]:
        return kept
    return kept[: max_cuts - 1] + [trivial]


def _selected_cuts(
    network: LogicNetwork, k: int, max_cuts: int, selection: str
) -> Iterator[Tuple[int, List[_CutView]]]:
    """Yield ``(node, selected cuts)`` for every node in topological order.

    The enumeration body of :func:`enumerate_cuts` (same contract); a
    node's list is dropped once its last gate fanout has merged it, and
    the yielded lists must not be mutated.
    """
    if k < 2:
        raise ValueError("cut size must be at least 2")
    if max_cuts < 1:
        raise ValueError("max_cuts must be at least 1")
    if selection not in ("depth", "area"):
        raise ValueError(
            f"unknown cut selection policy {selection!r}; "
            "expected 'depth' or 'area'"
        )
    _ENUM_STATS["misses"] += 1
    levels = network.levels()
    # Area flow of the best cut of every processed node (PIs cost nothing).
    best_area: Optional[Dict[int, int]] = {0: 0} if selection == "area" else None
    # Gate fanouts still to merge each node's list; outputs never read one.
    fanouts = network.fanout_counts()
    for po in network.pos():
        fanouts[lit_node(po)] -= 1
    views: Dict[int, List[_CutView]] = {0: [(0, (), 0)]}
    yield 0, views[0]

    for node in network.nodes():
        if node == 0:
            continue
        _ENUM_STATS["nodes_computed"] += 1
        trivial = _cut_view((node,), levels)
        if network.is_pi(node):
            selected = [trivial]
            if best_area is not None:
                best_area[node] = 0
        else:
            candidates: Optional[List[_CutView]] = None
            for fanin in map(lit_node, network.fanins(node)):
                fanouts[fanin] -= 1
                view = views[fanin] if fanouts[fanin] else views.pop(fanin)
                candidates = view if candidates is None else _merge(candidates, view, k)
            selected = _priority_cuts(candidates, trivial, max_cuts, best_area)
            if best_area is not None:
                # Area flow of the best cut; the trivial cut (its own leaf) costs 1.
                best = selected[0][1]
                best_area[node] = 1 + sum([best_area[leaf] for leaf in best if leaf != node])
        if fanouts[node] > 0:
            views[node] = selected
        yield node, selected


def enumerate_cuts(
    network: LogicNetwork, k: int = 4, max_cuts: int = 8, selection: str = "depth"
) -> Dict[int, List[Cut]]:
    """Enumerate up to ``max_cuts`` k-feasible cuts for every node.

    ``network`` is any :class:`~repro.logic.network.LogicNetwork` (AIG or
    XMG); cut merging combines one cut per fanin, however many fanins the
    gate has.  Returns a mapping from node index to its cut list.  The
    first cut of every node is its *best* cut under the ``selection``
    policy; the trivial cut is always included last and counts against the
    ``max_cuts`` bound, so no node ever carries more than ``max_cuts``
    cuts.  Dominated cuts (leaf supersets of another cut at the same node)
    are filtered before the priority truncation; leaf signatures screen
    merges and dominance pairs first (see the module notes above).

    ``selection`` orders each node's priority list:

    * ``"depth"`` (default) — by (size, estimated depth): small shallow
      cuts first, the historical order the XMG mapping builds on,
    * ``"area"``  — by *area flow*: the estimated number of LUTs a cover
      through the cut instantiates (``1 +`` the best-cut areas of its
      leaves), so the best cut genuinely minimises LUT count and the LUT
      size ``k`` becomes an area knob.

    Builds a :class:`Cut` for every kept cut of every node; :func:`lut_map`
    runs the same enumeration but keeps only each gate's best cut.
    """
    return {
        node: [Cut(node, leaves) for _, leaves, _ in selected]
        for node, selected in _selected_cuts(network, k, max_cuts, selection)
    }


# ---------------------------------------------------------------------------
# Cut simulation
#
# A cut's function is read off its cone: the nodes between the root and the
# leaves, walked root to leaves and evaluated bottom-up on big-int truth
# tables over the cut's leaves.  The cones of priority cuts are a handful of
# nodes, so one walk per chosen LUT costs time and memory linear in the
# cover, never in the size of the whole network.
# ---------------------------------------------------------------------------


def cut_truth_table(network: LogicNetwork, cut: Cut) -> int:
    """Integer truth table of the cut root expressed over its leaves.

    Leaf ``i`` of the cut corresponds to variable ``i`` of the truth
    table.  ``network`` must be an :class:`~repro.logic.aig.Aig` or an
    :class:`~repro.logic.xmg.Xmg` (anything else raises
    :class:`TypeError`); an improper cut (leaves that do not cut the
    root's cone) raises :class:`ValueError`.
    """
    network_type = getattr(network, "network_type", None)
    if network_type not in ("aig", "xmg"):
        raise TypeError(
            f"cut truth tables need an Aig or Xmg, got {type(network).__name__}"
        )
    and_gates = network_type == "aig"
    num_nodes = len(network.nodes())
    num_vars = len(cut.leaves)
    mask = tt_mask(num_vars)
    tables: Dict[int, int] = {0: 0}
    for i, leaf in enumerate(cut.leaves):
        tables[leaf] = tt_var(i, num_vars)

    stack = [cut.root]
    while stack:
        node = stack[-1]
        if node in tables:
            stack.pop()
            continue
        if not (0 <= node < num_nodes and network.is_gate(node)):
            raise ValueError(
                f"node {node} is not inside the cone of cut {cut}: "
                "cut leaves do not form a proper cut"
            )
        fanins = network.fanins(node)
        pending = [f >> 1 for f in fanins if f >> 1 not in tables]
        if pending:
            stack.extend(pending)
            continue
        a = tables[fanins[0] >> 1] ^ (mask if fanins[0] & 1 else 0)
        b = tables[fanins[1] >> 1] ^ (mask if fanins[1] & 1 else 0)
        if len(fanins) == 3:  # MAJ(a, b, c) == (a & (b ^ c)) ^ (b & c)
            c = tables[fanins[2] >> 1] ^ (mask if fanins[2] & 1 else 0)
            tables[node] = (a & (b ^ c)) ^ (b & c)
        elif and_gates:
            tables[node] = a & b
        else:
            tables[node] = a ^ b
        stack.pop()

    return tables[cut.root]


@dataclass
class LutMapping:
    """Result of a LUT covering: one LUT per selected root node.

    All node indices refer to ``aig`` (the cleaned copy of the covered
    network — historically always an AIG, hence the field name; the
    :attr:`network` alias reads better for XMG covers), not to the network
    originally passed to :func:`lut_map`.
    """

    k: int
    aig: LogicNetwork
    # root node -> (leaf nodes, truth table over the leaves)
    luts: Dict[int, Tuple[Tuple[int, ...], int]] = field(default_factory=dict)
    # topological order of the LUT roots
    order: List[int] = field(default_factory=list)
    # root -> dependencies(root), filled on first use (luts never change)
    _deps: Dict[int, Tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def network(self) -> LogicNetwork:
        """The covered network (alias of the historical ``aig`` field)."""
        return self.aig

    def num_luts(self) -> int:
        """Number of LUTs in the cover."""
        return len(self.luts)

    def dependencies(self, root: int) -> Tuple[int, ...]:
        """Leaves of ``root``'s LUT that are themselves LUT roots.

        Primary-input leaves carry their value on a circuit line at all
        times, so they never constrain a pebbling schedule; the returned
        tuple is exactly the set of LUTs whose values must be available
        (pebbled) for ``root`` to be computed or uncomputed.
        """
        if root not in self._deps:
            leaves, _ = self.luts[root]
            self._deps[root] = tuple(leaf for leaf in leaves if leaf in self.luts)
        return self._deps[root]

    def lut_cone(self, root: int) -> List[int]:
        """LUT roots in the transitive fanin of ``root`` (inclusive).

        Returned in topological order (node indices are topological in the
        underlying AIG).  ``root`` may be a primary input or the constant
        node, in which case the cone is empty.
        """
        if root not in self.luts:
            return []
        seen: Set[int] = set()
        stack = [root]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.dependencies(node))
        return sorted(seen)

    def lut_levels(self) -> Dict[int, int]:
        """Logic level of every LUT in the LUT DAG (leaf LUTs at level 0)."""
        levels: Dict[int, int] = {}
        for root in self.order:
            deps = self.dependencies(root)
            levels[root] = 1 + max((levels[d] for d in deps), default=-1)
        return levels

    def lut_fanout_counts(self) -> Dict[int, int]:
        """Number of LUT DAG consumers of every LUT (POs count as consumers)."""
        counts: Dict[int, int] = {root: 0 for root in self.luts}
        for root in self.order:
            for dep in self.dependencies(root):
                counts[dep] += 1
        for po in self.aig.pos():
            node = lit_node(po)
            if node in counts:
                counts[node] += 1
        return counts

    def depth(self) -> int:
        """Number of LUT levels on the longest path to any output."""
        levels = self.lut_levels()
        return 1 + max(levels.values()) if levels else 0


def lut_map(
    network: LogicNetwork,
    k: int = 4,
    max_cuts: int = 8,
    selection: str = "depth",
    cleanup: bool = True,
) -> LutMapping:
    """Cover a logic network with k-input LUTs (greedy covering from the outputs).

    Every node first receives a *best cut* of its priority list; the cover
    is then chosen by walking backwards from the primary outputs and
    instantiating the best cut of every required node.  ``selection`` picks
    the best-cut policy:

    * ``"depth"`` (default) — small shallow cuts; many small LUTs, the
      historical behaviour the XMG mapping builds on,
    * ``"area"`` — area-flow ordering (see :func:`enumerate_cuts`): the
      cover instantiates the fewest LUTs the priority lists allow, which is
      what makes the LUT size ``k`` an actual area knob for the LUT-based
      pebbling flow and for the cut-based XMG refactoring pass.

    The enumeration streams into the cover: only the leaves of each
    gate's best cut outlive the sweep, and each chosen LUT's table comes
    from one walk of its own cone (:func:`cut_truth_table`), so covering
    memory follows the network's frontier and the cover, never nodes ×
    LUTs (see the module notes).

    ``cleanup=False`` skips the initial dead-node sweep; callers passing an
    already-cleaned network (the XMG refactoring pass) avoid rebuilding it.
    """
    if cleanup:
        network = network.cleanup()

    best_leaves: Dict[int, Tuple[int, ...]] = {}
    for node, selected in _selected_cuts(network, k, max_cuts, selection):
        if not network.is_gate(node):
            continue
        # Prefer non-trivial cuts; the enumeration could otherwise
        # select the trivial single-leaf cut.
        trivial = (node,)
        leaves = next((cut for _, cut, _ in selected if cut != trivial), None)
        if leaves is None:
            # Only the self-cut is left: the gate's fanin arity
            # exceeds k, so no cover can express it (a cover through
            # an ancestor cut would need a non-trivial cut here too).
            # Fail loudly instead of emitting a self-referential LUT.
            raise ValueError(
                f"cut size k={k} cannot cover node {node} with "
                f"{len(network.fanins(node))} fanins; increase k to "
                "at least the largest gate arity"
            )
        best_leaves[node] = leaves

    # One cone walk per chosen LUT: extraction is linear in the cover.
    luts: Dict[int, Tuple[Tuple[int, ...], int]] = {}
    stack = [lit_node(po) for po in network.pos()]
    while stack:
        node = stack.pop()
        if node in luts or node == 0 or network.is_pi(node):
            continue
        leaves = best_leaves[node]
        luts[node] = (leaves, cut_truth_table(network, Cut(node, leaves)))
        stack.extend(leaves)

    order = [node for node in network.nodes() if node in luts]
    return LutMapping(k=k, aig=network, luts=luts, order=order)
