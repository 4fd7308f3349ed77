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

Truth-table extraction (:func:`cut_truth_tables`) simulates *all* cuts of
a batch column-parallel over the whole network in one NumPy value matrix:
the per-cut cones of a priority-cut enumeration are tiny (a handful of
nodes), so the fixed per-cut Python overhead of a cone walk, not the walk
itself, would dominate.  Extraction flattens :class:`~repro.logic.aig.Aig`
and :class:`~repro.logic.xmg.Xmg` networks and rejects any other class
with :class:`TypeError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.logic.lits import lit_node
from repro.logic.network import LogicNetwork
from repro.logic.truth_table import tt_mask, tt_var, tt_var_words
from repro.utils.bitops import bit_count

__all__ = [
    "Cut",
    "enumerate_cuts",
    "cut_truth_table",
    "cut_truth_tables",
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
# Vectorised cut simulation
#
# A priority-cut enumeration yields thousands of cuts whose cones average
# only a few nodes each, so per-cut Python overhead — dict walks, big-int
# boxing, eval_gate dispatch — dominates extraction cost.  The kernel below
# removes it by simulating *all* cuts of a batch at once: one value matrix
# of shape (nodes × cuts) holds, per column, the network simulated in the
# cut's leaf space.  Rows are permuted level-contiguously so each
# (level, gate kind) group is evaluated with three or four whole-matrix
# NumPy ops (gather fanin rows, apply complement masks, combine); before a
# level's consumers run, the leaf rows of every cut whose leaves sit at the
# previous level are overwritten with the projection patterns.  Because all
# columns share the width of the widest cut, complement masks are uniform
# words; each result is truncated to its own cut's 2**num_leaves bits at
# extraction.  Non-cone rows compute garbage, which is harmless: extraction
# reads only root rows, and every path from a root stops at overridden
# leaf rows.
# ---------------------------------------------------------------------------

_KIND_AND, _KIND_XOR, _KIND_MAJ = 0, 1, 2

#: Soft bound on the value-matrix size of one simulation chunk; batches
#: whose (nodes × cuts × words) matrix would exceed it are split.
_BATCH_BYTES_LIMIT = 1 << 26

_KERNEL_CACHE_ATTR = "_cut_kernel_cache"


class _NetworkKernel:
    """Flattened, simulation-ready view of one AIG/XMG, cached per network.

    Built once per network (node count keyed — networks are append-only,
    so an unchanged count means unchanged structure) and reused across
    batches; the per-``k`` level/group metadata is cached lazily inside.
    """

    __slots__ = (
        "num_nodes", "max_level", "lvl", "perm", "order",
        "kind_list", "fanin_lits", "_meta",
    )

    def __init__(self, network: LogicNetwork, num: int) -> None:
        self._meta: Dict[int, Any] = {}
        self.num_nodes = num
        kind_list = [-1] * num
        fanin_lits: List[Tuple[int, ...]] = [()] * num
        is_xmg = network.network_type == "xmg"
        for node in range(num):
            if not network.is_gate(node):
                continue
            if not is_xmg:
                kind = _KIND_AND
            elif network.is_maj(node):
                kind = _KIND_MAJ
            else:
                kind = _KIND_XOR
            kind_list[node] = kind
            fanin_lits[node] = tuple(network.fanins(node))

        lvl = np.zeros(num, dtype=np.int64)
        for node, level in network.levels().items():
            lvl[node] = level
        # Rows sorted by (level, kind): levels are contiguous and, within
        # a level, each gate kind forms one contiguous slice.
        kind_arr = np.array(kind_list, dtype=np.int64)
        order = np.lexsort((kind_arr, lvl))
        perm = np.empty(num, dtype=np.int64)
        perm[order] = np.arange(num)

        self.lvl = lvl
        self.order = order
        self.perm = perm
        self.max_level = int(lvl.max()) if num else 0
        self.kind_list = kind_list
        self.fanin_lits = fanin_lits

    # -- per-k simulation metadata ------------------------------------------

    @staticmethod
    def _dtype_for(kmax: int) -> Tuple[Any, int]:
        """Narrowest word dtype holding a 2**kmax-bit table (+ word count)."""
        if kmax <= 3:
            return np.uint8, 1
        if kmax == 4:
            return np.uint16, 1
        if kmax == 5:
            return np.uint32, 1
        return np.uint64, max(1, 1 << (kmax - 6))

    def _sim_meta(self, kmax: int) -> Any:
        meta = self._meta.get(kmax)
        if meta is not None:
            return meta
        dtype, width = self._dtype_for(kmax)
        full = dtype(~dtype(0))
        lvl_sorted = self.lvl[self.order]
        kind_sorted = np.array(self.kind_list, dtype=np.int64)[self.order]
        groups: List[List[Tuple[int, int, int, List[np.ndarray], List[Any]]]] = [
            [] for _ in range(self.max_level + 1)
        ]
        max_group = 0
        gate_rows = np.nonzero(kind_sorted >= 0)[0]
        if gate_rows.size:
            # Split the sorted gate rows into maximal runs of equal
            # (level, kind); each run becomes one vectorised group.
            keys_lvl = lvl_sorted[gate_rows]
            keys_kind = kind_sorted[gate_rows]
            breaks = np.nonzero(
                (np.diff(keys_lvl) != 0) | (np.diff(keys_kind) != 0)
            )[0] + 1
            starts = np.concatenate(([0], breaks))
            ends = np.concatenate((breaks, [gate_rows.size]))
            for s, e in zip(starts, ends):
                rows = gate_rows[s:e]
                start, end = int(rows[0]), int(rows[-1]) + 1
                level = int(keys_lvl[s])
                kind = int(keys_kind[s])
                nodes = self.order[start:end]
                arity = 3 if kind == _KIND_MAJ else 2
                idx: List[np.ndarray] = []
                cmask: List[Any] = []
                for slot in range(arity):
                    lits = np.array(
                        [self.fanin_lits[n][slot] for n in nodes],
                        dtype=np.int64,
                    )
                    idx.append(self.perm[lits >> 1])
                    cmask.append(
                        ((lits & 1).astype(dtype) * full)[:, None]
                    )
                groups[level].append((kind, start, end, idx, cmask))
                max_group = max(max_group, end - start)
        # Leaf projection patterns: row i is variable i of the kmax-space,
        # as `width` words of `dtype`.
        if width == 1:
            vars_rows = np.array(
                [tt_var(i, kmax) for i in range(kmax)], dtype=dtype
            ).reshape(kmax, 1)
        else:
            vars_rows = np.stack(
                [tt_var_words(i, kmax) for i in range(kmax)]
            )
        # Truncation masks indexed by leaf count: a cut with ``nv`` leaves
        # keeps only its low ``2^nv`` table bits.  Single-word tables mask
        # vectorised (the dtype always fits ``tt_mask(kmax)``); multi-word
        # tables mask after big-int reassembly.
        if width == 1:
            masks: Any = np.array(
                [tt_mask(nv) for nv in range(kmax + 1)], dtype=dtype
            )
        else:
            masks = [tt_mask(nv) for nv in range(kmax + 1)]
        meta = (dtype, width, groups, max_group, vars_rows, masks)
        self._meta[kmax] = meta
        return meta

    # -- batch simulation ----------------------------------------------------

    def truth_tables(self, cuts: Sequence[Cut]) -> List[int]:
        num_cuts = len(cuts)
        if not num_cuts:
            return []
        counts = np.fromiter(
            (len(cut.leaves) for cut in cuts), np.int64, num_cuts
        )
        kmax = max(int(counts.max()), 1)
        dtype, width, _, _, _, _ = self._sim_meta(kmax)
        row_bytes = max(1, self.num_nodes) * width * np.dtype(dtype).itemsize
        chunk = max(1, _BATCH_BYTES_LIMIT // row_bytes)
        results: List[int] = []
        for start in range(0, num_cuts, chunk):
            results.extend(
                self._simulate(
                    cuts[start:start + chunk],
                    counts[start:start + chunk],
                    kmax,
                )
            )
        return results

    def _simulate(
        self, cuts: Sequence[Cut], counts: np.ndarray, kmax: int
    ) -> List[int]:
        dtype, width, groups, max_group, vars_rows, masks = self._sim_meta(
            kmax
        )
        num_cuts = len(cuts)
        roots = np.fromiter((cut.root for cut in cuts), np.int64, num_cuts)
        total = int(counts.sum())

        # One scatter triple (row, cut, pattern) per leaf instance, sorted
        # by leaf level so each level's overrides form a slice.
        leaf_node = np.fromiter(
            (leaf for cut in cuts for leaf in cut.leaves), np.int64, total
        )
        leaf_cut = np.repeat(np.arange(num_cuts), counts)
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        leaf_pos = np.arange(total) - offsets  # variable index per instance
        leaf_row = self.perm[leaf_node] if total else leaf_node
        leaf_lvl = self.lvl[leaf_node] if total else leaf_node
        by_level = np.argsort(leaf_lvl, kind="stable")
        leaf_row = leaf_row[by_level]
        leaf_cut = leaf_cut[by_level]
        leaf_pos = leaf_pos[by_level]
        bounds = np.searchsorted(
            leaf_lvl[by_level], np.arange(self.max_level + 2)
        )

        value = np.zeros((self.num_nodes, num_cuts * width), dtype=dtype)
        scratch = [
            np.empty((max_group, num_cuts * width), dtype=dtype)
            for _ in range(3)
        ] if max_group else []
        word_cols = np.arange(width)

        def scatter(level: int) -> None:
            s, e = bounds[level], bounds[level + 1]
            if e <= s:
                return
            if width == 1:
                value[leaf_row[s:e], leaf_cut[s:e]] = vars_rows[leaf_pos[s:e], 0]
            else:
                cols = leaf_cut[s:e, None] * width + word_cols
                value[leaf_row[s:e, None], cols] = vars_rows[leaf_pos[s:e]]

        scatter(0)
        for level in range(1, self.max_level + 1):
            for kind, start, end, idx, cmask in groups[level]:
                size = end - start
                out = value[start:end]
                np.take(value, idx[0], axis=0, out=out)
                out ^= cmask[0]
                op1 = scratch[0][:size]
                np.take(value, idx[1], axis=0, out=op1)
                op1 ^= cmask[1]
                if kind == _KIND_AND:
                    out &= op1
                elif kind == _KIND_XOR:
                    out ^= op1
                else:  # MAJ(a, b, c) == (a & (b ^ c)) ^ (b & c)
                    op2 = scratch[1][:size]
                    np.take(value, idx[2], axis=0, out=op2)
                    op2 ^= cmask[2]
                    mix = scratch[2][:size]
                    np.bitwise_xor(op1, op2, out=mix)
                    out &= mix
                    op1 &= op2
                    out ^= op1
            scatter(level)

        root_rows = self.perm[roots]
        if width == 1:
            words = value[root_rows, np.arange(num_cuts)]
            words &= masks[counts]
            return words.tolist()
        cols = np.arange(num_cuts)[:, None] * width + word_cols
        rows = np.ascontiguousarray(value[root_rows[:, None], cols], dtype="<u8")
        return [
            int.from_bytes(rows[ci].tobytes(), "little") & masks[nv]
            for ci, nv in enumerate(counts.tolist())
        ]


def _network_kernel(network: LogicNetwork) -> _NetworkKernel:
    """The cached :class:`_NetworkKernel` of an AIG or XMG."""
    if getattr(network, "network_type", None) not in ("aig", "xmg"):
        raise TypeError(
            f"cut truth tables need an Aig or Xmg, got {type(network).__name__}"
        )
    num = len(network.nodes())
    cached = getattr(network, _KERNEL_CACHE_ATTR, None)
    if isinstance(cached, _NetworkKernel) and cached.num_nodes == num:
        return cached
    kernel = _NetworkKernel(network, num)
    setattr(network, _KERNEL_CACHE_ATTR, kernel)
    return kernel


def cut_truth_table(network: LogicNetwork, cut: Cut) -> int:
    """Integer truth table of the cut root expressed over its leaves.

    Leaf ``i`` of the cut corresponds to variable ``i`` of the truth
    table; an improper cut (leaves that do not cut the root's cone)
    raises :class:`ValueError`.  Single-cut extraction walks the cone over
    the flattened kernel arrays; use :func:`cut_truth_tables` to evaluate
    many cuts of one network — the LUT covering's inner loop —
    column-parallel.
    """
    kernel = _network_kernel(network)
    num_vars = len(cut.leaves)
    mask = tt_mask(num_vars)
    tables: Dict[int, int] = {0: 0}
    for i, leaf in enumerate(cut.leaves):
        tables[leaf] = tt_var(i, num_vars)

    kind_list = kernel.kind_list
    fanin_lits = kernel.fanin_lits
    num_nodes = kernel.num_nodes
    stack = [cut.root]
    while stack:
        node = stack[-1]
        if node in tables:
            stack.pop()
            continue
        kind = kind_list[node] if 0 <= node < num_nodes else -1
        if kind < 0:
            raise ValueError(
                f"node {node} is not inside the cone of cut {cut}: "
                "cut leaves do not form a proper cut"
            )
        fanins = fanin_lits[node]
        pending = [f >> 1 for f in fanins if f >> 1 not in tables]
        if pending:
            stack.extend(pending)
            continue
        a = tables[fanins[0] >> 1] ^ (mask if fanins[0] & 1 else 0)
        b = tables[fanins[1] >> 1] ^ (mask if fanins[1] & 1 else 0)
        if kind == _KIND_AND:
            tables[node] = a & b
        elif kind == _KIND_XOR:
            tables[node] = a ^ b
        else:
            c = tables[fanins[2] >> 1] ^ (mask if fanins[2] & 1 else 0)
            tables[node] = (a & (b ^ c)) ^ (b & c)
        stack.pop()

    return tables[cut.root]


def cut_truth_tables(network: LogicNetwork, cuts: Sequence[Cut]) -> List[int]:
    """Truth tables of many cuts of one network, simulated column-parallel.

    Equivalent to ``[cut_truth_table(network, c) for c in cuts]`` but the
    whole batch is evaluated in one NumPy value matrix (see the module
    notes), which is what makes :func:`lut_map` fast: per-cut cost drops
    from a big-int cone walk to a few matrix-column operations.  Cuts must
    be proper (as produced by :func:`enumerate_cuts`); unlike the
    single-cut entry point, the batch path does not diagnose improper
    cuts.
    """
    cuts = list(cuts)
    if not cuts:
        return []
    return _network_kernel(network).truth_tables(cuts)


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
    gate's best cut outlive the sweep, and :class:`Cut` objects are built
    for the chosen LUTs only, so covering memory follows the network's
    frontier (see the module notes).

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

    required: Set[int] = set()
    stack = [lit_node(po) for po in network.pos()]
    chosen: List[Cut] = []
    while stack:
        node = stack.pop()
        if node in required or node == 0 or network.is_pi(node):
            continue
        required.add(node)
        leaves = best_leaves[node]
        chosen.append(Cut(node, leaves))
        stack.extend(leaves)

    # One column-parallel batch instead of one big-int cone walk per LUT.
    tables = cut_truth_tables(network, chosen)
    luts: Dict[int, Tuple[Tuple[int, ...], int]] = {
        cut.root: (cut.leaves, truth) for cut, truth in zip(chosen, tables)
    }

    order = [node for node in network.nodes() if node in luts]
    return LutMapping(k=k, aig=network, luts=luts, order=order)
