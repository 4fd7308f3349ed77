"""Oracles for the logic-level kernels: protocol cone walks, cut tables,
PSDKRO, minimum-cost ESOPs, network simulation by per-minterm walks and
by every node's truth table, AIG cleanup and refactoring, and the XMG
constructors and cleanup."""

import heapq
import itertools
from typing import Dict, List, Sequence, Set, Tuple

from repro.logic.aig import Aig, lit_is_compl, lit_node, lit_not, make_lit
from repro.logic.cube import Cube
from repro.logic.cuts import Cut
from repro.logic.lits import lit_not_cond
from repro.logic.network import LogicNetwork
from repro.logic.sop import Expression, expression_literal_count, factor_cubes, isop
from repro.logic.truth_table import (
    TruthTable,
    tt_cofactor0,
    tt_cofactor1,
    tt_mask,
    tt_support,
    tt_var,
)
from repro.logic.xmg import _KIND_MAJ as XMG_KIND_MAJ
from repro.logic.xmg import _KIND_XOR as XMG_KIND_XOR
from repro.logic.xmg import Xmg
from repro.quantum.tcount import mct_t_count

# ---------------------------------------------------------------------------
# protocol cone walks
# ---------------------------------------------------------------------------
#
# The generic cone collection and cone truth table over the LogicNetwork
# protocol, one method call per node visit.  The AIG passes walk their
# cones on the flat fanin arrays instead; the reference passes below use
# these.


def collect_cone(
    network: LogicNetwork, root: int, stops: Set[int]
) -> Tuple[List[int], List[int]]:
    """Leaves and internal nodes of the cone of ``root``.

    The traversal stops at primary inputs, the constant node and at any
    node in ``stops`` (other than the root itself).  Both lists are sorted
    ascending, which is topological order for internal nodes.  The
    constant node is never reported as a leaf — it is not a cone
    variable; :func:`cone_truth_table` evaluates it as the fixed value 0.
    XMGs reach it routinely (MAJ with a constant operand is how AND/OR
    are represented), so reporting it would silently inflate the cone
    arity.
    """
    leaves: List[int] = []
    internal: List[int] = []
    seen: Set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if node != root and (node in stops or not network.is_gate(node)):
            if not network.is_const(node):
                leaves.append(node)
            continue
        internal.append(node)
        for fanin in network.fanins(node):
            stack.append(lit_node(fanin))
    internal.sort()
    leaves.sort()
    return leaves, internal


def cone_truth_table(
    network: LogicNetwork,
    root: int,
    leaves: Sequence[int],
    internal: Sequence[int],
) -> int:
    """Truth table of ``root`` over its cone leaves (leaf ``i`` = variable ``i``).

    ``internal`` must contain every gate between the leaves and the root in
    topological (ascending) order — exactly what :func:`collect_cone`
    returns.  Evaluation is iterative and dispatches per-node through
    :meth:`LogicNetwork.eval_gate`, so it works for AND, MAJ and XOR nodes
    alike.
    """
    num_vars = len(leaves)
    mask = tt_mask(num_vars)
    tables: Dict[int, int] = {0: 0}
    for i, leaf in enumerate(leaves):
        tables[leaf] = tt_var(i, num_vars)

    for node in internal:
        operands = [
            tables[lit_node(f)] ^ (mask if lit_is_compl(f) else 0)
            for f in network.fanins(node)
        ]
        tables[node] = network.eval_gate(node, operands) & mask
    return tables[root]


# ---------------------------------------------------------------------------
# cut truth tables
# ---------------------------------------------------------------------------


def cut_truth_table_reference(network: LogicNetwork, cut: Cut) -> int:
    """Integer truth table of the cut root via the protocol cone walk.

    Leaf ``i`` of the cut corresponds to variable ``i`` of the truth table.
    Node evaluation goes through
    :meth:`~repro.logic.network.LogicNetwork.eval_gate`, so AND, MAJ and XOR
    cones are all supported.
    """
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
        if not network.is_gate(node):
            raise ValueError(f"node {node} is not inside the cone of cut {cut}")
        fanins = network.fanins(node)
        pending = [lit_node(f) for f in fanins if lit_node(f) not in tables]
        if pending:
            stack.extend(pending)
            continue
        operands = [
            tables[lit_node(f)] ^ (mask if lit_is_compl(f) else 0) for f in fanins
        ]
        tables[node] = network.eval_gate(node, operands) & mask
        stack.pop()
    return tables[cut.root]


# ---------------------------------------------------------------------------
# priority-cut enumeration
# ---------------------------------------------------------------------------


def filter_dominated_cuts_reference(cuts: Sequence[Cut]) -> List[Cut]:
    """Remove dominated cuts, preserving the input order.

    A cut is *dominated* when another cut of the same node has a strict
    subset of its leaves.  Identical leaf sets are kept once (the first
    occurrence wins).  The input need not be sorted: a later cut also
    drops every earlier kept cut it dominates.
    """
    kept: List[Cut] = []
    kept_leaves: List[Set[int]] = []
    for cut in cuts:
        leaves = set(cut.leaves)
        if any(other <= leaves for other in kept_leaves):
            continue
        survivors = [
            (kept_cut, kept_set)
            for kept_cut, kept_set in zip(kept, kept_leaves)
            if not leaves < kept_set
        ]
        kept = [cut_ for cut_, _ in survivors] + [cut]
        kept_leaves = [set_ for _, set_ in survivors] + [leaves]
    return kept


def enumerate_cuts_reference(
    network: LogicNetwork, k: int = 4, max_cuts: int = 8, selection: str = "depth"
) -> Dict[int, List[Cut]]:
    """Priority cuts of every node, merged per fanin combination over sets.

    Same contract as :func:`repro.logic.cuts.enumerate_cuts` (best cut
    first, trivial cut last, at most ``max_cuts`` cuts per node), without
    the leaf-signature filter and the frontier-only memory: every
    fanin combination builds its leaf set, every candidate becomes a
    :class:`Cut`, and dominance is filtered pairwise over Python sets.
    """
    cuts: Dict[int, List[Cut]] = {0: [Cut(0, ())]}
    levels = network.levels()
    # Area flow of the best cut of every processed node (PIs cost nothing).
    best_area: Dict[int, int] = {0: 0}
    for node in network.nodes():
        if node == 0:
            continue
        if network.is_pi(node):
            cuts[node] = [Cut(node, (node,))]
            best_area[node] = 0
            continue
        fanin_nodes = [lit_node(f) for f in network.fanins(node)]
        merged: Set[Tuple[int, ...]] = set()
        for combo in itertools.product(*(cuts[f] for f in fanin_nodes)):
            leaf_set: Set[int] = set()
            for cut_ in combo:
                leaf_set.update(cut_.leaves)
            leaves = tuple(sorted(leaf_set))
            if len(leaves) <= k:
                merged.add(leaves)
        candidates = [Cut(node, leaves) for leaves in merged]
        if selection == "area":
            candidates.sort(
                key=lambda cut: (
                    1 + sum(best_area[leaf] for leaf in cut.leaves),
                    cut.size(),
                    max((levels[leaf] for leaf in cut.leaves), default=0),
                    cut.leaves,
                )
            )
        else:
            candidates.sort(
                key=lambda cut: (
                    cut.size(),
                    max((levels[leaf] for leaf in cut.leaves), default=0),
                    cut.leaves,
                )
            )
        # The trivial cut takes part in dominance filtering and counts
        # against the bound.
        trivial = Cut(node, (node,))
        selected = filter_dominated_cuts_reference(candidates + [trivial])
        if len(selected) > max_cuts:
            non_trivial = [c for c in selected if c.leaves != (node,)]
            selected = non_trivial[: max_cuts - 1] + [trivial]
        cuts[node] = selected
        best = selected[0]
        best_area[node] = (
            1 + sum(best_area[leaf] for leaf in best.leaves)
            if best.leaves != (node,)
            else 1
        )
    return cuts


# ---------------------------------------------------------------------------
# PSDKRO extraction
# ---------------------------------------------------------------------------
# minimum-cost ESOP
# ---------------------------------------------------------------------------


def min_esop_costs_reference(num_vars: int) -> List[int]:
    """The least ``rtof`` T-cost of any ESOP, for every truth table.

    A shortest-path search over truth tables: from the empty cover (truth
    0), XOR-ing in a cube with ``k`` literals costs ``mct_t_count(k)``.
    There is no bound on the cube count.  Covers all four-input functions
    in a few seconds.
    """
    cubes = []
    for trits in itertools.product((None, True, False), repeat=num_vars):
        literals = [(x, p) for x, p in enumerate(trits) if p is not None]
        cube = Cube.from_literals(num_vars, literals)
        cubes.append((mct_t_count(len(literals)), cube.truth_table()))
    best = [None] * (1 << (1 << num_vars))
    queue = [(0, 0)]
    while queue:
        cost, truth = heapq.heappop(queue)
        if best[truth] is not None:
            continue
        best[truth] = cost
        for step, table in cubes:
            if best[truth ^ table] is None:
                heapq.heappush(queue, (cost + step, truth ^ table))
    return best


# ---------------------------------------------------------------------------


class _PsdkroExtractor:
    """Recursive PSDKRO extraction through the generic ``tt_*`` helpers.

    At every node the cheapest of Shannon, positive Davio and negative
    Davio on the first support variable is expanded; positive Davio wins
    ties against negative Davio, Shannon only when strictly cheaper.
    """

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self._cache: Dict[int, List[Cube]] = {}

    def expand(self, func: int) -> List[Cube]:
        cached = self._cache.get(func)
        if cached is not None:
            return cached
        if func == 0:
            result: List[Cube] = []
        else:
            support = tt_support(func, self.num_vars)
            if not support:
                result = [Cube.tautology(self.num_vars)]
            else:
                result = self._expand_on_var(func, support[0])
        self._cache[func] = result
        return result

    def _expand_on_var(self, func: int, var: int) -> List[Cube]:
        f0 = tt_cofactor0(func, var, self.num_vars)
        f1 = tt_cofactor1(func, var, self.num_vars)
        cover0 = self.expand(f0)
        cover1 = self.expand(f1)
        cover2 = self.expand(f0 ^ f1)
        candidates = [
            # (cost, free cover, cover gated by a literal, literal polarity)
            (len(cover0) + len(cover2), cover0, cover2, True),  # positive Davio
            (len(cover1) + len(cover2), cover1, cover2, False),  # negative Davio
        ]
        best_cost, free_cover, gated_cover, positive = min(
            candidates, key=lambda item: item[0]
        )
        if len(cover0) + len(cover1) < best_cost:
            result = [cube.with_literal(var, False) for cube in cover0]
            return result + [cube.with_literal(var, True) for cube in cover1]
        result = list(free_cover)
        return result + [cube.with_literal(var, positive) for cube in gated_cover]


def psdkro_cubes_reference(truth: int, num_vars: int) -> List[Cube]:
    """PSDKRO extraction with a fresh memo per call."""
    return _PsdkroExtractor(num_vars).expand(truth & tt_mask(num_vars))


# ---------------------------------------------------------------------------
# network simulation (per-minterm walks and every node's truth table)
# ---------------------------------------------------------------------------
#
# The walks ``Aig`` and ``Xmg`` carried before one reference-counted
# ``simulate_words`` replaced them: one method call per node, every node's
# value kept until the end.


def simulate_minterm(network: LogicNetwork, minterm: int) -> int:
    """Evaluate a network on one input assignment; returns the output word."""
    value = {0: 0}
    for i, pi in enumerate(network.pis()):
        value[lit_node(pi)] = (minterm >> i) & 1

    def lit_value(lit: int) -> int:
        return value[lit_node(lit)] ^ lit_is_compl(lit)

    for node in network.nodes():
        if network.is_gate(node):
            value[node] = network.eval_gate(
                node, [lit_value(f) for f in network.fanins(node)]
            )
    return sum(lit_value(po) << j for j, po in enumerate(network.pos()))


def node_truth_tables(network: LogicNetwork) -> List[int]:
    """Integer truth tables (over all PIs) of every node, none dropped."""
    num_vars = network.num_pis()
    mask = tt_mask(num_vars)
    tables = [0] * len(network.nodes())
    for i, pi in enumerate(network.pis()):
        tables[lit_node(pi)] = tt_var(i, num_vars)

    def lit_table(lit: int) -> int:
        return tables[lit_node(lit)] ^ (mask if lit_is_compl(lit) else 0)

    for node in network.nodes():
        if network.is_gate(node):
            tables[node] = network.eval_gate(
                node, [lit_table(f) for f in network.fanins(node)]
            )
    return tables


def truth_table_by_minterms_reference(network: LogicNetwork) -> TruthTable:
    """The network's truth table by :func:`simulate_minterm` on every minterm."""
    return TruthTable.from_callable(
        lambda minterm: simulate_minterm(network, minterm),
        network.num_pis(),
        network.num_pos(),
    )


# ---------------------------------------------------------------------------
# AIG construction, cleanup and the refactor-based optimisation scripts
# ---------------------------------------------------------------------------
#
# The passes as they stood before the factored form of each cone function
# was memoised and ``Aig.cleanup``/``Aig.create_and`` dropped their per-node
# method calls.  ``write_aiger`` of the production passes must equal these
# byte for byte.


def create_and_reference(aig: Aig, a: int, b: int) -> int:
    """``Aig.create_and`` through the literal helpers, on ``aig``'s arrays."""
    aig._check_lit(a)
    aig._check_lit(b)
    if a == Aig.CONST0 or b == Aig.CONST0:
        return Aig.CONST0
    if a == Aig.CONST1:
        return b
    if b == Aig.CONST1:
        return a
    if a == b:
        return a
    if a == lit_not(b):
        return Aig.CONST0
    if a > b:
        a, b = b, a
    key = (a, b)
    node = aig._strash.get(key)
    if node is None:
        node = len(aig._fanin0)
        aig._fanin0.append(a)
        aig._fanin1.append(b)
        aig._strash[key] = node
    return make_lit(node)


def cleanup_reference(aig: Aig) -> Aig:
    """Copy of ``aig`` with only the nodes reachable from the outputs."""
    reachable = set()
    stack = [lit_node(po) for po in aig.pos()]
    while stack:
        node = stack.pop()
        if node in reachable or node == 0:
            continue
        reachable.add(node)
        if aig.is_and(node):
            f0, f1 = aig.fanins(node)
            stack.append(lit_node(f0))
            stack.append(lit_node(f1))

    result = Aig(aig.name)
    mapping: Dict[int, int] = {0: Aig.CONST0}
    for lit, name in zip(aig.pis(), aig.pi_names()):
        mapping[lit_node(lit)] = result.add_pi(name)
    for node in aig.nodes():
        if aig.is_and(node) and node in reachable:
            f0, f1 = aig.fanins(node)
            new_f0 = lit_not_cond(mapping[lit_node(f0)], lit_is_compl(f0))
            new_f1 = lit_not_cond(mapping[lit_node(f1)], lit_is_compl(f1))
            mapping[node] = create_and_reference(result, new_f0, new_f1)
    for po, name in zip(aig.pos(), aig.po_names()):
        new_lit = lit_not_cond(mapping[lit_node(po)], lit_is_compl(po))
        result.add_po(new_lit, name)
    return result


def _map_lit(mapping: Dict[int, int], lit: int) -> int:
    return lit_not_cond(mapping[lit_node(lit)], lit_is_compl(lit))


def _materialization_roots(aig: Aig, include_complemented: bool = True) -> Set[int]:
    fanouts = [0] * len(list(aig.nodes()))
    for node in aig.nodes():
        if aig.is_and(node):
            f0, f1 = aig.fanins(node)
            fanouts[lit_node(f0)] += 1
            fanouts[lit_node(f1)] += 1
    for po in aig.pos():
        fanouts[lit_node(po)] += 1
    roots: Set[int] = set()
    for po in aig.pos():
        roots.add(lit_node(po))
    for node in aig.nodes():
        if not aig.is_and(node):
            continue
        if fanouts[node] > 1:
            roots.add(node)
        if include_complemented:
            for fanin in aig.fanins(node):
                if lit_is_compl(fanin) and aig.is_and(lit_node(fanin)):
                    roots.add(lit_node(fanin))
    roots.discard(0)
    return {node for node in roots if aig.is_and(node)}


def _build_expression(aig: Aig, expr: Expression, leaf_lits: Sequence[int]) -> int:
    tag = expr[0]
    if tag == "const":
        return Aig.CONST1 if expr[1] else Aig.CONST0
    if tag == "lit":
        _, var, positive = expr
        return lit_not_cond(leaf_lits[var], not positive)
    children = [_build_expression(aig, child, leaf_lits) for child in expr[1]]
    if tag == "and":
        return aig.create_and_multi(children)
    if tag == "or":
        return aig.create_or_multi(children)
    raise ValueError(f"unknown expression tag {tag!r}")


def _copy_structural(
    aig: Aig, new: Aig, mapping: Dict[int, int], internal: Sequence[int]
) -> None:
    for node in internal:
        if node in mapping:
            continue
        f0, f1 = aig.fanins(node)
        mapping[node] = new.create_and(_map_lit(mapping, f0), _map_lit(mapping, f1))


def _finish(aig: Aig, new: Aig, mapping: Dict[int, int]) -> Aig:
    for po, name in zip(aig.pos(), aig.po_names()):
        new.add_po(_map_lit(mapping, po), name)
    return cleanup_reference(new)


def _init_rebuild(aig: Aig) -> Tuple[Aig, Dict[int, int]]:
    new = Aig(aig.name)
    mapping: Dict[int, int] = {0: Aig.CONST0}
    for node, name in zip([lit_node(lit) for lit in aig.pis()], aig.pi_names()):
        mapping[node] = new.add_pi(name)
    return new, mapping


def balance_reference(aig: Aig) -> Aig:
    """Huffman-style rebalancing of every fanout-free AND tree."""
    aig = cleanup_reference(aig)
    roots = _materialization_roots(aig)
    new, mapping = _init_rebuild(aig)
    new_level: Dict[int, int] = {0: 0}
    for node in [lit_node(lit) for lit in aig.pis()]:
        new_level[lit_node(mapping[node])] = 0

    def level_of(lit: int) -> int:
        return new_level.get(lit_node(lit), 0)

    for node in aig.nodes():
        if not aig.is_and(node) or node not in roots:
            continue
        leaves, internal = collect_cone(aig, node, roots)
        leaf_lits: List[int] = []
        internal_set = set(internal)
        stack = [node]
        while stack:
            current = stack.pop()
            for fanin in aig.fanins(current):
                if lit_node(fanin) in internal_set and not lit_is_compl(fanin):
                    stack.append(lit_node(fanin))
                else:
                    leaf_lits.append(_map_lit(mapping, fanin))
        operands = sorted(leaf_lits, key=level_of, reverse=True)
        while len(operands) > 1:
            a = operands.pop()
            b = operands.pop()
            combined = new.create_and(a, b)
            new_level[lit_node(combined)] = 1 + max(level_of(a), level_of(b))
            level = new_level[lit_node(combined)]
            index = len(operands)
            while index > 0 and level_of(operands[index - 1]) < level:
                index -= 1
            operands.insert(index, combined)
        mapping[node] = operands[0] if operands else Aig.CONST1
    return _finish(aig, new, mapping)


def refactor_reference(aig: Aig, max_leaves: int = 10) -> Aig:
    """Refactoring with ISOP and factoring recomputed for every cone."""
    aig = cleanup_reference(aig)
    roots = _materialization_roots(aig, include_complemented=False)
    new, mapping = _init_rebuild(aig)

    for node in aig.nodes():
        if not aig.is_and(node) or node not in roots:
            continue
        leaves, internal = collect_cone(aig, node, roots)
        if not leaves or len(leaves) > max_leaves:
            _copy_structural(aig, new, mapping, internal)
            continue

        truth = cone_truth_table(aig, node, leaves, internal)
        num_vars = len(leaves)
        mask = tt_mask(num_vars)

        cover = isop(truth, num_vars)
        cover_compl = isop(truth ^ mask, num_vars)
        use_complement = len(cover_compl) < len(cover)
        chosen = cover_compl if use_complement else cover
        expr = factor_cubes(chosen, num_vars)

        estimated_cost = max(0, expression_literal_count(expr) - 1)
        if estimated_cost > len(internal):
            _copy_structural(aig, new, mapping, internal)
            continue

        leaf_lits = [_map_lit(mapping, leaf * 2) for leaf in leaves]
        literal = _build_expression(new, expr, leaf_lits)
        mapping[node] = lit_not_cond(literal, use_complement)
    return _finish(aig, new, mapping)


def dc2_reference(aig: Aig) -> Aig:
    """``b; rw; rf; b; rw`` over the reference passes."""
    aig = balance_reference(aig)
    aig = refactor_reference(aig, max_leaves=5)
    aig = refactor_reference(aig)
    aig = balance_reference(aig)
    return refactor_reference(aig, max_leaves=5)


def resyn2_reference(aig: Aig) -> Aig:
    """``b; rw; rf; b; rw; rf(12); b`` over the reference passes."""
    aig = balance_reference(aig)
    aig = refactor_reference(aig, max_leaves=5)
    aig = refactor_reference(aig)
    aig = balance_reference(aig)
    aig = refactor_reference(aig, max_leaves=5)
    aig = refactor_reference(aig, max_leaves=12)
    return balance_reference(aig)


# ---------------------------------------------------------------------------
# XMG constructors and cleanup
# ---------------------------------------------------------------------------


def add_xmg_node_reference(xmg: Xmg, kind: int, fanins: Tuple[int, ...]) -> int:
    """Hash ``(kind, fanins)`` into ``xmg`` as given, with no folding."""
    key = (kind, fanins)
    node = xmg._strash.get(key)
    if node is None:
        node = len(xmg._kind)
        xmg._kind.append(kind)
        xmg._fanins.append(fanins)
        xmg._strash[key] = node
    return make_lit(node)


def create_maj_reference(xmg: Xmg, a: int, b: int, c: int) -> int:
    """``Xmg.create_maj`` through the literal helpers, on ``xmg``'s arrays."""
    for lit in (a, b, c):
        xmg._check_lit(lit)
    if a == b:
        return a
    if a == c:
        return a
    if b == c:
        return b
    if a == lit_not(b):
        return c
    if a == lit_not(c):
        return b
    if b == lit_not(c):
        return a
    fanins = sorted([a, b, c])
    # MAJ is self-dual: two or more complemented fanins flip all of them
    # and the output.
    num_compl = sum(lit_is_compl(lit) for lit in fanins)
    output_compl = False
    if num_compl >= 2:
        fanins = [lit_not(lit) for lit in fanins]
        output_compl = True
        fanins.sort()
    node_lit = add_xmg_node_reference(xmg, XMG_KIND_MAJ, tuple(fanins))
    return lit_not_cond(node_lit, output_compl)


def create_xor_reference(xmg: Xmg, a: int, b: int) -> int:
    """``Xmg.create_xor`` through the literal helpers, on ``xmg``'s arrays."""
    xmg._check_lit(a)
    xmg._check_lit(b)
    if a == b:
        return Xmg.CONST0
    if a == lit_not(b):
        return Xmg.CONST1
    if a == Xmg.CONST0:
        return b
    if b == Xmg.CONST0:
        return a
    if a == Xmg.CONST1:
        return lit_not(b)
    if b == Xmg.CONST1:
        return lit_not(a)
    output_compl = lit_is_compl(a) ^ lit_is_compl(b)
    fanins = tuple(sorted((a & ~1, b & ~1)))
    node_lit = add_xmg_node_reference(xmg, XMG_KIND_XOR, fanins)
    return lit_not_cond(node_lit, output_compl)


def xmg_cleanup_reference(xmg: Xmg) -> Xmg:
    """Copy of ``xmg`` with only the nodes reachable from the outputs.

    Every reachable gate is rebuilt through the reference constructors,
    with no shortcut for networks that are already clean.
    """
    reachable = set()
    stack = [lit_node(po) for po in xmg._pos]
    while stack:
        node = stack.pop()
        if node in reachable or xmg.is_const(node):
            continue
        reachable.add(node)
        for fanin in xmg._fanins[node]:
            stack.append(lit_node(fanin))

    result = Xmg(xmg.name)
    mapping: Dict[int, int] = {0: Xmg.CONST0}
    for node, name in zip(xmg._pis, xmg._pi_names):
        mapping[node] = result.add_pi(name)
    for node in xmg.nodes():
        if node not in reachable or xmg.is_pi(node) or xmg.is_const(node):
            continue
        fanins = [
            lit_not_cond(mapping[lit_node(f)], lit_is_compl(f))
            for f in xmg._fanins[node]
        ]
        if xmg.is_maj(node):
            mapping[node] = create_maj_reference(result, *fanins)
        else:
            mapping[node] = create_xor_reference(result, *fanins)
    for po, name in zip(xmg._pos, xmg._po_names):
        result.add_po(lit_not_cond(mapping[lit_node(po)], lit_is_compl(po)), name)
    return result
