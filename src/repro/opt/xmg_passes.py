"""XMG optimisation pass library: MAJ/XOR-level multiplicative-complexity
reduction.

The hierarchical and LUT flows pay one Toffoli block per MAJ node and only
CNOTs per XOR node, so every MAJ removed here is T-count removed from every
downstream circuit.  Four passes, composable into pipelines:

* :func:`xmg_strash`       — structural cleanup/strashing: rebuild through
  the hashing constructors, which re-applies constant propagation,
  duplicate/complementary operand folding and canonical complementation,
  and drops unreachable nodes,
* :func:`xmg_rewrite`      — algebraic MAJ rewriting with the majority
  Ω-rules: absorption ``M(x, y, M(x, y, z)) = M(x, y, z)`` and its
  complementary form ``M(x, y, M(x', y', z)) = M(x, y, z)`` (both exploit
  the self-duality the constructors keep canonical),
* :func:`xmg_xor_simplify` — XOR chain simplification: maximal fanout-free
  XOR trees are collapsed, duplicate operands cancelled (``a ⊕ a = 0``),
  polarities pulled to one output complement and the remainder rebuilt as
  a balanced tree,
* :func:`xmg_refactor`     — cut-based MAJ-count refactoring: the XMG is
  covered with k-feasible cuts (area-flow selection) through the
  *protocol-generic* :func:`repro.logic.cuts.lut_map`, and every cut
  function is resynthesised with
  :func:`repro.logic.xmg_mapping.synthesize_lut_into_xmg`, which prefers
  XOR chains and single-MAJ realisations; the rebuilt network replaces
  the input only when it wins under
  :func:`~repro.logic.network.network_cost`.

Every pass hands back its input object when its result equals that input
node for node (:meth:`~repro.logic.xmg.Xmg.same_structure`), and builds a
new network otherwise, so the fixed-point exit of
:meth:`repro.opt.pipeline.Pipeline.run` skips the passes that have
converged.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

from repro.logic.cuts import lut_map
from repro.logic.lits import lit_is_compl, lit_node, lit_not, lit_not_cond
from repro.logic.network import network_cost
from repro.logic.xmg import Xmg
from repro.opt.passes import Pass
from repro.opt.registry import register_pass

__all__ = [
    "register_xmg_passes",
    "xmg_refactor",
    "xmg_rewrite",
    "xmg_strash",
    "xmg_xor_simplify",
]


def _map_lit(mapping: Dict[int, int], lit: int) -> int:
    """Translate an old-XMG literal through a node mapping."""
    return lit_not_cond(mapping[lit_node(lit)], lit_is_compl(lit))


def _init_rebuild(xmg: Xmg) -> tuple:
    new = Xmg(xmg.name)
    mapping: Dict[int, int] = {0: Xmg.CONST0}
    for pi_lit, name in zip(xmg.pis(), xmg.pi_names()):
        mapping[lit_node(pi_lit)] = new.add_pi(name)
    return new, mapping


def _finish(xmg: Xmg, new: Xmg, mapping: Dict[int, int]) -> Xmg:
    for po, name in zip(xmg.pos(), xmg.po_names()):
        new.add_po(_map_lit(mapping, po), name)
    return new.cleanup()


def _unchanged_or(xmg: Xmg, result: Xmg) -> Xmg:
    """``xmg`` itself if ``result`` equals it node for node, else ``result``.

    Handing back the input object is what lets the fixed-point exit of
    :meth:`repro.opt.pipeline.Pipeline.run` skip a pass that has converged.
    """
    return xmg if result.same_structure(xmg) else result


# ---------------------------------------------------------------------------
# Structural strashing
# ---------------------------------------------------------------------------

def xmg_strash(xmg: Xmg) -> Xmg:
    """Structural cleanup: rebuild every reachable node through the
    hashing constructors.

    The constructors fold constant fanins, duplicate and complementary
    operands and keep complement marks canonical, so a rebuild cascades
    any simplification enabled by an earlier pass and drops dangling
    nodes.  :meth:`Xmg.cleanup` returns exactly the result of this
    rebuild; on an already clean network it gets there by copying, since
    the rebuild would reproduce that network node for node, and hands
    back ``xmg`` itself.
    """
    return _unchanged_or(xmg, xmg.cleanup())


# ---------------------------------------------------------------------------
# Ω-rule MAJ rewriting
# ---------------------------------------------------------------------------

def _effective_fanins(xmg: Xmg, lit: int) -> tuple:
    """Fanins of the MAJ node behind ``lit`` with its complement pushed in.

    MAJ is self-dual (``¬M(a, b, c) = M(¬a, ¬b, ¬c)``), so a complemented
    MAJ literal behaves like a MAJ of the complemented fanins.
    """
    fanins = xmg.fanins(lit_node(lit))
    if lit_is_compl(lit):
        return tuple(lit_not(f) for f in fanins)
    return fanins


def _create_maj_omega(new: Xmg, a: int, b: int, c: int) -> int:
    """``create_maj`` with the absorption Ω-rules applied first."""
    # Equal and complementary operand pairs (two operands on one node)
    # are the constructors' business.
    if a >> 1 == b >> 1 or a >> 1 == c >> 1 or b >> 1 == c >> 1:
        return new.create_maj(a, b, c)
    for inner, x, y in ((a, b, c), (b, a, c), (c, a, b)):
        if not new.is_maj(lit_node(inner)):
            continue
        effective = _effective_fanins(new, inner)
        # Absorption: M(x, y, M(x, y, z)) = M(x, y, z).
        if x in effective and y in effective:
            return inner
        # Complementary absorption: M(x, y, M(x', y', z)) = M(x, y, z).
        not_x, not_y = lit_not(x), lit_not(y)
        if not_x in effective and not_y in effective:
            rest = [f for f in effective if f != not_x and f != not_y]
            if len(rest) == 1:
                return new.create_maj(x, y, rest[0])
    return new.create_maj(a, b, c)


def xmg_rewrite(xmg: Xmg) -> Xmg:
    """Algebraic MAJ rewriting: one topological sweep of the Ω absorption
    rules over a structurally hashed rebuild."""
    cleaned = xmg.cleanup()
    new, mapping = _init_rebuild(cleaned)
    for node in cleaned.gate_nodes():
        operands = [mapping[f >> 1] ^ (f & 1) for f in cleaned.fanins(node)]
        if cleaned.is_maj(node):
            mapping[node] = _create_maj_omega(new, *operands)
        else:
            mapping[node] = new.create_xor(*operands)
    return _unchanged_or(xmg, _finish(cleaned, new, mapping))


# ---------------------------------------------------------------------------
# XOR chain simplification
# ---------------------------------------------------------------------------

def xmg_xor_simplify(xmg: Xmg) -> Xmg:
    """Collapse maximal fanout-free XOR trees, cancel duplicates, rebalance.

    Every XOR node that is the single fanin of exactly one other XOR node
    is absorbed into its consumer's tree; tree roots gather their leaf
    multiset, drop pairs (``a ⊕ a = 0``), fold leaf polarities into one
    output complement (``¬a = a ⊕ 1``) and rebuild as a balanced XOR tree.
    """
    cleaned = xmg.cleanup()
    fanouts = cleaned.fanout_counts()
    # How many gate fanins read each node, and the last gate reading it.
    gate_reads = [0] * len(fanouts)
    reader = [0] * len(fanouts)
    for node in cleaned.gate_nodes():
        for fanin in cleaned.fanins(node):
            gate_reads[fanin >> 1] += 1
            reader[fanin >> 1] = node
    absorbed = [
        cleaned.is_xor(node)
        and fanouts[node] == 1
        and gate_reads[node] == 1
        and cleaned.is_xor(reader[node])
        for node in cleaned.nodes()
    ]

    new, mapping = _init_rebuild(cleaned)
    for node in cleaned.gate_nodes():
        if cleaned.is_maj(node):
            fanins = [mapping[f >> 1] ^ (f & 1) for f in cleaned.fanins(node)]
            mapping[node] = new.create_maj(*fanins)
            continue
        if absorbed[node]:
            # Absorbed XOR nodes are expanded inside their consumer's
            # tree below and never referenced otherwise.
            continue
        parity = 0
        leaf_counts: Counter = Counter()
        stack = list(cleaned.fanins(node))
        while stack:
            lit = stack.pop()
            if lit_is_compl(lit):
                parity ^= 1
                lit = lit_not(lit)
            leaf = lit_node(lit)
            if absorbed[leaf]:
                stack.extend(cleaned.fanins(leaf))
            else:
                leaf_counts[leaf] += 1
        operands: List[int] = [
            mapping[leaf]
            for leaf in sorted(leaf_counts)
            if leaf_counts[leaf] % 2
        ]
        # Balanced pairwise reduction keeps the rebuilt chain shallow.
        while len(operands) > 1:
            next_level = [
                new.create_xor(operands[i], operands[i + 1])
                for i in range(0, len(operands) - 1, 2)
            ]
            if len(operands) % 2:
                next_level.append(operands[-1])
            operands = next_level
        literal = operands[0] if operands else Xmg.CONST0
        mapping[node] = lit_not_cond(literal, bool(parity))
    return _unchanged_or(xmg, _finish(cleaned, new, mapping))


# ---------------------------------------------------------------------------
# Cut-based MAJ-count refactoring
# ---------------------------------------------------------------------------

def xmg_refactor(xmg: Xmg, k: int = 4, max_cuts: int = 8) -> Xmg:
    """Re-cover the XMG with k-feasible cuts and resynthesise every cut.

    The area-flow cut selection covers the network with as few cuts as the
    priority lists allow; each cut function is then rebuilt with the
    XOR/MAJ-preferring LUT resynthesiser (XOR chains are free of T gates,
    majority-like functions become a single MAJ).  The candidate replaces
    the input only when it improves the lexicographic
    ``(MAJ, gates, depth)`` cost, so the pass never regresses.

    The covering runs on the already-cleaned network (``cleanup=False``
    below avoids a second rebuild) and its cut enumeration goes through the
    structural-prefix cache of :mod:`repro.logic.cuts`, so iterated
    pipelines re-cover only the part of the network the preceding passes
    actually changed.
    """
    cleaned = _unchanged_or(xmg, xmg.cleanup())
    if cleaned.num_gates() == 0:
        return cleaned
    from repro.logic.xmg_mapping import synthesize_lut_into_xmg

    mapping = lut_map(
        cleaned, k=k, max_cuts=max_cuts, selection="area", cleanup=False
    )
    covered = mapping.network
    new = Xmg(covered.name)
    node_lit: Dict[int, int] = {0: Xmg.CONST0}
    for pi_lit, name in zip(covered.pis(), covered.pi_names()):
        node_lit[lit_node(pi_lit)] = new.add_pi(name)
    for root in mapping.order:
        leaves, truth = mapping.luts[root]
        leaf_lits = [node_lit[leaf] for leaf in leaves]
        node_lit[root] = synthesize_lut_into_xmg(
            new, truth, leaf_lits, len(leaves)
        )
    for po, name in zip(covered.pos(), covered.po_names()):
        new.add_po(
            lit_not_cond(node_lit[lit_node(po)], lit_is_compl(po)), name
        )
    candidate = new.cleanup()
    if network_cost(candidate) < network_cost(cleaned):
        return candidate
    return cleaned


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------

def register_xmg_passes() -> None:
    """Register the XMG optimisation passes (idempotent per process)."""
    for pass_ in (
        Pass(
            "xmg_strash",
            xmg_strash,
            network_types=("xmg",),
            description="structural cleanup/strashing through the hashing "
            "constructors",
            aliases=("xst", "xstrash"),
        ),
        Pass(
            "xmg_rewrite",
            xmg_rewrite,
            network_types=("xmg",),
            description="algebraic MAJ rewriting (Ω absorption rules)",
            aliases=("xrw",),
        ),
        Pass(
            "xmg_xor",
            xmg_xor_simplify,
            network_types=("xmg",),
            description="XOR chain simplification (cancellation, balancing)",
            aliases=("xxor",),
        ),
        Pass(
            "xmg_refactor",
            xmg_refactor,
            network_types=("xmg",),
            description="cut-based MAJ-count refactoring (area-flow cover, "
            "XOR/MAJ resynthesis)",
            aliases=("xrf",),
        ),
    ):
        register_pass(pass_, replace=True)
