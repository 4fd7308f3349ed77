"""AIG optimisation passes: the ABC ``dc2``/``resyn2`` analogues.

The paper optimises the bit-blasted designs with ABC command sequences
(``dc2`` for the BDD flow, ``satclp; sop; fx; strash; dc2`` for the ESOP
flow, repeated ``resyn2`` for the XMG flow) before handing the network to
reversible synthesis.  This module provides the same *kind* of passes:

* :func:`balance`      — depth-oriented rebalancing of AND trees,
* :func:`refactor`     — collapse fanout-free cones, recompute an irredundant
  SOP, factor it algebraically and rebuild the cone,
* :func:`rewrite`      — :func:`refactor` restricted to small cones (the
  practical effect of cut rewriting),
* :func:`dc2` / :func:`resyn2` — the script-level combinations used by the
  design flows.

All passes are purely functional: they return a new :class:`Aig` and leave
the input untouched.  Functional equivalence is preserved by construction
(and is additionally asserted by the test-suite via random simulation).

Refactoring meets the same small cone functions over and over: one
structural sweep evaluates tens of thousands of cones but only a few
hundred distinct ``(truth, num_vars)`` pairs.  The factored form of each
pair (ISOP of the function and of its complement, the smaller one
factored, its estimated gate cost) is therefore computed once per process
and memoised, much as ABC's rewriting works from precomputed structures
per small function.  The memo is bounded (:data:`FACTOR_MEMO_LIMIT`,
cleared when full), correctness-neutral, and reports its hits and misses
through :func:`factor_memo_stats` / :func:`reset_factor_memo`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.logic.aig import Aig
from repro.logic.lits import lit_is_compl, lit_node, lit_not_cond
from repro.logic.network import collect_cone, cone_truth_table
from repro.logic.sop import Expression, expression_literal_count, factor_cubes, isop
from repro.logic.truth_table import tt_mask

__all__ = [
    "balance",
    "refactor",
    "rewrite",
    "dc2",
    "resyn2",
    "factor_memo_stats",
    "reset_factor_memo",
]


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _map_lit(mapping: Dict[int, int], lit: int) -> int:
    """Translate an old-AIG literal through a node mapping."""
    return lit_not_cond(mapping[lit_node(lit)], lit_is_compl(lit))


def _materialization_roots(aig: Aig, include_complemented: bool = True) -> Set[int]:
    """Nodes that must exist as explicit nodes in the rebuilt AIG.

    A node is a root if it drives a primary output or has more than one
    fanout.  When ``include_complemented`` is true (needed by balancing,
    which can only absorb non-complemented fanins into AND trees), nodes
    referenced through a complemented edge are also roots.
    """
    fanouts = aig.fanout_counts()
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


# Cone collection and truth-table extraction are the protocol-level
# helpers of :mod:`repro.logic.network`, shared with the XMG passes.
_collect_cone = collect_cone
_cone_truth_table = cone_truth_table


def _build_expression(aig: Aig, expr: Expression, leaf_lits: Sequence[int]) -> int:
    """Instantiate a factored expression tree in ``aig``."""
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
    raise ValueError(f"unknown expression tag {tag!r}")  # pragma: no cover


def _copy_structural(
    aig: Aig, new: Aig, mapping: Dict[int, int], internal: Sequence[int]
) -> None:
    """Structurally copy cone-internal nodes into the rebuilt AIG."""
    for node in internal:
        if node in mapping:
            continue
        f0, f1 = aig.fanins(node)
        mapping[node] = new.create_and(_map_lit(mapping, f0), _map_lit(mapping, f1))


def _finish(aig: Aig, new: Aig, mapping: Dict[int, int]) -> Aig:
    for po, name in zip(aig.pos(), aig.po_names()):
        new.add_po(_map_lit(mapping, po), name)
    return new.cleanup()


def _init_rebuild(aig: Aig) -> Tuple[Aig, Dict[int, int]]:
    new = Aig(aig.name)
    mapping: Dict[int, int] = {0: Aig.CONST0}
    for node, name in zip(
        [lit_node(lit) for lit in aig.pis()], aig.pi_names()
    ):
        mapping[node] = new.add_pi(name)
    return new, mapping


# ---------------------------------------------------------------------------
# Balancing
# ---------------------------------------------------------------------------

def balance(aig: Aig) -> Aig:
    """Rebuild every AND tree as a depth-balanced tree.

    Maximal fanout-free AND trees are collected and rebuilt bottom-up by
    always pairing the two shallowest operands (Huffman-style), which
    minimises the depth of the rebuilt tree.
    """
    aig = aig.cleanup()
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
        leaves, internal = _collect_cone(aig, node, roots)
        # Collect the AND-tree leaf *literals* (an internal node contributes
        # its fanin literals; complemented edges to AND nodes were forced to
        # be roots so every leaf literal maps cleanly).
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
        # Huffman-style balanced conjunction.
        operands = sorted(leaf_lits, key=level_of, reverse=True)
        while len(operands) > 1:
            a = operands.pop()
            b = operands.pop()
            combined = new.create_and(a, b)
            new_level[lit_node(combined)] = 1 + max(level_of(a), level_of(b))
            # Keep the list sorted by descending level (insert at position).
            level = new_level[lit_node(combined)]
            index = len(operands)
            while index > 0 and level_of(operands[index - 1]) < level:
                index -= 1
            operands.insert(index, combined)
        mapping[node] = operands[0] if operands else Aig.CONST1
    return _finish(aig, new, mapping)


# ---------------------------------------------------------------------------
# Refactoring / rewriting
# ---------------------------------------------------------------------------

#: Factored-form memo bound.  A structural sweep meets a few hundred
#: distinct cone functions; the bound only keeps a long-running server's
#: memo from growing without limit (the memo is correctness-neutral, so
#: clearing it when full only costs recomputation).
FACTOR_MEMO_LIMIT = 1 << 12

_factor_memo: Dict[Tuple[int, int], Tuple[Expression, bool, int]] = {}
_factor_stats = {"hits": 0, "misses": 0}


def factor_memo_stats() -> Dict[str, int]:
    """A snapshot of the factored-form memo counters (for tests and reports).

    ``hits`` counts cone functions whose factored form came from the memo,
    ``misses`` those that ran ISOP and factoring; ``entries`` is the
    current memo size.
    """
    return dict(_factor_stats, entries=len(_factor_memo))


def reset_factor_memo() -> None:
    """Clear the memo and zero the counters (test isolation)."""
    _factor_memo.clear()
    for key in _factor_stats:
        _factor_stats[key] = 0


def _freeze(expr: Expression) -> Expression:
    """The expression with every child list turned into a tuple."""
    if expr[0] in ("and", "or"):
        return (expr[0], tuple(_freeze(child) for child in expr[1]))
    return expr


def _factored_form(truth: int, num_vars: int) -> Tuple[Expression, bool, int]:
    """``(expr, use_complement, estimated_cost)`` of a cone function.

    ``expr`` factors an irredundant SOP of the function, or of its
    complement when that SOP has fewer cubes (``use_complement``).  A
    factored form with L literals costs about L-1 two-input gates, which
    is ``estimated_cost``.  Results are memoised per process by
    ``(truth, num_vars)``; the returned expression is shared between
    callers and frozen into tuples so that none of them can mutate it.
    """
    key = (truth, num_vars)
    cached = _factor_memo.get(key)
    if cached is not None:
        _factor_stats["hits"] += 1
        return cached
    _factor_stats["misses"] += 1

    cover = isop(truth, num_vars)
    cover_compl = isop(truth ^ tt_mask(num_vars), num_vars)
    use_complement = len(cover_compl) < len(cover)
    expr = _freeze(factor_cubes(cover_compl if use_complement else cover, num_vars))
    result = (expr, use_complement, max(0, expression_literal_count(expr) - 1))
    if len(_factor_memo) >= FACTOR_MEMO_LIMIT:
        _factor_memo.clear()
    _factor_memo[key] = result
    return result


def refactor(aig: Aig, max_leaves: int = 10) -> Aig:
    """Collapse fanout-free cones and rebuild them from factored SOPs.

    For every materialisation root whose cone (bounded by other roots) has at
    most ``max_leaves`` leaves, an irredundant SOP of the cone function and
    of its complement are computed; the smaller factored form replaces the
    cone if its estimated size does not exceed the original cone.  Larger
    cones are copied structurally.  The factored form of each cone function
    comes from the per-process memo (see the module docstring).
    """
    aig = aig.cleanup()
    roots = _materialization_roots(aig, include_complemented=False)
    new, mapping = _init_rebuild(aig)

    for node in aig.nodes():
        if not aig.is_and(node) or node not in roots:
            continue
        leaves, internal = _collect_cone(aig, node, roots)
        if not leaves or len(leaves) > max_leaves:
            _copy_structural(aig, new, mapping, internal)
            continue

        truth = _cone_truth_table(aig, node, leaves, internal)
        expr, use_complement, estimated_cost = _factored_form(truth, len(leaves))
        # The original cone costs len(internal) two-input gates.
        if estimated_cost > len(internal):
            _copy_structural(aig, new, mapping, internal)
            continue

        leaf_lits = [_map_lit(mapping, leaf * 2) for leaf in leaves]
        literal = _build_expression(new, expr, leaf_lits)
        mapping[node] = lit_not_cond(literal, use_complement)
    return _finish(aig, new, mapping)


def rewrite(aig: Aig, max_leaves: int = 5) -> Aig:
    """Cut-rewriting analogue: refactoring restricted to small cones."""
    return refactor(aig, max_leaves=max_leaves)


# ---------------------------------------------------------------------------
# Scripts
# ---------------------------------------------------------------------------

def dc2(aig: Aig) -> Aig:
    """ABC ``dc2`` analogue: balance / rewrite / refactor / balance / rewrite."""
    aig = balance(aig)
    aig = rewrite(aig)
    aig = refactor(aig)
    aig = balance(aig)
    aig = rewrite(aig)
    return aig


def resyn2(aig: Aig) -> Aig:
    """ABC ``resyn2`` analogue.

    The original script is ``b; rw; rf; b; rw; rwz; b; rfz; rwz; b``; the
    zero-gain variants are approximated by additional refactor/rewrite
    passes.
    """
    aig = balance(aig)
    aig = rewrite(aig)
    aig = refactor(aig)
    aig = balance(aig)
    aig = rewrite(aig)
    aig = refactor(aig, max_leaves=12)
    aig = balance(aig)
    return aig
