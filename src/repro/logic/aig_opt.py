"""AIG optimisation passes: the ABC ``dc2``/``resyn2`` analogues.

The paper optimises the bit-blasted designs with ABC command sequences
(``dc2`` for the symbolic flow, ``satclp; sop; fx; strash; dc2`` for the ESOP
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
from repro.logic.sop import Expression, expression_literal_count, factor_cubes, isop
from repro.logic.truth_table import tt_mask, tt_var

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

    A node is a root if it is an AND node that drives a primary output or
    has more than one fanout.  When ``include_complemented`` is true
    (needed by balancing, which can only absorb non-complemented fanins
    into AND trees), AND nodes referenced through a complemented edge are
    also roots.
    """
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    fanouts = aig.fanout_counts()
    # fanin0 is -1 for the constant and the PIs, so ">= 0" means "an AND".
    roots = {po >> 1 for po in aig._pos if fanin0[po >> 1] >= 0}
    for node in range(1, len(fanin0)):
        f0 = fanin0[node]
        if f0 < 0:
            continue
        if fanouts[node] > 1:
            roots.add(node)
        if include_complemented:
            if f0 & 1 and fanin0[f0 >> 1] >= 0:
                roots.add(f0 >> 1)
            f1 = fanin1[node]
            if f1 & 1 and fanin0[f1 >> 1] >= 0:
                roots.add(f1 >> 1)
    return roots


def _collect_cone(
    aig: Aig, root: int, stops: Set[int]
) -> Tuple[List[int], List[int]]:
    """Leaves and internal nodes of the cone of the AND node ``root``.

    The walk stops at primary inputs and at any node in ``stops`` other
    than the root.  Both lists are sorted ascending, which is topological
    order for the internal nodes.
    """
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    leaves: List[int] = []
    internal: List[int] = [root]
    seen = {root}
    stack = [fanin0[root] >> 1, fanin1[root] >> 1]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        f0 = fanin0[node]
        if f0 < 0 or node in stops:
            leaves.append(node)
            continue
        internal.append(node)
        stack.append(f0 >> 1)
        stack.append(fanin1[node] >> 1)
    internal.sort()
    leaves.sort()
    return leaves, internal


def _cone_truth_table(
    aig: Aig, root: int, leaves: Sequence[int], internal: Sequence[int]
) -> int:
    """Truth table of ``root`` over its cone leaves (leaf ``i`` = variable ``i``).

    ``internal`` lists the cone's AND nodes in topological order, as
    :func:`_collect_cone` returns them.
    """
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    num_vars = len(leaves)
    mask = tt_mask(num_vars)
    tables = {leaf: tt_var(i, num_vars) for i, leaf in enumerate(leaves)}
    for node in internal:
        f0 = fanin0[node]
        f1 = fanin1[node]
        table0 = tables[f0 >> 1]
        if f0 & 1:
            table0 ^= mask
        table1 = tables[f1 >> 1]
        if f1 & 1:
            table1 ^= mask
        tables[node] = table0 & table1
    return tables[root]


def _build_expression(aig: Aig, expr: Expression, leaf_lits: Sequence[int]) -> int:
    """Instantiate a factored expression tree in ``aig``.

    Each AND/OR node becomes a balanced tree of two-input ANDs, paired
    level by level as :meth:`Aig.create_and_multi` does; an OR is the
    complemented AND of its complemented operands (De Morgan), which is
    how :meth:`Aig.create_or` builds it.
    """
    tag = expr[0]
    if tag == "lit":
        _, var, positive = expr
        return leaf_lits[var] if positive else leaf_lits[var] ^ 1
    if tag == "const":
        return Aig.CONST1 if expr[1] else Aig.CONST0
    if tag == "and":
        invert = 0
    elif tag == "or":
        invert = 1
    else:  # pragma: no cover
        raise ValueError(f"unknown expression tag {tag!r}")
    operands = [
        _build_expression(aig, child, leaf_lits) ^ invert for child in expr[1]
    ]
    if not operands:
        return Aig.CONST1 ^ invert
    create_and = aig.create_and
    while len(operands) > 1:
        paired = [
            create_and(operands[i], operands[i + 1])
            for i in range(0, len(operands) - 1, 2)
        ]
        if len(operands) % 2:
            paired.append(operands[-1])
        operands = paired
    return operands[0] ^ invert


def _copy_structural(
    aig: Aig, new: Aig, mapping: Dict[int, int], internal: Sequence[int]
) -> None:
    """Structurally copy cone-internal nodes into the rebuilt AIG."""
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    create_and = new.create_and
    for node in internal:
        if node in mapping:
            continue
        f0 = fanin0[node]
        f1 = fanin1[node]
        mapping[node] = create_and(
            mapping[f0 >> 1] ^ (f0 & 1), mapping[f1 >> 1] ^ (f1 & 1)
        )


def _finish(aig: Aig, new: Aig, mapping: Dict[int, int]) -> Aig:
    for po, name in zip(aig.pos(), aig.po_names()):
        new.add_po(_map_lit(mapping, po), name)
    return new.cleanup()


def _init_rebuild(aig: Aig) -> Tuple[Aig, Dict[int, int]]:
    new = Aig(aig.name)
    mapping: Dict[int, int] = {0: Aig.CONST0}
    for node, name in zip(aig._pis, aig._pi_names):
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
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    roots = _materialization_roots(aig)
    new, mapping = _init_rebuild(aig)
    create_and = new.create_and
    new_level: Dict[int, int] = {0: 0}  # absent nodes (the PIs) sit at level 0
    level_get = new_level.get

    def level_of(lit: int) -> int:
        return level_get(lit >> 1, 0)

    for node in sorted(roots):
        # Collect the AND-tree leaf *literals*: the tree descends through
        # non-complemented edges into non-root AND nodes, and every other
        # fanin is a leaf (complemented edges to AND nodes were forced to
        # be roots so every leaf literal maps cleanly).
        leaf_lits: List[int] = []
        stack = [node]
        while stack:
            current = stack.pop()
            for fanin in (fanin0[current], fanin1[current]):
                child = fanin >> 1
                if not fanin & 1 and fanin0[child] >= 0 and child not in roots:
                    stack.append(child)
                else:
                    leaf_lits.append(mapping[child] ^ (fanin & 1))
        # Huffman-style balanced conjunction.
        operands = sorted(leaf_lits, key=level_of, reverse=True)
        while len(operands) > 1:
            a = operands.pop()
            b = operands.pop()
            combined = create_and(a, b)
            level_a = level_get(a >> 1, 0)
            level_b = level_get(b >> 1, 0)
            level = 1 + (level_a if level_a > level_b else level_b)
            new_level[combined >> 1] = level
            # Keep the list sorted by descending level (insert at position).
            index = len(operands)
            while index > 0 and level_get(operands[index - 1] >> 1, 0) < level:
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

    for node in sorted(roots):
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

        leaf_lits = [mapping[leaf] for leaf in leaves]
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
