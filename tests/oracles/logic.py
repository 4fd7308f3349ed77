"""Oracles for the logic-level kernels: cut tables, PSDKRO, minimum-cost
ESOPs, BDDs, collapse."""

import heapq
import itertools
from typing import Dict, Iterable, List, Tuple

from repro.logic.aig import Aig, lit_is_compl, lit_node
from repro.logic.bdd import BddManager
from repro.logic.cube import Cube
from repro.logic.cuts import Cut
from repro.logic.network import LogicNetwork
from repro.logic.truth_table import (
    tt_cofactor0,
    tt_cofactor1,
    tt_mask,
    tt_support,
    tt_var,
)
from repro.quantum.tcount import mct_t_count

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
# PSDKRO extraction
# ---------------------------------------------------------------------------
# minimum-cost ESOP
# ---------------------------------------------------------------------------


def min_esop_costs_reference(num_vars: int) -> List[int]:
    """The least ``rtof`` T-cost of any ESOP, for every truth table.

    A shortest-path search over truth tables: from the empty cover (truth
    0), XOR-ing in a cube with ``k`` literals costs ``mct_t_count(k)``.
    There is no bound on the cube count, so this is the optimum the exact
    engine's slot window can miss.  Practical up to three inputs.
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
# BDD manager walks (recursive)
# ---------------------------------------------------------------------------


def apply_reference(manager: BddManager, op: str, f: int, g: int) -> int:
    """Recursive binary connective sharing the manager's apply cache."""
    terminal = manager._terminal_case(op, f, g)
    if terminal is not None:
        return terminal
    if g < f:
        f, g = g, f
    key = (op, f, g)
    cached = manager._apply_cache.get(key)
    if cached is not None:
        return cached
    var_f, var_g = manager.node_var(f), manager.node_var(g)
    var = min(var_f, var_g)
    f0, f1 = (manager.node_low(f), manager.node_high(f)) if var_f == var else (f, f)
    g0, g1 = (manager.node_low(g), manager.node_high(g)) if var_g == var else (g, g)
    result = manager._make_node(
        var,
        apply_reference(manager, op, f0, g0),
        apply_reference(manager, op, f1, g1),
    )
    manager._apply_cache[key] = result
    return result


def apply_not_reference(manager: BddManager, f: int) -> int:
    """Recursive complement with a private memo."""
    cache = {manager.FALSE: manager.TRUE, manager.TRUE: manager.FALSE}

    def rec(node: int) -> int:
        if node not in cache:
            cache[node] = manager._make_node(
                manager.node_var(node),
                rec(manager.node_low(node)),
                rec(manager.node_high(node)),
            )
        return cache[node]

    return rec(f)


def apply_and_many_reference(manager: BddManager, fs: Iterable[int]) -> int:
    """Sequential-fold conjunction."""
    result = manager.TRUE
    for f in fs:
        result = manager.apply_and(result, f)
    return result


def restrict_reference(manager: BddManager, f: int, var: int, value: bool) -> int:
    """Recursive cofactor ``f|var=value``."""
    if not 0 <= var < manager.num_vars:
        raise ValueError(f"variable index {var} out of range")
    cache: Dict[int, int] = {}

    def rec(node: int) -> int:
        if manager.is_terminal(node) or manager.node_var(node) > var:
            return node
        if node not in cache:
            if manager.node_var(node) == var:
                branch = manager.node_high if value else manager.node_low
                cache[node] = branch(node)
            else:
                cache[node] = manager._make_node(
                    manager.node_var(node),
                    rec(manager.node_low(node)),
                    rec(manager.node_high(node)),
                )
        return cache[node]

    return rec(f)


def satcount_reference(manager: BddManager, f: int) -> int:
    """Recursive model count over all ``num_vars`` variables."""
    if f == manager.FALSE:
        return 0
    if f == manager.TRUE:
        return 1 << manager.num_vars
    cache: Dict[int, int] = {manager.FALSE: 0, manager.TRUE: 1}

    def rec(node: int) -> int:
        # Assignments of the variables at the node's level and below.
        if node not in cache:
            var = manager.node_var(node)
            cache[node] = sum(
                rec(child) << (manager.node_var(child) - var - 1)
                for child in (manager.node_low(node), manager.node_high(node))
            )
        return cache[node]

    return rec(f) << manager.node_var(f)


def to_truth_table_reference(manager: BddManager, f: int) -> int:
    """Per-assignment expansion of one root."""
    result = 0
    for x in range(1 << manager.num_vars):
        if manager.evaluate(f, x):
            result |= 1 << x
    return result


# ---------------------------------------------------------------------------
# AIG-to-BDD collapse
# ---------------------------------------------------------------------------


def collapse_to_bdd_reference(aig: Aig) -> Tuple[BddManager, List[int]]:
    """One ``apply_and`` per AND node, in topological order.

    Root handles are not comparable across managers; compare through
    truth-table expansion.
    """
    manager = BddManager(aig.num_pis(), aig.pi_names())
    values = {0: manager.false()}
    for i, pi in enumerate(aig.pis()):
        values[lit_node(pi)] = manager.variable(i)

    def lit_bdd(lit: int) -> int:
        node = values[lit_node(lit)]
        return manager.apply_not(node) if lit_is_compl(lit) else node

    for node in aig.nodes():
        if aig.is_and(node):
            f0, f1 = aig.fanins(node)
            values[node] = manager.apply_and(lit_bdd(f0), lit_bdd(f1))
    return manager, [lit_bdd(po) for po in aig.pos()]
