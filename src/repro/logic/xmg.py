"""XOR-majority graphs (XMGs).

XMGs are the logic representation used by the hierarchical flow of the
paper: internal nodes are either three-input majority (MAJ) or two-input XOR
operations, and edges may be complemented.  They are advantageous for
reversible synthesis because

* a MAJ node (and therefore also AND/OR, which are MAJ with a constant
  input) can be realised with a single Toffoli gate,
* XOR nodes cost only CNOTs and therefore no T gates,
* XOR/MAJ nodes can be computed in place when their operands are no longer
  needed.

The structure mirrors :class:`repro.logic.aig.Aig`: nodes are created in
topological order, literals are ``2*node + complement`` and structural
hashing keeps the graph canonical.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.logic.lits import (  # noqa: F401  (re-exported for compatibility)
    lit_is_compl,
    lit_node,
    lit_not,
    lit_not_cond,
    make_lit,
)
from repro.logic.truth_table import TruthTable, tt_var

__all__ = ["Xmg"]

# Node kinds, stored per node in ``Xmg._kind``.
_KIND_CONST = 0
_KIND_PI = 1
_KIND_MAJ = 2
_KIND_XOR = 3


class Xmg:
    """A combinational XOR-majority graph."""

    CONST0 = 0
    CONST1 = 1

    #: Network-type tag of the :class:`repro.logic.network.LogicNetwork`
    #: protocol (the pass manager keys pass applicability on it).
    network_type = "xmg"

    def __init__(self, name: str = "xmg"):
        self.name = name
        self._kind: List[int] = [_KIND_CONST]
        self._fanins: List[Tuple[int, ...]] = [()]
        self._pis: List[int] = []
        self._pi_names: List[str] = []
        self._pos: List[int] = []
        self._po_names: List[str] = []
        self._strash: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        # ``((node count, PO count), depth)`` of the last :meth:`depth`
        # call; networks only grow, so the counts identify the structure.
        self._depth_cache: Optional[Tuple[Tuple[int, int], int]] = None

    # -- construction --------------------------------------------------------

    def add_pi(self, name: Optional[str] = None) -> int:
        """Create a primary input and return its literal."""
        node = len(self._kind)
        self._kind.append(_KIND_PI)
        self._fanins.append(())
        self._pis.append(node)
        self._pi_names.append(name if name is not None else f"pi{len(self._pis) - 1}")
        return make_lit(node)

    def add_po(self, lit: int, name: Optional[str] = None) -> int:
        """Register a literal as primary output; returns the output index."""
        self._check_lit(lit)
        self._pos.append(lit)
        self._po_names.append(name if name is not None else f"po{len(self._pos) - 1}")
        return len(self._pos) - 1

    def create_maj(self, a: int, b: int, c: int) -> int:
        """Create (or reuse) a majority-of-three node.

        Equal and complementary operand pairs fold; otherwise the fanins
        are stored sorted and, since MAJ is self-dual, with at most one of
        them complemented (two or more complemented fanins are flipped
        together with the output).  Constant fanins stay: ``MAJ(a, b, 0)``
        is how the XMG flows see ``a AND b``, ``MAJ(a, b, 1)`` ``a OR b``.
        """
        kinds = self._kind
        num_lits = 2 * len(kinds)
        if not 0 <= a < num_lits:
            self._check_lit(a)
        if not 0 <= b < num_lits:
            self._check_lit(b)
        if not 0 <= c < num_lits:
            self._check_lit(c)
        if a == b or a == c:
            return a
        if b == c:
            return b
        if a == b ^ 1:
            return c
        if a == c ^ 1:
            return b
        if b == c ^ 1:
            return a
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
            if a > b:
                a, b = b, a
        # The three fanins sit on distinct nodes now, so flipping every
        # complement bit keeps them sorted.
        output_compl = 0
        if (a & 1) + (b & 1) + (c & 1) >= 2:
            a ^= 1
            b ^= 1
            c ^= 1
            output_compl = 1
        fanins = (a, b, c)
        key = (_KIND_MAJ, fanins)
        strash = self._strash
        node = strash.get(key)
        if node is None:
            node = len(kinds)
            kinds.append(_KIND_MAJ)
            self._fanins.append(fanins)
            strash[key] = node
        return (node << 1) | output_compl

    def create_and(self, a: int, b: int) -> int:
        """AND as majority with a constant-0 fanin."""
        return self.create_maj(a, b, self.CONST0)

    def create_or(self, a: int, b: int) -> int:
        """OR as majority with a constant-1 fanin."""
        return self.create_maj(a, b, self.CONST1)

    def create_xor(self, a: int, b: int) -> int:
        """Create (or reuse) a two-input XOR node.

        Equal, complementary and constant operands fold; otherwise both
        fanins are stored uncomplemented and sorted, with their complements
        pushed to the output (``XOR(a', b) = XOR(a, b)'``).
        """
        kinds = self._kind
        num_lits = 2 * len(kinds)
        if not 0 <= a < num_lits:
            self._check_lit(a)
        if not 0 <= b < num_lits:
            self._check_lit(b)
        if a == b:
            return self.CONST0
        if a == b ^ 1:
            return self.CONST1
        if a < 2 or b < 2:  # a constant operand complements the other
            return a ^ b
        output_compl = (a ^ b) & 1
        a &= ~1
        b &= ~1
        fanins = (a, b) if a < b else (b, a)
        key = (_KIND_XOR, fanins)
        strash = self._strash
        node = strash.get(key)
        if node is None:
            node = len(kinds)
            kinds.append(_KIND_XOR)
            self._fanins.append(fanins)
            strash[key] = node
        return (node << 1) | output_compl

    def create_xor3(self, a: int, b: int, c: int) -> int:
        """Three-input XOR as two cascaded XOR nodes."""
        return self.create_xor(self.create_xor(a, b), c)

    def create_ite(self, sel: int, if_true: int, if_false: int) -> int:
        """Multiplexer built from majority/xor nodes.

        ``ite(s, t, e) = maj(s, t, e) xor maj(s', t, e) xor (t xor e) ...``
        is more expensive than the simple AND/OR form, so we use
        ``(s AND t) OR (s' AND e)``.
        """
        return self.create_or(
            self.create_and(sel, if_true), self.create_and(lit_not(sel), if_false)
        )

    # -- structure queries -----------------------------------------------------

    def num_pis(self) -> int:
        """Number of primary inputs."""
        return len(self._pis)

    def num_pos(self) -> int:
        """Number of primary outputs."""
        return len(self._pos)

    def pis(self) -> List[int]:
        """Literals of the primary inputs."""
        return [make_lit(node) for node in self._pis]

    def pos(self) -> List[int]:
        """Literals driving the primary outputs."""
        return list(self._pos)

    def pi_names(self) -> List[str]:
        """Names of the primary inputs."""
        return list(self._pi_names)

    def po_names(self) -> List[str]:
        """Names of the primary outputs."""
        return list(self._po_names)

    def is_pi(self, node: int) -> bool:
        """True if the node is a primary input."""
        return self._kind[node] == _KIND_PI

    def is_maj(self, node: int) -> bool:
        """True if the node is a majority node."""
        return self._kind[node] == _KIND_MAJ

    def is_xor(self, node: int) -> bool:
        """True if the node is an XOR node."""
        return self._kind[node] == _KIND_XOR

    def is_const(self, node: int) -> bool:
        """True if the node is the constant node."""
        return self._kind[node] == _KIND_CONST

    def fanins(self, node: int) -> Tuple[int, ...]:
        """Fanin literals of a node (empty for PIs and the constant)."""
        return self._fanins[node]

    def nodes(self) -> range:
        """All node indices in topological order."""
        return range(len(self._kind))

    def is_gate(self, node: int) -> bool:
        """True if the node is an internal gate (MAJ or XOR)."""
        return self._kind[node] in (_KIND_MAJ, _KIND_XOR)

    def gate_nodes(self) -> List[int]:
        """Indices of all MAJ/XOR nodes in topological order."""
        return [n for n in self.nodes() if self.is_gate(n)]

    def eval_gate(self, node: int, operands: Sequence[int]) -> int:
        """Evaluate one gate on complement-adjusted operand words.

        Part of the :class:`repro.logic.network.LogicNetwork` protocol:
        ``operands`` are the fanin values (bit-parallel integer words or
        plain truth tables) with fanin complements already applied, in
        fanin order — majority-of-three for MAJ nodes, parity for XOR.
        """
        if self.is_maj(node):
            a, b, c = operands
            return (a & b) | (a & c) | (b & c)
        if self.is_xor(node):
            return operands[0] ^ operands[1]
        raise ValueError(f"node {node} is not a gate")

    def num_maj(self) -> int:
        """Number of majority nodes (including AND/OR specialisations)."""
        return self._kind.count(_KIND_MAJ)

    def num_xor(self) -> int:
        """Number of XOR nodes."""
        return self._kind.count(_KIND_XOR)

    def num_gates(self) -> int:
        """Total number of gate nodes."""
        return self.num_maj() + self.num_xor()

    def fanout_counts(self) -> List[int]:
        """Number of fanouts of every node (POs count as fanouts)."""
        counts = [0] * len(self._kind)
        for node in self.nodes():
            for fanin in self._fanins[node]:
                counts[lit_node(fanin)] += 1
        for po in self._pos:
            counts[lit_node(po)] += 1
        return counts

    def _level_list(self) -> List[int]:
        """Logic level of every node, indexed by node."""
        level = [0] * len(self._kind)
        for node, fanins in enumerate(self._fanins):
            if fanins:
                level[node] = 1 + max([level[f >> 1] for f in fanins])
        return level

    def levels(self) -> Dict[int, int]:
        """Logic level of every node."""
        return dict(enumerate(self._level_list()))

    def depth(self) -> int:
        """Number of logic levels on the longest PI-to-PO path.

        Computed once per network state: nodes and outputs are only ever
        appended, so the node and PO counts key the cached value.
        """
        key = (len(self._kind), len(self._pos))
        cached = self._depth_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        depth = 0
        if self._pos:
            level = self._level_list()
            depth = max(level[po >> 1] for po in self._pos)
        self._depth_cache = (key, depth)
        return depth

    def _check_lit(self, lit: int) -> None:
        node = lit_node(lit)
        if not 0 <= node < len(self._kind):
            raise ValueError(f"literal {lit} references unknown node {node}")

    # -- simulation -------------------------------------------------------------

    def simulate_words(self, patterns: Sequence[int], num_bits: int) -> List[int]:
        """Bit-parallel simulation with one arbitrary-precision int per signal.

        The contract and the memory bound are those of
        :meth:`repro.logic.aig.Aig.simulate_words`: one pass in node order,
        each node's value dropped after its last fanout (outputs included)
        has read it, one ``num_bits``-bit pattern per primary output back.
        """
        if len(patterns) != len(self._pis):
            raise ValueError(
                f"expected {len(self._pis)} input patterns, got {len(patterns)}"
            )
        if num_bits <= 0:
            raise ValueError("num_bits must be positive")
        mask = (1 << num_bits) - 1
        kinds = self._kind
        remaining = self.fanout_counts()
        values: List[Optional[int]] = [None] * len(kinds)
        values[0] = 0
        for node, pattern in zip(self._pis, patterns):
            values[node] = pattern & mask
        for node, fanins in enumerate(self._fanins):
            if not fanins:  # the constant or a PI
                continue
            operands = []
            for fanin in fanins:
                value = values[fanin >> 1]
                operands.append(value ^ mask if fanin & 1 else value)
            for fanin in fanins:
                fanin_node = fanin >> 1
                remaining[fanin_node] -= 1
                if not remaining[fanin_node]:
                    values[fanin_node] = None
            if not remaining[node]:  # a dangling node needs no value
                continue
            if kinds[node] == _KIND_MAJ:
                a, b, c = operands
                values[node] = (a & b) | (c & (a | b))
            else:
                values[node] = operands[0] ^ operands[1]
        outputs = []
        for po in self._pos:
            value = values[po >> 1]
            if po & 1:
                value ^= mask
            outputs.append(value)
        return outputs

    def output_columns(self) -> List[int]:
        """Integer truth tables of every primary output."""
        num_vars = len(self._pis)
        return self.simulate_words(
            [tt_var(i, num_vars) for i in range(num_vars)], 1 << num_vars
        )

    def to_truth_table(self) -> TruthTable:
        """Expand the XMG into an explicit multi-output truth table."""
        return TruthTable.from_columns(self.output_columns(), self.num_pis())

    # -- maintenance -------------------------------------------------------------

    def cleanup(self) -> "Xmg":
        """Return a copy containing only nodes reachable from the outputs.

        Primary inputs come first, in their original order; the reachable
        gates follow in their original (topological) order, rebuilt through
        :meth:`create_maj` / :meth:`create_xor`.  The copy is a fresh object
        that shares no state with ``self``.

        A *clean* network — every gate reachable and the inputs at nodes
        ``1..k`` — is returned as a plain :meth:`copy`: its gates were made
        by the canonicalising constructors and keep their node numbers, so
        the rebuild would reproduce it node for node.
        """
        kinds = self._kind
        fanins = self._fanins
        num_nodes = len(kinds)
        reachable = bytearray(num_nodes)
        for po in self._pos:
            reachable[po >> 1] = 1
        # Fanins have smaller indices, so one downward sweep marks them all.
        reachable_gates = 0
        for node in range(num_nodes - 1, 0, -1):
            if reachable[node]:
                node_fanins = fanins[node]
                if node_fanins:  # a gate; the constant and PIs have none
                    reachable_gates += 1
                    for fanin in node_fanins:
                        reachable[fanin >> 1] = 1

        pis = self._pis
        if reachable_gates == num_nodes - 1 - len(pis) and (
            not pis or pis[-1] == len(pis)
        ):
            return self.copy()

        result = Xmg(self.name)
        mapping = [0] * num_nodes  # node 0 maps to the constant-0 literal
        for node, name in zip(pis, self._pi_names):
            mapping[node] = result.add_pi(name)
        for node in range(1, num_nodes):
            node_fanins = fanins[node]
            if node_fanins and reachable[node]:
                operands = [mapping[f >> 1] ^ (f & 1) for f in node_fanins]
                if kinds[node] == _KIND_MAJ:
                    mapping[node] = result.create_maj(*operands)
                else:
                    mapping[node] = result.create_xor(*operands)
        for po, name in zip(self._pos, self._po_names):
            result.add_po(mapping[po >> 1] ^ (po & 1), name)
        return result

    def same_structure(self, other: "Xmg") -> bool:
        """True if ``other`` equals this network node for node.

        Compares the name, the node kinds and fanins, and the inputs and
        outputs with their names; the strash table follows from the kinds
        and fanins.  This is not ``__eq__``, which would make networks
        unhashable.
        """
        return (
            self._kind == other._kind
            and self._fanins == other._fanins
            and self._pis == other._pis
            and self._pos == other._pos
            and self._pi_names == other._pi_names
            and self._po_names == other._po_names
            and self.name == other.name
        )

    def copy(self) -> "Xmg":
        """Deep copy of the XMG (including dangling nodes)."""
        result = Xmg(self.name)
        result._kind = list(self._kind)
        result._fanins = list(self._fanins)  # the fanin tuples are immutable
        result._pis = list(self._pis)
        result._pi_names = list(self._pi_names)
        result._pos = list(self._pos)
        result._po_names = list(self._po_names)
        result._strash = dict(self._strash)
        result._depth_cache = self._depth_cache  # same structure, same depth
        return result

    def __repr__(self) -> str:
        return (
            f"Xmg(name={self.name!r}, pis={self.num_pis()}, pos={self.num_pos()}, "
            f"maj={self.num_maj()}, xor={self.num_xor()})"
        )
