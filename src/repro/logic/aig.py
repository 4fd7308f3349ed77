"""And-inverter graphs (AIGs).

The AIG is the central multi-level representation of the logic synthesis
level (Fig. 1 of the paper): the Verilog front-end bit-blasts into an AIG,
ABC-style optimisation scripts operate on it, and the three reversible flows
consume it (simulated into a truth table, collapsed into an ESOP, or
mapped into an XMG).

Representation
--------------

* Node 0 is the constant FALSE.  Primary inputs and AND nodes follow.
* A *literal* is ``2*node + complement`` — literal 0 is constant 0 and
  literal 1 constant 1.
* AND nodes store two fanin literals; primary inputs store the sentinel
  ``(-1, -1)``.
* Nodes are created in topological order (fanins always have smaller node
  indices), and structural hashing guarantees that no two AND nodes have the
  same ordered fanin pair.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.logic.lits import (  # noqa: F401  (re-exported for compatibility)
    lit_is_compl,
    lit_node,
    lit_not,
    lit_not_cond,
    make_lit,
)
from repro.logic.truth_table import TruthTable, tt_mask, tt_var

__all__ = ["Aig", "lit_not", "lit_is_compl", "lit_node", "make_lit"]


class Aig:
    """A combinational and-inverter graph."""

    CONST0 = 0  # literal of the constant-0 function
    CONST1 = 1  # literal of the constant-1 function

    #: Network-type tag of the :class:`repro.logic.network.LogicNetwork`
    #: protocol (the pass manager keys pass applicability on it).
    network_type = "aig"

    def __init__(self, name: str = "aig"):
        self.name = name
        self._fanin0: List[int] = [-1]  # node 0: constant
        self._fanin1: List[int] = [-1]
        self._pis: List[int] = []
        self._pi_names: List[str] = []
        self._pos: List[int] = []
        self._po_names: List[str] = []
        self._strash: Dict[Tuple[int, int], int] = {}

    # -- construction --------------------------------------------------------

    def add_pi(self, name: Optional[str] = None) -> int:
        """Create a primary input and return its literal."""
        node = len(self._fanin0)
        self._fanin0.append(-1)
        self._fanin1.append(-1)
        self._pis.append(node)
        self._pi_names.append(name if name is not None else f"pi{len(self._pis) - 1}")
        return make_lit(node)

    def add_po(self, lit: int, name: Optional[str] = None) -> int:
        """Register a literal as a primary output; returns the output index."""
        self._check_lit(lit)
        self._pos.append(lit)
        self._po_names.append(name if name is not None else f"po{len(self._pos) - 1}")
        return len(self._pos) - 1

    def create_and(self, a: int, b: int) -> int:
        """Create (or reuse) an AND node and return its literal."""
        fanin0 = self._fanin0
        num_lits = 2 * len(fanin0)
        if not 0 <= a < num_lits:
            self._check_lit(a)
        if not 0 <= b < num_lits:
            self._check_lit(b)
        # Trivial simplifications (literal 0 is CONST0, literal 1 CONST1).
        if a == 0 or b == 0:
            return 0
        if a == 1:
            return b
        if b == 1:
            return a
        if a == b:
            return a
        if a == b ^ 1:
            return 0
        if a > b:
            a, b = b, a
        key = (a, b)
        node = self._strash.get(key)
        if node is None:
            node = len(fanin0)
            fanin0.append(a)
            self._fanin1.append(b)
            self._strash[key] = node
        return node << 1

    def create_or(self, a: int, b: int) -> int:
        """OR via De Morgan."""
        return lit_not(self.create_and(lit_not(a), lit_not(b)))

    def create_nand(self, a: int, b: int) -> int:
        """NAND of two literals."""
        return lit_not(self.create_and(a, b))

    def create_nor(self, a: int, b: int) -> int:
        """NOR of two literals."""
        return lit_not(self.create_or(a, b))

    def create_xor(self, a: int, b: int) -> int:
        """XOR built from three AND nodes."""
        return lit_not(
            self.create_and(
                lit_not(self.create_and(a, lit_not(b))),
                lit_not(self.create_and(lit_not(a), b)),
            )
        )

    def create_xnor(self, a: int, b: int) -> int:
        """Complemented XOR."""
        return lit_not(self.create_xor(a, b))

    def create_mux(self, sel: int, if_true: int, if_false: int) -> int:
        """Multiplexer ``sel ? if_true : if_false``."""
        return lit_not(
            self.create_and(
                lit_not(self.create_and(sel, if_true)),
                lit_not(self.create_and(lit_not(sel), if_false)),
            )
        )

    def create_maj(self, a: int, b: int, c: int) -> int:
        """Majority-of-three of three literals."""
        ab = self.create_and(a, b)
        ac = self.create_and(a, c)
        bc = self.create_and(b, c)
        return self.create_or(ab, self.create_or(ac, bc))

    def create_and_multi(self, literals: Sequence[int]) -> int:
        """Balanced conjunction of a list of literals."""
        return self._reduce_balanced(list(literals), self.create_and, self.CONST1)

    def create_or_multi(self, literals: Sequence[int]) -> int:
        """Balanced disjunction of a list of literals."""
        return self._reduce_balanced(list(literals), self.create_or, self.CONST0)

    def create_xor_multi(self, literals: Sequence[int]) -> int:
        """Balanced XOR of a list of literals."""
        return self._reduce_balanced(list(literals), self.create_xor, self.CONST0)

    def _reduce_balanced(
        self, literals: List[int], op: Callable[[int, int], int], neutral: int
    ) -> int:
        if not literals:
            return neutral
        while len(literals) > 1:
            next_level = []
            for i in range(0, len(literals) - 1, 2):
                next_level.append(op(literals[i], literals[i + 1]))
            if len(literals) % 2:
                next_level.append(literals[-1])
            literals = next_level
        return literals[0]

    # -- structure queries -----------------------------------------------------

    def num_nodes(self) -> int:
        """Number of AND nodes."""
        return len(self._fanin0) - 1 - len(self._pis)

    def num_pis(self) -> int:
        """Number of primary inputs."""
        return len(self._pis)

    def num_pos(self) -> int:
        """Number of primary outputs."""
        return len(self._pos)

    def pis(self) -> List[int]:
        """Literals of the primary inputs, in creation order."""
        return [make_lit(node) for node in self._pis]

    def pos(self) -> List[int]:
        """Literals driving the primary outputs, in creation order."""
        return list(self._pos)

    def pi_names(self) -> List[str]:
        """Names of the primary inputs."""
        return list(self._pi_names)

    def po_names(self) -> List[str]:
        """Names of the primary outputs."""
        return list(self._po_names)

    def is_pi(self, node: int) -> bool:
        """True if the node is a primary input."""
        return self._fanin0[node] == -1 and node != 0

    def is_const(self, node: int) -> bool:
        """True if the node is the constant node."""
        return node == 0

    def is_and(self, node: int) -> bool:
        """True if the node is an AND node."""
        return node != 0 and self._fanin0[node] != -1

    def is_gate(self, node: int) -> bool:
        """True if the node is an internal gate (protocol alias of AND)."""
        return self.is_and(node)

    def fanins(self, node: int) -> Tuple[int, int]:
        """Fanin literals of an AND node."""
        if not self.is_and(node):
            raise ValueError(f"node {node} is not an AND node")
        return self._fanin0[node], self._fanin1[node]

    def nodes(self) -> Iterable[int]:
        """All node indices (constant, PIs and AND nodes) in topological order."""
        return range(len(self._fanin0))

    def and_nodes(self) -> List[int]:
        """Indices of all AND nodes in topological order."""
        return [n for n in range(len(self._fanin0)) if self.is_and(n)]

    def gate_nodes(self) -> List[int]:
        """Indices of all gate nodes (protocol alias of :meth:`and_nodes`)."""
        return self.and_nodes()

    def num_gates(self) -> int:
        """Number of gate nodes (protocol alias of :meth:`num_nodes`)."""
        return self.num_nodes()

    def eval_gate(self, node: int, operands: Sequence[int]) -> int:
        """Evaluate one gate on complement-adjusted operand words.

        Part of the :class:`repro.logic.network.LogicNetwork` protocol:
        ``operands`` are the fanin values (bit-parallel integer words or
        plain truth tables) with fanin complements already applied, in
        fanin order.  For an AIG this is always a binary AND.
        """
        return operands[0] & operands[1]

    def _level_list(self) -> List[int]:
        """Logic level of every node, indexed by node."""
        fanin0 = self._fanin0
        fanin1 = self._fanin1
        level = [0] * len(fanin0)
        for node in range(1, len(fanin0)):
            f0 = fanin0[node]
            if f0 >= 0:  # an AND node; the constant and PIs store -1
                level0 = level[f0 >> 1]
                level1 = level[fanin1[node] >> 1]
                level[node] = 1 + (level0 if level0 > level1 else level1)
        return level

    def levels(self) -> Dict[int, int]:
        """Logic level of every node (PIs and constant at level 0)."""
        return dict(enumerate(self._level_list()))

    def depth(self) -> int:
        """Number of logic levels on the longest PI-to-PO path."""
        if not self._pos:
            return 0
        level = self._level_list()
        return max(level[po >> 1] for po in self._pos)

    def fanout_counts(self) -> List[int]:
        """Number of fanouts of every node (POs count as fanouts)."""
        counts = [0] * len(self._fanin0)
        for f0, f1 in zip(self._fanin0, self._fanin1):
            if f0 >= 0:  # an AND node; the constant and PIs store -1
                counts[f0 >> 1] += 1
                counts[f1 >> 1] += 1
        for po in self._pos:
            counts[po >> 1] += 1
        return counts

    def _check_lit(self, lit: int) -> None:
        node = lit_node(lit)
        if not 0 <= node < len(self._fanin0):
            raise ValueError(f"literal {lit} references unknown node {node}")

    # -- simulation -------------------------------------------------------------

    def simulate_words(self, input_words: Sequence[int], num_bits: int) -> List[int]:
        """Bit-parallel simulation with arbitrary-precision integer patterns.

        ``input_words[i]`` is the simulation pattern of primary input ``i``;
        bit ``t`` of each pattern belongs to test vector ``t`` and only the
        lowest ``num_bits`` bits are significant.  Returns the pattern of
        every primary output, masked to ``num_bits`` bits.
        """
        if len(input_words) != len(self._pis):
            raise ValueError(
                f"expected {len(self._pis)} input patterns, got {len(input_words)}"
            )
        if num_bits <= 0:
            raise ValueError("num_bits must be positive")
        mask = (1 << num_bits) - 1
        values: List[int] = [0] * len(self._fanin0)

        for node, pattern in zip(self._pis, input_words):
            values[node] = pattern & mask

        def lit_value(lit: int) -> int:
            value = values[lit_node(lit)]
            if lit_is_compl(lit):
                value ^= mask
            return value

        for node in range(len(self._fanin0)):
            if self.is_and(node):
                f0, f1 = self.fanins(node)
                values[node] = lit_value(f0) & lit_value(f1)

        return [lit_value(po) for po in self._pos]

    def simulate_minterm(self, minterm: int) -> int:
        """Evaluate the AIG on one input assignment; returns the output word."""
        values: List[bool] = [False] * len(self._fanin0)
        for i, node in enumerate(self._pis):
            values[node] = bool((minterm >> i) & 1)

        def lit_value(lit: int) -> bool:
            return values[lit_node(lit)] ^ lit_is_compl(lit)

        for node in range(len(self._fanin0)):
            if self.is_and(node):
                f0, f1 = self.fanins(node)
                values[node] = lit_value(f0) and lit_value(f1)

        word = 0
        for j, po in enumerate(self._pos):
            if lit_value(po):
                word |= 1 << j
        return word

    def node_truth_tables(self) -> List[int]:
        """Integer truth tables (over all PIs) of every node.

        Only sensible for a moderate number of inputs (the table of each node
        has ``2**num_pis`` bits).
        """
        num_vars = len(self._pis)
        mask = tt_mask(num_vars)
        tables: List[int] = [0] * len(self._fanin0)
        for i, node in enumerate(self._pis):
            tables[node] = tt_var(i, num_vars)

        def lit_table(lit: int) -> int:
            table = tables[lit_node(lit)]
            if lit_is_compl(lit):
                table ^= mask
            return table

        for node in range(len(self._fanin0)):
            if self.is_and(node):
                f0, f1 = self.fanins(node)
                tables[node] = lit_table(f0) & lit_table(f1)
        return tables

    def output_columns(self) -> List[int]:
        """Integer truth tables of every primary output.

        One pass over the fanin arrays in node order.  A node's table is
        dropped once its last fanout has read it (the reference counts are
        :meth:`fanout_counts`, outputs included), so the live tables track
        the AIG's width, not its size: memory is about ``width * 2**num_pis``
        bits instead of ``num_nodes * 2**num_pis``.
        """
        num_vars = len(self._pis)
        mask = tt_mask(num_vars)
        fanin0, fanin1 = self._fanin0, self._fanin1
        remaining = self.fanout_counts()
        tables: List[Optional[int]] = [None] * len(fanin0)
        tables[0] = 0
        for i, node in enumerate(self._pis):
            tables[node] = tt_var(i, num_vars)
        for node in range(len(fanin0)):
            f0 = fanin0[node]
            if f0 < 0:  # the constant or a PI
                continue
            f1 = fanin1[node]
            n0, n1 = f0 >> 1, f1 >> 1
            table0, table1 = tables[n0], tables[n1]
            if f0 & 1:
                table0 ^= mask
            if f1 & 1:
                table1 ^= mask
            remaining[n0] -= 1
            if not remaining[n0]:
                tables[n0] = None
            remaining[n1] -= 1
            if not remaining[n1]:
                tables[n1] = None
            if remaining[node]:  # a dangling node needs no table
                tables[node] = table0 & table1
        columns = []
        for po in self._pos:
            table = tables[po >> 1]
            if po & 1:
                table ^= mask
            columns.append(table)
        return columns

    def to_truth_table(self) -> TruthTable:
        """Expand the AIG into an explicit multi-output truth table."""
        return TruthTable.from_columns(self.output_columns(), len(self._pis))

    def simulate_random(self, num_patterns: int, seed: int = 1) -> List[int]:
        """Simulate ``num_patterns`` random vectors; returns PO patterns."""
        rng = np.random.default_rng(seed)
        patterns = []
        for _ in self._pis:
            bits = rng.integers(0, 2, size=num_patterns)
            word = 0
            for t, bit in enumerate(bits):
                if bit:
                    word |= 1 << t
            patterns.append(word)
        return self.simulate_words(patterns, num_patterns)

    # -- rebuilding --------------------------------------------------------------

    def cleanup(self) -> "Aig":
        """Return a copy containing only nodes reachable from the outputs.

        Primary inputs come first, in their original order; the reachable
        AND nodes follow in their original (topological) order, rebuilt
        through :meth:`create_and`, so the copy is strashed and free of
        trivial ANDs.  The copy is a fresh object that shares no state with
        ``self``.

        A *clean* network — every AND node reachable and the inputs at
        nodes ``1..k`` — is returned as a plain :meth:`copy`.  Every node
        was made by :meth:`create_and`, so its fanins are already
        canonical, and renumbering keeps every node where it is: the
        rebuild would reproduce the network node for node.  (The rebuild
        keeps every input, so an unreachable input does not stop this.)
        """
        fanin0 = self._fanin0
        fanin1 = self._fanin1
        num_nodes = len(fanin0)
        reachable = bytearray(num_nodes)
        for po in self._pos:
            reachable[po >> 1] = 1
        # Fanins have smaller indices, so one downward sweep marks them all.
        reachable_ands = 0
        for node in range(num_nodes - 1, 0, -1):
            if reachable[node]:
                f0 = fanin0[node]
                if f0 >= 0:  # an AND node; the constant and PIs store -1
                    reachable_ands += 1
                    reachable[f0 >> 1] = 1
                    reachable[fanin1[node] >> 1] = 1

        pis = self._pis
        if reachable_ands == num_nodes - 1 - len(pis) and (
            not pis or pis[-1] == len(pis)
        ):
            return self.copy()

        result = Aig(self.name)
        mapping = [0] * num_nodes  # node 0 maps to the constant-0 literal
        for node, name in zip(pis, self._pi_names):
            mapping[node] = result.add_pi(name)
        create_and = result.create_and
        for node in range(1, num_nodes):
            f0 = fanin0[node]
            if f0 >= 0 and reachable[node]:
                f1 = fanin1[node]
                mapping[node] = create_and(
                    mapping[f0 >> 1] ^ (f0 & 1), mapping[f1 >> 1] ^ (f1 & 1)
                )
        for po, name in zip(self._pos, self._po_names):
            result.add_po(mapping[po >> 1] ^ (po & 1), name)
        return result

    def copy(self) -> "Aig":
        """Deep copy of the AIG (including dangling nodes)."""
        result = Aig(self.name)
        result._fanin0 = list(self._fanin0)
        result._fanin1 = list(self._fanin1)
        result._pis = list(self._pis)
        result._pi_names = list(self._pi_names)
        result._pos = list(self._pos)
        result._po_names = list(self._po_names)
        result._strash = dict(self._strash)
        return result

    # -- dunder -------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"Aig(name={self.name!r}, pis={self.num_pis()}, "
            f"pos={self.num_pos()}, ands={self.num_nodes()})"
        )
