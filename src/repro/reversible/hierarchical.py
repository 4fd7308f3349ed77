"""Hierarchical reversible synthesis from XOR-majority graphs (Section IV-C).

Every XMG node is compiled into a small gate block that computes its value
onto an ancilla line:

* an XOR node costs two CNOT gates (and possibly a NOT) — no T gates,
* a MAJ node costs exactly one Toffoli gate (plus CNOT/NOT bookkeeping),
  using the identity ``maj(a, b, c) = c xor ((a xor c) and (b xor c))``;
  the AND/OR special cases (a constant fanin) likewise cost one Toffoli.

Because intermediate values live on their own lines, the number of qubits is
large — this is the scalable, low-T-count corner of the design space
reported in Table IV.  Two ancilla management strategies are provided
(mirroring the cleanup strategies of REVS [9]):

* ``"bennett"``    — compute every node once, copy the outputs, then
  uncompute every node in reverse order.  All ancillas return to zero; the
  number of ancillas equals the number of XMG nodes.
* ``"per_output"`` — compute, copy and immediately uncompute one primary
  output cone at a time, reusing the freed ancilla lines for the next
  output.  This trades additional gates (logic shared between outputs is
  recomputed) for a smaller number of qubits.  ``"eager"`` is accepted as an
  alias.  Copy targets are drawn from the same pool as the cone ancillas:
  an output claimed after an earlier cone has been uncomputed reuses one of
  its zeroed lines, so a trivial output (a bare primary input or constant
  literal) never allocates a fresh qubit once freed lines exist.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.logic.xmg import Xmg, lit_is_compl, lit_node
from repro.reversible.circuit import LinePool, ReversibleCircuit
from repro.reversible.gates import ToffoliGate
from repro.utils.names import closest_name, did_you_mean

__all__ = ["hierarchical_synthesis"]


#: Cleanup strategies of hierarchical synthesis, and their aliases.
_STRATEGIES = ("bennett", "per_output")
_ALIASES = {"eager": "per_output"}


def _check_strategy(strategy: str) -> str:
    """The canonical strategy name; ``ValueError`` with a did-you-mean if unknown."""
    strategy = _ALIASES.get(strategy, strategy)
    if strategy in _STRATEGIES:
        return strategy
    close = closest_name(strategy, [*_STRATEGIES, *_ALIASES])
    raise ValueError(
        f"unknown strategy {strategy!r} for the hierarchical flow's 'strategy' "
        f"parameter; expected 'bennett' or 'per_output' (alias 'eager')"
        f"{did_you_mean(close)}"
    )


class _Compiler:
    def __init__(self, xmg: Xmg, strategy: str, name: str):
        self.xmg = xmg
        self.strategy = strategy
        self.circuit = ReversibleCircuit(name)
        self.pool = LinePool(self.circuit, reuse=(strategy == "per_output"))
        self.node_line: Dict[int, int] = {}
        self.node_block: Dict[int, List[ToffoliGate]] = {}

    # -- fanin helpers ---------------------------------------------------------

    def _fanin_line(self, lit: int) -> Tuple[Optional[int], bool, Optional[int]]:
        """Resolve a fanin literal to ``(line, complemented, constant)``."""
        node = lit_node(lit)
        compl = lit_is_compl(lit)
        if self.xmg.is_const(node):
            return None, False, 1 if compl else 0
        return self.node_line[node], compl, None

    # -- node blocks -----------------------------------------------------------

    def _xor_block(self, node: int, target: int) -> List[ToffoliGate]:
        gates: List[ToffoliGate] = []
        parity = False
        for lit in self.xmg.fanins(node):
            line, compl, constant = self._fanin_line(lit)
            if constant is not None:
                parity ^= bool(constant)
                continue
            gates.append(ToffoliGate.cnot(line, target))
            parity ^= compl
        if parity:
            gates.append(ToffoliGate.x(target))
        return gates

    def _maj_block(self, node: int, target: int) -> List[ToffoliGate]:
        fanins = [self._fanin_line(lit) for lit in self.xmg.fanins(node)]
        constants = [f for f in fanins if f[2] is not None]
        variables = [f for f in fanins if f[2] is None]

        if len(constants) >= 2:
            raise AssertionError("majority nodes with two constant fanins must fold")

        gates: List[ToffoliGate] = []
        if len(constants) == 1:
            (line_a, compl_a, _), (line_b, compl_b, _) = variables
            if constants[0][2] == 0:
                # AND of the two variable fanins.
                gates.append(
                    ToffoliGate(((line_a, not compl_a), (line_b, not compl_b)), target)
                )
            else:
                # OR via De Morgan: one Toffoli with negated controls, then NOT.
                gates.append(
                    ToffoliGate(((line_a, compl_a), (line_b, compl_b)), target)
                )
                gates.append(ToffoliGate.x(target))
            return gates

        # General case: maj(u, v, w) = w xor ((u xor w) and (v xor w)).
        (line_a, compl_a, _), (line_b, compl_b, _), (line_c, compl_c, _) = fanins
        gates.append(ToffoliGate.cnot(line_c, line_a))
        gates.append(ToffoliGate.cnot(line_c, line_b))
        gates.append(
            ToffoliGate(
                ((line_a, not (compl_a ^ compl_c)), (line_b, not (compl_b ^ compl_c))),
                target,
            )
        )
        gates.append(ToffoliGate.cnot(line_c, target))
        if compl_c:
            gates.append(ToffoliGate.x(target))
        gates.append(ToffoliGate.cnot(line_c, line_a))
        gates.append(ToffoliGate.cnot(line_c, line_b))
        return gates

    def _compute_node(self, node: int) -> None:
        target = self.pool.acquire()
        # ``node_line`` must be set before building the block only for
        # *other* nodes; the block of this node reads its fanins only.
        if self.xmg.is_xor(node):
            block = self._xor_block(node, target)
        else:
            block = self._maj_block(node, target)
        for gate in block:
            self.circuit.append(gate)
        self.node_line[node] = target
        self.node_block[node] = block

    def _uncompute_node(self, node: int) -> None:
        """Re-apply the node's block (an involution) and release its line."""
        for gate in self.node_block[node]:
            self.circuit.append(gate)
        self.pool.release(self.node_line[node])
        del self.node_line[node]
        del self.node_block[node]

    def _copy_output(self, output_index: int, po_lit: int, target: int) -> None:
        node = lit_node(po_lit)
        if self.xmg.is_const(node):
            if lit_is_compl(po_lit):
                self.circuit.append(ToffoliGate.x(target))
            return
        self.circuit.append(ToffoliGate.cnot(self.node_line[node], target))
        if lit_is_compl(po_lit):
            self.circuit.append(ToffoliGate.x(target))

    # -- strategies ---------------------------------------------------------------

    def _cone_nodes(self, root: int) -> List[int]:
        """Gate nodes in the transitive fanin of ``root`` (topological order)."""
        seen = set()
        stack = [root]
        while stack:
            node = stack.pop()
            if node in seen or self.xmg.is_pi(node) or self.xmg.is_const(node):
                continue
            seen.add(node)
            for lit in self.xmg.fanins(node):
                stack.append(lit_node(lit))
        return sorted(seen)

    def _claim_output_line(self, output_index: int) -> int:
        """Claim a line for a primary output from the ancilla pool.

        A freed (zeroed) ancilla of an earlier cone is reused when one is
        available; the line is renamed and never returned to the pool.
        """
        line = self.pool.acquire(name=self.xmg.po_names()[output_index])
        self.circuit.set_output(line, output_index)
        return line

    def run(self) -> ReversibleCircuit:
        xmg = self.xmg
        for i, name in enumerate(xmg.pi_names()):
            line = self.circuit.add_input_line(i, name=name)
            self.node_line[lit_node(xmg.pis()[i])] = line

        if self.strategy == "bennett":
            # No line is ever freed before the copies, so the output lines
            # can be allocated upfront (stable line order for reports).
            output_lines = [
                self._claim_output_line(j) for j in range(len(xmg.pos()))
            ]
            order = xmg.gate_nodes()
            for node in order:
                self._compute_node(node)
            for j, po in enumerate(xmg.pos()):
                self._copy_output(j, po, output_lines[j])
            for node in reversed(order):
                self._uncompute_node(node)
        else:  # per_output
            for j, po in enumerate(xmg.pos()):
                cone = self._cone_nodes(lit_node(po))
                for node in cone:
                    self._compute_node(node)
                # Claim the copy target only now: after the previous cone
                # was uncomputed the pool holds zeroed lines, so trivial
                # outputs (bare primary inputs / constant literals) and
                # small cones reuse them instead of fresh ancillas.
                target = self._claim_output_line(j)
                self._copy_output(j, po, target)
                for node in reversed(cone):
                    self._uncompute_node(node)

        return self.circuit


def hierarchical_synthesis(
    xmg: Xmg, strategy: str = "bennett", name: str = "hierarchical"
) -> ReversibleCircuit:
    """Compile an XMG into a reversible circuit node by node.

    ``strategy`` selects the ancilla cleanup policy (``"bennett"``,
    ``"per_output"`` or its alias ``"eager"``, see the module docstring).
    All strategies produce a clean circuit: every ancilla returns to zero and
    the primary inputs are preserved.
    """
    return _Compiler(xmg.cleanup(), _check_strategy(strategy), name).run()
