"""ESOP-based reversible synthesis (the REVS flow of Section IV-B).

Every product term of a multi-output ESOP cover becomes one
multiple-controlled Toffoli gate whose controls are the term's literals
(with matching polarities) and whose target is the corresponding output
line.  The circuit therefore uses ``n + m`` lines for an ``n``-input,
``m``-output function (``2n`` for the reciprocal), and the largest gate has
at most ``n`` controls — much smaller than the gates produced by functional
synthesis, hence the much smaller T-count of Table III.

Two REVS features are modelled:

* **shared product terms** — a cube feeding several outputs is realised once
  and fanned out with CNOT gates through a scratch ancilla (computed,
  copied, uncomputed).  The paper describes copying directly from the first
  output line; that shortcut is only correct while that line still holds
  exactly the cube value, so the scratch-ancilla variant is used here (same
  qualitative effect, conservative by one extra Toffoli).  Because the
  ancilla would push the line count beyond the paper's ``2n``, it is only
  enabled together with factoring; at ``p = 0`` shared terms are repeated
  per output,
* **factoring (parameter ``p``)** — for ``p > 0`` common sub-cubes (up to
  ``p + 1`` literals, built up over ``p`` rounds of pairwise extraction) are
  computed once on additional ancilla lines and reused as single controls,
  trading additional qubits for a lower T-count, as in the ``p = 1`` columns
  of Table III.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.logic.esop import EsopCover
from repro.reversible.circuit import ReversibleCircuit
from repro.utils.bitops import bit_count

__all__ = ["esop_synthesis"]


# A control atom is either an input variable with a polarity or a factor
# ancilla line (always positive).
_Atom = Tuple[str, int, bool]  # ("var", index, polarity) | ("factor", line, True)


@dataclass
class _Term:
    atoms: List[_Atom]
    outputs: int


def _atom_key(atom: _Atom) -> Tuple[str, int, bool]:
    return atom


def _extract_factors(
    terms: List[_Term],
    circuit: ReversibleCircuit,
    input_line: Dict[int, int],
    max_rounds: int,
) -> List[Tuple[int, Tuple[_Atom, _Atom]]]:
    """Greedy pairwise sub-cube extraction.

    Returns the list of allocated factor lines with the atom pair each one
    computes; terms are rewritten in place to use the factor atoms.
    """
    factors: List[Tuple[int, Tuple[_Atom, _Atom]]] = []
    for _ in range(max_rounds):
        # Count co-occurring atom pairs.
        counts: Dict[Tuple[_Atom, _Atom], int] = {}
        for term in terms:
            atoms = sorted(term.atoms, key=_atom_key)
            for i in range(len(atoms)):
                for j in range(i + 1, len(atoms)):
                    pair = (atoms[i], atoms[j])
                    counts[pair] = counts.get(pair, 0) + 1
        if not counts:
            break
        pair, occurrences = max(counts.items(), key=lambda item: (item[1], item[0]))
        if occurrences < 2:
            break

        line = circuit.add_constant_line(0, name=f"f{len(factors)}")
        factors.append((line, pair))
        pair_set = set(pair)
        replacement: _Atom = ("factor", line, True)
        for term in terms:
            if pair_set.issubset(set(term.atoms)):
                term.atoms = [atom for atom in term.atoms if atom not in pair_set]
                term.atoms.append(replacement)
    return factors


def _atom_control(atom: _Atom, input_line: Dict[int, int]) -> Tuple[int, bool]:
    kind, index, polarity = atom
    if kind == "var":
        return input_line[index], polarity
    return index, polarity  # factor atoms store the line directly


def _factor_controls(
    pair: Tuple[_Atom, _Atom], input_line: Dict[int, int]
) -> Tuple[Tuple[int, bool], ...]:
    return tuple(_atom_control(atom, input_line) for atom in pair)


def esop_synthesis(
    cover: EsopCover,
    p: int = 0,
    share_threshold: int = 3,
    name: str = "esop",
) -> ReversibleCircuit:
    """Synthesise a reversible circuit from a multi-output ESOP cover.

    ``p`` is the factoring parameter of the REVS flow (0 disables
    factoring).  ``share_threshold`` is the minimum number of outputs a
    shared term must feed before the scratch-ancilla fan-out is used instead
    of repeating the Toffoli gate per output.
    """
    if p < 0:
        raise ValueError("the factoring parameter p must be non-negative")

    circuit = ReversibleCircuit(name)
    input_line: Dict[int, int] = {}
    for i in range(cover.num_inputs):
        input_line[i] = circuit.add_input_line(i)
    output_line: Dict[int, int] = {}
    for j in range(cover.num_outputs):
        line = circuit.add_constant_line(0, name=f"y{j}")
        circuit.set_output(line, j)
        output_line[j] = line

    terms = [
        _Term(
            atoms=[("var", var, positive) for var, positive in term.cube.literals()],
            outputs=term.outputs,
        )
        for term in cover.terms
    ]

    factors: List[Tuple[int, Tuple[_Atom, _Atom]]] = []
    if p > 0:
        factors = _extract_factors(terms, circuit, input_line, max_rounds=p * max(1, cover.num_outputs))

    # Shared-term fan-out through a scratch ancilla is only enabled together
    # with factoring (p > 0): the paper's p = 0 configuration uses exactly
    # 2n lines, so at p = 0 a term feeding several outputs is simply realised
    # once per output.
    needs_scratch = p > 0 and any(
        bit_count(term.outputs) >= share_threshold for term in terms
    )
    scratch = circuit.add_constant_line(0, name="scratch") if needs_scratch else None

    # Gate sites below go through append_controls: ascending control lists
    # (cube literals are emitted in ascending variable order) take the
    # mask-native path into the columnar store, anything else falls back to
    # an equivalent gate object transparently.

    # Compute the factors (they only depend on inputs / earlier factors).
    for line, pair in factors:
        circuit.append_controls(_factor_controls(pair, input_line), line)

    # Realise every product term.
    for term in terms:
        controls = tuple(_atom_control(atom, input_line) for atom in term.atoms)
        targets = [output_line[j] for j in range(cover.num_outputs) if (term.outputs >> j) & 1]
        if len(targets) >= share_threshold and scratch is not None:
            circuit.append_controls(controls, scratch)
            for target in targets:
                circuit.append_controls(((scratch, True),), target)
            circuit.append_controls(controls, scratch)
        else:
            for target in targets:
                circuit.append_controls(controls, target)

    # Uncompute the factor ancillas (reverse order) so they return to zero.
    for line, pair in reversed(factors):
        circuit.append_controls(_factor_controls(pair, input_line), line)

    return circuit
