"""Symbolic functional synthesis: optimum embedding + transformation-based
synthesis (the RevKit ``tbs -s`` analogue).

The paper's functional flow collapses the optimised AIG (ABC ``collapse``),
derives an optimum embedding from it and runs the SAT-based symbolic
transformation-based algorithm [7].  Neither RevKit nor a SAT solver is
available here, so this module substitutes an explicit implementation of
the same algorithm (see ``docs/architecture.md``): the produced circuits
have the same structure (line-optimal, large multi-controlled Toffoli
gates).  Only the ``2^n`` input rows (constant lines at 0) of the ``2^L``-state embedding are
ever used, so the embedding stores just their images and the kernel
(:func:`repro.reversible.tbs.synthesize_permutation_masks`) stops once
they are fixed; the other states are don't-cares.  The kernel keeps both of
its tables bit-sliced over one index space and compacts the finished
indices away as rows are fixed, and the function is read off the AIG by one
exhaustive bit-parallel simulation.  :data:`repro.reversible.tbs.MAX_TBS_LINES` caps the
number of inputs, not of lines, so the paper's INTDIV(16) (31 lines, 2^16
care rows) runs end to end in seconds, where the original needed 3.2 days
on a server.  The emitted gates go straight into the circuit's columnar
mask store (:mod:`repro.reversible.gatestore`) — no per-gate objects.
"""

from __future__ import annotations

from typing import Union

from repro.logic.aig import Aig
from repro.logic.truth_table import TruthTable
from repro.reversible.circuit import ReversibleCircuit
from repro.reversible.embedding import EmbeddedFunction, optimum_embedding
from repro.reversible.tbs import synthesize_permutation_masks

__all__ = ["symbolic_tbs"]


def _annotated_circuit(
    embedding: EmbeddedFunction, name: str
) -> ReversibleCircuit:
    """An empty circuit with input/constant/output/garbage roles attached."""
    result = ReversibleCircuit(name)
    output_of_line = {line: j for j, line in enumerate(embedding.output_lines)}
    for line in range(embedding.num_lines):
        input_index = (
            embedding.input_lines.index(line) if line in embedding.input_lines else None
        )
        constant = embedding.constant_lines.get(line)
        result.add_line(
            name=f"x{input_index}" if input_index is not None else f"a{line}",
            input_index=input_index,
            constant=constant,
        )
    for line in range(embedding.num_lines):
        if line in output_of_line:
            result.set_output(line, output_of_line[line])
        else:
            result.set_garbage(line)
    return result


def symbolic_tbs(
    spec: Union[TruthTable, EmbeddedFunction, Aig],
    bidirectional: bool = True,
    name: str = "symbolic_tbs",
) -> ReversibleCircuit:
    """Synthesise a line-optimal reversible circuit for ``spec``.

    ``spec`` may be

    * an :class:`~repro.logic.aig.Aig` — it is simulated exhaustively into
      an explicit function (the flow's ``collapse`` step),
    * a :class:`~repro.logic.truth_table.TruthTable` — an optimum embedding
      is computed first,
    * an :class:`~repro.reversible.embedding.EmbeddedFunction` — used as-is.

    The returned circuit applies the function in place: the inputs are not
    preserved (they are overwritten by garbage/outputs), matching the
    behaviour described in Section IV-A.
    """
    if isinstance(spec, Aig):
        spec = spec.to_truth_table()
    if isinstance(spec, TruthTable):
        spec = optimum_embedding(spec)
    if not isinstance(spec, EmbeddedFunction):
        raise TypeError(f"unsupported specification type {type(spec)!r}")

    masks = synthesize_permutation_masks(
        spec.care_images, spec.num_lines, bidirectional=bidirectional
    )
    # The annotated lines exist before the cascade is appended, so the
    # all-positive TBS gates land in the columnar store mask-natively (no
    # per-gate objects, no second circuit to re-extend).
    circuit = _annotated_circuit(spec, name)
    circuit.extend_masks((mask, mask, target) for mask, target in masks)
    return circuit
