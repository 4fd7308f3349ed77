"""Executing a pebble schedule: LUT-granular hierarchical synthesis.

Every :data:`~repro.reversible.pebbling.COMPUTE` step of a
:class:`~repro.reversible.pebbling.PebbleSchedule` synthesises one k-LUT's
truth table onto an ancilla line; an
:data:`~repro.reversible.pebbling.UNCOMPUTE` step re-applies the same block
in reverse (returning the ancilla to zero and releasing the line for
reuse), and a :data:`~repro.reversible.pebbling.COPY` step CNOTs a pebbled
value onto a primary-output line.  Output lines are drawn from the same
free-line pool as the ancillas, so an output claimed after a cone has been
uncomputed reuses a zeroed ancilla instead of a fresh qubit.

Three sub-synthesizers realise a LUT block:

* ``"esop"`` (default) — a PSDKRO ESOP of the LUT function; every cube
  becomes one mixed-polarity Toffoli with controls on the leaf lines and
  the ancilla as target.  The block only ever writes the target line.
* ``"exact"`` — the (T-cost, cube count)-minimal ESOP of
  :mod:`repro.logic.exact_esop`, read from an exhaustive cost table for
  ≤4-input functions (PSDKRO above that), so a block is never T-dearer
  than the ``"esop"`` one.
* ``"tbs"``  — transformation-based synthesis of the ``(x, a) -> (x, a ⊕
  f(x))`` permutation over the leaf lines plus the target; leaf lines may
  be written transiently but are restored by the end of the block.

Both blocks are rebuilt from the *current* leaf lines at every step: under
a bounded schedule a fanin LUT may have been evicted and recomputed onto a
different line between a compute and its matching uncompute, so recorded
gate lists would silently read stale lines.  Because a block is a pure
function of the LUT truth table and the leaf values, re-deriving it is
always correct.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.logic.aig import lit_is_compl, lit_node
from repro.logic.cuts import LutMapping, lut_map
from repro.logic.esop import psdkro_cubes
from repro.reversible.circuit import LinePool, ReversibleCircuit
from repro.reversible.pebbling import (
    COMPUTE,
    COPY,
    PebbleSchedule,
    make_schedule,
    validate_schedule,
)

__all__ = ["LUT_SYNTHESIZERS", "lut_synthesis", "synthesize_schedule"]

#: The per-LUT sub-synthesizers understood by :func:`synthesize_schedule`.
LUT_SYNTHESIZERS = ("esop", "exact", "tbs")


#: A gate description as accepted by ``ReversibleCircuit.append_controls``:
#: an ordered ``(line, positive)`` control list plus the target line.
_GateDesc = Tuple[Tuple[Tuple[int, bool], ...], int]


def _cubes_to_controls(cubes, leaf_lines: List[int], target: int) -> List[_GateDesc]:
    """One mixed-polarity Toffoli per cube, all targeting the ancilla."""
    gates: List[_GateDesc] = []
    for cube in cubes:
        controls = tuple(
            (leaf_lines[var], positive) for var, positive in cube.literals()
        )
        gates.append((controls, target))
    return gates


def _esop_block(truth: int, leaf_lines: List[int], target: int) -> List[_GateDesc]:
    """One Toffoli per PSDKRO cube, all targeting the ancilla."""
    return _cubes_to_controls(
        psdkro_cubes(truth, len(leaf_lines)), leaf_lines, target
    )


def _exact_block(truth: int, leaf_lines: List[int], target: int) -> List[_GateDesc]:
    """The T-cost-minimal ESOP of the LUT (memoized by truth table).

    Never T-dearer than the PSDKRO block: :func:`exact_esop_cubes` is
    optimal up to its exact limit and returns the PSDKRO cover above it.
    """
    from repro.logic.exact_esop import exact_esop_cubes

    return _cubes_to_controls(
        exact_esop_cubes(truth, len(leaf_lines)), leaf_lines, target
    )


def _tbs_block(truth: int, leaf_lines: List[int], target: int) -> List[_GateDesc]:
    """TBS of the ``(x, a) -> (x, a xor f(x))`` permutation, remapped."""
    from repro.reversible.tbs import synthesize_permutation_masks

    num_vars = len(leaf_lines)
    size = 1 << (num_vars + 1)
    permutation = [0] * size
    for state in range(size):
        x = state & ((1 << num_vars) - 1)
        a = state >> num_vars
        permutation[state] = x | ((a ^ ((truth >> x) & 1)) << num_vars)
    masks = synthesize_permutation_masks(permutation, num_vars + 1)
    line_of = list(leaf_lines) + [target]
    gates: List[_GateDesc] = []
    for controls_mask, local_target in masks:
        controls: List[Tuple[int, bool]] = []
        mask = controls_mask
        while mask:
            bit = mask & -mask
            controls.append((line_of[bit.bit_length() - 1], True))
            mask ^= bit
        gates.append((tuple(controls), line_of[local_target]))
    return gates


_BLOCK_BUILDERS = {"esop": _esop_block, "exact": _exact_block, "tbs": _tbs_block}


def synthesize_schedule(
    schedule: PebbleSchedule,
    name: str = "lut",
    lut_synth: str = "esop",
    validate: bool = True,
) -> ReversibleCircuit:
    """Execute a pebble schedule into a reversible circuit.

    ``lut_synth`` selects the per-LUT sub-synthesizer (one of
    :data:`LUT_SYNTHESIZERS`).  The schedule is validated first (disable
    with ``validate=False`` only for schedules already validated); an
    invalid schedule raises
    :class:`~repro.reversible.pebbling.InvalidScheduleError` before any
    gate is emitted.
    """
    if lut_synth not in _BLOCK_BUILDERS:
        raise ValueError(
            f"unknown LUT synthesizer {lut_synth!r}; expected one of "
            f"{', '.join(LUT_SYNTHESIZERS)}"
        )
    if validate:
        validate_schedule(schedule)
    build_block = _BLOCK_BUILDERS[lut_synth]
    mapping = schedule.mapping
    aig = mapping.aig

    circuit = ReversibleCircuit(name)
    pool = LinePool(circuit)
    node_line: Dict[int, int] = {}
    for i, (pi, pi_name) in enumerate(zip(aig.pis(), aig.pi_names())):
        node_line[lit_node(pi)] = circuit.add_input_line(i, name=pi_name)

    for step in schedule.steps:
        if step.op == COMPUTE:
            leaves, truth = mapping.luts[step.node]
            target = pool.acquire()
            leaf_lines = [node_line[leaf] for leaf in leaves]
            circuit.extend_controls(build_block(truth, leaf_lines, target))
            node_line[step.node] = target
        elif step.op == COPY:
            target = pool.acquire(name=aig.po_names()[step.output])
            circuit.set_output(target, step.output)
            po = aig.pos()[step.output]
            driver = lit_node(po)
            if not aig.is_const(driver):
                circuit.append_controls(((node_line[driver], True),), target)
            if lit_is_compl(po):
                circuit.append_controls((), target)
        else:  # UNCOMPUTE
            leaves, truth = mapping.luts[step.node]
            target = node_line.pop(step.node)
            leaf_lines = [node_line[leaf] for leaf in leaves]
            circuit.extend_controls(
                reversed(build_block(truth, leaf_lines, target))
            )
            pool.release(target)
    return circuit


def lut_synthesis(
    aig,
    k: int = 4,
    strategy: str = "bennett",
    max_pebbles=None,
    max_cuts: int = 8,
    cut_selection: str = "area",
    lut_synth: str = "esop",
    name: str = "lut",
) -> ReversibleCircuit:
    """LUT-map an AIG, schedule the pebble game and execute the schedule.

    The one-call convenience wrapper around :func:`~repro.logic.cuts.lut_map`,
    :func:`~repro.reversible.pebbling.make_schedule` and
    :func:`synthesize_schedule`; the ``lut`` flow of
    :mod:`repro.core.flows` exposes the same pipeline stage by stage, with
    the same defaults (``cut_selection="area"``), so one call reproduces
    one flow run of the same AIG and parameters.
    """
    mapping = lut_map(aig, k=k, max_cuts=max_cuts, selection=cut_selection)
    schedule = make_schedule(mapping, strategy=strategy, max_pebbles=max_pebbles)
    return synthesize_schedule(
        schedule, name=name, lut_synth=lut_synth, validate=False
    )
