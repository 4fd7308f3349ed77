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

Four sub-synthesizers realise a LUT block:

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
* ``"xmg"``  — the gate blocks of hierarchical synthesis (Section IV-C):
  one CNOT per leaf for a parity, one Toffoli for an AND/OR of two
  literals, and one Toffoli for a majority of three literals via
  ``maj(a, b, c) = c ⊕ ((a ⊕ c) ∧ (b ⊕ c))`` (the third leaf is the pivot,
  written transiently and restored).  Other tables raise ``ValueError``.

A builder returns its block over local lines (leaf ``i`` is line ``i``,
the target is line ``k``), and the executor places it on the *current*
leaf lines at every step: under a bounded schedule a fanin LUT may have
been evicted and recomputed onto a different line between a compute and
its matching uncompute, so a gate list recorded per LUT would read stale
lines.  Within one run, a block is built once per ``(truth table,
arity)`` and placed once per ``(truth table, leaf lines, target)``: a
placed block is a pure function of exactly those.

:func:`hierarchical_synthesis` plays the same game over an XMG, one "LUT"
per gate (:func:`xmg_gate_mapping`), with the ``"xmg"`` blocks.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Dict, List, Tuple

from repro.logic.aig import lit_is_compl, lit_node
from repro.logic.cuts import LutMapping, lut_map
from repro.logic.esop import psdkro_cubes
from repro.logic.truth_table import tt_mask, tt_var
from repro.logic.xmg import Xmg
from repro.reversible.circuit import LinePool, ReversibleCircuit
from repro.reversible.pebbling import (
    COMPUTE,
    COPY,
    PebbleSchedule,
    make_schedule,
    validate_schedule,
)

__all__ = [
    "LUT_SYNTHESIZERS",
    "hierarchical_synthesis",
    "lut_synthesis",
    "synthesize_schedule",
    "xmg_gate_mapping",
]

#: The sub-synthesizers of an arbitrary LUT function (the ``lut`` flow's
#: choices).  :func:`synthesize_schedule` also takes ``"xmg"``, whose
#: blocks realise XMG gates only, for :func:`hierarchical_synthesis`.
LUT_SYNTHESIZERS = ("esop", "exact", "tbs")

#: A gate as ``(care, polarity, target)`` masks (``ReversibleCircuit.
#: extend_masks``): it fires when ``state & care == polarity``.
_Masks = Tuple[int, int, int]


def _esop_block(truth: int, arity: int, cover=psdkro_cubes) -> List[_Masks]:
    """One mixed-polarity Toffoli per cube of the ESOP ``cover`` (PSDKRO)."""
    block = []
    for cube in cover(truth, arity):
        care = polarity = 0
        for var, positive in cube.literals():
            care |= 1 << var
            polarity |= positive << var
        block.append((care, polarity, arity))
    return block


def _exact_block(truth: int, arity: int) -> List[_Masks]:
    """The T-cost-minimal ESOP of the LUT (memoized by truth table).

    Never T-dearer than the PSDKRO block: :func:`exact_esop_cubes` is
    optimal up to its exact limit and returns the PSDKRO cover above it.
    """
    from repro.logic.exact_esop import exact_esop_cubes

    return _esop_block(truth, arity, exact_esop_cubes)


def _tbs_block(truth: int, arity: int) -> List[_Masks]:
    """TBS of the ``(x, a) -> (x, a xor f(x))`` permutation."""
    from repro.reversible.tbs import synthesize_permutation_masks

    size = 1 << (arity + 1)
    permutation = [0] * size
    for state in range(size):
        x = state & ((1 << arity) - 1)
        a = state >> arity
        permutation[state] = x | ((a ^ ((truth >> x) & 1)) << arity)
    return [
        (controls, controls, target)
        for controls, target in synthesize_permutation_masks(permutation, arity + 1)
    ]


@lru_cache(maxsize=None)
def _xmg_block(truth: int, arity: int) -> Tuple[_Masks, ...]:
    """The hierarchical-synthesis block of an XMG gate's truth table."""
    t, mask = arity, tt_mask(arity)
    leaves = [tt_var(i, arity) for i in range(arity)]
    parity = 0
    for leaf in leaves:
        parity ^= leaf
    if truth in (parity, parity ^ mask):  # one CNOT per leaf, NOT if f(0) = 1
        cnots = [(1 << i, 1 << i, t) for i in range(arity)]
        return (*cnots, *[(0, 0, t)] * (truth & 1))
    for polarity in product((1, 0), repeat=arity):
        lits = [leaf ^ (0 if p else mask) for leaf, p in zip(leaves, polarity)]
        if arity == 2:
            # AND of the literals; OR is the NOT of the AND of their negations.
            toffoli = (0b11, polarity[0] | polarity[1] << 1, t)
            if truth == lits[0] & lits[1]:
                return (toffoli,)
            if truth == (lits[0] & lits[1]) ^ mask:
                return (toffoli, (0, 0, t))
        elif arity == 3 and truth == (
            (lits[0] & lits[1]) | (lits[0] & lits[2]) | (lits[1] & lits[2])
        ):
            # maj(a, b, c) = c xor ((a xor c) and (b xor c)), pivot c.
            pa, pb, pc = polarity
            fold = ((0b100, 0b100, 0), (0b100, 0b100, 1))
            toffoli = (0b11, (pa == pc) | (pb == pc) << 1, t)
            flip = () if pc else ((0, 0, t),)
            return (*fold, toffoli, (0b100, 0b100, t), *flip, *fold)
    raise ValueError(
        f"the xmg block builder realises parity, AND/OR and majority gates; "
        f"truth table {truth:#x} over {arity} leaves is none of them"
    )


_BLOCK_BUILDERS = {
    "esop": _esop_block,
    "exact": _exact_block,
    "tbs": _tbs_block,
    "xmg": _xmg_block,
}


def _place(block, line_of: Tuple[int, ...]) -> List[_Masks]:
    """A block over local lines, with local line ``i`` moved to ``line_of[i]``."""
    placed = []
    for care, polarity, target in block:
        line_care = line_polarity = 0
        for i, line in enumerate(line_of):
            if care >> i & 1:
                line_care |= 1 << line
                line_polarity |= (polarity >> i & 1) << line
        placed.append((line_care, line_polarity, line_of[target]))
    return placed


def synthesize_schedule(
    schedule: PebbleSchedule,
    name: str = "lut",
    lut_synth: str = "esop",
    validate: bool = True,
) -> ReversibleCircuit:
    """Execute a pebble schedule into a reversible circuit.

    ``lut_synth`` selects the per-LUT sub-synthesizer (one of
    :data:`LUT_SYNTHESIZERS`, or ``"xmg"`` for XMG gates).  The schedule
    is validated first (disable with ``validate=False`` only for schedules
    already validated); an invalid schedule raises
    :class:`~repro.reversible.pebbling.InvalidScheduleError` before any
    gate is emitted.
    """
    if lut_synth not in _BLOCK_BUILDERS:
        raise ValueError(
            f"unknown LUT synthesizer {lut_synth!r}; expected one of "
            f"{', '.join(_BLOCK_BUILDERS)}"
        )
    if validate:
        validate_schedule(schedule)
    build_block = _BLOCK_BUILDERS[lut_synth]
    mapping = schedule.mapping
    network = mapping.aig
    pos = network.pos()

    circuit = ReversibleCircuit(name)
    pool = LinePool(circuit)
    node_line: Dict[int, int] = {}
    for i, (pi, pi_name) in enumerate(zip(network.pis(), network.pi_names())):
        node_line[lit_node(pi)] = circuit.add_input_line(i, name=pi_name)

    # Each function's block is built once; an uncompute on unchanged
    # lines, or a recompute landing on them again, reuses the placed block.
    blocks: Dict[Tuple[int, int], List[_Masks]] = {}
    placements: Dict[Tuple[int, ...], List[_Masks]] = {}

    def block_masks(node: int, target: int) -> List[_Masks]:
        leaves, truth = mapping.luts[node]
        key = (truth, *[node_line[leaf] for leaf in leaves], target)
        placed = placements.get(key)
        if placed is None:
            function = (truth, len(leaves))
            block = blocks.get(function)
            if block is None:
                block = blocks[function] = build_block(*function)
            placed = placements[key] = _place(block, key[1:])
        return placed

    cascade: List[_Masks] = []
    for step in schedule.steps:
        if step.op == COMPUTE:
            target = pool.acquire()
            cascade += block_masks(step.node, target)
            node_line[step.node] = target
        elif step.op == COPY:
            target = pool.acquire(name=network.po_names()[step.output])
            circuit.set_output(target, step.output)
            po = pos[step.output]
            driver = lit_node(po)
            if not network.is_const(driver):
                bit = 1 << node_line[driver]
                cascade.append((bit, bit, target))
            if lit_is_compl(po):
                cascade.append((0, 0, target))
        else:  # UNCOMPUTE
            target = node_line[step.node]
            cascade += reversed(block_masks(step.node, target))
            del node_line[step.node]
            pool.release(target)
    circuit.extend_masks(cascade)
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


#: The projections of the three leaves an XMG gate can have; masked to
#: ``n`` leaves they are the ``n``-variable projections.
_LEAF_TABLES = [tt_var(i, 3) for i in range(3)]


def xmg_gate_mapping(xmg: Xmg) -> LutMapping:
    """An XMG as a pebbling DAG: one "LUT" per gate node.

    A gate's leaves are its non-constant fanins in fanin order; its truth
    table over them folds in fanin complements and constants.
    """
    luts: Dict[int, Tuple[Tuple[int, ...], int]] = {}
    for node in xmg.gate_nodes():
        leaves: List[int] = []
        operands = []  # unmasked: a complement is ``^ -1``, constant 1 is -1
        for lit in xmg.fanins(node):
            value = -1 if lit_is_compl(lit) else 0
            if not xmg.is_const(lit_node(lit)):
                value ^= _LEAF_TABLES[len(leaves)]
                leaves.append(lit_node(lit))
            operands.append(value)
        truth = xmg.eval_gate(node, operands) & tt_mask(len(leaves))
        luts[node] = (tuple(leaves), truth)
    return LutMapping(k=3, aig=xmg, luts=luts, order=list(luts))


def hierarchical_synthesis(
    xmg: Xmg, strategy: str = "bennett", name: str = "hierarchical"
) -> ReversibleCircuit:
    """Compile an XMG gate by gate onto ancillas (Section IV-C).

    ``strategy`` is any :func:`~repro.reversible.pebbling.make_schedule`
    strategy, e.g. ``"bennett"``, ``"per_output"`` (alias of ``"eager"``)
    or ``"bounded"`` (at most half the gates pebbled).  Every ancilla
    returns to zero.
    """
    xmg = xmg.cleanup()
    schedule = make_schedule(xmg_gate_mapping(xmg), strategy=strategy)
    return synthesize_schedule(schedule, name=name, lut_synth="xmg", validate=False)
