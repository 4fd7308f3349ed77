"""Post-synthesis optimisation of reversible circuits.

The flows of the paper hand their Toffoli cascades directly to the cost
model; real tool chains (RevKit, REVS) run cheap peephole passes first.
This module provides the standard ones:

* :func:`cancel_adjacent_gates` — two identical gates in a row are the
  identity and are removed (Toffoli gates are involutions).  Gates are
  allowed to commute past each other when neither gate's target is
  involved in the other gate, which makes the cancellation pass
  considerably more effective than a purely local scan.
* :func:`merge_not_gates` — a NOT gate adjacent to a gate controlling the
  same line is absorbed by flipping that control's polarity.

Each pass runs on the packed mask columns of the circuit's
:class:`~repro.reversible.gatestore.GateStore` — equality, commutation and
the NOT-absorption rewrite are all pure mask arithmetic there, exact
because gates hold their controls as sorted, duplicate-free sets — and
returns the *input circuit object* when it finds nothing to rewrite.  The
pass manager's fixed-point exit relies on that: once both passes hand back
their input, the remaining rounds of ``rev-default`` are skipped.

All passes preserve the circuit function exactly (asserted by the
test-suite via permutation comparison on small circuits and random
simulation on larger ones).  They are also registered with the
:mod:`repro.opt` pass manager as ``rev_cancel`` / ``rev_not_merge``
(aliases ``rc`` / ``rn``) with the default pipeline ``rev-default`` (up
to four rounds of both, stopping at a fixed point), so reversible cascades
participate in the same pipeline specs, keep-best
tracking and differential guards as the logic networks.
"""

from __future__ import annotations

from typing import List

from repro.reversible.circuit import ReversibleCircuit
from repro.reversible.gatestore import GateStore

__all__ = ["cancel_adjacent_gates", "merge_not_gates"]


def cancel_adjacent_gates(circuit: ReversibleCircuit) -> ReversibleCircuit:
    """Remove pairs of identical gates that can be brought next to each other.

    Scanning backwards from each gate, an identical ``(care, polarity,
    target)`` triple cancels it; the scan may pass any gate that commutes
    with it, which is tested as two AND-tests against each gate's
    *touched* mask (``care | 1 << target``): two gates commute when
    neither one's target is touched by the other.  When no pair cancels,
    the input circuit is returned unchanged.
    """
    in_targets, in_care, in_polarity = circuit.gate_store().columns()

    targets: List[int] = []
    cares: List[int] = []
    polarities: List[int] = []
    touched: List[int] = []
    cancelled_any = False
    for gate_index in range(len(in_targets)):
        target = in_targets[gate_index]
        care = in_care[gate_index]
        polarity = in_polarity[gate_index]
        target_bit = 1 << target
        gate_touched = care | target_bit
        index = len(targets) - 1
        cancelled = False
        while index >= 0:
            if (
                targets[index] == target
                and cares[index] == care
                and polarities[index] == polarity
            ):
                del targets[index]
                del cares[index]
                del polarities[index]
                del touched[index]
                cancelled = True
                cancelled_any = True
                break
            if touched[index] & target_bit or gate_touched & (
                1 << targets[index]
            ):
                break
            index -= 1
        if not cancelled:
            targets.append(target)
            cares.append(care)
            polarities.append(polarity)
            touched.append(gate_touched)

    if not cancelled_any:
        return circuit
    return circuit._with_store(GateStore.from_columns(targets, cares, polarities))


def merge_not_gates(circuit: ReversibleCircuit) -> ReversibleCircuit:
    """Absorb NOT gates into the control polarities of neighbouring gates.

    A NOT on line ``l`` followed (eventually) by a gate with a control on
    ``l`` can be pushed into that control by flipping its polarity, provided
    the NOT commutes with every gate in between and a matching NOT exists
    later to push into as well — the simple variant implemented here absorbs
    a NOT pair around a single gate:  ``X(l) . G(l...) . X(l)`` becomes
    ``G(l')``.  This is the pattern produced by negative-control emulation
    and by the OR blocks of the hierarchical flow.

    A NOT is a gate with an empty care mask, the pattern test is three
    integer comparisons, and the absorption itself is one XOR into the
    middle gate's polarity mask.  After a rewrite the scan resumes at
    ``max(0, i - 2)``, the earliest position a new pattern can start.
    When no pattern matches, the input circuit is returned unchanged.
    """
    in_targets, in_care, in_polarity = circuit.gate_store().columns()

    targets = list(in_targets)
    cares = list(in_care)
    polarities = list(in_polarity)
    changed = False
    i = 0
    while i + 2 < len(targets):
        line = targets[i]
        if (
            cares[i] == 0
            and cares[i + 2] == 0
            and targets[i + 2] == line
            and targets[i + 1] != line
            and (cares[i + 1] >> line) & 1
        ):
            polarities[i + 1] ^= 1 << line
            del targets[i + 2], targets[i]
            del cares[i + 2], cares[i]
            del polarities[i + 2], polarities[i]
            changed = True
            i = max(0, i - 2)
        else:
            i += 1

    if not changed:
        return circuit
    return circuit._with_store(GateStore.from_columns(targets, cares, polarities))

