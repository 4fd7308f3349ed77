"""Closed-form T-count models for mixed-polarity multiple-controlled Toffoli
gates.

The paper reports T-counts "according to [26] and [27]" (Maslov's
relative-phase Toffoli constructions and the Barenco et al. decompositions).
Two models are provided; both treat NOT and CNOT as free and negative
controls as free (the surrounding X gates are Clifford):

* ``"barenco"`` — every k-control gate is decomposed into ``2k - 3`` plain
  Toffoli gates using a clean-ancilla chain; each Toffoli costs 7 T gates:
  ``T(k) = 7 * (2k - 3)`` for ``k >= 2``.
* ``"rtof"`` (default) — the ``2(k - 2)`` compute/uncompute Toffolis of the
  chain are replaced by relative-phase Toffolis with 4 T gates each
  (Maslov 2016), the middle gate stays a full Toffoli:
  ``T(k) = 8(k - 2) + 7`` for ``k >= 2``.

These closed forms agree gate-for-gate with the explicit Clifford+T
expansion produced by :mod:`repro.quantum.mapping` for *both* models —
``map_to_clifford_t(model=...)`` asserts the agreement on every expanded
gate, and the golden-cost tables pin the resulting resource vectors.

:func:`circuit_t_count` and :func:`t_count_histogram` are vectorised over
the columnar gate store of
:class:`~repro.reversible.circuit.ReversibleCircuit`: its cached control
counts (the popcount of each care mask) collapse into per-arity sums with
one ``np.bincount``.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

__all__ = [
    "mct_t_count",
    "circuit_t_count",
    "t_count_histogram",
    "available_models",
]


_MODELS = ("barenco", "rtof")


def available_models() -> Iterable[str]:
    """Names of the supported cost models."""
    return _MODELS


def mct_t_count(num_controls: int, model: str = "rtof") -> int:
    """T-count of a single multiple-controlled Toffoli gate."""
    if model not in _MODELS:
        raise ValueError(f"unknown T-count model {model!r}")
    if num_controls < 0:
        raise ValueError("num_controls must be non-negative")
    if num_controls <= 1:
        return 0
    if num_controls == 2:
        return 7
    if model == "barenco":
        return 7 * (2 * num_controls - 3)
    return 8 * (num_controls - 2) + 7


def _model_cost_vector(max_controls: int, model: str) -> np.ndarray:
    """``mct_t_count(k, model)`` for every ``k`` in ``0..max_controls``."""
    ks = np.arange(max_controls + 1, dtype=np.int64)
    if model == "barenco":
        costs = 7 * (2 * ks - 3)
    else:
        costs = 8 * (ks - 2) + 7
    costs[ks <= 1] = 0
    if max_controls >= 2:
        costs[2] = 7
    return costs


def _per_arity_costs(circuit, model: str):
    """``(gate counts, model costs)`` indexed by control count."""
    counts = np.bincount(circuit.gate_store().control_counts())
    return counts, _model_cost_vector(len(counts) - 1, model)


def circuit_t_count(circuit, model: str = "rtof") -> int:
    """Total T-count of a :class:`~repro.reversible.circuit.ReversibleCircuit`.

    One ``np.bincount`` over the store's cached control counts, memoised
    on the gate store until the cascade mutates.
    """
    store = circuit.gate_store()
    if len(store) == 0:
        return 0
    if model not in _MODELS:
        raise ValueError(f"unknown T-count model {model!r}")
    key = ("t_count", model)
    cached = store.stats.get(key)
    if cached is not None:
        return cached
    counts, costs = _per_arity_costs(circuit, model)
    total = int(np.dot(counts, costs))
    store.stats[key] = total
    return total


def t_count_histogram(circuit, model: str = "rtof") -> Dict[int, int]:
    """Map control count to the total T-count of such gates.

    Vectorised like :func:`circuit_t_count` (and memoised on the gate
    store); arities that occur but cost nothing (NOT / CNOT) appear with
    value 0.
    """
    store = circuit.gate_store()
    if len(store) == 0:
        return {}
    if model not in _MODELS:
        raise ValueError(f"unknown T-count model {model!r}")
    key = ("t_hist", model)
    cached = store.stats.get(key)
    if cached is None:
        counts, costs = _per_arity_costs(circuit, model)
        cached = {
            int(k): int(counts[k] * costs[k]) for k in np.nonzero(counts)[0]
        }
        store.stats[key] = cached
    return dict(cached)
