"""T-cost-optimal ESOP covers of small functions from exhaustive tables.

PSDKRO extraction (:func:`repro.logic.esop.psdkro_cubes`) is fast but only
heuristically small.  The LUT flows synthesise functions of at most
:data:`MAX_EXACT_VARS` inputs, and there are only ``2^(2^n)`` of those
(65,536 for ``n = 4``), so the optimum cover of every one of them is
computed outright instead of searched for.

For each input count ``n`` one table holds the least weighted cost of
every truth table.  Each of the ``3^n`` mixed-polarity cubes weighs
``mct_t_count(literals) * 64 + 1``: the ``rtof`` T-cost of its Toffoli
first, the cube count second (no optimal cover has 64 cubes).  Starting
from ``best[0] = 0``, Bellman–Ford relaxes
``best[f] = min(best[f], best[f ^ cube] + weight)`` over all cubes until no
entry changes; every cube weighs at least 1, so the relaxation cannot
cycle.  A cover is read off by walking down the table: from ``f``, take
the first cube (in :func:`_cubes` order) with
``best[f ^ cube] + weight == best[f]``, until ``f`` is 0.  Every cover is
therefore (T-cost, cube count)-minimal over all ESOPs of the function.

Tables are built lazily, once per process (tens of milliseconds for
``n = 4``), and stored as ``uint16`` arrays.  Wider functions get the PSDKRO cover.
Results are memoised by ``(num_vars, truth)``, and the memo exposes
hit/miss counters so the cache path stays testable.
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, List, Tuple

import numpy as np

from repro.logic.cube import Cube
from repro.logic.esop import psdkro_cubes
from repro.logic.truth_table import tt_mask
from repro.quantum.tcount import mct_t_count

__all__ = [
    "DEFAULT_TIME_BUDGET",
    "MAX_EXACT_VARS",
    "exact_esop_cubes",
    "exact_esop_stats",
    "reset_exact_esop_memo",
]

#: Functions with more inputs than this get the PSDKRO cover: a table
#: for five inputs would need 2^32 entries.
MAX_EXACT_VARS = 4

#: Unused; kept because perfbench/sweep_child.py binds it.
DEFAULT_TIME_BUDGET = 5.0


def solve(*args, **kwargs):
    """Unused; kept because perfbench wraps it.  There is no SAT solver."""
    raise NotImplementedError("exact ESOP covers come from cost tables, not SAT")


#: A cube's weight is ``T-cost * _T_WEIGHT + 1``.
_T_WEIGHT = 64

_memo: Dict[Tuple[int, int], List[Cube]] = {}
#: ``fallbacks`` counts PSDKRO covers of functions wider than the tables.
#: perfbench and bench_pebbling read these three keys.
_stats = {"hits": 0, "misses": 0, "fallbacks": 0}


def exact_esop_stats() -> Dict[str, int]:
    """A snapshot of the memo counters (for tests and reports)."""
    return dict(_stats)


def reset_exact_esop_memo() -> None:
    """Clear the memo and zero the counters (test isolation)."""
    _memo.clear()
    for key in _stats:
        _stats[key] = 0


@functools.lru_cache(maxsize=None)
def _cubes(num_vars: int) -> List[Tuple[Cube, int, int]]:
    """``(cube, truth table, weight)`` of every cube, in walk order."""
    cubes = []
    for trits in itertools.product((None, True, False), repeat=num_vars):
        literals = [(x, p) for x, p in enumerate(trits) if p is not None]
        cube = Cube.from_literals(num_vars, literals)
        weight = mct_t_count(len(literals)) * _T_WEIGHT + 1
        cubes.append((cube, cube.truth_table(), weight))
    return cubes


@functools.lru_cache(maxsize=None)
def _cost_table(num_vars: int) -> np.ndarray:
    """The least weighted cover cost of every ``num_vars``-input function."""
    index = np.arange(1 << (1 << num_vars))
    best = np.full(index.size, np.iinfo(np.int32).max // 2, np.int32)
    best[0] = 0
    previous = None
    while previous is None or not np.array_equal(previous, best):
        previous = best.copy()
        for _, truth, weight in _cubes(num_vars):
            np.minimum(best, best[index ^ truth] + weight, out=best)
    return best.astype(np.uint16)


def _optimal_cover(truth: int, num_vars: int) -> List[Cube]:
    """Walk down the cost table from ``truth`` to the empty cover."""
    best = _cost_table(num_vars)
    cubes = _cubes(num_vars)
    cover: List[Cube] = []
    while truth:
        cost = int(best[truth])
        cube, table = next(
            (cube, table) for cube, table, weight in cubes
            if int(best[truth ^ table]) + weight == cost
        )
        cover.append(cube)
        truth ^= table
    return cover


def exact_esop_cubes(
    truth: int,
    num_vars: int,
    time_budget: float = DEFAULT_TIME_BUDGET,  # ignored; perfbench passes it
) -> List[Cube]:
    """A (T-cost, cube count)-minimal ESOP cover of ``truth``.

    Exact for at most :data:`MAX_EXACT_VARS` inputs, so never T-dearer
    than the PSDKRO cover; wider functions get the PSDKRO cover.
    """
    truth &= tt_mask(num_vars)
    key = (num_vars, truth)
    cached = _memo.get(key)
    if cached is not None:
        _stats["hits"] += 1
        return list(cached)
    _stats["misses"] += 1
    if num_vars > MAX_EXACT_VARS:
        _stats["fallbacks"] += 1
        cover = psdkro_cubes(truth, num_vars)
    else:
        cover = _optimal_cover(truth, num_vars)
    _memo[key] = cover
    return list(cover)
