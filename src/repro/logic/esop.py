"""Exclusive-sum-of-products (ESOP) covers and their minimisation.

The paper obtains multi-output ESOPs by collapsing an AIG with ABC's
``&exorcism`` command (Mishchenko/Perkowski).  Here we provide

* :class:`EsopCover` — a multi-output ESOP (each term is a cube plus the set
  of outputs it feeds),
* :func:`esop_from_truth_table` — PSDKRO extraction (recursive
  Shannon/positive-Davio/negative-Davio expansion choosing the cheapest
  decomposition per variable), the standard way to obtain a good initial
  ESOP from an explicit function,
* :func:`minimize_esop` — an exorcism-style cube-pair minimisation that
  cancels duplicate cubes and merges distance-1 pairs, iterated to a fixed
  point.

These covers are the input of the ESOP-based reversible synthesis back-end
(:mod:`repro.reversible.esop_synth`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.logic.cube import Cube
from repro.logic.truth_table import TruthTable, tt_mask, tt_var
from repro.utils.bitops import bit_count

__all__ = [
    "EsopTerm",
    "EsopCover",
    "esop_from_truth_table",
    "esop_from_columns",
    "minimize_esop",
    "psdkro_cubes",
    "psdkro_clear_cache",
]


@dataclass(frozen=True)
class EsopTerm:
    """A cube together with the bitmask of outputs it contributes to."""

    cube: Cube
    outputs: int

    def __post_init__(self) -> None:
        if self.outputs < 0:
            raise ValueError("output mask must be non-negative")


class EsopCover:
    """A multi-output ESOP: output ``j`` is the XOR of all cubes whose
    ``outputs`` mask has bit ``j`` set."""

    def __init__(self, num_inputs: int, num_outputs: int, terms: Sequence[EsopTerm]):
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        self.terms: List[EsopTerm] = []
        for term in terms:
            if term.cube.num_vars != num_inputs:
                raise ValueError("cube variable count does not match the cover")
            if term.outputs >> num_outputs:
                raise ValueError("term drives an output outside the cover")
            if term.outputs:
                self.terms.append(term)

    # -- queries ------------------------------------------------------------

    def num_terms(self) -> int:
        """Number of product terms in the cover."""
        return len(self.terms)

    def num_literals(self) -> int:
        """Total number of literals over all product terms."""
        return sum(term.cube.num_literals() for term in self.terms)

    def max_literals(self) -> int:
        """Largest number of literals of any single product term."""
        if not self.terms:
            return 0
        return max(term.cube.num_literals() for term in self.terms)

    def shared_terms(self) -> int:
        """Number of product terms feeding more than one output."""
        return sum(1 for term in self.terms if bit_count(term.outputs) > 1)

    def evaluate(self, minterm: int) -> int:
        """Output word of the cover on one input assignment."""
        word = 0
        for term in self.terms:
            if term.cube.evaluate(minterm):
                word ^= term.outputs
        return word

    def to_truth_table(self) -> TruthTable:
        """Expand the cover into an explicit truth table."""
        return TruthTable.from_callable(
            self.evaluate, self.num_inputs, self.num_outputs
        )

    def output_cubes(self, output: int) -> List[Cube]:
        """All cubes feeding one particular output."""
        return [t.cube for t in self.terms if (t.outputs >> output) & 1]

    # -- dunder -------------------------------------------------------------

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return (
            f"EsopCover(num_inputs={self.num_inputs}, "
            f"num_outputs={self.num_outputs}, terms={len(self.terms)})"
        )


# ---------------------------------------------------------------------------
# PSDKRO extraction from explicit truth tables
# ---------------------------------------------------------------------------

class _PsdkroExtractor:
    """Recursive pseudo-Kronecker (PSDKRO) ESOP extraction on plain integers.

    At every node the extractor expands, on the first support variable
    ``x``, the cheapest of the three decompositions

    * Shannon:         f = x'·f0  (+)  x·f1
    * positive Davio:  f = f0     (+)  x·(f0 (+) f1)
    * negative Davio:  f = f1     (+)  x'·(f0 (+) f1)

    where f0/f1 are the cofactors with respect to ``x``.  Variable
    masks/shifts are precomputed once per variable count, the support scan
    reuses the cofactors it computes for the expansion, and the memo (keyed
    on the integer truth table of the sub-function) is shared across calls
    so repeated LUT functions — ubiquitous in cut-based covers — cost one
    dictionary lookup.
    """

    #: Shared-memo bound; a long-running server's extractor tables must not
    #: grow without limit (the memo is correctness-neutral, so clearing it
    #: only costs recomputation).
    MEMO_LIMIT = 1 << 20

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.mask = tt_mask(num_vars)
        self.var_masks = [tt_var(v, num_vars) for v in range(num_vars)]
        self.shifts = [1 << v for v in range(num_vars)]
        self._cache: Dict[int, List[Cube]] = {}

    def extract(self, func: int) -> List[Cube]:
        return self._expand(func & self.mask)

    def _expand(self, func: int) -> List[Cube]:
        cache = self._cache
        cached = cache.get(func)
        if cached is not None:
            return cached

        if func == 0:
            result: List[Cube] = []
        else:
            var_masks = self.var_masks
            shifts = self.shifts
            full = self.mask
            var = -1
            f0 = f1 = 0
            for v in range(self.num_vars):
                high_mask = var_masks[v]
                shift = shifts[v]
                high = func & high_mask
                low = func & ~high_mask & full
                f1 = high | (high >> shift)
                f0 = low | (low << shift)
                if f0 != f1:
                    var = v
                    break
            if var < 0:
                result = [Cube.tautology(self.num_vars)]
            else:
                f2 = f0 ^ f1
                cover0 = self._expand(f0)
                cover1 = self._expand(f1)
                cover2 = self._expand(f2)
                n0, n1 = len(cover0), len(cover1)
                # Positive Davio wins ties against negative Davio, Shannon
                # only when strictly cheaper than the best Davio.
                if n0 <= n1:
                    best_cost, free, gated, positive = (
                        n0 + len(cover2), cover0, cover2, True
                    )
                else:
                    best_cost, free, gated, positive = (
                        n1 + len(cover2), cover1, cover2, False
                    )
                if n0 + n1 < best_cost:
                    result = [cube.with_literal(var, False) for cube in cover0]
                    result += [cube.with_literal(var, True) for cube in cover1]
                else:
                    result = list(free)
                    result += [cube.with_literal(var, positive) for cube in gated]
        if len(cache) >= self.MEMO_LIMIT:
            cache.clear()
        cache[func] = result
        return result


#: Shared extractor registry: one memoised extractor per variable count,
#: reused across calls so repeated LUT functions are extracted once.
_EXTRACTORS: Dict[int, _PsdkroExtractor] = {}


def psdkro_clear_cache() -> None:
    """Drop the shared PSDKRO memo tables (used by benchmarks and tests)."""
    _EXTRACTORS.clear()


def psdkro_cubes(truth: int, num_vars: int) -> List[Cube]:
    """PSDKRO cube list of one single-output integer truth table.

    The shared primitive behind the multi-output extraction below, the
    per-LUT synthesis blocks of :mod:`repro.reversible.lut_synth` and the
    XMG resynthesis of :mod:`repro.logic.xmg_mapping` — the pebbling
    scheduler's gate-count estimate counts exactly these cubes, so all
    must come from the one memoised extractor.
    """
    extractor = _EXTRACTORS.get(num_vars)
    if extractor is None:
        extractor = _EXTRACTORS[num_vars] = _PsdkroExtractor(num_vars)
    return extractor.extract(truth)


def esop_from_columns(columns: Sequence[int], num_inputs: int) -> EsopCover:
    """Extract a multi-output ESOP from single-output integer truth tables.

    Each output is extracted independently with PSDKRO; cubes that appear in
    several outputs are then merged into shared terms (the sharing is what
    the ESOP-based reversible synthesis exploits to save Toffoli gates).
    """
    cube_outputs: Dict[Cube, int] = {}
    for j, column in enumerate(columns):
        for cube in psdkro_cubes(column, num_inputs):
            cube_outputs[cube] = cube_outputs.get(cube, 0) ^ (1 << j)
    terms = [
        EsopTerm(cube, outputs) for cube, outputs in cube_outputs.items() if outputs
    ]
    return EsopCover(num_inputs, len(columns), terms)


def esop_from_truth_table(table: TruthTable) -> EsopCover:
    """Extract a multi-output ESOP cover from an explicit truth table."""
    return esop_from_columns(table.columns(), table.num_inputs)


# ---------------------------------------------------------------------------
# Exorcism-style minimisation
# ---------------------------------------------------------------------------

def _merge_pass(terms: List[EsopTerm]) -> Tuple[List[EsopTerm], bool]:
    """One sweep of duplicate cancellation and distance-1 merging."""
    changed = False

    # Duplicate cubes driving the same outputs cancel pairwise; duplicates
    # driving different outputs are combined into a single shared term.
    by_cube: Dict[Cube, int] = {}
    for term in terms:
        previous = by_cube.get(term.cube)
        if previous is None:
            by_cube[term.cube] = term.outputs
        else:
            by_cube[term.cube] = previous ^ term.outputs
            changed = True
    merged = [EsopTerm(cube, outs) for cube, outs in by_cube.items() if outs]

    # Distance-1 merging within groups of identical output masks.
    groups: Dict[int, List[Cube]] = {}
    for term in merged:
        groups.setdefault(term.outputs, []).append(term.cube)

    result: List[EsopTerm] = []
    for outputs, cubes in groups.items():
        used = [False] * len(cubes)
        for i in range(len(cubes)):
            if used[i]:
                continue
            current = cubes[i]
            for j in range(i + 1, len(cubes)):
                if used[j]:
                    continue
                combined = current.merge_distance_one(cubes[j])
                if combined is not None:
                    current = combined
                    used[j] = True
                    changed = True
            used[i] = True
            result.append(EsopTerm(current, outputs))
    return result, changed


def minimize_esop(cover: EsopCover, max_iterations: int = 10) -> EsopCover:
    """Iteratively cancel and merge cubes until a fixed point (or bound).

    This is a light-weight stand-in for ABC's ``&exorcism``: the distance-0
    (cancellation) and distance-1 (merge) exorlink operations are applied
    until no further improvement is found.  Correctness is preserved by
    construction because each rewrite is an identity on XOR covers.
    """
    terms = list(cover.terms)
    for _ in range(max_iterations):
        terms, changed = _merge_pass(terms)
        if not changed:
            break
    return EsopCover(cover.num_inputs, cover.num_outputs, terms)
