"""Sum-of-product covers: irredundant SOP computation and algebraic factoring.

These are the helpers behind the ``refactor``/``rewrite`` passes of
:mod:`repro.logic.aig_opt` (the ABC ``dc2``/``resyn2`` analogues): a cone of
logic is collapsed into a truth table, an irredundant SOP is computed with
the Minato–Morreale procedure, the SOP is factored algebraically, and the
factored form is built back into the AIG.

The functions here are pure and recompute their result on every call.
:mod:`repro.logic.aig_opt` memoises the whole ISOP-and-factor step per
``(truth, num_vars)`` pair, and stores each factored form with its child
lists frozen into tuples, because memoised expressions are shared between
every cone that has the same function.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.logic.cube import Cube
from repro.logic.truth_table import (
    tt_cofactor0,
    tt_cofactor1,
    tt_mask,
)

__all__ = ["isop", "factor_cubes", "Expression", "expression_literal_count"]


# ---------------------------------------------------------------------------
# Irredundant sum of products (Minato-Morreale)
# ---------------------------------------------------------------------------

def isop(func: int, num_vars: int) -> List[Cube]:
    """Compute an irredundant SOP cover of ``func``.

    This is the classical Minato–Morreale recursion on the interval
    ``[lower, upper]``; here both bounds equal ``func`` because we have no
    don't cares.  Returns a list of :class:`Cube` whose disjunction equals
    the function.
    """
    cache: Dict[Tuple[int, int, int], Tuple[List[Cube], int]] = {}
    full_mask = tt_mask(num_vars)

    def rec(lower: int, upper: int, var: int) -> Tuple[List[Cube], int]:
        """Return (cover, covered_truth_table) with lower <= cover <= upper."""
        if lower == 0:
            return [], 0
        if upper == full_mask:
            return [Cube.tautology(num_vars)], full_mask
        key = (lower, upper, var)
        cached = cache.get(key)
        if cached is not None:
            return cached

        # Find a variable on which the bounds still depend.
        split = None
        for v in range(var, num_vars):
            if (
                tt_cofactor0(lower, v, num_vars) != tt_cofactor1(lower, v, num_vars)
                or tt_cofactor0(upper, v, num_vars) != tt_cofactor1(upper, v, num_vars)
            ):
                split = v
                break
        if split is None:
            # Bounds are constant over the remaining variables; lower != 0 so
            # the tautology cube suffices within this subspace.
            result: Tuple[List[Cube], int] = ([Cube.tautology(num_vars)], full_mask)
            cache[key] = result
            return result

        l0 = tt_cofactor0(lower, split, num_vars)
        l1 = tt_cofactor1(lower, split, num_vars)
        u0 = tt_cofactor0(upper, split, num_vars)
        u1 = tt_cofactor1(upper, split, num_vars)

        # Cubes needed only in the negative (resp. positive) half-space.
        cover0, covered0 = rec(l0 & ~u1 & full_mask, u0, split + 1)
        cover1, covered1 = rec(l1 & ~u0 & full_mask, u1, split + 1)

        # What remains to be covered may live in both half-spaces.
        rest0 = l0 & ~covered0 & full_mask
        rest1 = l1 & ~covered1 & full_mask
        cover2, covered2 = rec(rest0 | rest1, u0 & u1, split + 1)

        cubes = [cube.with_literal(split, False) for cube in cover0]
        cubes += [cube.with_literal(split, True) for cube in cover1]
        cubes += cover2

        var_tt = _var_table(split, num_vars)
        covered = (covered0 & ~var_tt) | (covered1 & var_tt) | covered2
        result = (cubes, covered & full_mask)
        cache[key] = result
        return result

    cover, covered = rec(func, func, 0)
    assert covered == func, "ISOP cover does not match the function"
    return cover


def _var_table(var: int, num_vars: int) -> int:
    from repro.logic.truth_table import tt_var

    return tt_var(var, num_vars)


# ---------------------------------------------------------------------------
# Algebraic factoring
# ---------------------------------------------------------------------------

# Expression trees: ("lit", var, positive) | ("and", [children]) | ("or", [children])
# | ("const", bool); memoised trees hold their children in tuples instead.
Expression = Union[Tuple[str, int, bool], Tuple[str, Sequence], Tuple[str, bool]]


def factor_cubes(cubes: Sequence[Cube], num_vars: int) -> Expression:
    """Algebraically factor a SOP cover into an expression tree.

    The classic quick-factor recursion: pick the most frequent literal,
    divide the cover into the quotient (cubes containing the literal, with
    the literal removed) and the remainder, factor both recursively and
    combine as ``literal * factor(quotient) + factor(remainder)``.
    """
    cubes = list(cubes)
    if not cubes:
        return ("const", False)
    if any(cube.care == 0 for cube in cubes):
        return ("const", True)
    if len(cubes) == 1:
        return _cube_expression(cubes[0])

    best_literal = _most_frequent_literal(cubes)
    if best_literal is None:
        return ("or", [_cube_expression(cube) for cube in cubes])

    var, positive = best_literal
    quotient: List[Cube] = []
    remainder: List[Cube] = []
    for cube in cubes:
        has_var = bool((cube.care >> var) & 1)
        has_polarity = bool((cube.polarity >> var) & 1) == positive
        if has_var and has_polarity:
            quotient.append(cube.without_variable(var))
        else:
            remainder.append(cube)

    if len(quotient) <= 1:
        # No sharing opportunity: emit the cubes directly.
        return ("or", [_cube_expression(cube) for cube in cubes])

    factored_quotient = factor_cubes(quotient, num_vars)
    product: Expression = ("and", [("lit", var, positive), factored_quotient])
    if not remainder:
        return product
    factored_remainder = factor_cubes(remainder, num_vars)
    return ("or", [product, factored_remainder])


def _cube_expression(cube: Cube) -> Expression:
    literals = cube.literals()
    if not literals:
        return ("const", True)
    if len(literals) == 1:
        var, positive = literals[0]
        return ("lit", var, positive)
    return ("and", [("lit", var, positive) for var, positive in literals])


def _most_frequent_literal(cubes: Sequence[Cube]) -> Optional[Tuple[int, bool]]:
    counts: Dict[Tuple[int, bool], int] = {}
    for cube in cubes:
        for var, positive in cube.literals():
            key = (var, positive)
            counts[key] = counts.get(key, 0) + 1
    if not counts:
        return None
    best, best_count = max(counts.items(), key=lambda item: item[1])
    if best_count < 2:
        return None
    return best


def expression_literal_count(expr: Expression) -> int:
    """Number of literal leaves in an expression tree (a size proxy)."""
    tag = expr[0]
    if tag == "lit":
        return 1
    if tag == "const":
        return 0
    return sum(expression_literal_count(child) for child in expr[1])
