"""Names of the removed SAT-exact pebbling strategy that perfbench binds.

``strategy='exact'`` and the ``repro.sat`` solver behind it are gone;
:func:`~repro.reversible.pebbling.make_schedule` dispatches ``bennett``,
``eager`` and ``bounded``.  Only perfbench binds these names:
``sweep_child.py`` wraps :func:`solve` and reads
:data:`DEFAULT_TIME_BUDGET`, and ``spans.py`` wraps :func:`minimum_pebbles`
and :func:`exact_schedule`.  No module of the package imports this one.
These stand-ins go with perfbench's wrappers (ROADMAP item 4(b)).
"""

from repro.reversible.pebbling import minimum_pebbles

__all__ = ["DEFAULT_TIME_BUDGET", "exact_schedule", "minimum_pebbles", "solve"]

#: The removed strategy's time budget in seconds; perfbench reads it.
DEFAULT_TIME_BUDGET = 20.0


def _removed(*args, **kwargs):
    raise NotImplementedError(
        "the SAT-exact pebbling strategy was removed; use strategy='bounded'"
    )


solve = exact_schedule = _removed
