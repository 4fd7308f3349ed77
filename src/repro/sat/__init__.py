"""Dependency-free SAT layer: CNF construction and a small CDCL solver.

The exact reversible-pebbling scheduler
(:mod:`repro.reversible.exact_pebbling`) reduces its optimisation problem
to propositional satisfiability.  This package keeps that reduction
self-contained:

``repro.sat.cnf``
    :class:`Cnf` — a clause database with fresh-variable allocation and
    the standard constraint encodings (at-most-one, exactly-one, sequential
    at-most-k cardinality, XOR links) used by the exact pebbler.

``repro.sat.solver``
    :class:`Solver` / :func:`solve` — a conflict-driven clause-learning
    (CDCL) solver with two-literal watching, first-UIP clause learning,
    VSIDS-style activity decision heuristics, phase saving and Luby
    restarts.  Every call takes an optional wall-clock/conflict budget and
    reports ``"sat"`` / ``"unsat"`` / ``"unknown"`` instead of running
    away, so the exact pebbler degrades to its heuristic fallback instead of
    hanging a flow.

Literals use the DIMACS convention throughout: variables are positive
integers and a negative literal is the negated variable, so clause lists
round-trip to standard ``.cnf`` files via :meth:`Cnf.to_dimacs`.
"""

from repro.sat.cnf import Cnf
from repro.sat.solver import SatResult, Solver, solve

__all__ = ["Cnf", "SatResult", "Solver", "solve"]
