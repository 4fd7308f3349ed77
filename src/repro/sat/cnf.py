"""CNF formula construction for the exact engines.

A :class:`Cnf` is a growable clause database in the DIMACS convention
(variables are positive integers, negation is arithmetic negation).  On top
of raw clauses it provides the constraint encodings the exact engines lean
on:

* :meth:`Cnf.at_most_one` / :meth:`Cnf.exactly_one` — pairwise for small
  literal lists, the Sinz sequential encoding beyond
  :data:`_PAIRWISE_LIMIT` (linear instead of quadratic clause growth),
* :meth:`Cnf.at_most_k` — the sequential counter cardinality encoding
  (Sinz 2005), the pebble-budget constraint of the exact pebbler,
* :meth:`Cnf.at_most_weight` — a weighted sequential counter over
  ``(literal, weight)`` items with one partial-sum variable per reachable
  sum, the T-cost bound of the exact ESOP encoder,
* :meth:`Cnf.xor_link` — a fresh/given variable constrained to the XOR of
  two literals, the parity-chain primitive of the exact ESOP encoder and
  of the pebble-move/state link.

Clauses are normalised on entry: duplicate literals collapse and
tautological clauses (containing ``l`` and ``-l``) are dropped.  Adding an
empty clause marks the formula contradictory, which the solver reports as
``unsat`` without any search.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = ["Cnf"]

#: Below this many literals the quadratic pairwise at-most-one encoding is
#: smaller (and propagates better) than the sequential one.
_PAIRWISE_LIMIT = 6


class Cnf:
    """A CNF formula under construction: variables, clauses, encodings."""

    def __init__(self, num_vars: int = 0):
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self.num_vars = num_vars
        self.clauses: List[List[int]] = []
        #: Set when an empty clause was added; the formula is trivially
        #: unsatisfiable and the solver short-circuits.
        self.contradiction = False

    # -- variables -----------------------------------------------------------

    def new_var(self) -> int:
        """Allocate and return a fresh variable (a positive integer)."""
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, count: int) -> List[int]:
        """Allocate ``count`` fresh variables."""
        return [self.new_var() for _ in range(count)]

    # -- clauses -------------------------------------------------------------

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add one clause (an iterable of non-zero DIMACS literals).

        Duplicate literals are collapsed, tautologies are dropped, and an
        empty clause marks the formula contradictory.  Literals referencing
        variables beyond :attr:`num_vars` grow the variable count, so
        callers may also use plain consecutive integers without
        :meth:`new_var`.
        """
        seen = set()
        clause: List[int] = []
        for literal in literals:
            if literal == 0:
                raise ValueError("0 is not a valid DIMACS literal")
            if -literal in seen:
                return  # tautology: trivially satisfied
            if literal not in seen:
                seen.add(literal)
                clause.append(literal)
                variable = abs(literal)
                if variable > self.num_vars:
                    self.num_vars = variable
        if not clause:
            self.contradiction = True
        self.clauses.append(clause)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        """Add several clauses."""
        for clause in clauses:
            self.add_clause(clause)

    def num_clauses(self) -> int:
        """Number of clauses added so far (tautologies excluded)."""
        return len(self.clauses)

    # -- constraint encodings ------------------------------------------------

    def at_most_one(self, literals: Sequence[int]) -> None:
        """At most one of ``literals`` is true.

        Pairwise for short lists, sequential (commander-free Sinz chain,
        one fresh variable per literal) beyond :data:`_PAIRWISE_LIMIT`.
        """
        literals = list(literals)
        if len(literals) <= 1:
            return
        if len(literals) <= _PAIRWISE_LIMIT:
            for i in range(len(literals)):
                for j in range(i + 1, len(literals)):
                    self.add_clause([-literals[i], -literals[j]])
            return
        # Sequential chain: s_i means "one of literals[0..i] is true".
        previous = literals[0]
        for literal in literals[1:-1]:
            register = self.new_var()
            self.add_clause([-previous, register])
            self.add_clause([-literal, register])
            self.add_clause([-literal, -previous])
            previous = register
        self.add_clause([-literals[-1], -previous])

    def exactly_one(self, literals: Sequence[int]) -> None:
        """Exactly one of ``literals`` is true."""
        literals = list(literals)
        if not literals:
            self.contradiction = True
            self.clauses.append([])
            return
        self.add_clause(literals)
        self.at_most_one(literals)

    def at_most_k(self, literals: Sequence[int], bound: int) -> None:
        """At most ``bound`` of ``literals`` are true (sequential counter).

        The Sinz sequential-counter encoding: register variable ``s[i][j]``
        means "at least ``j + 1`` of the first ``i + 1`` literals are
        true".  Linear in ``len(literals) * bound`` clauses and auxiliary
        variables, and arc-consistent under unit propagation — as soon as
        ``bound`` literals are true the remaining ones are propagated
        false, which is what makes the pebble-budget constraint cheap for
        the solver to reason about.
        """
        literals = list(literals)
        if bound < 0:
            raise ValueError("cardinality bound must be non-negative")
        if bound == 0:
            for literal in literals:
                self.add_clause([-literal])
            return
        if len(literals) <= bound:
            return
        previous: List[int] = []
        for index, literal in enumerate(literals):
            width = min(index + 1, bound)
            if index == len(literals) - 1:
                # The final register row is only needed for the overflow
                # clause; skip allocating it.
                self.add_clause([-literal, -previous[bound - 1]])
                break
            current = self.new_vars(width)
            self.add_clause([-literal, current[0]])
            for j, register in enumerate(previous[: width]):
                self.add_clause([-register, current[j]])
            for j in range(1, width):
                if j - 1 < len(previous):
                    self.add_clause(
                        [-literal, -previous[j - 1], current[j]]
                    )
            if len(previous) == bound:
                self.add_clause([-literal, -previous[bound - 1]])
            previous = current

    def at_most_weight(
        self, items: Iterable[Tuple[int, int]], bound: int
    ) -> None:
        """The true ``(literal, weight)`` items weigh at most ``bound``.

        A weighted sequential counter: after each item it keeps one
        partial-sum variable per reachable sum ``v <= bound``, meaning "the
        items so far weigh at least ``v``" (a sum is reachable when some
        subset of the items so far weighs exactly ``v``).  A true item of
        weight ``w`` lifts every partial sum ``v`` to ``v + w``; where
        ``v + w`` exceeds ``bound`` the pair is forbidden instead.  Items
        heavier than ``bound`` are forced false, and the last item needs
        no partial sums of its own.  Auxiliary variables grow with the
        number of reachable sums, not with the total weight of the items.
        """
        if bound < 0:
            raise ValueError("weight bound must be non-negative")
        live: List[Tuple[int, int]] = []
        for literal, weight in items:
            if weight < 0:
                raise ValueError("item weights must be non-negative")
            if weight > bound:
                self.add_clause([-literal])
            elif weight > 0:
                live.append((literal, weight))
        if sum(weight for _, weight in live) <= bound:
            return
        # at_least[v]: the items before the current one weigh >= v.
        at_least: Dict[int, int] = {}
        for index, (literal, weight) in enumerate(live):
            for total, reached in at_least.items():
                if total + weight > bound:
                    self.add_clause([-literal, -reached])
            if index == len(live) - 1:
                break
            lifted = [
                total + weight for total in at_least
                if total + weight <= bound
            ]
            following = {
                total: self.new_var()
                for total in sorted({weight, *at_least, *lifted})
            }
            for total, reached in at_least.items():
                self.add_clause([-reached, following[total]])
                if total + weight <= bound:
                    self.add_clause(
                        [-literal, -reached, following[total + weight]]
                    )
            self.add_clause([-literal, following[weight]])
            at_least = following

    def xor_link(self, output: int, left: int, right: int) -> None:
        """Constrain ``output <-> left XOR right`` (four clauses)."""
        self.add_clause([-output, left, right])
        self.add_clause([-output, -left, -right])
        self.add_clause([output, -left, right])
        self.add_clause([output, left, -right])

    def equal_link(self, left: int, right: int) -> None:
        """Constrain ``left <-> right``."""
        self.add_clause([-left, right])
        self.add_clause([left, -right])

    # -- interchange ---------------------------------------------------------

    def to_dimacs(self) -> str:
        """The formula in DIMACS ``cnf`` format (for external debugging)."""
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        for clause in self.clauses:
            lines.append(" ".join(str(literal) for literal in clause) + " 0")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return (
            f"Cnf(num_vars={self.num_vars}, num_clauses={len(self.clauses)})"
        )
