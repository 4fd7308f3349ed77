"""Property tests for the dependency-free SAT layer (:mod:`repro.sat`).

The solver is the oracle the exact engines lean on, so it is itself tested
against the only stronger oracle available: brute-force enumeration.
Seeded random CNFs over at most 12 variables must agree with exhaustive
search on SAT/UNSAT, and every model the solver returns must satisfy every
clause.  The constraint encodings (`at_most_one`, `exactly_one`,
`at_most_k`, `at_most_weight`, `xor_link`) are checked semantically:
projected onto the original variables, the encoded formula must accept
exactly the assignments the cardinality or weight predicate accepts.

The tuned solver is also pinned to :class:`oracles.sat.SolverReference`,
the plainly written search it replaced: same status, model and search
statistics on every seeded instance.
"""

import itertools
import random

import pytest

import repro.sat.solver as solver_module
from oracles.sat import SolverReference, search_of
from repro.sat import Cnf, SatResult, Solver, solve
from repro.sat.cnf import _PAIRWISE_LIMIT

SEEDS = range(40)


def random_cnf(seed, max_vars=12):
    """A seeded random 1..3-SAT instance near the phase transition."""
    rng = random.Random(seed)
    num_vars = rng.randint(1, max_vars)
    num_clauses = rng.randint(1, int(4.5 * num_vars))
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, min(3, num_vars))
        variables = rng.sample(range(1, num_vars + 1), width)
        clauses.append(
            [v if rng.random() < 0.5 else -v for v in variables]
        )
    return num_vars, clauses


def brute_force_sat(num_vars, clauses):
    """Exhaustively decide satisfiability (the reference oracle)."""
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(
            any(bits[abs(l) - 1] == (l > 0) for l in clause)
            for clause in clauses
        ):
            return True
    return False


def assert_model_satisfies(model, clauses):
    for clause in clauses:
        assert any(
            model[abs(l)] == (l > 0) for l in clause
        ), f"model violates clause {clause}"


def project_models(cnf, num_original_vars):
    """All assignments of the original variables the encoding accepts.

    Auxiliary (encoding) variables are existentially quantified by solving
    under assumptions for every assignment of the original variables.
    """
    accepted = set()
    for bits in itertools.product([False, True], repeat=num_original_vars):
        assumptions = [
            (i + 1) if value else -(i + 1) for i, value in enumerate(bits)
        ]
        if solve(cnf, assumptions=assumptions).status == "sat":
            accepted.add(bits)
    return accepted


# -- solver vs brute force ---------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_solver_agrees_with_brute_force(seed):
    num_vars, clauses = random_cnf(seed)
    cnf = Cnf(num_vars)
    cnf.add_clauses(clauses)
    result = solve(cnf)
    assert result.status in ("sat", "unsat")
    expected = brute_force_sat(num_vars, clauses)
    assert (result.status == "sat") == expected, (
        f"seed {seed}: solver says {result.status}, "
        f"enumeration says {'sat' if expected else 'unsat'}"
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_returned_models_satisfy_all_clauses(seed):
    num_vars, clauses = random_cnf(seed)
    cnf = Cnf(num_vars)
    cnf.add_clauses(clauses)
    result = solve(cnf)
    if result.status == "sat":
        assert result.model is not None
        assert set(result.model) == set(range(1, num_vars + 1))
        assert_model_satisfies(result.model, clauses)
    else:
        assert result.model is None


def test_solver_result_truthiness_and_indexing():
    cnf = Cnf(2)
    cnf.add_clause([1])
    cnf.add_clause([-2])
    result = solve(cnf)
    assert result
    assert result[1] is True
    assert result[2] is False
    unsat = solve_clauses(1, [[1], [-1]])
    assert not unsat
    with pytest.raises(KeyError):
        unsat[1]


def solve_clauses(num_vars, clauses):
    cnf = Cnf(num_vars)
    cnf.add_clauses(clauses)
    return solve(cnf)


# -- assumptions, budgets, degenerate formulas --------------------------------


def test_assumptions_restrict_the_model():
    cnf = Cnf(3)
    cnf.add_clause([1, 2, 3])
    result = solve(cnf, assumptions=[-1, -2])
    assert result.status == "sat"
    assert result[3] is True
    assert result[1] is False and result[2] is False


def test_conflicting_assumptions_are_unsat():
    cnf = Cnf(2)
    cnf.add_clause([1, 2])
    assert solve(cnf, assumptions=[-1, -2]).status == "unsat"
    # The formula itself stays satisfiable.
    assert solve(cnf).status == "sat"


def test_assumption_contradicting_a_unit_clause():
    cnf = Cnf(1)
    cnf.add_clause([1])
    assert solve(cnf, assumptions=[-1]).status == "unsat"


def pigeonhole(holes):
    """holes+1 pigeons into ``holes`` holes — classically hard UNSAT."""
    cnf = Cnf()
    var = lambda p, h: p * holes + h + 1  # noqa: E731
    for pigeon in range(holes + 1):
        cnf.add_clause([var(pigeon, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(holes + 1):
            for p2 in range(p1 + 1, holes + 1):
                cnf.add_clause([-var(p1, h), -var(p2, h)])
    return cnf


def test_conflict_budget_reports_unknown():
    result = solve(pigeonhole(9), conflict_budget=50)
    assert result.status == "unknown"
    assert result.model is None
    assert result.conflicts >= 50


def test_time_budget_reports_unknown():
    result = solve(pigeonhole(11), time_budget=0.2)
    assert result.status == "unknown"
    assert result.runtime >= 0.0


def test_small_pigeonhole_is_unsat():
    result = solve(pigeonhole(4))
    assert result.status == "unsat"
    assert result.conflicts > 0


def test_empty_formula_is_sat():
    assert solve(Cnf()).status == "sat"
    result = solve(Cnf(3))
    assert result.status == "sat"
    assert set(result.model) == {1, 2, 3}


def test_empty_clause_is_unsat_without_search():
    cnf = Cnf(2)
    cnf.add_clause([])
    assert cnf.contradiction
    result = solve(cnf)
    assert result.status == "unsat"
    assert result.decisions == 0


def test_solver_reports_search_statistics():
    result = solve(pigeonhole(4))
    assert result.propagations > 0
    assert result.decisions > 0
    assert isinstance(result, SatResult)


def test_solver_class_is_single_shot_but_reusable_interface():
    cnf = Cnf(2)
    cnf.add_clause([1, 2])
    assert Solver(cnf).solve().status == "sat"
    assert Solver(cnf).solve(assumptions=[-1, -2]).status == "unsat"


# -- Cnf construction ---------------------------------------------------------


def test_add_clause_deduplicates_and_drops_tautologies():
    cnf = Cnf(2)
    cnf.add_clause([1, 1, 2])
    assert cnf.clauses == [[1, 2]]
    cnf.add_clause([1, -1])  # tautology: not recorded
    assert cnf.num_clauses() == 1


def test_add_clause_grows_num_vars():
    cnf = Cnf()
    cnf.add_clause([5, -7])
    assert cnf.num_vars == 7


def test_add_clause_rejects_zero_literal():
    with pytest.raises(ValueError):
        Cnf().add_clause([0])


def test_new_vars_are_consecutive():
    cnf = Cnf(2)
    assert cnf.new_vars(3) == [3, 4, 5]
    assert cnf.num_vars == 5


def test_to_dimacs_round_trips_header_and_clauses():
    cnf = Cnf(3)
    cnf.add_clause([1, -2])
    cnf.add_clause([3])
    text = cnf.to_dimacs()
    lines = text.strip().splitlines()
    assert lines[0] == "p cnf 3 2"
    assert lines[1] == "1 -2 0"
    assert lines[2] == "3 0"


# -- constraint encodings (semantic checks) -----------------------------------


@pytest.mark.parametrize("width", [2, 3, _PAIRWISE_LIMIT + 1, 9])
def test_at_most_one_semantics(width):
    cnf = Cnf(width)
    cnf.at_most_one(list(range(1, width + 1)))
    accepted = project_models(cnf, width)
    expected = {
        bits
        for bits in itertools.product([False, True], repeat=width)
        if sum(bits) <= 1
    }
    assert accepted == expected


@pytest.mark.parametrize("width", [1, 3, _PAIRWISE_LIMIT + 2])
def test_exactly_one_semantics(width):
    cnf = Cnf(width)
    cnf.exactly_one(list(range(1, width + 1)))
    accepted = project_models(cnf, width)
    expected = {
        bits
        for bits in itertools.product([False, True], repeat=width)
        if sum(bits) == 1
    }
    assert accepted == expected


def test_exactly_one_of_nothing_is_contradictory():
    cnf = Cnf()
    cnf.exactly_one([])
    assert cnf.contradiction
    assert solve(cnf).status == "unsat"


@pytest.mark.parametrize("width,bound", [(4, 0), (4, 2), (6, 3), (7, 1), (5, 5)])
def test_at_most_k_semantics(width, bound):
    cnf = Cnf(width)
    cnf.at_most_k(list(range(1, width + 1)), bound)
    accepted = project_models(cnf, width)
    expected = {
        bits
        for bits in itertools.product([False, True], repeat=width)
        if sum(bits) <= bound
    }
    assert accepted == expected


def test_at_most_k_rejects_negative_bound():
    with pytest.raises(ValueError):
        Cnf(2).at_most_k([1, 2], -1)


def test_at_most_k_with_negative_literals():
    # "at most 1 of {x1, NOT x2, x3}" — encodings must honour polarity.
    cnf = Cnf(3)
    cnf.at_most_k([1, -2, 3], 1)
    accepted = project_models(cnf, 3)
    expected = {
        bits
        for bits in itertools.product([False, True], repeat=3)
        if (bits[0] + (not bits[1]) + bits[2]) <= 1
    }
    assert accepted == expected


def weight_predicate_models(weights, bound):
    return {
        bits
        for bits in itertools.product([False, True], repeat=len(weights))
        if sum(w for w, bit in zip(weights, bits) if bit) <= bound
    }


@pytest.mark.parametrize("num_items", range(1, 9))
def test_at_most_weight_semantics(num_items):
    rng = random.Random(num_items)
    weights = [rng.randint(1, 9) for _ in range(num_items)]
    items = list(zip(range(1, num_items + 1), weights))
    for bound in range(sum(weights) + 2):
        cnf = Cnf(num_items)
        cnf.at_most_weight(items, bound)
        assert project_models(cnf, num_items) == weight_predicate_models(
            weights, bound
        ), f"weights {weights}, bound {bound}"


def test_at_most_weight_forbids_an_item_heavier_than_the_bound():
    cnf = Cnf(3)
    cnf.at_most_weight([(1, 5), (2, 2), (3, 9)], 4)
    assert project_models(cnf, 3) == {
        (False, False, False), (False, True, False)
    }


def test_at_most_weight_with_negative_literals_and_zero_weights():
    # "NOT x1 weighs 3, x2 weighs 0, x3 weighs 2; at most 3 in total."
    cnf = Cnf(3)
    cnf.at_most_weight([(-1, 3), (2, 0), (3, 2)], 3)
    accepted = project_models(cnf, 3)
    expected = {
        bits
        for bits in itertools.product([False, True], repeat=3)
        if 3 * (not bits[0]) + 2 * bits[2] <= 3
    }
    assert accepted == expected


def test_at_most_weight_rejects_negative_bounds_and_weights():
    with pytest.raises(ValueError):
        Cnf(2).at_most_weight([(1, 1), (2, 1)], -1)
    with pytest.raises(ValueError):
        Cnf(2).at_most_weight([(1, -1), (2, 1)], 1)


def test_xor_link_semantics():
    cnf = Cnf(3)
    cnf.xor_link(3, 1, 2)
    accepted = project_models(cnf, 3)
    expected = {
        bits
        for bits in itertools.product([False, True], repeat=3)
        if bits[2] == (bits[0] ^ bits[1])
    }
    assert accepted == expected


def test_equal_link_semantics():
    cnf = Cnf(2)
    cnf.equal_link(1, -2)
    accepted = project_models(cnf, 2)
    assert accepted == {(False, True), (True, False)}


# -- the tuned solver against the reference search ----------------------------


def random_3sat(seed):
    """A seeded 3-SAT instance near the threshold, with a few assumptions."""
    rng = random.Random(seed)
    num_vars = rng.randint(20, 60)
    cnf = Cnf(num_vars)
    for _ in range(int(num_vars * rng.uniform(3.8, 4.6))):
        variables = rng.sample(range(1, num_vars + 1), 3)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in variables])
    assumptions = [
        v if rng.random() < 0.5 else -v
        for v in rng.sample(range(1, num_vars + 1), rng.randint(0, 4))
    ]
    return cnf, assumptions


@pytest.mark.parametrize("seed", SEEDS)
def test_search_matches_the_reference_on_random_cnfs(seed):
    num_vars, clauses = random_cnf(seed)
    cnf = Cnf(num_vars)
    cnf.add_clauses(clauses)
    assert search_of(Solver(cnf).solve()) == search_of(
        SolverReference(cnf).solve()
    )


def test_search_matches_the_reference_on_3sat_with_assumptions():
    statuses = set()
    for seed in range(240):
        cnf, assumptions = random_3sat(seed)
        tuned = Solver(cnf).solve(assumptions=assumptions)
        reference = SolverReference(cnf).solve(assumptions=assumptions)
        assert search_of(tuned) == search_of(reference), f"seed {seed}"
        statuses.add(tuned.status)
    assert statuses == {"sat", "unsat"}


def test_activity_rescale_rebuilds_the_heap(monkeypatch):
    # A tiny cap forces rescales; the search must stay sound, and after it
    # every unassigned variable must be queued at its current activity.
    monkeypatch.setattr(solver_module, "_ACTIVITY_CAP", 4.0)
    rescale = Solver._rescale_activities
    rescales = []

    def counted(solver):
        rescales.append(solver)
        rescale(solver)

    monkeypatch.setattr(Solver, "_rescale_activities", counted)
    for seed in range(40):
        cnf, assumptions = random_3sat(seed)
        solver = Solver(cnf)
        result = solver.solve(assumptions=assumptions)
        reference = SolverReference(cnf).solve(assumptions=assumptions)
        assert result.status == reference.status, f"seed {seed}"
        if result.status == "sat":
            assert_model_satisfies(result.model, cnf.clauses)
            assert all(result[abs(l)] == (l > 0) for l in assumptions)
        entries = set(solver.heap)
        for v in range(solver.num_vars):
            if solver.assigns[v] == solver_module._UNASSIGNED:
                assert solver.queued[v], f"seed {seed}: {v} not queued"
                assert (-solver.activity[v], v) in entries, f"seed {seed}"
    assert rescales
