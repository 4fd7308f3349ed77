"""Tests for exact small-LUT synthesis (SAT-minimum ESOP covers).

:func:`exact_esop_cubes` promises two things the suite asserts over a
seeded sample of 4-input functions: the cover computes exactly the
requested truth table (XOR of the cube truth tables), and it is never
larger than the PSDKRO cover it replaces — the engine's fallback *is* the
PSDKRO cover, so "never larger" must hold on every path, including budget
exhaustion and functions wider than the exact limit.

The memo is regression-tested through its hit/miss counters, and the
``lut_synth="exact"`` sub-synthesizer is checked end to end: block-level
circuits stay equivalent to the source AIG while never using more gates
than the ``"esop"`` blocks.

Cover quality is pinned: the ``rtof`` cost of every distinct LUT function
of INTDIV(8)'s exact configuration, of all 3-input functions and of a
seeded 4-input sample may not rise above the pinned figures, and the
solver effort over the INTDIV(8) functions is bounded by a conflict
count.  The known gap to the true optimum (the cost descent never tries
more cubes than the PSDKRO cover has) is kept visible as a strict xfail.
"""

import random

import pytest

import repro.logic.exact_esop as exact_esop_module
from oracles.logic import min_esop_costs_reference
from oracles.sat import SolverReference, search_of
from repro.logic.esop import psdkro_cubes
from repro.logic.exact_esop import (
    MAX_EXACT_VARS,
    exact_esop_cubes,
    exact_esop_stats,
    reset_exact_esop_memo,
)
from repro.sat import Solver
from repro.logic.truth_table import tt_mask
from repro.quantum.tcount import mct_t_count
from repro.reversible.lut_synth import synthesize_schedule
from repro.reversible.pebbling import bennett_schedule
from repro.logic.cuts import lut_map
from repro.verify.differential import check_equivalent
from repro.verify.fuzz import random_aig

SEEDS = range(20)


def sample_truth(seed, num_vars=4):
    return random.Random(seed).getrandbits(1 << num_vars) & tt_mask(num_vars)


def cover_truth(cubes):
    truth = 0
    for cube in cubes:
        truth ^= cube.truth_table()
    return truth


def cover_cost(cubes):
    return sum(mct_t_count(cube.num_literals()) for cube in cubes)


#: ``(num_vars, truth) -> rtof cost`` of every distinct function the exact
#: lut configuration of INTDIV(8) synthesises (strategy exact, 0.5 pebble
#: budget, k = 4).  The covers behind these costs give 76 qubits / 23302 T.
INTDIV8_COSTS = {
    (2, 0x2): 7, (2, 0x4): 7,
    (3, 0x60): 14, (3, 0x91): 22, (3, 0xB2): 21, (3, 0xE8): 21, (3, 0xEC): 15,
    (4, 0x0): 0, (4, 0x1): 23, (4, 0x100): 23, (4, 0x1E00): 22,
    (4, 0x3369): 14, (4, 0x6E00): 37, (4, 0x707F): 22, (4, 0x9678): 22,
    (4, 0xA0C6): 21, (4, 0xB2F8): 52, (4, 0xCC96): 14, (4, 0xDE96): 30,
    (4, 0xE080): 45, (4, 0xE800): 45, (4, 0xF593): 21, (4, 0xFBA2): 37,
    (4, 0xFE01): 15, (4, 0xFFCC): 7, (4, 0xFFFF): 0,
}

#: The INTDIV(8) functions whose cost descent hits the conflict cap.
INTDIV8_UNPROVEN = {(4, 0xB2F8), (4, 0xDE96)}

#: Ceiling on the SAT conflicts spent on :data:`INTDIV8_COSTS` from a cold
#: memo (the unweighted-counter encoding without cube ordering took 9058).
INTDIV8_CONFLICT_LIMIT = 6000

#: Pinned ``rtof`` cost of every 3-input function, indexed by truth table.
COSTS_3 = [
    0, 15, 15, 7, 15, 7, 14, 15, 15, 14, 7, 15, 7, 15, 15, 0,
    15, 7, 14, 15, 14, 15, 22, 21, 30, 22, 22, 14, 22, 14, 7, 15,
    15, 14, 7, 15, 30, 22, 22, 14, 14, 22, 15, 21, 22, 7, 14, 15,
    7, 15, 15, 0, 22, 14, 7, 15, 22, 7, 14, 15, 0, 15, 15, 7,
    15, 14, 30, 22, 7, 15, 22, 14, 14, 22, 22, 7, 15, 21, 14, 15,
    7, 15, 22, 14, 15, 0, 7, 15, 22, 7, 0, 15, 14, 15, 15, 7,
    14, 22, 22, 7, 22, 7, 0, 15, 22, 0, 7, 15, 7, 15, 15, 14,
    15, 21, 14, 15, 14, 15, 15, 7, 7, 15, 15, 14, 15, 14, 21, 15,
    15, 30, 14, 22, 14, 22, 22, 7, 7, 22, 15, 14, 15, 14, 21, 15,
    14, 22, 22, 7, 22, 7, 0, 15, 22, 0, 7, 15, 7, 15, 15, 14,
    7, 22, 15, 14, 22, 0, 7, 15, 15, 7, 0, 15, 14, 15, 15, 7,
    15, 14, 21, 15, 7, 15, 15, 14, 14, 15, 15, 7, 15, 21, 14, 15,
    7, 22, 22, 0, 15, 14, 7, 15, 15, 7, 14, 15, 0, 15, 15, 7,
    15, 14, 7, 15, 21, 15, 15, 14, 14, 15, 15, 21, 15, 7, 14, 15,
    15, 7, 14, 15, 14, 15, 15, 21, 21, 15, 15, 14, 15, 14, 7, 15,
    0, 15, 15, 7, 15, 7, 14, 15, 15, 14, 7, 15, 7, 15, 15, 0,
]

#: Pinned costs of the first 40 functions of ``random.Random(15)``'s
#: 16-bit stream, in stream order.
COSTS_4_SEED = 15
COSTS_4 = [
    45, 45, 45, 22, 30, 36, 45, 44, 38, 59, 37, 37, 44, 38, 44, 59,
    52, 52, 15, 45, 45, 29, 44, 45, 45, 45, 36, 30, 60, 60, 52, 45,
    38, 45, 44, 44, 22, 28, 30, 44,
]


@pytest.fixture
def fresh_memo():
    """Counter tests need a clean memo; property tests share it (the
    covers are deterministic, so cross-test reuse only saves solver time)."""
    reset_exact_esop_memo()
    yield
    reset_exact_esop_memo()


class TestExactCoverProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_cover_computes_the_truth_table(self, seed):
        truth = sample_truth(seed)
        cubes = exact_esop_cubes(truth, 4)
        assert cover_truth(cubes) == truth, f"seed {seed}"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cover_never_larger_than_psdkro(self, seed):
        truth = sample_truth(seed)
        exact = exact_esop_cubes(truth, 4)
        heuristic = psdkro_cubes(truth, 4)
        assert len(exact) <= len(heuristic), f"seed {seed}"

    def test_known_optima(self):
        # XOR of four variables needs four single-literal cubes; a single
        # minterm is one cube; the constant-zero function is empty.
        parity = 0x6996
        cubes = exact_esop_cubes(parity, 4)
        assert len(cubes) == 4
        assert sum(cube.num_literals() for cube in cubes) == 4
        assert len(exact_esop_cubes(0x8000, 4)) == 1
        assert exact_esop_cubes(0, 4) == []

    def test_literal_refinement_never_regresses_the_cube_count(self):
        for seed in SEEDS:
            truth = sample_truth(seed)
            exact = exact_esop_cubes(truth, 4)
            # Re-solving the same function must reproduce the memoized
            # optimum, not re-run the solver.
            assert exact_esop_cubes(truth, 4) == exact

    def test_wide_functions_fall_back_to_psdkro(self):
        truth = sample_truth(3, num_vars=MAX_EXACT_VARS + 1)
        cubes = exact_esop_cubes(truth, MAX_EXACT_VARS + 1)
        assert cubes == psdkro_cubes(truth, MAX_EXACT_VARS + 1)

    def test_exhausted_budget_falls_back_to_psdkro(self, fresh_memo):
        truth = sample_truth(7)
        cubes = exact_esop_cubes(truth, 4, time_budget=0.0)
        assert cubes == psdkro_cubes(truth, 4)
        assert exact_esop_stats()["fallbacks"] == 1


class TestMemoBehaviour:
    def test_hit_and_miss_counters(self, fresh_memo):
        truth = sample_truth(0)
        assert exact_esop_stats() == {
            "hits": 0, "misses": 0, "optimal": 0, "unproven": 0,
            "fallbacks": 0,
        }
        first = exact_esop_cubes(truth, 4)
        stats = exact_esop_stats()
        assert stats["misses"] == 1 and stats["hits"] == 0
        second = exact_esop_cubes(truth, 4)
        stats = exact_esop_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1
        assert first == second

    def test_memoized_result_is_a_copy(self, fresh_memo):
        truth = sample_truth(1)
        first = exact_esop_cubes(truth, 4)
        first.append(None)  # corrupting the returned list ...
        second = exact_esop_cubes(truth, 4)
        assert None not in second  # ... must not corrupt the memo

    def test_reset_clears_both_memo_and_counters(self, fresh_memo):
        exact_esop_cubes(sample_truth(2), 4)
        reset_exact_esop_memo()
        assert exact_esop_stats() == {
            "hits": 0, "misses": 0, "optimal": 0, "unproven": 0,
            "fallbacks": 0,
        }


class TestExactBlocks:
    @pytest.mark.parametrize("seed", range(6))
    def test_exact_blocks_stay_equivalent_to_the_aig(self, seed):
        aig = random_aig(seed, num_pis=4, num_gates=12, num_pos=3)
        mapping = lut_map(aig, k=4)
        schedule = bennett_schedule(mapping)
        circuit = synthesize_schedule(schedule, lut_synth="exact")
        check = check_equivalent(aig, circuit, mode="full")
        assert check.equivalent, f"seed {seed}: {check.message}"

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_blocks_never_use_more_gates_than_esop(self, seed):
        aig = random_aig(seed, num_pis=4, num_gates=12, num_pos=3)
        mapping = lut_map(aig, k=4)
        schedule = bennett_schedule(mapping)
        exact = synthesize_schedule(schedule, lut_synth="exact")
        esop = synthesize_schedule(schedule, lut_synth="esop")
        assert exact.num_gates() <= esop.num_gates(), f"seed {seed}"
        assert exact.num_lines() == esop.num_lines()

    def test_flow_level_exact_synthesis_verifies(self):
        from repro.core.flows import run_flow

        exact = run_flow(
            "lut", "intdiv", 3, verify="full", lut_synth="exact"
        )
        esop = run_flow("lut", "intdiv", 3, verify="full", lut_synth="esop")
        assert exact.report.verified
        assert exact.report.t_count <= esop.report.t_count
        assert exact.report.qubits == esop.report.qubits


@pytest.fixture(scope="module")
def intdiv8_run():
    """Every INTDIV(8) function solved from a cold memo, with its SAT calls.

    Yields ``(covers, per-function stats deltas, [(cnf, conflict_budget,
    result)])``; the solver entry point is wrapped for the duration.
    """
    calls = []
    solve = exact_esop_module.solve

    def recording(cnf, *args, **kwargs):
        result = solve(cnf, *args, **kwargs)
        calls.append((cnf, kwargs.get("conflict_budget"), result))
        return result

    reset_exact_esop_memo()
    exact_esop_module.solve = recording
    try:
        covers, stats = {}, {}
        for num_vars, truth in INTDIV8_COSTS:
            before = exact_esop_stats()
            covers[num_vars, truth] = exact_esop_cubes(truth, num_vars)
            stats[num_vars, truth] = {
                key: value - before[key]
                for key, value in exact_esop_stats().items()
            }
    finally:
        exact_esop_module.solve = solve
        reset_exact_esop_memo()
    yield covers, stats, calls


class TestPinnedQuality:
    def test_intdiv8_covers_keep_their_costs(self, intdiv8_run):
        covers, _, _ = intdiv8_run
        for (num_vars, truth), cost in INTDIV8_COSTS.items():
            cubes = covers[num_vars, truth]
            assert cover_truth(cubes) == truth, hex(truth)
            assert cover_cost(cubes) == cost, hex(truth)

    def test_intdiv8_provenance(self, intdiv8_run):
        _, stats, _ = intdiv8_run
        unproven = {key for key, delta in stats.items() if delta["unproven"]}
        assert unproven == INTDIV8_UNPROVEN
        total = {
            key: sum(delta[key] for delta in stats.values())
            for key in ("optimal", "unproven", "fallbacks")
        }
        # The constant-zero function takes no exact path at all.
        assert total == {"optimal": 23, "unproven": 2, "fallbacks": 0}

    def test_intdiv8_solver_effort_is_bounded(self, intdiv8_run):
        _, _, calls = intdiv8_run
        conflicts = sum(result.conflicts for _, _, result in calls)
        assert conflicts <= INTDIV8_CONFLICT_LIMIT, conflicts

    def test_three_input_costs_never_rise(self):
        for truth, pinned in enumerate(COSTS_3):
            cubes = exact_esop_cubes(truth, 3)
            assert cover_truth(cubes) == truth, hex(truth)
            assert cover_cost(cubes) <= pinned, hex(truth)

    def test_four_input_costs_never_rise(self):
        rng = random.Random(COSTS_4_SEED)
        for pinned in COSTS_4:
            truth = rng.getrandbits(16)
            cubes = exact_esop_cubes(truth, 4)
            assert cover_truth(cubes) == truth, hex(truth)
            assert cover_cost(cubes) <= pinned, hex(truth)

    @pytest.mark.xfail(
        strict=True,
        reason="the cost descent never tries more cubes than the PSDKRO "
        "cover has, e.g. 0x18 costs 30 from 2 cubes, 21 from 3",
    )
    def test_three_input_covers_reach_the_minimum_cost(self):
        optimum = min_esop_costs_reference(3)
        gaps = [
            truth for truth in range(256)
            if cover_cost(exact_esop_cubes(truth, 3)) > optimum[truth]
        ]
        assert not gaps, f"{len(gaps)} functions above the optimum: {gaps}"


class TestSolverKernelOracle:
    def test_exact_esop_searches_match_the_reference_solver(
        self, intdiv8_run
    ):
        _, _, calls = intdiv8_run
        assert len(calls) > 26
        for cnf, conflict_budget, _ in calls:
            tuned = Solver(cnf).solve(conflict_budget=conflict_budget)
            reference = SolverReference(cnf).solve(
                conflict_budget=conflict_budget
            )
            assert search_of(tuned) == search_of(reference), repr(cnf)
