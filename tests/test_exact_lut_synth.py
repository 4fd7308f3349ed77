"""Tests for exact small-LUT synthesis (T-cost-optimal ESOP covers).

:func:`exact_esop_cubes` reads covers of functions with at most
:data:`MAX_EXACT_VARS` inputs from one exhaustive cost table per input
count.  The suite asserts that each table equals the shortest-path oracle
:func:`oracles.logic.min_esop_costs_reference` on every function of up to
four inputs, that every cover computes exactly the requested truth table
(XOR of the cube truth tables) at exactly the optimal ``rtof`` cost, and
that a cover is never T-dearer than the PSDKRO cover (which wider
functions get instead).  Cube count is only the tie-breaker, so an optimal
cover may have more cubes than the PSDKRO one.

The memo is regression-tested through its hit/miss counters, and the
``lut_synth="exact"`` sub-synthesizer is checked end to end: block-level
circuits stay equivalent to the source AIG while never costing more T
than the ``"esop"`` blocks.

Cover quality is pinned: the ``rtof`` cost of every distinct LUT function
of INTDIV(8)'s exact configuration, of all 3-input functions and of a
seeded 4-input sample may not rise above the pinned figures.
"""

import random

import numpy as np
import pytest

import repro.logic.exact_esop as exact_esop_module
from oracles.logic import min_esop_costs_reference
from repro.logic.cube import Cube
from repro.logic.esop import psdkro_cubes
from repro.logic.exact_esop import (
    MAX_EXACT_VARS,
    exact_esop_cubes,
    exact_esop_stats,
    reset_exact_esop_memo,
)
from repro.logic.truth_table import tt_mask
from repro.quantum.tcount import circuit_t_count, mct_t_count
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
#: budget, k = 4).  The covers behind these costs give 76 qubits / 23176 T.
INTDIV8_COSTS = {
    (2, 0x2): 7, (2, 0x4): 7,
    (3, 0x60): 14, (3, 0x91): 15, (3, 0xB2): 21, (3, 0xE8): 21, (3, 0xEC): 15,
    (4, 0x0): 0, (4, 0x1): 23, (4, 0x100): 23, (4, 0x1E00): 22,
    (4, 0x3369): 14, (4, 0x6E00): 37, (4, 0x707F): 22, (4, 0x9678): 15,
    (4, 0xA0C6): 21, (4, 0xB2F8): 52, (4, 0xCC96): 14, (4, 0xDE96): 30,
    (4, 0xE080): 45, (4, 0xE800): 45, (4, 0xF593): 21, (4, 0xFBA2): 37,
    (4, 0xFE01): 15, (4, 0xFFCC): 7, (4, 0xFFFF): 0,
}

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
    covers are deterministic, so cross-test reuse only saves table walks)."""
    reset_exact_esop_memo()
    yield
    reset_exact_esop_memo()


@pytest.fixture(scope="module")
def optimum():
    """``num_vars -> least rtof cost of every truth table`` (the oracle)."""
    return {n: min_esop_costs_reference(n) for n in range(MAX_EXACT_VARS + 1)}


def assert_optimal(cubes, truth, num_vars, optimum):
    assert cover_truth(cubes) == truth, hex(truth)
    assert cover_cost(cubes) == optimum[num_vars][truth], hex(truth)


class TestExactCoverProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_cover_computes_the_truth_table(self, seed):
        truth = sample_truth(seed)
        cubes = exact_esop_cubes(truth, 4)
        assert cover_truth(cubes) == truth, f"seed {seed}"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cover_never_t_dearer_than_psdkro(self, seed):
        truth = sample_truth(seed)
        exact = exact_esop_cubes(truth, 4)
        heuristic = psdkro_cubes(truth, 4)
        assert cover_cost(exact) <= cover_cost(heuristic), f"seed {seed}"

    def test_fewer_t_gates_can_take_more_cubes(self):
        # Cube count only breaks ties: seed 17's optimum has 4 cubes at
        # 38 T where PSDKRO has 3 at 53 T.
        truth = sample_truth(17)
        exact = exact_esop_cubes(truth, 4)
        heuristic = psdkro_cubes(truth, 4)
        assert (len(exact), cover_cost(exact)) == (4, 38)
        assert (len(heuristic), cover_cost(heuristic)) == (3, 53)

    def test_known_optima(self):
        # XOR of four variables needs four single-literal cubes; a single
        # minterm is one cube; the constant-zero function is empty.
        parity = 0x6996
        cubes = exact_esop_cubes(parity, 4)
        assert len(cubes) == 4
        assert sum(cube.num_literals() for cube in cubes) == 4
        assert len(exact_esop_cubes(0x8000, 4)) == 1
        assert exact_esop_cubes(0, 4) == []
        assert exact_esop_cubes(1, 0) == [Cube.tautology(0)]

    def test_repeated_calls_reproduce_the_cover(self):
        for seed in SEEDS:
            truth = sample_truth(seed)
            exact = exact_esop_cubes(truth, 4)
            assert exact_esop_cubes(truth, 4) == exact

    def test_wide_functions_fall_back_to_psdkro(self, fresh_memo):
        truth = sample_truth(3, num_vars=MAX_EXACT_VARS + 1)
        cubes = exact_esop_cubes(truth, MAX_EXACT_VARS + 1)
        assert cubes == psdkro_cubes(truth, MAX_EXACT_VARS + 1)
        exact_esop_cubes(sample_truth(3), 4)
        assert exact_esop_stats()["fallbacks"] == 1

    def test_time_budget_is_accepted_and_ignored(self, fresh_memo):
        truth = sample_truth(7)
        assert exact_esop_cubes(truth, 4, 0.0) == exact_esop_cubes(truth, 4)

    def test_covers_never_call_the_sat_solver(self, fresh_memo, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("exact ESOP must not call the SAT solver")

        monkeypatch.setattr(exact_esop_module, "solve", refuse)
        for num_vars, truth in INTDIV8_COSTS:
            exact_esop_cubes(truth, num_vars)


class TestOptimality:
    def test_tables_equal_the_shortest_path_oracle(self, optimum):
        # Weighted costs are ``T * 64 + cubes``; the T part is the optimum.
        for num_vars in range(MAX_EXACT_VARS + 1):
            table = exact_esop_module._cost_table(num_vars)
            assert table.dtype == np.uint16
            assert (table >> 6).tolist() == optimum[num_vars], num_vars

    @pytest.mark.parametrize("num_vars", range(MAX_EXACT_VARS))
    def test_every_small_cover_is_optimal(self, num_vars, optimum):
        table = exact_esop_module._cost_table(num_vars)
        for truth in range(1 << (1 << num_vars)):
            cubes = exact_esop_cubes(truth, num_vars)
            assert_optimal(cubes, truth, num_vars, optimum)
            # The cube count is minimal among the T-optimal covers.
            assert cover_cost(cubes) * 64 + len(cubes) == table[truth]

    def test_seeded_four_input_covers_are_optimal(self, optimum):
        rng = random.Random(COSTS_4_SEED)
        for _ in COSTS_4:
            truth = rng.getrandbits(16)
            assert_optimal(exact_esop_cubes(truth, 4), truth, 4, optimum)

    def test_intdiv8_covers_are_optimal(self, optimum):
        for num_vars, truth in INTDIV8_COSTS:
            cubes = exact_esop_cubes(truth, num_vars)
            assert_optimal(cubes, truth, num_vars, optimum)


class TestMemoBehaviour:
    def test_hit_and_miss_counters(self, fresh_memo):
        truth = sample_truth(0)
        assert exact_esop_stats() == {"hits": 0, "misses": 0, "fallbacks": 0}
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
        assert exact_esop_stats() == {"hits": 0, "misses": 0, "fallbacks": 0}


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
    def test_exact_blocks_never_t_dearer_than_esop(self, seed):
        aig = random_aig(seed, num_pis=4, num_gates=12, num_pos=3)
        mapping = lut_map(aig, k=4)
        schedule = bennett_schedule(mapping)
        exact = synthesize_schedule(schedule, lut_synth="exact")
        esop = synthesize_schedule(schedule, lut_synth="esop")
        assert circuit_t_count(exact) <= circuit_t_count(esop), f"seed {seed}"
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


class TestPinnedQuality:
    def test_intdiv8_covers_keep_their_costs(self):
        for (num_vars, truth), cost in INTDIV8_COSTS.items():
            cubes = exact_esop_cubes(truth, num_vars)
            assert cover_truth(cubes) == truth, hex(truth)
            assert cover_cost(cubes) == cost, hex(truth)

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

    def test_three_input_covers_reach_the_minimum_cost(self, optimum):
        gaps = [
            truth for truth in range(256)
            if cover_cost(exact_esop_cubes(truth, 3)) > optimum[3][truth]
        ]
        assert not gaps, f"{len(gaps)} functions above the optimum: {gaps}"
