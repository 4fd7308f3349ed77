"""Randomised cross-checks of the pebbling strategies over DAGs of varied shape.

:mod:`test_pebbling` pins each strategy's invariants on one AIG shape
(4 inputs, 14 gates, 3 outputs).  This suite runs the strategies over a
corpus whose input count, gate count, output count and LUT size all vary
with the seed, so single-output cones, wide shallow DAGs and deep narrow
ones are all exercised.  For every corpus entry it checks:

* every schedule of ``bennett``, ``eager`` and ``bounded`` (at every
  budget from :func:`minimum_pebbles` up to the LUT count) survives
  :func:`validate_schedule`,
* the greedy runs equal the plain oracle scheduler of
  :mod:`oracles.circuits` step for step, and ``minimum_pebbles`` and
  ``bounded_schedule`` (at every budget up to the LUT count and at the
  fractions 0.25, 0.5 and 0.75) equal its budget ladder,
* the pebble peaks are ordered: ``eager`` and ``bounded`` never peak above
  ``bennett``, which holds one pebble per LUT,
* every schedule synthesises a circuit equivalent to the AIG,
* Bennett's gate count is a lower bound at every budget, and the full
  budget meets it,
* :func:`make_schedule` returns what the strategy functions return.

Each case id names the seed and shape, so a failing case reproduces from
its id alone.
"""

import pytest

from oracles.circuits import BoundedLadderReference, bounded_steps_reference
from repro.logic.cuts import lut_map
from repro.reversible.lut_synth import synthesize_schedule
from repro.reversible.pebbling import (
    _greedy_steps,
    bennett_schedule,
    bounded_schedule,
    eager_schedule,
    make_schedule,
    minimum_pebbles,
    validate_schedule,
)
from repro.verify.differential import check_equivalent
from repro.verify.fuzz import random_aig

#: (seed, num_pis, num_gates, num_pos, k): every field cycles with its own
#: period, so the 40 entries cover 4-7 inputs, 12-36 gates, 1-5 outputs
#: and LUT sizes 2-4 in many combinations.  The LUT DAGs range from none
#: (every output a constant or an input) to 28 LUTs of depth 11.
SHAPES = [
    (seed, 4 + seed % 4, 12 + 3 * (seed % 9), 1 + seed % 5, 2 + seed % 3)
    for seed in range(100, 140)
]


def shape_id(shape):
    seed, num_pis, num_gates, num_pos, k = shape
    return f"s{seed}-pi{num_pis}-g{num_gates}-po{num_pos}-k{k}"


shapes = pytest.mark.parametrize("shape", SHAPES, ids=shape_id)


def build(shape):
    seed, num_pis, num_gates, num_pos, k = shape
    aig = random_aig(seed, num_pis=num_pis, num_gates=num_gates, num_pos=num_pos)
    return aig, lut_map(aig, k=k)


def budgets(mapping):
    """Every budget the bounded scheduler is guaranteed to accept."""
    return range(max(1, minimum_pebbles(mapping)), max(1, mapping.num_luts()) + 1)


@shapes
def test_every_schedule_passes_the_validator(shape):
    aig, mapping = build(shape)
    schedules = [bennett_schedule(mapping), eager_schedule(mapping)]
    schedules += [bounded_schedule(mapping, budget) for budget in budgets(mapping)]
    for schedule in schedules:
        stats = validate_schedule(schedule)
        assert stats.num_steps == len(schedule)
        assert stats.num_copies == aig.num_pos()
        if schedule.max_pebbles is not None:
            assert stats.pebble_peak <= schedule.max_pebbles


@shapes
def test_greedy_runs_match_the_oracle_at_every_budget(shape):
    _, mapping = build(shape)
    for budget in range(1, max(1, mapping.num_luts()) + 1):
        assert _greedy_steps(mapping, budget) == bounded_steps_reference(
            mapping, budget
        ), f"budget {budget}"


@shapes
def test_bounded_ladder_matches_the_oracle(shape):
    _, mapping = build(shape)
    reference = BoundedLadderReference(mapping)
    assert minimum_pebbles(mapping) == reference.minimum()
    for budget in reference.budgets():
        expected = reference.schedule(budget)
        if expected is None:
            with pytest.raises(ValueError, match="minimum"):
                bounded_schedule(mapping, budget)
            continue
        schedule = bounded_schedule(mapping, budget)
        assert (schedule.max_pebbles, schedule.steps) == (
            reference.resolve(budget), expected
        ), f"budget {budget}"


@shapes
def test_peaks_never_exceed_bennett(shape):
    _, mapping = build(shape)
    bennett = bennett_schedule(mapping)
    assert bennett.pebble_peak() == mapping.num_luts()
    assert bennett.num_recomputes() == 0
    assert eager_schedule(mapping).pebble_peak() <= bennett.pebble_peak()
    for budget in budgets(mapping):
        peak = bounded_schedule(mapping, budget).pebble_peak()
        assert peak <= min(budget, bennett.pebble_peak()), f"budget {budget}"


@shapes
def test_every_schedule_synthesises_the_aig(shape):
    aig, mapping = build(shape)
    floor = budgets(mapping)[0]
    for schedule in (
        bennett_schedule(mapping),
        eager_schedule(mapping),
        bounded_schedule(mapping, floor),
        bounded_schedule(mapping, 0.5),
    ):
        circuit = synthesize_schedule(schedule)
        check = check_equivalent(aig, circuit, mode="full")
        assert check.equivalent, f"{schedule.strategy}: {check.message}"


@shapes
def test_bennett_gate_count_is_the_lower_bound(shape):
    # Every strategy computes and uncomputes each LUT at least once and
    # copies each output once; Bennett does nothing else.
    _, mapping = build(shape)
    lower = synthesize_schedule(bennett_schedule(mapping)).num_gates()
    assert synthesize_schedule(eager_schedule(mapping)).num_gates() >= lower
    counts = [
        synthesize_schedule(bounded_schedule(mapping, budget)).num_gates()
        for budget in budgets(mapping)
    ]
    assert min(counts) >= lower
    assert counts[-1] == lower


@shapes
def test_make_schedule_returns_the_strategy_schedules(shape):
    _, mapping = build(shape)
    expected = {
        "bennett": bennett_schedule(mapping),
        "eager": eager_schedule(mapping),
        "per_output": eager_schedule(mapping),
        "bounded": bounded_schedule(mapping, 0.5),
    }
    for strategy, direct in expected.items():
        budget = 0.5 if strategy == "bounded" else None
        schedule = make_schedule(mapping, strategy, max_pebbles=budget)
        assert schedule.strategy == direct.strategy
        assert schedule.max_pebbles == direct.max_pebbles
        assert schedule.steps == direct.steps, strategy
