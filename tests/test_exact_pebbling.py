"""Metamorphic tests for the SAT-exact pebbling strategy and the registry.

The ``exact`` strategy promises three machine-checkable orderings against
the heuristics it replaces, all asserted here rather than trusted by
construction:

* every schedule it emits survives :func:`validate_schedule`,
* at equal pebble budgets, ``exact`` never peaks above ``bounded``, which
  never peaks above ``bennett``,
* the synthesised gate count is monotone non-increasing in the budget.

On top of that the suite pins the strategy dispatch of
:func:`make_schedule` (did-you-mean errors, aliases, and one message per
misplaced option whether the call comes directly or through a flow) and
the engine's provenance metadata: which engine ran, whether optimality
was proven within the time budget, and the rejection of DAGs above
:data:`MONOLITHIC_LUT_LIMIT` LUTs.
"""

import pytest

from repro.core.explorer import parse_sweep_spec
from repro.core.flows import run_flow
from repro.logic.cuts import lut_map
from repro.reversible.exact_pebbling import (
    MONOLITHIC_LUT_LIMIT,
    exact_schedule,
)
from repro.reversible.lut_synth import synthesize_schedule
from repro.reversible.pebbling import (
    bennett_schedule,
    bounded_schedule,
    make_schedule,
    minimum_pebbles,
    validate_schedule,
)
from repro.verify.differential import check_equivalent
from repro.verify.fuzz import random_aig

#: Per-call SAT budget: generous enough that the small corpus mappings are
#: solved to proven optimality, small enough to keep the suite fast.
TIME_BUDGET = 5.0

#: Seeds whose k=3 LUT DAGs stay small (fast monolithic solves).
SMALL_SEEDS = (1, 2, 3, 6, 7, 8, 9, 11)

#: Seeds whose k=3 LUT DAGs exceed the monolithic limit (rejected).
LARGE_SEEDS = (0, 4)


def mapping_for(seed, k=3, num_pis=4, num_gates=14, num_pos=3):
    aig = random_aig(seed, num_pis=num_pis, num_gates=num_gates, num_pos=num_pos)
    return lut_map(aig, k=k)


def budget_range(mapping):
    floor = max(1, minimum_pebbles(mapping))
    return floor, max(floor, mapping.num_luts())


class TestEveryExactScheduleValidates:
    @pytest.mark.parametrize("seed", SMALL_SEEDS)
    def test_schedule_passes_the_validator(self, seed):
        mapping = mapping_for(seed)
        floor, ceiling = budget_range(mapping)
        for budget in {floor, ceiling}:
            schedule = exact_schedule(
                mapping, max_pebbles=budget, time_budget=TIME_BUDGET
            )
            stats = validate_schedule(schedule)
            assert stats.pebble_peak <= budget
            assert schedule.strategy == "exact"
            assert schedule.info.get("engine") in ("trivial", "sat-monolithic")

    @pytest.mark.parametrize("seed", SMALL_SEEDS[:4])
    def test_make_schedule_threads_the_time_budget(self, seed):
        mapping = mapping_for(seed)
        schedule = make_schedule(
            mapping, strategy="exact", exact_time_budget=TIME_BUDGET
        )
        assert validate_schedule(schedule).num_copies == mapping.aig.num_pos()

    def test_fractional_budget_resolves_like_bounded(self):
        mapping = mapping_for(SMALL_SEEDS[0])
        schedule = exact_schedule(
            mapping, max_pebbles=0.5, time_budget=TIME_BUDGET
        )
        bounded = bounded_schedule(mapping, 0.5)
        assert schedule.max_pebbles == bounded.max_pebbles
        assert validate_schedule(schedule).pebble_peak <= schedule.max_pebbles


class TestPeakOrdering:
    @pytest.mark.parametrize("seed", SMALL_SEEDS)
    def test_exact_peaks_at_or_below_bounded_at_or_below_bennett(self, seed):
        mapping = mapping_for(seed)
        floor, ceiling = budget_range(mapping)
        for budget in {floor, (floor + ceiling) // 2, ceiling}:
            budget = max(floor, budget)
            exact = exact_schedule(
                mapping, max_pebbles=budget, time_budget=TIME_BUDGET
            )
            bounded = bounded_schedule(mapping, budget)
            bennett = bennett_schedule(mapping)
            assert (
                exact.pebble_peak()
                <= bounded.pebble_peak()
                <= bennett.pebble_peak()
            ), f"seed {seed}, budget {budget}"


class TestGateCountMonotoneInBudget:
    @pytest.mark.parametrize("seed", SMALL_SEEDS)
    def test_gate_count_never_increases_with_the_budget(self, seed):
        mapping = mapping_for(seed)
        floor, ceiling = budget_range(mapping)
        gate_counts = [
            synthesize_schedule(
                exact_schedule(
                    mapping, max_pebbles=budget, time_budget=TIME_BUDGET
                )
            ).num_gates()
            for budget in range(floor, ceiling + 1)
        ]
        assert all(a >= b for a, b in zip(gate_counts, gate_counts[1:])), (
            f"seed {seed}: gate counts not monotone: {gate_counts}"
        )

    @pytest.mark.parametrize("seed", SMALL_SEEDS[:5])
    def test_exact_never_uses_more_gates_than_bounded(self, seed):
        mapping = mapping_for(seed)
        floor, ceiling = budget_range(mapping)
        for budget in {floor, ceiling}:
            exact = synthesize_schedule(
                exact_schedule(
                    mapping, max_pebbles=budget, time_budget=TIME_BUDGET
                )
            )
            bounded = synthesize_schedule(bounded_schedule(mapping, budget))
            assert exact.num_gates() <= bounded.num_gates(), (
                f"seed {seed}, budget {budget}"
            )


class TestExactSynthesisEquivalence:
    @pytest.mark.parametrize("seed", SMALL_SEEDS[:5])
    def test_exact_schedule_synthesises_the_same_function(self, seed):
        aig = random_aig(seed, num_pis=4, num_gates=14, num_pos=3)
        mapping = lut_map(aig, k=3)
        schedule = exact_schedule(mapping, time_budget=TIME_BUDGET)
        circuit = synthesize_schedule(schedule)
        check = check_equivalent(aig, circuit, mode="full")
        assert check.equivalent, f"seed {seed}: {check.message}"


class TestRegimesAndFallback:
    @pytest.mark.parametrize("seed", SMALL_SEEDS[:4])
    def test_small_dags_use_the_monolithic_engine(self, seed):
        mapping = mapping_for(seed)
        assert mapping.num_luts() <= MONOLITHIC_LUT_LIMIT
        schedule = exact_schedule(mapping, time_budget=TIME_BUDGET)
        assert schedule.info["engine"] == "sat-monolithic"
        assert "moves" in schedule.info

    @pytest.mark.parametrize("seed", LARGE_SEEDS)
    def test_exact_above_the_monolithic_limit_raises(self, seed):
        mapping = mapping_for(seed)
        assert mapping.num_luts() > MONOLITHIC_LUT_LIMIT
        message = (
            rf"at most {MONOLITHIC_LUT_LIMIT} LUTs, this one has "
            rf"{mapping.num_luts()}; use strategy='bounded'"
        )
        for max_pebbles in (None, 0.5):
            with pytest.raises(ValueError, match=message):
                exact_schedule(
                    mapping, max_pebbles=max_pebbles, time_budget=TIME_BUDGET
                )
        # The size check runs before any pebbling work: no minimum budget
        # was searched for (or memoised on) the mapping.
        assert "minimum" not in getattr(mapping, "_pebble_memo", {})

    @pytest.mark.parametrize("seed", LARGE_SEEDS)
    def test_bounded_schedules_what_exact_rejects(self, seed):
        # The rejection points to strategy='bounded'; that advice holds on
        # the same mapping and yields a correct, no-worse-than-Bennett run.
        aig = random_aig(seed, num_pis=4, num_gates=14, num_pos=3)
        mapping = lut_map(aig, k=3)
        with pytest.raises(ValueError, match="use strategy='bounded'"):
            make_schedule(mapping, strategy="exact", exact_time_budget=TIME_BUDGET)
        schedule = make_schedule(mapping, strategy="bounded", max_pebbles=0.5)
        assert validate_schedule(schedule).pebble_peak <= schedule.max_pebbles
        assert schedule.pebble_peak() <= bennett_schedule(mapping).pebble_peak()
        check = check_equivalent(aig, synthesize_schedule(schedule), mode="full")
        assert check.equivalent, f"seed {seed}: {check.message}"

    @pytest.mark.parametrize("seed", SMALL_SEEDS[:1])
    def test_exhausted_time_budget_degrades_to_a_valid_schedule(self, seed):
        mapping = mapping_for(seed)
        schedule = exact_schedule(mapping, time_budget=0.0)
        stats = validate_schedule(schedule)
        assert stats.pebble_peak <= schedule.max_pebbles
        assert schedule.info.get("optimal") in (False, True)

    def test_lut_free_mapping_is_trivial(self):
        # Seed 5's outputs are all PI- or constant-driven: no LUT to pebble.
        mapping = mapping_for(5)
        assert mapping.num_luts() == 0
        schedule = exact_schedule(mapping, time_budget=TIME_BUDGET)
        assert schedule.info == {"engine": "trivial", "optimal": True}
        assert validate_schedule(schedule).num_copies == mapping.aig.num_pos()


#: (strategy spelling, misplaced option, message fragment): every spelling
#: that does not take an option, plus the exact strategy's one bad value.
MISPLACED_OPTIONS = [
    *[
        (strategy, {"max_pebbles": 3}, "takes no pebble budget")
        for strategy in ("bennett", "eager", "per_output")
    ],
    *[
        (strategy, {"exact_time_budget": 3.0}, "applies only to strategy='exact'")
        for strategy in ("bennett", "eager", "per_output", "bounded")
    ],
    ("exact", {"exact_time_budget": 0}, "must be a positive number"),
]


class TestStrategyDispatch:
    def test_alias_resolves_to_the_canonical_strategy(self):
        mapping = mapping_for(1)
        alias = make_schedule(mapping, strategy="per_output")
        eager = make_schedule(mapping, strategy="eager")
        assert alias.strategy == eager.strategy == "eager"
        assert alias.steps == eager.steps

    def test_unknown_name_raises_with_a_suggestion(self):
        mapping = mapping_for(1)
        with pytest.raises(ValueError, match="did you mean 'exact'") as info:
            make_schedule(mapping, strategy="exat")
        message = str(info.value)
        assert message.startswith("unknown pebbling strategy 'exat'")
        for name in ("'bennett'", "'bounded'", "'eager' (alias 'per_output')",
                     "'exact'"):
            assert name in message

    def test_unknown_strategy_is_a_value_error_in_make_schedule(self):
        mapping = mapping_for(1)
        with pytest.raises(ValueError, match="unknown pebbling strategy"):
            make_schedule(mapping, strategy="exat")

    def test_stray_keyword_is_a_type_error(self):
        mapping = mapping_for(1)
        with pytest.raises(TypeError):
            make_schedule(mapping, strategy="bennett", time_budget=1.0)

    @pytest.mark.parametrize("strategy,options,fragment", MISPLACED_OPTIONS)
    def test_misplaced_option_message_is_the_same_through_a_flow(
        self, strategy, options, fragment
    ):
        with pytest.raises(ValueError, match=fragment) as direct:
            make_schedule(mapping_for(1), strategy, **options)
        with pytest.raises(ValueError, match=fragment) as flow:
            run_flow("lut", "intdiv", 3, verify=False, strategy=strategy,
                     **options)
        assert str(direct.value) == str(flow.value)
        assert f"{strategy!r}" in str(direct.value)

    @pytest.mark.parametrize("strategy", ["bounded", "exact"])
    @pytest.mark.parametrize("budget", ["half", "3", True, False])
    def test_word_or_bool_budget_is_a_value_error(self, strategy, budget):
        with pytest.raises(ValueError, match="max_pebbles must be an integer"):
            make_schedule(mapping_for(1), strategy, max_pebbles=budget)

    @pytest.mark.parametrize("strategy", [["bennett"], {"name": "exact"}, 3, None])
    def test_non_string_strategy_is_a_value_error(self, strategy):
        # A service payload can carry any JSON value as the strategy.
        with pytest.raises(ValueError, match="unknown pebbling strategy") as info:
            make_schedule(mapping_for(1), strategy)
        assert "expected one of 'bennett'" in str(info.value)

    @pytest.mark.parametrize(
        "budget", [True, False, float("inf"), float("nan"), "abc", "3", [3.0]]
    )
    def test_bad_exact_time_budget_names_the_parameter(self, budget):
        with pytest.raises(
            ValueError, match="exact_time_budget must be a positive number"
        ) as info:
            make_schedule(mapping_for(1), "exact", exact_time_budget=budget)
        assert str(info.value).endswith(f"got {budget!r}")

    def test_bad_exact_time_budget_fails_the_same_through_a_sweep(self):
        # A word or a bool is no number: the sweep parser rejects it by the
        # declared type.  A number make_schedule refuses fails the same
        # through a sweep as directly.
        for word in ("true", "abc"):
            with pytest.raises(
                ValueError,
                match="flow 'lut': parameter 'exact_time_budget' expects a number",
            ):
                parse_sweep_spec(f"lut:strategy=exact:exact_time_budget={word}")
        grid = parse_sweep_spec("lut:strategy=exact:exact_time_budget=inf,0,-1")
        budgets = []
        for configuration in grid.configurations():
            parameters = configuration.as_kwargs()
            budgets.append(parameters["exact_time_budget"])
            with pytest.raises(ValueError) as flow:
                run_flow("lut", "intdiv", 3, verify=False, **parameters)
            with pytest.raises(ValueError) as direct:
                make_schedule(mapping_for(1), **parameters)
            assert str(flow.value) == str(direct.value)
            assert str(flow.value).startswith(
                "exact_time_budget must be a positive number"
            )
        assert budgets == [float("inf"), 0.0, -1.0]
