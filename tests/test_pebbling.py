"""Metamorphic/property tests for the reversible pebbling scheduler.

Every schedule a strategy emits must survive :func:`validate_schedule` (the
machine-checked pebble-game rules); on top of that the suite pins the
strategy-level invariants promised by the module:

* ``bennett`` — pebble peak equals the LUT count, zero recomputation, and
  the uncompute suffix is exactly the reversed compute prefix,
* ``eager``   — pebble peak equals the largest single-output cone,
* ``bounded`` — the pebble peak never exceeds the budget, infeasible
  budgets are rejected, and the gate count degrades monotonically as the
  budget shrinks; every greedy run matches the plain oracle scheduler of
  :mod:`oracles.circuits` step for step, and so do ``minimum_pebbles``
  and the schedule ``bounded_schedule`` picks off the budget ladder.

It also pins the strategy dispatch of :func:`make_schedule`: aliases,
did-you-mean errors, one message per misplaced option whether the call
comes directly or through a flow, and the rejection of the removed
``exact`` strategy at every entry point.

The LUT DAGs are seeded random AIGs (``repro.verify.fuzz``), so a failing
case prints a seed that reproduces the exact structure.
"""

import re

import pytest

from oracles.circuits import BoundedLadderReference, bounded_steps_reference
from repro.cli import main
from repro.core.flows import run_flow
from repro.logic.aig import lit_node
from repro.logic.cuts import LutMapping, lut_map
from repro.reversible.lut_synth import synthesize_schedule
from repro.reversible.pebbling import (
    COMPUTE,
    COPY,
    UNCOMPUTE,
    InvalidScheduleError,
    PebbleSchedule,
    PebbleStep,
    _greedy_steps,
    bennett_schedule,
    bounded_schedule,
    eager_schedule,
    make_schedule,
    minimum_pebbles,
    validate_schedule,
)
from repro.service.jobs import JobSpec
from repro.verify.differential import check_equivalent
from repro.verify.fuzz import random_aig

SEEDS = range(12)
LUT_SIZES = (2, 3, 4)


def mapping_for(seed, k=3, num_pis=4, num_gates=14, num_pos=3):
    aig = random_aig(seed, num_pis=num_pis, num_gates=num_gates, num_pos=num_pos)
    return lut_map(aig, k=k)


class TestEveryStrategyValidates:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k", LUT_SIZES)
    def test_all_strategies_pass_the_validator(self, seed, k):
        mapping = mapping_for(seed, k=k)
        schedules = [
            bennett_schedule(mapping),
            eager_schedule(mapping),
            bounded_schedule(mapping, minimum_pebbles(mapping)),
            bounded_schedule(mapping, max(1, mapping.num_luts())),
        ]
        for schedule in schedules:
            stats = validate_schedule(schedule)
            assert stats.num_steps == len(schedule)
            assert stats.num_copies == mapping.aig.num_pos()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_make_schedule_dispatcher(self, seed):
        mapping = mapping_for(seed)
        for strategy in ("bennett", "eager", "per_output", "bounded"):
            schedule = make_schedule(mapping, strategy=strategy)
            validate_schedule(schedule)
        assert make_schedule(mapping, "per_output").strategy == "eager"
        with pytest.raises(ValueError):
            make_schedule(mapping, strategy="greedy-ish")


class TestBennettProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k", LUT_SIZES)
    def test_pebble_peak_equals_lut_count(self, seed, k):
        mapping = mapping_for(seed, k=k)
        schedule = bennett_schedule(mapping)
        assert schedule.pebble_peak() == mapping.num_luts()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_no_recomputation(self, seed):
        schedule = bennett_schedule(mapping_for(seed))
        assert schedule.num_recomputes() == 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reversed_computes_equal_uncompute_suffix(self, seed):
        schedule = bennett_schedule(mapping_for(seed))
        computes = [step.node for step in schedule.compute_steps()]
        suffix = schedule.steps[-len(computes):] if computes else []
        assert all(step.op == UNCOMPUTE for step in suffix)
        assert [step.node for step in suffix] == list(reversed(computes))


class TestEagerProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k", LUT_SIZES)
    def test_pebble_peak_is_largest_cone(self, seed, k):
        mapping = mapping_for(seed, k=k)
        schedule = eager_schedule(mapping)
        largest_cone = max(
            (len(mapping.lut_cone(lit_node(po))) for po in mapping.aig.pos()),
            default=0,
        )
        assert schedule.pebble_peak() == largest_cone

    @pytest.mark.parametrize("seed", SEEDS)
    def test_each_cone_cleans_up_before_the_next_copy(self, seed):
        # Metamorphic shape check: between two copies, uncomputes mirror the
        # computes of the same cone in reverse.
        schedule = eager_schedule(mapping_for(seed))
        segment = []
        for step in schedule.steps:
            if step.op == COMPUTE:
                segment.append(step.node)
            elif step.op == UNCOMPUTE:
                assert step.node == segment.pop()
        assert segment == []

    @pytest.mark.parametrize("seed", SEEDS)
    def test_eager_never_uses_fewer_gates_than_bennett(self, seed):
        mapping = mapping_for(seed)
        eager = synthesize_schedule(eager_schedule(mapping))
        bennett = synthesize_schedule(bennett_schedule(mapping))
        assert eager.num_gates() >= bennett.num_gates()
        assert eager.num_lines() <= bennett.num_lines()


class TestBoundedProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k", LUT_SIZES)
    def test_budget_respected_for_every_feasible_budget(self, seed, k):
        mapping = mapping_for(seed, k=k)
        floor = minimum_pebbles(mapping)
        for budget in range(floor, max(1, mapping.num_luts()) + 1):
            schedule = bounded_schedule(mapping, budget)
            stats = validate_schedule(schedule)
            assert stats.pebble_peak <= budget
            assert schedule.max_pebbles == budget

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k", LUT_SIZES)
    def test_gate_count_degrades_monotonically(self, seed, k):
        mapping = mapping_for(seed, k=k)
        floor = minimum_pebbles(mapping)
        budgets = range(floor, max(1, mapping.num_luts()) + 1)
        gate_counts = [
            synthesize_schedule(bounded_schedule(mapping, budget)).num_gates()
            for budget in budgets
        ]
        assert all(a >= b for a, b in zip(gate_counts, gate_counts[1:])), (
            f"seed {seed}, k {k}: gate counts not monotone: {gate_counts}"
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_infeasible_budget_rejected(self, seed):
        # One pebble can never compute a LUT that depends on another LUT.
        mapping = mapping_for(seed)
        if any(mapping.dependencies(root) for root in mapping.order):
            with pytest.raises(ValueError, match="minimum"):
                bounded_schedule(mapping, 1)

    def test_every_budget_at_or_above_minimum_is_accepted(self):
        # Regression: greedy feasibility is NOT monotone in the budget;
        # these corpora contain budgets where the greedy run strands while
        # neighbouring budgets succeed.  bounded_schedule must skip such
        # anchors instead of crashing, so every budget >= minimum_pebbles
        # yields a valid schedule.
        for seed, k, max_cuts in [(585, 2, 4), (21, 3, 4)]:
            aig = random_aig(seed, num_pis=5, num_gates=30 if seed == 585 else 25,
                             num_pos=4)
            mapping = lut_map(aig, k=k, max_cuts=max_cuts)
            floor = minimum_pebbles(mapping)
            for budget in range(floor, max(1, mapping.num_luts()) + 1):
                schedule = bounded_schedule(mapping, budget)
                assert validate_schedule(schedule).pebble_peak <= budget

    def test_deep_dependency_chain_does_not_overflow_recursion(self):
        # Regression: the bounded scheduler walks the LUT DAG with an
        # explicit stack; a dependency chain deeper than Python's default
        # recursion limit must schedule (and validate) fine.
        import sys

        from repro.logic.aig import Aig

        # Each stage XORs in a fresh primary input, so no small cut can
        # absorb the chain and the k = 2 LUT DAG stays ~3x deeper than
        # the stage count.
        aig = Aig("chain")
        literal = aig.add_pi()
        for _ in range(1500):
            literal = aig.create_xor(literal, aig.add_pi())
        aig.add_po(literal)
        mapping = lut_map(aig, k=2)
        assert mapping.depth() > sys.getrecursionlimit()
        schedule = bounded_schedule(mapping, minimum_pebbles(mapping))
        stats = validate_schedule(schedule)
        assert stats.pebble_peak <= schedule.max_pebbles

    def test_no_cone_walks_and_one_fanin_read_per_lut(self, monkeypatch):
        # Deterministic complexity guard: the DAG structure is read once
        # per mapping, however many greedy runs the ladder makes.
        aig = random_aig(7, num_pis=6, num_gates=60, num_pos=4)
        mapping = lut_map(aig, k=3)
        calls = {"lut_cone": 0, "dependencies": 0}
        for name in calls:
            original = getattr(LutMapping, name)

            def counted(self, root, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, root)

            monkeypatch.setattr(LutMapping, name, counted)
        minimum_pebbles(mapping)
        bounded_schedule(mapping, 0.5)
        assert len(mapping._pebble_memo["greedy"]) > 1
        assert calls["lut_cone"] == 0
        assert calls["dependencies"] <= mapping.num_luts()

    def test_feasible_budget_below_minimum_is_probed_not_rejected(self):
        # A budget below the guaranteed threshold must still be accepted
        # when its own greedy run happens to succeed (and cleanly rejected
        # otherwise) — never crash, never refuse a workable budget.
        for seed, k in [(21, 3), (585, 2)]:
            aig = random_aig(seed, num_pis=5, num_gates=25, num_pos=4)
            mapping = lut_map(aig, k=k, max_cuts=4)
            floor = minimum_pebbles(mapping)
            for budget in range(1, floor):
                try:
                    schedule = bounded_schedule(mapping, budget)
                except ValueError:
                    continue
                assert validate_schedule(schedule).pebble_peak <= budget

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fractional_budget_resolves_to_a_feasible_one(self, seed):
        mapping = mapping_for(seed)
        schedule = bounded_schedule(mapping, 0.25)
        stats = validate_schedule(schedule)
        assert stats.pebble_peak <= schedule.max_pebbles
        assert schedule.max_pebbles >= minimum_pebbles(mapping)

    @pytest.mark.parametrize("budget", [2.5, 5.7, 1.5])
    def test_non_integral_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="integer pebble count"):
            bounded_schedule(mapping_for(0), budget)

    @pytest.mark.parametrize("strategy", ["bennett", "eager", "per_output"])
    def test_unbudgeted_strategies_reject_a_budget(self, strategy):
        with pytest.raises(ValueError, match="takes no pebble budget"):
            make_schedule(mapping_for(0), strategy, max_pebbles=3)

    @pytest.mark.parametrize("seed", (0, 4))
    def test_half_budget_schedules_a_larger_dag(self, seed):
        # Seeds 0 and 4 map to DAGs of more than 12 LUTs; half the LUT
        # count pebbles them correctly, never above Bennett's peak.
        aig = random_aig(seed, num_pis=4, num_gates=14, num_pos=3)
        mapping = lut_map(aig, k=3)
        assert mapping.num_luts() > 12
        schedule = make_schedule(mapping, strategy="bounded", max_pebbles=0.5)
        assert validate_schedule(schedule).pebble_peak <= schedule.max_pebbles
        assert schedule.pebble_peak() <= bennett_schedule(mapping).pebble_peak()
        check = check_equivalent(aig, synthesize_schedule(schedule), mode="full")
        assert check.equivalent, f"seed {seed}: {check.message}"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_full_budget_matches_bennett_gate_count(self, seed):
        # With the whole DAG's worth of pebbles the scheduler never has to
        # recompute, so it meets the Bennett lower bound of the gate count.
        mapping = mapping_for(seed)
        bounded = synthesize_schedule(
            bounded_schedule(mapping, max(1, mapping.num_luts()))
        )
        bennett = synthesize_schedule(bennett_schedule(mapping))
        assert bounded.num_gates() <= bennett.num_gates()


class TestBoundedMatchesOracle:
    """The greedy runs are pinned step for step to the plain scheduler of
    :mod:`oracles.circuits`, for every budget: feasible budgets give the
    same step list, infeasible ones stay infeasible."""

    @staticmethod
    def assert_every_budget_matches(mapping):
        for budget in range(1, max(1, mapping.num_luts()) + 1):
            assert _greedy_steps(mapping, budget) == bounded_steps_reference(
                mapping, budget
            ), f"budget {budget}"

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k", LUT_SIZES)
    def test_random_mappings(self, seed, k):
        self.assert_every_budget_matches(mapping_for(seed, k=k))

    @pytest.mark.parametrize("seed, k", [(585, 2), (21, 3)])
    def test_non_monotone_corpora(self, seed, k):
        aig = random_aig(seed, num_pis=5, num_gates=30 if seed == 585 else 25,
                         num_pos=4)
        self.assert_every_budget_matches(lut_map(aig, k=k, max_cuts=4))

    @pytest.mark.parametrize("bitwidth, num_luts", [(6, 75), (8, 132)])
    def test_intdiv_lut_mapping(self, bitwidth, num_luts):
        from repro.core.flows import run_flow

        result = run_flow(
            "lut", "intdiv", bitwidth, verify=False, strategy="bennett", k=4
        )
        mapping = result.context["lut_mapping"]
        assert mapping.num_luts() == num_luts
        self.assert_every_budget_matches(mapping)

    def test_pinned_victims_go_back_on_the_heap(self):
        # LUTs n6..n10; n9 reads n7 and n10 reads n8 and n9.  At budget 3
        # the eviction before compute(n10) finds the two highest ready
        # pebbles, n9 and n8, pinned as n10's fanins and evicts n7.  The
        # cleanup eviction after copy(po1) must then pick n8 again, which
        # it only can if the set-aside heap entries were pushed back.
        from repro.logic.aig import Aig

        aig = Aig("pinned")
        pis = [aig.add_pi() for _ in range(5)]
        n6 = aig.create_and(pis[0], pis[1])
        n7 = aig.create_and(pis[1], pis[2])
        n8 = aig.create_and(pis[3], pis[4])
        n9 = aig.create_and(n7, pis[0])
        aig.add_po(aig.create_and(n8, n9))
        aig.add_po(n6)
        mapping = lut_map(aig, k=2)
        assert {root: mapping.dependencies(root) for root in mapping.order} == {
            6: (), 7: (), 8: (), 9: (7,), 10: (8, 9)
        }
        self.assert_every_budget_matches(mapping)
        assert [str(step) for step in _greedy_steps(mapping, 3)] == [
            "compute(n7)", "compute(n9)", "compute(n8)", "uncompute(n7)",
            "compute(n10)", "copy(po0 <- n10)", "uncompute(n10)",
            "compute(n6)", "copy(po1 <- n6)", "uncompute(n8)",
            "compute(n7)", "uncompute(n9)", "uncompute(n7)", "uncompute(n6)",
        ]


def assert_ladder_matches(mapping):
    """``minimum_pebbles`` and ``bounded_schedule`` equal the oracle ladder's."""
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


class TestBoundedLadderMatchesOracle:
    """The ranking of the greedy runs, not only the runs themselves, is
    pinned to the oracle ladder of :mod:`oracles.circuits`."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k", LUT_SIZES)
    def test_random_mappings(self, seed, k):
        assert_ladder_matches(mapping_for(seed, k=k))

    @pytest.mark.parametrize("seed, k", [(585, 2), (21, 3)])
    def test_non_monotone_corpora(self, seed, k):
        aig = random_aig(seed, num_pis=5, num_gates=30 if seed == 585 else 25,
                         num_pos=4)
        assert_ladder_matches(lut_map(aig, k=k, max_cuts=4))


class TestScheduleExecution:
    @pytest.mark.parametrize("seed", range(6))
    def test_every_strategy_synthesises_equivalently(self, seed):
        aig = random_aig(seed, num_pis=4, num_gates=12, num_pos=3)
        mapping = lut_map(aig, k=3)
        for schedule in (
            bennett_schedule(mapping),
            eager_schedule(mapping),
            bounded_schedule(mapping, 0.5),
        ):
            circuit = synthesize_schedule(schedule)
            check = check_equivalent(aig, circuit, mode="full")
            assert check.equivalent, f"seed {seed}: {check.message}"

    @pytest.mark.parametrize("seed", range(4))
    def test_tbs_blocks_agree_with_esop_blocks(self, seed):
        aig = random_aig(seed, num_pis=3, num_gates=8, num_pos=2)
        mapping = lut_map(aig, k=3)
        schedule = bennett_schedule(mapping)
        esop = synthesize_schedule(schedule, lut_synth="esop")
        tbs = synthesize_schedule(schedule, lut_synth="tbs")
        for circuit in (esop, tbs):
            check = check_equivalent(aig, circuit, mode="full")
            assert check.equivalent, f"seed {seed}: {check.message}"
        assert esop.num_lines() == tbs.num_lines()

    def test_unknown_sub_synthesizer_rejected(self):
        schedule = bennett_schedule(mapping_for(0))
        with pytest.raises(ValueError):
            synthesize_schedule(schedule, lut_synth="magic")

    @pytest.mark.parametrize("strategy", ["bennett", "eager", "bounded"])
    def test_lut_synthesis_wrapper(self, strategy):
        from repro.reversible.lut_synth import lut_synthesis

        aig = random_aig(3, num_pis=4, num_gates=12, num_pos=3)
        budget = 0.5 if strategy == "bounded" else None
        circuit = lut_synthesis(aig, k=3, strategy=strategy, max_pebbles=budget)
        check = check_equivalent(aig, circuit, mode="full")
        assert check.equivalent, check.message


class TestStrategyDispatch:
    def test_alias_resolves_to_the_canonical_strategy(self):
        mapping = mapping_for(1)
        alias = make_schedule(mapping, strategy="per_output")
        eager = make_schedule(mapping, strategy="eager")
        assert alias.strategy == eager.strategy == "eager"
        assert alias.steps == eager.steps

    def test_unknown_name_raises_with_a_suggestion(self):
        mapping = mapping_for(1)
        with pytest.raises(ValueError, match="did you mean 'bounded'") as info:
            make_schedule(mapping, strategy="bounde")
        message = str(info.value)
        assert message.startswith("unknown pebbling strategy 'bounde'")
        for name in ("'bennett'", "'bounded'", "'eager' (alias 'per_output')"):
            assert name in message

    def test_unknown_strategy_is_a_value_error_in_make_schedule(self):
        mapping = mapping_for(1)
        with pytest.raises(ValueError, match="unknown pebbling strategy"):
            make_schedule(mapping, strategy="exat")

    def test_stray_keyword_is_a_type_error(self):
        mapping = mapping_for(1)
        with pytest.raises(TypeError):
            make_schedule(mapping, strategy="bennett", time_budget=1.0)

    @pytest.mark.parametrize("strategy", ["bennett", "eager", "per_output"])
    def test_misplaced_option_message_is_the_same_through_a_flow(self, strategy):
        with pytest.raises(ValueError, match="takes no pebble budget") as direct:
            make_schedule(mapping_for(1), strategy, max_pebbles=3)
        with pytest.raises(ValueError, match="takes no pebble budget") as flow:
            run_flow("lut", "intdiv", 3, verify=False, strategy=strategy,
                     max_pebbles=3)
        assert str(direct.value) == str(flow.value)
        assert f"{strategy!r}" in str(direct.value)

    @pytest.mark.parametrize("budget", ["half", "3", True, False])
    def test_word_or_bool_budget_is_a_value_error(self, budget):
        with pytest.raises(ValueError, match="max_pebbles must be an integer"):
            make_schedule(mapping_for(1), "bounded", max_pebbles=budget)

    @pytest.mark.parametrize("budget", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_budget_is_a_value_error(self, budget):
        # A JSON payload or a --max-pebbles value can spell these.
        with pytest.raises(ValueError) as info:
            make_schedule(mapping_for(1), "bounded", max_pebbles=budget)
        assert str(info.value) == (
            "max_pebbles must be an integer pebble count or a fraction in "
            f"(0, 1), got {budget!r}"
        )

    @pytest.mark.parametrize("budget", ["inf", "-inf", "nan"])
    def test_non_finite_budget_exits_2_on_the_command_line(self, budget, capsys):
        code = main(["flow", "--flow", "lut", "--design", "intdiv", "-n", "4",
                     "--strategy", "bounded", f"--max-pebbles={budget}"])
        assert code == 2
        assert "max_pebbles must be an integer pebble count" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", [["bennett"], {"name": "exact"}, 3, None])
    def test_non_string_strategy_is_a_value_error(self, strategy):
        # A service payload can carry any JSON value as the strategy.
        with pytest.raises(ValueError, match="unknown pebbling strategy") as info:
            make_schedule(mapping_for(1), strategy)
        assert "expected one of 'bennett'" in str(info.value)


UNKNOWN_STRATEGY = (
    "unknown pebbling strategy 'exact' for the 'strategy' parameter; "
    "expected one of 'bennett', 'bounded', 'eager' (alias 'per_output')"
)
UNKNOWN_BUDGET = "unknown parameter 'exact_time_budget' for flow 'lut'"

#: Entry point -> (a call that must raise ValueError, or a command line that
#: must exit 2, and a fragment of its message).
EXACT_REJECTIONS = {
    "run_flow-lut": (
        lambda: run_flow("lut", "intdiv", 3, verify=False, strategy="exact"),
        UNKNOWN_STRATEGY,
    ),
    "run_flow-hierarchical": (
        lambda: run_flow("hierarchical", "intdiv", 3, verify=False, strategy="exact"),
        UNKNOWN_STRATEGY,
    ),
    "make_schedule": (lambda: make_schedule(mapping_for(1), "exact"), UNKNOWN_STRATEGY),
    "run_flow-budget": (
        lambda: run_flow("lut", "intdiv", 3, verify=False, exact_time_budget=3.0),
        UNKNOWN_BUDGET,
    ),
    "job": (
        lambda: JobSpec.from_payload({"configurations": [
            {"flow": "lut", "parameters": {"exact_time_budget": 3}},
        ]}),
        UNKNOWN_BUDGET,
    ),
    "cli-strategy": (
        ["flow", "--flow", "lut", "-n", "3", "--strategy", "exact"], UNKNOWN_STRATEGY
    ),
    "cli-budget": (
        ["flow", "--flow", "lut", "-n", "3", "--exact-time-budget", "3"],
        "unrecognized arguments: --exact-time-budget 3",
    ),
    "cli-sweep": (
        ["explore", "-n", "3", "--sweep", "lut:exact_time_budget=3", "--quiet"],
        UNKNOWN_BUDGET,
    ),
}


@pytest.mark.parametrize(
    "entry, fragment", EXACT_REJECTIONS.values(), ids=list(EXACT_REJECTIONS)
)
def test_the_removed_exact_strategy_is_rejected(entry, fragment, capsys):
    # Only bennett, eager and bounded remain, and no flow declares
    # exact_time_budget: every entry point fails before synthesis.
    if callable(entry):
        with pytest.raises(ValueError, match=re.escape(fragment)):
            entry()
        return
    try:
        code = main(entry)
    except SystemExit as exc:  # argparse: an option no flow declares
        code = exc.code
    assert code == 2
    assert fragment in capsys.readouterr().err


class TestValidatorRejectsTamperedSchedules:
    def _schedule(self, seed=0):
        return bennett_schedule(mapping_for(seed))

    def test_dropped_uncompute_leaves_ancilla_dirty(self):
        schedule = self._schedule()
        tampered = PebbleSchedule(schedule.mapping, schedule.steps[:-1])
        with pytest.raises(InvalidScheduleError, match="dirty"):
            validate_schedule(tampered)

    def test_compute_before_fanin_rejected(self):
        schedule = self._schedule()
        steps = list(schedule.steps)
        # Find a compute whose LUT has dependencies and hoist it to the front.
        target = next(
            step
            for step in steps
            if step.op == COMPUTE and schedule.mapping.dependencies(step.node)
        )
        steps.remove(target)
        steps.insert(0, target)
        with pytest.raises(InvalidScheduleError, match="fanin"):
            validate_schedule(PebbleSchedule(schedule.mapping, steps))

    def test_double_compute_rejected(self):
        schedule = self._schedule()
        first = schedule.steps[0]
        tampered = PebbleSchedule(schedule.mapping, [first] + list(schedule.steps))
        with pytest.raises(InvalidScheduleError, match="already pebbled"):
            validate_schedule(tampered)

    def test_copy_of_unpebbled_driver_rejected(self):
        mapping = mapping_for(0)
        copies = [
            step for step in bennett_schedule(mapping).steps if step.op == COPY
        ]
        driven = [
            step for step in copies if lit_node(mapping.aig.pos()[step.output]) in mapping.luts
        ]
        assert driven, "corpus must contain a LUT-driven output"
        with pytest.raises(InvalidScheduleError, match="unpebbled"):
            validate_schedule(PebbleSchedule(mapping, [driven[0]]))

    def test_duplicate_copy_rejected(self):
        schedule = self._schedule()
        copies = [step for step in schedule.steps if step.op == COPY]
        steps = list(schedule.steps) + [copies[0]]
        with pytest.raises(InvalidScheduleError, match="copied twice"):
            validate_schedule(PebbleSchedule(schedule.mapping, steps))

    def test_missing_output_rejected(self):
        schedule = self._schedule()
        steps = [step for step in schedule.steps if step.op != COPY]
        with pytest.raises(InvalidScheduleError, match="never copied"):
            validate_schedule(PebbleSchedule(schedule.mapping, steps))

    def test_mismatched_copy_driver_rejected(self):
        schedule = self._schedule()
        steps = [
            PebbleStep(COPY, step.node + 1, step.output)
            if step.op == COPY
            else step
            for step in schedule.steps
        ]
        with pytest.raises(InvalidScheduleError, match="driver"):
            validate_schedule(PebbleSchedule(schedule.mapping, steps))

    def test_declared_budget_enforced(self):
        schedule = self._schedule()
        assert schedule.mapping.num_luts() > 1
        tampered = PebbleSchedule(
            schedule.mapping, list(schedule.steps), max_pebbles=1
        )
        with pytest.raises(InvalidScheduleError, match="budget"):
            validate_schedule(tampered)

    def test_unknown_op_rejected(self):
        schedule = self._schedule()
        steps = list(schedule.steps) + [PebbleStep("teleport", 0)]
        with pytest.raises(InvalidScheduleError, match="unknown op"):
            validate_schedule(PebbleSchedule(schedule.mapping, steps))

    def test_uncompute_of_unpebbled_node_rejected(self):
        schedule = self._schedule()
        first_uncompute = next(
            step for step in schedule.steps if step.op == UNCOMPUTE
        )
        with pytest.raises(InvalidScheduleError, match="not pebbled"):
            validate_schedule(PebbleSchedule(schedule.mapping, [first_uncompute]))
