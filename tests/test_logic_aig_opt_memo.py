"""The factored-form memo of the AIG passes and the lean ``Aig.cleanup``.

Refactoring memoises each cone function's factored form by
``(truth, num_vars)``, and ``Aig.cleanup``/``Aig.create_and`` work on the
node arrays directly.  Neither may change a single optimised AIG: the
production passes are pinned byte for byte (through ``write_aiger``) to
the plainly written passes in :mod:`oracles.logic`, with the memo cold
and warm.  The memo counters are deterministic effort guards, not
timing gates.
"""

import random

import pytest

import repro.logic.aig_opt as aig_opt
from oracles.logic import (
    cleanup_reference,
    create_and_reference,
    dc2_reference,
    refactor_reference,
    resyn2_reference,
)
from repro.hdl.synthesize import synthesize_reciprocal_design
from repro.io.aiger import write_aiger
from repro.logic.aig import Aig
from repro.logic.aig_opt import (
    dc2,
    factor_memo_stats,
    refactor,
    reset_factor_memo,
    resyn2,
)
from repro.verify.fuzz import random_aig

SEEDS = range(60)


@pytest.fixture(autouse=True)
def cold_memo():
    reset_factor_memo()
    yield
    reset_factor_memo()


def forest_aig(seed):
    """Seeded AND/OR trees over up to 14 inputs, read mostly once.

    Random DAGs share their nodes so much that refactoring rarely sees a
    cone of more than 7 leaves; these trees give 8- to 14-leaf cones for
    ``max_leaves`` 10 and 12.
    """
    rng = random.Random(seed)
    aig = Aig(f"forest{seed}")
    inputs = [aig.add_pi() for _ in range(rng.randint(8, 14))]
    for index in range(rng.randint(1, 3)):
        operands = [lit ^ rng.randint(0, 1) for lit in inputs if rng.random() < 0.8]
        operands += [rng.choice(inputs) for _ in range(rng.randint(0, 2))]
        while len(operands) > 1:
            a = operands.pop(rng.randrange(len(operands)))
            b = operands.pop(rng.randrange(len(operands)))
            create = aig.create_and if rng.random() < 0.5 else aig.create_or
            operands.append(create(a, b) ^ rng.randint(0, 1))
        aig.add_po(operands[0] if operands else 0, f"y{index}")
    return aig


def fuzzed_aig(seed):
    """Random DAGs on even seeds, wide fanout-free trees on odd ones."""
    if seed % 2:
        return forest_aig(seed)
    rng = random.Random(seed)
    return random_aig(
        seed,
        num_pis=rng.randint(3, 10),
        num_gates=rng.randint(8, 60),
        num_pos=rng.randint(1, 5),
    )


def design_aig(design, bitwidth, _cache={}):
    key = (design, bitwidth)
    if key not in _cache:
        _cache[key] = synthesize_reciprocal_design(design, bitwidth)[1]
    return _cache[key]


def structure(aig):
    """Everything ``cleanup`` must reproduce, through the public API."""
    return (
        aig.name,
        [aig.fanins(node) if aig.is_and(node) else None for node in aig.nodes()],
        aig.pis(),
        aig.pi_names(),
        aig.pos(),
        aig.po_names(),
        sorted(aig._strash.items()),
    )


# ---------------------------------------------------------------------------
# byte identity against the per-cone oracle
# ---------------------------------------------------------------------------


class TestRefactorMatchesOracle:
    @pytest.mark.parametrize("max_leaves", [5, 10, 12])
    def test_random_aigs_cold_and_warm(self, max_leaves):
        for seed in SEEDS:
            aig = fuzzed_aig(seed)
            expected = write_aiger(refactor_reference(aig, max_leaves=max_leaves))
            reset_factor_memo()
            cold = write_aiger(refactor(aig, max_leaves=max_leaves))
            warm = write_aiger(refactor(aig, max_leaves=max_leaves))
            assert cold == expected, f"seed {seed}, cold memo"
            assert warm == expected, f"seed {seed}, warm memo"
        # The warm runs of the last seed were served from the memo alone.
        assert factor_memo_stats()["hits"] > 0

    def test_memo_shared_across_different_aigs(self):
        # A memo warmed by other networks must not leak into this one.
        for seed in SEEDS:
            aig = fuzzed_aig(seed)
            assert write_aiger(refactor(aig, max_leaves=12)) == write_aiger(
                refactor_reference(aig, max_leaves=12)
            ), f"seed {seed}"

    @pytest.mark.parametrize(
        "design, bitwidth", [("intdiv", 4), ("intdiv", 6), ("newton", 4)]
    )
    @pytest.mark.parametrize(
        "script, reference", [(dc2, dc2_reference), (resyn2, resyn2_reference)]
    )
    def test_scripts_on_designs_cold_and_warm(
        self, design, bitwidth, script, reference
    ):
        aig = design_aig(design, bitwidth)
        expected = write_aiger(reference(aig))
        assert write_aiger(script(aig)) == expected
        misses = factor_memo_stats()["misses"]
        assert write_aiger(script(aig)) == expected
        assert factor_memo_stats()["misses"] == misses


# ---------------------------------------------------------------------------
# memo behaviour
# ---------------------------------------------------------------------------


class TestFactorMemo:
    def test_resyn2_twice_on_newton6(self):
        aig = design_aig("newton", 6)
        first = resyn2(aig)
        stats = factor_memo_stats()
        assert 0 < stats["misses"] <= 300
        assert stats["entries"] == stats["misses"]

        second = resyn2(aig)
        after = factor_memo_stats()
        assert after["misses"] == stats["misses"]
        assert after["hits"] > stats["hits"]
        assert write_aiger(second) == write_aiger(first)

    def test_overfilled_memo_is_cleared_and_stays_correct(self, monkeypatch):
        aig = design_aig("newton", 4)
        expected = write_aiger(resyn2(aig))
        unbounded_misses = factor_memo_stats()["misses"]

        monkeypatch.setattr(aig_opt, "FACTOR_MEMO_LIMIT", 8)
        reset_factor_memo()
        for _ in range(2):
            assert write_aiger(resyn2(aig)) == expected
            assert factor_memo_stats()["entries"] <= 8
        # Clearing forgot entries, so the bounded memo missed more often.
        assert factor_memo_stats()["misses"] > unbounded_misses

    def test_reset_clears_entries_and_counters(self):
        refactor(design_aig("intdiv", 4))
        assert factor_memo_stats()["entries"] > 0
        reset_factor_memo()
        assert factor_memo_stats() == {"hits": 0, "misses": 0, "entries": 0}

    def test_memoised_expressions_are_immutable(self):
        resyn2(design_aig("intdiv", 6))

        def assert_frozen(expr):
            assert isinstance(expr, tuple)
            if expr[0] in ("and", "or"):
                assert isinstance(expr[1], tuple)
                for child in expr[1]:
                    assert_frozen(child)

        assert aig_opt._factor_memo
        for expr, use_complement, cost in aig_opt._factor_memo.values():
            assert_frozen(expr)
            assert isinstance(use_complement, bool) and cost >= 0


# ---------------------------------------------------------------------------
# Aig.cleanup and Aig.create_and contracts
# ---------------------------------------------------------------------------


def dirty_aig(seed):
    """A seeded AIG with dangling nodes, interleaved inputs and odd outputs."""
    rng = random.Random(seed)
    aig = Aig(f"dirty{seed}")
    literals = [aig.add_pi() for _ in range(rng.randint(1, 3))]
    for step in range(rng.randint(0, 40)):
        if rng.random() < 0.15:
            name = f"late{step}" if rng.random() < 0.5 else None
            literals.append(aig.add_pi(name))
            continue
        a = rng.choice(literals) ^ rng.randint(0, 1)
        b = rng.choice(literals + [0, 1]) ^ rng.randint(0, 1)
        literals.append(aig.create_and(a, b))
    for index in range(rng.randint(0, 4)):
        lit = rng.choice(literals + [0, 1]) ^ rng.randint(0, 1)
        aig.add_po(lit, f"y{index}" if rng.random() < 0.5 else None)
    return aig


class TestCleanupContract:
    @pytest.mark.parametrize("seed", range(80))
    def test_equals_reference_cleanup(self, seed):
        aig = dirty_aig(seed)
        assert structure(aig.cleanup()) == structure(cleanup_reference(aig))

    def test_dangling_nodes_dropped_and_inputs_first(self):
        aig = Aig("mixed")
        a = aig.add_pi("a")
        dangling = aig.create_and(a, a ^ 1 ^ 1 ^ 1)  # a & !a folds to 0
        b = aig.add_pi("b")
        kept = aig.create_and(a, b ^ 1)
        aig.create_and(kept, b)  # dangling
        c = aig.add_pi("c")
        aig.add_po(aig.create_and(kept, c) ^ 1, "y")
        aig.add_po(b, "b_out")
        cleaned = aig.cleanup()
        assert dangling == 0
        assert cleaned.pi_names() == ["a", "b", "c"]
        assert cleaned.pis() == [2, 4, 6]
        assert cleaned.num_nodes() == 2
        assert cleaned.pos() == [2 * 5 + 1, 4]
        assert structure(cleaned) == structure(cleanup_reference(aig))

    @pytest.mark.parametrize("seed", range(10))
    def test_result_is_a_fresh_object(self, seed):
        aig = dirty_aig(seed)
        before = structure(aig)
        cleaned = aig.cleanup()
        assert cleaned is not aig
        new_pi = cleaned.add_pi("extra")
        cleaned.add_po(cleaned.create_and(new_pi, cleaned.pis()[0]), "extra_out")
        cleaned.name = "renamed"
        assert structure(aig) == before

    @pytest.mark.parametrize("seed", range(30))
    def test_create_and_matches_reference(self, seed):
        rng = random.Random(seed)
        production = dirty_aig(seed)
        reference = production.copy()
        for _ in range(60):
            bound = 2 * len(list(production.nodes()))
            a = rng.randint(-2, bound + 1)
            b = rng.randint(-2, bound + 1)
            outcomes = []
            for aig, create in (
                (production, production.create_and),
                (reference, lambda x, y: create_and_reference(reference, x, y)),
            ):
                try:
                    outcomes.append(create(a, b))
                except ValueError as error:
                    outcomes.append(str(error))
            assert outcomes[0] == outcomes[1], (a, b)
            assert structure(production) == structure(reference)
