"""Property tests pinning the vectorised symbolic kernels to their oracles.

The ``collapse`` stage's exhaustive bit-parallel simulation and the
bit-sliced transformation-based synthesis kernel are rewrites of the
per-minterm / scanning originals kept as oracles in :mod:`oracles`.  These
tests cross-check the rewrites on *random* inputs — random AIGs through the
collapse and ``symbolic_tbs``, plus the symbolic flow's own ``collapse``
stage on Table II points, random permutations through TBS
(gate for gate, also on tables long enough to compact) — plus the golden
INTDIV(8) refactoring pass (equivalent and deterministic), the pinned
INTDIV(7) TBS cascade, the explicit-table allocation guards, the TBS
correctness checks and the MCT-cost memoisation regression.
"""

import dis
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.reversible.tbs as tbs_module
from oracles.circuits import synthesize_permutation_gates_reference
from oracles.logic import truth_table_by_minterms_reference
from repro.core.flows import run_flow
from repro.hdl.designs import intdiv_reference
from repro.logic.aig import Aig
from repro.logic.truth_table import TruthTable
from repro.logic.xmg_mapping import aig_to_xmg
from repro.opt.xmg_passes import xmg_refactor
from repro.reversible.embedding import bennett_embedding, optimum_embedding
from repro.reversible.symbolic_tbs import symbolic_tbs
from repro.reversible.tbs import (
    MAX_TBS_LINES,
    synthesize_permutation_gates,
    synthesize_permutation_masks,
    transformation_based_synthesis,
)
from repro.verify.differential import check_equivalent


# ---------------------------------------------------------------------------
# random network generators (deterministic per hypothesis example)
# ---------------------------------------------------------------------------

def _random_aig(num_pis, gate_choices):
    """An AIG whose gates pick random (possibly complemented) fanins."""
    aig = Aig("random")
    lits = [aig.add_pi() for _ in range(num_pis)]
    for a_pick, b_pick, a_neg, b_neg in gate_choices:
        a = lits[a_pick % len(lits)] ^ (1 if a_neg else 0)
        b = lits[b_pick % len(lits)] ^ (1 if b_neg else 0)
        lits.append(aig.create_and(a, b))
    aig.add_po(lits[-1])
    return aig


_AIG_GATES = st.lists(
    st.tuples(
        st.integers(0, 63), st.integers(0, 63), st.booleans(), st.booleans()
    ),
    min_size=1,
    max_size=40,
)

# ---------------------------------------------------------------------------
# collapse: exhaustive simulation vs per-minterm evaluation
# ---------------------------------------------------------------------------

class TestCollapseBySimulation:
    @settings(max_examples=60, deadline=None)
    @given(num_pis=st.integers(1, 8), gates=_AIG_GATES)
    def test_truth_table_matches_minterm_evaluation(self, num_pis, gates):
        aig = _random_aig(num_pis, gates)
        assert aig.to_truth_table() == truth_table_by_minterms_reference(aig)

    @pytest.mark.parametrize(
        "design, n",
        [("intdiv", n) for n in range(4, 10)] + [("newton", n) for n in range(4, 8)],
    )
    def test_collapse_stage_matches_minterm_evaluation(self, design, n):
        context = run_flow("symbolic", design, n, verify=False).context
        assert context["function"] == truth_table_by_minterms_reference(
            context["aig"]
        )

    @settings(max_examples=20, deadline=None)
    @given(num_pis=st.integers(1, 5), gates=_AIG_GATES)
    def test_symbolic_tbs_of_an_aig_realises_its_table(self, num_pis, gates):
        aig = _random_aig(num_pis, gates)
        table = truth_table_by_minterms_reference(aig)
        circuit = symbolic_tbs(aig)
        assert [circuit.evaluate(x) for x in range(1 << num_pis)] == [
            table.evaluate(x) for x in range(1 << num_pis)
        ]


# ---------------------------------------------------------------------------
# TBS: bit-sliced kernel vs the scanning oracle, gate for gate
# ---------------------------------------------------------------------------

class TestTbsBitslicedVsReference:
    @settings(max_examples=40, deadline=None)
    @given(
        num_lines=st.integers(1, 5),
        bidirectional=st.booleans(),
        data=st.data(),
    )
    def test_random_permutations_gate_for_gate(
        self, num_lines, bidirectional, data
    ):
        perm = data.draw(st.permutations(range(1 << num_lines)))
        fast = synthesize_permutation_gates(perm, num_lines, bidirectional)
        ref = synthesize_permutation_gates_reference(
            perm, num_lines, bidirectional
        )
        assert fast == ref

    def test_structured_permutations_gate_for_gate(self):
        # Larger widths on structured permutations (adders, bit-reversal,
        # rotations) where the reference is still affordable.
        num_lines = 7
        size = 1 << num_lines
        cases = [
            [(x + 13) % size for x in range(size)],
            [int(f"{x:07b}"[::-1], 2) for x in range(size)],
            list(range(size))[::-1],
        ]
        for perm in cases:
            for bidirectional in (False, True):
                assert synthesize_permutation_gates(
                    perm, num_lines, bidirectional
                ) == synthesize_permutation_gates_reference(
                    perm, num_lines, bidirectional
                )

    @pytest.mark.parametrize("num_lines", [11, 12])
    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_random_permutations_above_the_compaction_floor(
        self, monkeypatch, num_lines, bidirectional
    ):
        # These tables are longer than the compaction floor, so finished
        # indices are dropped from the columns several times per run.
        compactions = []
        compact = tbs_module._compact

        def counting_compact(*args):
            compactions.append(args[-1])
            return compact(*args)

        monkeypatch.setattr(tbs_module, "_compact", counting_compact)
        perm = np.random.default_rng(num_lines).permutation(1 << num_lines)
        fast = synthesize_permutation_gates(perm, num_lines, bidirectional)
        assert len(compactions) >= 2
        assert fast == synthesize_permutation_gates_reference(
            perm, num_lines, bidirectional
        )

    def test_intdiv7_cascade_is_pinned(self):
        # The symbolic flow's INTDIV(7) cascade (13 lines), pinned by the
        # SHA-256 of its mask list: any change to the kernel's choices or
        # gate order shows here.
        table = TruthTable.from_callable(lambda x: intdiv_reference(7, x), 7, 7)
        embedding = optimum_embedding(table)
        masks = synthesize_permutation_masks(
            embedding.care_images, embedding.num_lines
        )
        assert (embedding.num_lines, len(masks)) == (13, 419)
        assert hashlib.sha256(repr(masks).encode()).hexdigest() == (
            "7afbe7fe07ffeada12999f9e9831dee09217ce0b3dc1d03a10ab37fc0df800ef"
        )

    def test_circuit_applies_the_permutation(self):
        rng = np.random.default_rng(7)
        for num_lines in (3, 4, 5):
            perm = rng.permutation(1 << num_lines)
            circuit = transformation_based_synthesis(perm, num_lines)
            # Gate-level replay independent of the synthesis kernels.
            values = list(range(1 << num_lines))
            for gate in circuit.gates():
                care, polarity = gate.control_masks()
                values = [
                    v ^ (1 << gate.target) if (v & care) == polarity else v
                    for v in values
                ]
            assert values == list(perm)


class TestTbsGuards:
    def test_transformation_based_synthesis_rejects_huge_tables(self):
        # range() is a Sequence, so nothing is allocated before the guard.
        with pytest.raises(ValueError, match="MAX_TBS_LINES"):
            transformation_based_synthesis(
                range(1 << (MAX_TBS_LINES + 1)), MAX_TBS_LINES + 1
            )
        with pytest.raises(ValueError, match="MAX_TBS_LINES"):
            synthesize_permutation_gates(
                range(1 << (MAX_TBS_LINES + 1)), MAX_TBS_LINES + 1
            )

    def test_the_cap_counts_care_inputs_not_lines(self, monkeypatch):
        # A 3-input function embedded over 5 lines: 2^3 care rows.
        table = TruthTable.from_columns([0b10110110, 0b01011100], 3)
        embedding = bennett_embedding(table)
        monkeypatch.setattr(tbs_module, "MAX_TBS_LINES", 3)
        assert synthesize_permutation_masks(
            embedding.care_images, embedding.num_lines
        )
        monkeypatch.setattr(tbs_module, "MAX_TBS_LINES", 2)
        with pytest.raises(ValueError, match="MAX_TBS_LINES=2"):
            synthesize_permutation_masks(
                embedding.care_images, embedding.num_lines
            )

    def test_embeddings_reject_lines_beyond_64_bit_images(self):
        table = TruthTable.from_columns([0b0110, 0b1000], 2)
        with pytest.raises(ValueError, match="at most 63 lines"):
            optimum_embedding(table, extra_lines=62)
        with pytest.raises(ValueError, match="at most 63 lines"):
            bennett_embedding(TruthTable.from_columns([0b0110] * 62, 2))
        with pytest.raises(ValueError, match="at most 63 lines"):
            synthesize_permutation_masks([0, 1], 64)

    def test_embeddings_within_the_cap_still_work(self):
        table = TruthTable.from_columns([0b0110, 0b1000], 2)
        assert bennett_embedding(table).is_valid()
        assert optimum_embedding(table).is_valid()


class TestTbsCorrectnessChecks:
    """A broken cascade raises :class:`RuntimeError`, also under ``python -O``."""

    @staticmethod
    def _patch_row_one(monkeypatch, edit):
        # Rewrite the gate list the kernel builds for row 1.
        original = tbs_module._gate_masks_transforming
        edited = []

        def builder(start, goal, protect_below):
            masks, cost = original(start, goal, protect_below)
            if protect_below == 1:
                edited.append(masks)
                masks = edit(masks)
            return masks, cost

        monkeypatch.setattr(tbs_module, "_gate_masks_transforming", builder)
        return edited

    @staticmethod
    def _table(num_inputs, num_lines):
        # A full permutation when num_inputs == num_lines, else a care table.
        perm = np.random.default_rng(3).permutation(1 << num_lines)
        return perm[: 1 << num_inputs]

    @pytest.mark.parametrize(
        "num_inputs,num_lines,message",
        [
            # Row 1 is left unfixed, so a later row finds its image below
            # itself and no control set can protect the fixed rows.
            (4, 4, "safe control set"),
            # Over 6 lines the unfixed row goes unnoticed until the end
            # check.
            (4, 6, "did not reach the identity"),
        ],
    )
    def test_a_dropped_gate_is_caught(
        self, monkeypatch, num_inputs, num_lines, message
    ):
        edited = self._patch_row_one(monkeypatch, lambda masks: masks[:-1])
        images = self._table(num_inputs, num_lines)
        with pytest.raises(RuntimeError, match=message):
            synthesize_permutation_masks(images, num_lines, bidirectional=False)
        assert edited

    @pytest.mark.parametrize(
        "num_inputs,num_lines,message",
        [
            (4, 4, "did not reach the identity"),
            (4, 6, "did not reach the identity"),
            # Long enough to compact: the compaction check fires first.
            (11, 11, "broke a row below"),
            (11, 13, "broke a row below"),
        ],
    )
    def test_a_gate_that_breaks_fixed_rows_is_caught(
        self, monkeypatch, num_inputs, num_lines, message
    ):
        # A NOT on line 0 after row 1's output gates swaps the values of
        # rows 0 and 1 and keeps every later row reachable, so synthesis
        # runs to the end and only the final or the compaction check can
        # notice.
        edited = self._patch_row_one(monkeypatch, lambda masks: masks + [(0, 0)])
        images = self._table(num_inputs, num_lines)
        with pytest.raises(RuntimeError, match=message):
            synthesize_permutation_masks(images, num_lines, bidirectional=False)
        assert edited


class TestMctCostHoisting:
    def test_cost_import_is_hoisted_out_of_the_loops(self):
        # Regression: candidate costing used to re-import mct_t_count on
        # every call, i.e. once per candidate gate list of every permutation
        # row.  The import must execute once, at module import time.
        assert hasattr(tbs_module, "mct_t_count")
        for fn in (tbs_module._mct_cost, tbs_module._gate_masks_transforming):
            opnames = {inst.opname for inst in dis.get_instructions(fn)}
            assert "IMPORT_NAME" not in opnames, f"{fn.__name__} re-imports"

    def test_cost_memo_matches_direct_computation(self):
        from repro.quantum.tcount import mct_t_count

        tbs_module._MCT_COST_MEMO.clear()
        for arity in (0, 1, 2, 3, 5, 7):
            assert tbs_module._mct_cost(arity) == mct_t_count(arity)
            # Second call is served from the memo and stays correct.
            assert tbs_module._mct_cost(arity) == mct_t_count(arity)
            assert arity in tbs_module._MCT_COST_MEMO


# ---------------------------------------------------------------------------
# the batch-cut refactoring path
# ---------------------------------------------------------------------------

class TestRefactorGolden:
    def test_intdiv8_refactor_is_equivalent_and_deterministic(self):
        from repro.hdl import synthesize_verilog
        from repro.hdl.designs import intdiv_verilog

        xmg = aig_to_xmg(synthesize_verilog(intdiv_verilog(8)))
        first = xmg_refactor(xmg)
        second = xmg_refactor(xmg)
        for candidate in (first, second):
            result = check_equivalent(xmg, candidate)
            assert result.equivalent, result.message
        assert (first.num_maj(), first.num_xor(), first.num_gates()) == \
            (second.num_maj(), second.num_xor(), second.num_gates())
