"""Property-based tests over the reversible synthesis stack.

These are the "invariants" layer of the test-suite: for randomly drawn
functions and permutations, every synthesis back-end must produce circuits
that (a) realise exactly the specified function, (b) preserve declared
inputs / restore clean ancillas where promised, and (c) never break under
the peephole optimiser or the Clifford+T cost accounting.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flows import run_flow
from repro.logic.esop import esop_from_columns, minimize_esop
from repro.logic.truth_table import TruthTable
from repro.logic.xmg import Xmg
from repro.opt import as_pipeline
from repro.quantum.tcount import mct_t_count
from repro.reversible.circuit import ReversibleCircuit
from repro.reversible.embedding import bennett_embedding, optimum_embedding
from repro.reversible.esop_synth import esop_synthesis
from repro.reversible.lut_synth import hierarchical_synthesis
from repro.reversible.symbolic_tbs import symbolic_tbs
from repro.reversible.tbs import synthesize_permutation_gates
from repro.verify.differential import check_equivalent
from repro.verify.fuzz import random_aig, random_xmg


def random_table(seed, num_inputs=3, num_outputs=3):
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 1 << num_outputs, size=1 << num_inputs).astype(np.uint64)
    return TruthTable(num_inputs, num_outputs, words)


class TestPermutationSynthesisProperties:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_synthesis_inverse_composition_is_identity(self, seed):
        rng = np.random.default_rng(seed)
        num_lines = int(rng.integers(2, 5))
        permutation = rng.permutation(1 << num_lines)
        gates = synthesize_permutation_gates(permutation, num_lines)

        circuit = ReversibleCircuit()
        for _ in range(num_lines):
            circuit.add_constant_line(0)
        circuit.extend(gates)
        forward = circuit.to_permutation()
        backward = circuit.inverse().to_permutation()
        assert np.array_equal(backward[forward], np.arange(1 << num_lines))

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_gate_count_bounded(self, seed):
        rng = np.random.default_rng(seed)
        num_lines = int(rng.integers(2, 5))
        permutation = rng.permutation(1 << num_lines)
        gates = synthesize_permutation_gates(permutation, num_lines)
        # The MMD bound: at most n * 2^n gates.
        assert len(gates) <= num_lines * (1 << num_lines)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_optimizer_preserves_synthesised_permutations(self, seed):
        rng = np.random.default_rng(seed)
        permutation = rng.permutation(16)
        gates = synthesize_permutation_gates(permutation, 4)
        circuit = ReversibleCircuit()
        for _ in range(4):
            circuit.add_constant_line(0)
        circuit.extend(gates)
        optimized = as_pipeline("rev-default").run(circuit).network
        assert np.array_equal(optimized.to_permutation(), circuit.to_permutation())


class TestEmbeddingAndSynthesisProperties:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_symbolic_tbs_realises_random_functions(self, seed):
        table = random_table(seed)
        circuit = symbolic_tbs(table)
        result = check_equivalent(table, circuit, mode="full")
        assert result, result.message

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_optimum_never_uses_more_lines_than_bennett(self, seed):
        table = random_table(seed)
        assert optimum_embedding(table).num_lines <= bennett_embedding(table).num_lines

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_esop_synthesis_of_random_functions(self, seed):
        table = random_table(seed)
        cover = minimize_esop(esop_from_columns(table.columns(), table.num_inputs))
        circuit = esop_synthesis(cover, p=seed % 2)
        result = check_equivalent(table, circuit, mode="full")
        assert result, result.message
        # T-count accounting is consistent between the circuit and the model.
        assert circuit.t_count() == sum(
            mct_t_count(g.num_controls()) for g in circuit.gates()
        )


class TestHierarchicalProperties:
    def random_xmg(self, seed, num_inputs=4, num_gates=8):
        rng = np.random.default_rng(seed)
        xmg = Xmg()
        literals = [xmg.add_pi() for _ in range(num_inputs)]
        for _ in range(num_gates):
            choice = rng.integers(0, 3)
            a, b, c = (int(literals[rng.integers(0, len(literals))]) for _ in range(3))
            if choice == 0:
                literals.append(xmg.create_maj(a, b ^ 1, c))
            elif choice == 1:
                literals.append(xmg.create_xor(a, b))
            else:
                literals.append(xmg.create_and(a, c ^ 1))
        for index, lit in enumerate(literals[-2:]):
            xmg.add_po(lit, f"f{index}")
        return xmg

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_random_xmgs_compile_correctly(self, seed):
        xmg = self.random_xmg(seed)
        table = xmg.to_truth_table()
        for strategy in ("bennett", "per_output"):
            circuit = hierarchical_synthesis(xmg, strategy=strategy)
            result = check_equivalent(table, circuit, mode="full")
            assert result, result.message

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_t_count_tracks_majority_nodes(self, seed):
        xmg = self.random_xmg(seed).cleanup()
        circuit = hierarchical_synthesis(xmg, strategy="bennett")
        # Bennett: every MAJ node is computed and uncomputed -> exactly two
        # Toffoli gates per (reachable) majority node, XORs are free.
        assert circuit.t_count() == 2 * xmg.num_maj() * 7


class TestDifferentialFlowProperties:
    """End-to-end flow invariants checked with the differential engine.

    Unlike the per-back-end properties above, these run the *flows* of
    :mod:`repro.core.flows` (optimisation scripts included) on fuzzed
    networks and cross-check layers with ``repro.verify``.
    """

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_symbolic_flow_differentially_verified(self, seed):
        aig = random_aig(seed, num_pis=3, num_gates=8, num_pos=2)
        result = run_flow("symbolic", aig, 3, verify=False)
        check = check_equivalent(aig, result.circuit, mode="full")
        assert check.equivalent, check.message

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_esop_flow_differentially_verified(self, seed):
        aig = random_aig(seed, num_pis=4, num_gates=10, num_pos=3)
        result = run_flow("esop", aig, 4, verify=False, p=seed % 3)
        check = check_equivalent(aig, result.circuit, mode="full")
        assert check.equivalent, check.message

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_hierarchical_flow_differentially_verified(self, seed):
        aig = random_aig(seed, num_pis=4, num_gates=10, num_pos=2)
        strategy = "bennett" if seed % 2 == 0 else "per_output"
        result = run_flow("hierarchical", aig, 4, verify=False, strategy=strategy)
        check = check_equivalent(aig, result.circuit, mode="full")
        assert check.equivalent, check.message

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_xmg_mapping_preserves_function(self, seed):
        # The XMG layer itself (input of the hierarchical back-end) must
        # match its source network under the differential checker.
        from repro.logic.xmg_mapping import aig_to_xmg

        aig = random_aig(seed, num_pis=4, num_gates=12, num_pos=3)
        xmg = aig_to_xmg(aig, k=3 + seed % 2)
        check = check_equivalent(aig, xmg, mode="full")
        assert check.equivalent, check.message

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_sampled_and_full_modes_agree_on_flows(self, seed):
        # A sampled check must never contradict the complete verdict.
        xmg = random_xmg(seed, num_pis=4, num_gates=8, num_pos=2)
        circuit = hierarchical_synthesis(xmg, strategy="bennett")
        full = check_equivalent(xmg, circuit, mode="full")
        sampled = check_equivalent(
            xmg, circuit, mode="sampled", num_samples=8, seed=seed
        )
        assert full.equivalent, full.message
        assert sampled.equivalent, sampled.message
