"""Differential verification of the LUT-based pebbling flow.

Every circuit the ``lut`` flow produces is cross-checked against the
bit-blasted AIG with the bit-parallel differential checker — ≥25 fuzzed
AIGs plus the paper's named designs (``intdiv``, ``newton``, ``isqrt``),
for LUT sizes k ∈ {2, 3, 4} and every pebbling strategy.  Small circuits
are additionally pushed through the Clifford+T mapping and re-checked as a
classical permutation (the mapped leg).
"""

import pytest

from repro.core.flows import run_flow
from repro.quantum.mapping import map_to_clifford_t
from repro.verify.differential import check_equivalent, mapped_circuit_simulator
from repro.verify.fuzz import random_aig

NUM_FUZZ_CASES = 25
LUT_SIZES = (2, 3, 4)

#: strategy name -> extra flow parameters.
STRATEGIES = {
    "bennett": {},
    "eager": {},
    "bounded": {"max_pebbles": 0.5},
}

#: The mapped Clifford+T cross-check simulates a dense statevector per
#: pattern; keep it to circuits this small.
QUANTUM_QUBIT_LIMIT = 12


class TestFuzzedAigsThroughLutFlow:
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    @pytest.mark.parametrize("seed", range(NUM_FUZZ_CASES))
    def test_fuzzed_aig_equivalent_for_every_lut_size(self, strategy, seed):
        aig = random_aig(seed, num_pis=3, num_gates=10, num_pos=2)
        for k in LUT_SIZES:
            result = run_flow(
                "lut",
                aig,
                3,
                verify=False,
                k=k,
                strategy=strategy,
                **STRATEGIES[strategy],
            )
            check = check_equivalent(aig, result.circuit, mode="auto")
            assert check.equivalent, f"seed {seed}, k {k}: {check.message}"
            assert check.complete  # 3 inputs => auto checks exhaustively

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    @pytest.mark.parametrize("seed", range(10))
    def test_mapped_clifford_t_leg(self, strategy, seed):
        # Tiny AIGs keep every strategy's circuit within the statevector
        # budget, so the mapped leg genuinely runs for all cases.
        aig = random_aig(seed, num_pis=3, num_gates=6, num_pos=2)
        result = run_flow(
            "lut", aig, 3, verify=False, k=3,
            strategy=strategy, **STRATEGIES[strategy],
        )
        circuit = result.circuit
        assert circuit.num_lines() <= QUANTUM_QUBIT_LIMIT, (
            f"seed {seed}: {circuit.num_lines()} qubits exceed the "
            f"statevector budget; shrink the fuzzed AIGs"
        )
        quantum = map_to_clifford_t(circuit)
        check = check_equivalent(
            circuit,
            mapped_circuit_simulator(quantum, circuit),
            mode="sampled",
            num_samples=4,
            seed=seed,
        )
        assert check.equivalent, f"seed {seed}: {check.message}"


#: design -> bitwidth; chosen so the whole k x strategy grid stays fast
#: (the isqrt generator emits a large AIG even at n = 2).
DESIGN_BITWIDTHS = {"intdiv": 3, "newton": 2, "isqrt": 2}


@pytest.fixture(scope="module")
def design_aigs():
    from repro.core.flows import frontend_artifacts

    return {
        design: frontend_artifacts(design, bitwidth)["aig"]
        for design, bitwidth in DESIGN_BITWIDTHS.items()
    }


class TestNamedDesignsThroughLutFlow:
    @pytest.mark.parametrize("design", sorted(DESIGN_BITWIDTHS))
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_design_equivalent_for_every_lut_size(
        self, design, strategy, design_aigs
    ):
        aig = design_aigs[design]
        for k in LUT_SIZES:
            result = run_flow(
                "lut",
                design,
                DESIGN_BITWIDTHS[design],
                verify=False,
                aig=aig,
                k=k,
                strategy=strategy,
                **STRATEGIES[strategy],
            )
            check = check_equivalent(aig, result.circuit, mode="auto")
            assert check.equivalent, f"{design}, k {k}: {check.message}"
            assert check.complete

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_flow_verify_stage_agrees(self, strategy):
        # The in-flow verify stage is the same checker; a full-mode run must
        # come back verified with a complete verdict.
        result = run_flow(
            "lut", "intdiv", 3, verify="full",
            strategy=strategy, **STRATEGIES[strategy],
        )
        assert result.report.verified is True
        assert result.context["verify_complete"] is True


class TestLutFlowMetrics:
    def test_extra_metrics_describe_the_schedule(self):
        result = run_flow("lut", "intdiv", 3, verify=False, strategy="bennett")
        extra = result.report.extra
        assert extra["num_luts"] > 0
        assert extra["pebble_peak"] == extra["num_luts"]  # bennett peak
        assert extra["recomputes"] == 0
        assert extra["schedule_steps"] >= 2 * extra["num_luts"]

    def test_bounded_budget_reflected_in_metrics(self):
        # k = 2 keeps the LUT DAG deep, so the halved budget forces
        # genuine recomputation.
        result = run_flow(
            "lut", "intdiv", 4, verify=False, k=2,
            strategy="bounded", max_pebbles=0.5,
        )
        extra = result.report.extra
        schedule = result.context["schedule"]
        assert extra["pebble_peak"] <= schedule.max_pebbles
        assert extra["recomputes"] > 0  # under budget, sharing is recomputed

    def test_qubits_bounded_by_budget_plus_io(self):
        result = run_flow(
            "lut", "intdiv", 4, verify=False, k=2,
            strategy="bounded", max_pebbles=0.5,
        )
        circuit = result.circuit
        schedule = result.context["schedule"]
        assert (
            circuit.num_lines()
            <= circuit.num_inputs() + circuit.num_outputs() + schedule.max_pebbles
        )


#: The nine cascades of the ``lut`` benchmark workload (INTDIV(8)'s default
#: lut sweep, then NEWTON(6) bounded at half its LUTs), pinned gate for
#: gate: (design, bitwidth, parameters) -> (gates, lines, cascade digest).
#: The digests were taken before the bounded scheduler moved to int-coded
#: runs over dense LUT positions and the executor to per-function blocks.
WORKLOAD_CASCADES = [
    ("intdiv", 8, {"strategy": "bennett"}, 784, 148,
     "59d6a0672bce9deec0c800a6a76b73a571c740eaf46f8127bfbc936ef26eee04"),
    ("intdiv", 8, {"strategy": "bennett", "xmg_opt": "xmg-default"}, 710, 130,
     "1155f7cf90eaf53498e0a24250ee2ef4012fe70f4f0e208f837a0cf5f9fe74e3"),
    ("intdiv", 8, {"strategy": "bennett", "rev_opt": "rev-default"}, 782, 148,
     "4a1db805746ef6375221edb41cdefb7a0aa99fc2729458205a62ecf1a25fe36f"),
    ("intdiv", 8, {"strategy": "eager"}, 3268, 141,
     "7f891eaf4c8a8488bc7f166175d61c32a72ab9d42c96f7dd566786d55d237c98"),
    ("intdiv", 8, {"strategy": "bounded", "max_pebbles": 0.25}, 3486, 76,
     "f89710f44e0f09cebd0184f7356445ed1a96a2ac78339048e1b374c4b61601e6"),
    ("intdiv", 8, {"strategy": "bounded", "max_pebbles": 0.5}, 3486, 76,
     "f89710f44e0f09cebd0184f7356445ed1a96a2ac78339048e1b374c4b61601e6"),
    ("intdiv", 8, {"strategy": "bounded", "max_pebbles": 0.75}, 1796, 110,
     "e0a42da61534bf326c01192a77bc0601efbd38a1397ddbdf4db5855cd1982ef9"),
    ("intdiv", 8, {"strategy": "bounded", "max_pebbles": 0.5, "lut_synth": "exact"},
     3432, 76, "a133e2e4f87879aa49ae158b97035b23e92c081a2e0d583c24e4c82f71f27659"),
    ("newton", 6, {"strategy": "bounded", "max_pebbles": 0.5}, 16064, 463,
     "775dd7fe6e0d78237ad72818a43f344fc37deb4057740597b530ecc407002346"),
]


def cascade_digest(circuit):
    """SHA-256 of the gate columns and the line roles of a circuit."""
    import hashlib

    text = repr((circuit.gate_store().columns(), circuit.lines()))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "design, bitwidth, parameters, gates, lines, digest",
    WORKLOAD_CASCADES,
    ids=[f"{d}{n}-" + "-".join(map(str, p.values())) for d, n, p, *_ in WORKLOAD_CASCADES],
)
def test_workload_cascades_unchanged(design, bitwidth, parameters, gates, lines, digest):
    circuit = run_flow("lut", design, bitwidth, verify=False, **parameters).circuit
    assert (circuit.num_gates(), circuit.num_lines()) == (gates, lines)
    assert cascade_digest(circuit) == digest
