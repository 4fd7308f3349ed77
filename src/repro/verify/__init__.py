"""Bit-parallel differential verification (the fast ABC ``cec`` analogue).

The paper's methodology checks every synthesised reversible circuit against
its irreversible specification.  This package turns that check into a
first-class, fast subsystem shared by every layer of the reproduction:

``repro.verify.bitsim``
    The shared simulation core: AIGs, XMGs and reversible circuits are
    evaluated on batches of input patterns packed 64-per-``uint64`` word,
    so one pass over the structure simulates 64 test vectors at once
    (exhaustive packing for small input counts, seeded random batches for
    large ones).

``repro.verify.differential``
    The one equivalence checker: any two of {truth table, AIG, XMG,
    reversible circuit, Clifford+T circuit interpreted as a permutation}
    are compared on the same pattern batch and a concrete counterexample
    minterm is reported on disagreement.  A reversible circuit must also
    return every ancilla line that is neither an output nor garbage to its
    initial value.

``repro.verify.fuzz``
    Seeded structural fuzzers (random truth tables, random AIGs/XMGs,
    random HDL expression designs) that feed the property-based and
    differential test layers.
"""

from repro.verify.bitsim import (
    PatternBatch,
    exhaustive_batch,
    pack_bits,
    random_batch,
    simulate_aig,
    simulate_reversible,
    simulate_reversible_states,
    simulate_truth_table,
    simulate_xmg,
    unpack_bits,
)
from repro.verify.differential import (
    DifferentialResult,
    check_equivalent,
    check_quantum_equivalent,
    mapped_circuit_simulator,
    simulator_for,
)
from repro.verify.fuzz import (
    random_aig,
    random_hdl_design,
    random_truth_table,
    random_xmg,
)

__all__ = [
    "DifferentialResult",
    "PatternBatch",
    "check_equivalent",
    "check_quantum_equivalent",
    "exhaustive_batch",
    "mapped_circuit_simulator",
    "pack_bits",
    "random_aig",
    "random_batch",
    "random_hdl_design",
    "random_truth_table",
    "random_xmg",
    "simulate_aig",
    "simulate_reversible",
    "simulate_reversible_states",
    "simulate_truth_table",
    "simulate_xmg",
    "simulator_for",
    "unpack_bits",
]
