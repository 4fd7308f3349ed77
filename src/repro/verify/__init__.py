"""Bit-parallel differential verification (the fast ABC ``cec`` analogue).

The paper's methodology checks every synthesised reversible circuit against
its irreversible specification.  This package turns that check into a
first-class, fast subsystem shared by every layer of the reproduction:

``repro.verify.bitsim``
    Pattern batches hold one Python int per primary input (bit ``t`` is
    test vector ``t``): exhaustive enumeration in chunks of ``2**16``
    patterns for complete checks, seeded random batches for large input
    counts.  Truth tables and reversible circuits are simulated here; AIGs
    and XMGs by their own reference-counted ``simulate_words``, so one
    pass over a structure evaluates a whole batch.

``repro.verify.differential``
    The one equivalence checker: any two of {truth table, AIG, XMG,
    reversible circuit, Clifford+T circuit interpreted as a permutation}
    are compared on the same pattern batches and a concrete counterexample
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
    exhaustive_chunks,
    random_batch,
    simulate_reversible,
    simulate_reversible_states,
    simulate_truth_table,
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
    "exhaustive_chunks",
    "mapped_circuit_simulator",
    "random_aig",
    "random_batch",
    "random_hdl_design",
    "random_truth_table",
    "random_xmg",
    "simulate_reversible",
    "simulate_reversible_states",
    "simulate_truth_table",
    "simulator_for",
]
