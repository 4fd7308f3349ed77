"""repro — reproduction of *Design Automation and Design Space Exploration
for Quantum Computers* (Soeken, Roetteler, Wiebe, De Micheli, DATE 2017).

The package is organised in layers that mirror Fig. 1 of the paper:

``repro.hdl``
    Verilog subset front-end (design level).  Parses the ``INTDIV(n)`` and
    ``NEWTON(n)`` reciprocal designs (or any design written in the supported
    subset) and bit-blasts them into and-inverter graphs.

``repro.logic``
    Classical logic synthesis substrate (logic synthesis level): AIGs,
    truth tables, ESOP covers, XOR-majority graphs, optimisation scripts
    and equivalence checking.

``repro.reversible``
    Reversible circuits and the three synthesis back-ends of the paper
    (symbolic functional, ESOP-based, hierarchical).

``repro.quantum``
    Quantum level: Clifford+T mapping of multiple-controlled Toffoli gates
    (Barenco chains or 4-T relative-phase Toffolis), T-count cost models
    and the resource estimator (T-depth, circuit depth, gate histograms).

``repro.arith`` / ``repro.baselines``
    Reversible arithmetic building blocks (Cuccaro adders, restoring
    division, ...) and the hand-crafted ``RESDIV``/``QNEWTON`` baselines of
    Table I.

``repro.core``
    The paper's contribution: end-to-end design flows and design space
    exploration across them.

Quickstart
----------

>>> from repro import run_flow
>>> result = run_flow("esop", "intdiv", 5, p=0)
>>> result.report.qubits
10
"""

from repro.core.cache import ResultCache
from repro.core.cost import CostReport
from repro.core.explorer import (
    ConfigurationOutcome,
    DesignSpaceExplorer,
    ExplorationEngine,
    ExplorationTask,
    FlowConfiguration,
    ParameterGrid,
    ParetoPoint,
    build_sweep,
    pareto_front_of,
)
from repro.core.flows import (
    available_flows,
    esop_flow,
    frontend_artifacts,
    hierarchical_flow,
    lut_flow,
    run_flow,
    symbolic_flow,
)
from repro.hdl.designs import intdiv_verilog, newton_verilog
from repro.hdl.synthesize import synthesize_verilog
from repro.opt import (
    Pass,
    Pipeline,
    available_passes,
    parse_pipeline,
    register_pass,
)
from repro.quantum import ResourceEstimate, estimate_resources, map_to_clifford_t
from repro.verify.differential import (
    DifferentialResult,
    check_equivalent,
    check_quantum_equivalent,
    mapped_circuit_simulator,
)

__all__ = [
    "ConfigurationOutcome",
    "CostReport",
    "DesignSpaceExplorer",
    "DifferentialResult",
    "ExplorationEngine",
    "ExplorationTask",
    "FlowConfiguration",
    "ParameterGrid",
    "ParetoPoint",
    "Pass",
    "Pipeline",
    "ResourceEstimate",
    "ResultCache",
    "available_flows",
    "available_passes",
    "build_sweep",
    "check_equivalent",
    "check_quantum_equivalent",
    "esop_flow",
    "estimate_resources",
    "frontend_artifacts",
    "hierarchical_flow",
    "intdiv_verilog",
    "lut_flow",
    "map_to_clifford_t",
    "mapped_circuit_simulator",
    "newton_verilog",
    "pareto_front_of",
    "parse_pipeline",
    "register_pass",
    "run_flow",
    "symbolic_flow",
    "synthesize_verilog",
]

__version__ = "0.1.0"
