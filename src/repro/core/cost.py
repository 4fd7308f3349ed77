"""Cost reports: the metrics the paper's experiments tabulate.

Every flow run produces a :class:`CostReport` holding the number of qubits,
the T-count (under a selectable cost model), the gate count, the largest
control count and the flow runtime — the columns of Tables I-IV.  When the
flow also maps the cascade to an explicit Clifford+T circuit (the
``map_model`` flow parameter), the quantum resource vector — T-depth,
total circuit depth and the mapped qubit count, cf.
:mod:`repro.quantum.resources` — joins the report as first-class metrics.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.reversible.circuit import ReversibleCircuit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.quantum.resources import ResourceEstimate

__all__ = ["CostReport"]


@dataclass(frozen=True)
class CostReport:
    """Cost metrics of one synthesis result."""

    design: str
    flow: str
    bitwidth: int
    qubits: int
    t_count: int
    gate_count: int
    max_controls: int
    runtime_seconds: float
    verified: Optional[bool] = None
    #: Whether the check covered every input pattern (``None``: not checked).
    verify_complete: Optional[bool] = None
    #: How many input patterns the check simulated (``None``: not checked).
    verify_patterns: Optional[int] = None
    #: Greedy T-depth of the explicit Clifford+T mapping (``None`` when the
    #: flow did not map; cf. :func:`repro.quantum.resources.estimate_resources`).
    t_depth: Optional[int] = None
    #: Total depth of the explicit Clifford+T mapping.
    qc_depth: Optional[int] = None
    #: Qubit count of the explicit mapping (lines + shared clean ancillas).
    qc_qubits: Optional[int] = None
    extra: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_circuit(
        cls,
        circuit: ReversibleCircuit,
        design: str,
        flow: str,
        bitwidth: int,
        runtime_seconds: float,
        model: str = "rtof",
        verified: Optional[bool] = None,
        verify_complete: Optional[bool] = None,
        verify_patterns: Optional[int] = None,
        resources: Optional["ResourceEstimate"] = None,
        extra: Optional[Dict[str, float]] = None,
    ) -> "CostReport":
        """Measure a reversible circuit and build the report.

        ``resources`` optionally carries the estimate of the explicit
        Clifford+T mapping (produced by the flows' resources stage); its
        T-depth, total depth and qubit count become first-class report
        fields and its gate histogram lands in ``extra``.
        """
        extra = dict(extra or {})
        t_depth = qc_depth = qc_qubits = None
        if resources is not None:
            t_depth = resources.t_depth
            qc_depth = resources.depth
            qc_qubits = resources.num_qubits
            extra.setdefault("qc_gates", resources.num_gates)
        return cls(
            design=design,
            flow=flow,
            bitwidth=bitwidth,
            qubits=circuit.num_lines(),
            t_count=circuit.t_count(model),
            gate_count=circuit.num_gates(),
            max_controls=circuit.max_controls(),
            runtime_seconds=runtime_seconds,
            verified=verified,
            verify_complete=verify_complete,
            verify_patterns=verify_patterns,
            t_depth=t_depth,
            qc_depth=qc_depth,
            qc_qubits=qc_qubits,
            extra=extra,
        )

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable dictionary (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CostReport":
        """Rebuild a report from :meth:`to_dict` output (e.g. a cache file)."""
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{key: value for key, value in data.items() if key in known})

    def metrics(self) -> Dict[str, Any]:
        """The deterministic metrics: everything except the wall-clock runtime.

        Two runs of the same configuration (serial or parallel, cached or
        not) produce identical :meth:`metrics`; only ``runtime_seconds``
        varies between runs.
        """
        data = self.to_dict()
        data.pop("runtime_seconds", None)
        return data

    def as_table_row(self):
        """The ``(n, qubits, T-count, runtime)`` row used by the benchmarks."""
        return (self.bitwidth, self.qubits, self.t_count, self.runtime_seconds)

    def dominates(self, other: "CostReport") -> bool:
        """Pareto dominance on the (qubits, T-count) plane."""
        return (
            self.qubits <= other.qubits
            and self.t_count <= other.t_count
            and (self.qubits < other.qubits or self.t_count < other.t_count)
        )
