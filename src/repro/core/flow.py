"""Flow abstraction: a named sequence of stages from design entry to a
reversible circuit.

A :class:`Flow` is a list of :class:`FlowStage` callables threaded through a
shared context dictionary; running it produces a :class:`FlowResult` with
the final circuit, per-stage timings and the aggregate cost report.  The
three concrete flows of the paper are assembled in
:mod:`repro.core.flows`.

Every stage declares the parameters it reads as the keyword-only arguments
of its body, with their defaults.  Those declarations give each run one
*prefix key* per stage: a digest of the design instance plus, for every
stage up to that one, its name, body, declared defaults and resolved
parameter values.  Runs that agree on a prefix key compute the same context
artefacts up to that stage, so a :class:`PrefixMemo` can hand them from one
run to the next, and the result cache addresses a whole run by its last
prefix key.  A stage body must therefore depend on nothing else: a
closure that captures a setting exposes it as a parameter default.

Each keyword-only argument is annotated ``Annotated[type, "help line"]``,
optionally followed by the owning module's choices of a string value, the
one parameter schema: :meth:`Flow.parameters` reads it, and every entry
point coerces user input through :meth:`Parameter.parse` (text) or
:meth:`Parameter.check` (JSON), so bad input fails before any flow runs.
"""

from __future__ import annotations

import hashlib
import inspect
import time
from dataclasses import dataclass, field
from typing import (
    AbstractSet, Annotated, Any, Callable, Dict, Iterable, List, Mapping, NewType,
    Optional, Sequence, Tuple, Union, get_args, get_origin, get_type_hints,
)

from repro.core.cost import CostReport
from repro.reversible.circuit import ReversibleCircuit
from repro.utils.names import closest_name, did_you_mean

__all__ = [
    "Flow", "FlowResult", "FlowStage", "Parameter", "PipelineSpec", "PrefixMemo",
]

_MISSING = object()

#: The declared type of a pass-manager pipeline spec such as ``"b;rw;rf"``
#: or ``"none"``; :func:`repro.opt.parse_pipeline` checks one.
PipelineSpec = NewType("PipelineSpec", str)

#: Parameters the design entry sets (a design name, a Verilog file, a
#: pre-built AIG), never parameter text or JSON.
FRONTEND_SEEDS = frozenset({"aig", "verilog"})

#: Names no configuration sets: the frontend seeds, ``verify`` (one mode
#: per run or per sweep, set by the entry point's own option) and the other
#: arguments of :func:`~repro.core.flows.run_flow`.
RESERVED_PARAMETERS = FRONTEND_SEEDS | {
    "verify", "flow", "design", "bitwidth", "cost_model", "memo",
}

_TYPE_NAMES = {
    bool: "a bool",
    int: "an int",
    float: "a number",
    str: "a string",
    PipelineSpec: "a pipeline spec",
    type(None): "null",
}


def _type_name(kind: Any, text: bool) -> str:
    """How an error message names a declared type (text never spells null)."""
    if get_origin(kind) is Union:
        members = [m for m in get_args(kind) if not (text and m is type(None))]
        return " or ".join(_type_name(member, text) for member in members)
    return _TYPE_NAMES.get(kind, getattr(kind, "__name__", repr(kind)))


def _coerce(kind: Any, value: Any, text: bool) -> Any:
    """``value`` as a ``kind``: parsed from text, or checked as a JSON value.

    Raises ``ValueError``, whose message is empty or says why a value of the
    right form was rejected (a pipeline spec's unknown pass, say).  A union
    takes its first member that accepts the value.
    """
    if get_origin(kind) is Union:
        reason = ""
        for member in get_args(kind):
            try:
                return _coerce(member, value, text)
            except ValueError as exc:
                reason = reason or str(exc)
        raise ValueError(reason)
    if kind is bool:
        if text and value.lower() in ("true", "false"):
            return value.lower() == "true"
        if not text and isinstance(value, bool):
            return value
    elif kind in (int, float):
        if text:
            try:
                return kind(value)
            except ValueError:
                pass
        elif isinstance(value, (kind, int)) and not isinstance(value, bool):
            return kind(value)
    elif kind in (str, PipelineSpec):
        if text or isinstance(value, str):
            if kind is PipelineSpec:
                from repro.opt import parse_pipeline

                parse_pipeline(value)
            return value
    elif kind is type(None) and value is None and not text:
        return None
    raise ValueError("")


@dataclass(frozen=True)
class Parameter:
    """One declared parameter of a flow: its type, help line, default and choices."""

    flow: str
    name: str
    type: Any
    help: str
    default: Any
    choices: Sequence[str] = ()

    def parse(self, text: str) -> Any:
        """The value written as ``text`` (a CLI option or a ``--sweep`` value)."""
        return self._coerce(text.strip(), text=True)

    def check(self, value: Any) -> Any:
        """``value``, a JSON value, checked against the declared type."""
        return self._coerce(value, text=False)

    def _coerce(self, value: Any, text: bool) -> Any:
        try:
            coerced = _coerce(self.type, value, text)
            unlisted = isinstance(coerced, str) and coerced not in self.choices
            if self.choices and unlisted:
                raise ValueError(f"not one of {', '.join(self.choices)}")
            return coerced
        except ValueError as exc:
            reason = f": {exc}" if str(exc) else ""
            raise ValueError(
                f"flow {self.flow!r}: parameter {self.name!r} expects "
                f"{_type_name(self.type, text)}, got {value!r}{reason}"
            ) from None


#: Each stage body's declared ``(type, help, choices)`` by parameter name,
#: keyed by the body's code object: flows are rebuilt for every job and
#: sweep, and resolving annotations is the costly part of reading them.  An
#: optimisation stage body is a fresh closure per flow over one code object.
_DECLARED: Dict[Any, Dict[str, Tuple[Any, ...]]] = {}


@dataclass
class FlowStage:
    """One stage of a flow: a name and a context transformer.

    ``run(context, **params)`` reads the artefacts of earlier stages from
    the context and writes its own.  Its keyword-only arguments are the
    parameters it reads, with their defaults; :attr:`params` holds that
    declaration and :meth:`Flow.run` passes the resolved values in.
    """

    name: str
    run: Callable[..., None]
    params: Dict[str, Any] = field(init=False)

    def __post_init__(self) -> None:
        self.params = {
            name: parameter.default
            for name, parameter in inspect.signature(self.run).parameters.items()
            if parameter.kind is inspect.Parameter.KEYWORD_ONLY
        }

    def resolve(self, parameters: Mapping[str, Any]) -> Dict[str, Any]:
        """The declared parameters' values in ``parameters``, or their defaults."""
        return {name: parameters.get(name, d) for name, d in self.params.items()}

    def declarations(self, flow: str) -> List[Parameter]:
        """The declared parameters with their annotated types and help lines."""
        code = self.run.__code__
        declared = _DECLARED.get(code)
        if declared is None:
            declared = _DECLARED[code] = self._read_annotations()
        parameters = []
        for name, default in self.params.items():
            kind, help_text, *choices = declared[name]
            parameters.append(Parameter(flow, name, kind, help_text, default, *choices))
        return parameters

    def _read_annotations(self) -> Dict[str, Tuple[Any, ...]]:
        hints = get_type_hints(self.run, include_extras=True)
        declared = {}
        for name in self.params:
            hint = hints.get(name)
            if get_origin(hint) is Union:
                # Python < 3.11 wraps the hint of a None default in Optional.
                annotated = [a for a in get_args(hint) if get_origin(a) is Annotated]
                hint = annotated[0] if annotated else hint
            if get_origin(hint) is not Annotated:
                raise TypeError(
                    f"stage {self.name!r}: {name!r} is not Annotated[type, help]"
                )
            kind, help_text, *choices = get_args(hint)
            declared[name] = (kind, help_text, *map(tuple, choices))
        return declared


def _plain(value: Any) -> bool:
    """True for values whose ``repr`` identifies them: scalars and sequences of them."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    return isinstance(value, (tuple, list)) and all(_plain(item) for item in value)


class PrefixMemo:
    """Context artefacts of flow stage prefixes, shared between runs.

    :attr:`entries` maps a prefix key to the context keys that prefix wrote,
    with their values after its last stage.  A run stores exactly the
    prefixes whose keys are in :attr:`keep`; whoever plans the runs sets
    :attr:`keep` and drops the entries no later run reads with
    :meth:`retain`.
    """

    def __init__(self, keep: AbstractSet[str]) -> None:
        self.entries: Dict[str, Dict[str, Any]] = {}
        self.keep = keep

    def __len__(self) -> int:
        return len(self.entries)

    def longest(self, keys: Sequence[Optional[str]]) -> int:
        """How many leading stages of ``keys`` the longest stored prefix covers."""
        for count in range(len(keys), 0, -1):
            if keys[count - 1] in self.entries:
                return count
        return 0

    def retain(self, keys: AbstractSet[str]) -> None:
        """Drop every entry whose key is not in ``keys``."""
        for key in set(self.entries) - keys:
            del self.entries[key]


@dataclass
class FlowResult:
    """Outcome of a flow run."""

    flow: str
    design: str
    bitwidth: int
    circuit: ReversibleCircuit
    report: CostReport
    stage_runtimes: Dict[str, float] = field(default_factory=dict)
    context: Dict[str, Any] = field(default_factory=dict)
    skipped_stages: List[str] = field(default_factory=list)

    def stage_runtime(self, name: str) -> float:
        """Runtime of one stage in seconds."""
        return self.stage_runtimes[name]


class Flow:
    """A named sequence of stages producing a reversible circuit.

    The context dictionary is seeded with ``design``, ``bitwidth``, an empty
    ``extra_metrics`` dict and the keyword arguments of :meth:`run`; stages
    communicate by reading and writing context keys (``verilog``, ``aig``,
    ``esop``, ``xmg``, ``circuit``, ...).  The final stage must set
    ``circuit``.
    """

    def __init__(self, name: str, stages: List[FlowStage], cost_model: str = "rtof"):
        if not stages:
            raise ValueError("a flow needs at least one stage")
        self.name = name
        self.stages = stages
        self.cost_model = cost_model
        self._parameters: Optional[Dict[str, Parameter]] = None

    def stage_names(self) -> List[str]:
        """Names of the stages in execution order."""
        return [stage.name for stage in self.stages]

    def parameter_names(self) -> List[str]:
        """Every parameter some stage declares, sorted."""
        return sorted({name for stage in self.stages for name in stage.params})

    def parameters(self) -> Dict[str, Parameter]:
        """Every declared parameter by name, as its first stage declares it."""
        if self._parameters is None:
            self._parameters = {}
            for stage in self.stages:
                for parameter in stage.declarations(self.name):
                    self._parameters.setdefault(parameter.name, parameter)
        return self._parameters

    def settable(self, name: str) -> Parameter:
        """The declaration of ``name``, which a configuration may set.

        Rejects a reserved name, and one no stage declares with a
        did-you-mean and a list of names that hold only the parameters a
        configuration may set.
        """
        if name in RESERVED_PARAMETERS:
            raise ValueError(
                f"reserved parameter name {name!r} for flow {self.name!r}: "
                "the design entry and the run set it"
            )
        known = [n for n in self.parameter_names() if n not in RESERVED_PARAMETERS]
        self._check_known([name], known)
        return self.parameters()[name]

    def check_parameters(self, parameters: Mapping[str, Any]) -> None:
        """Reject a parameter no stage declares, naming the closest declared one."""
        self._check_known(parameters, self.parameter_names())

    def _check_known(self, names: Iterable[str], known: List[str]) -> None:
        for name in (name for name in names if name not in known):
            raise ValueError(
                f"unknown parameter {name!r} for flow {self.name!r}"
                f"{did_you_mean(closest_name(name, known))} "
                f"(declared: {', '.join(known)})"
            )

    def prefix_keys(
        self, design: str, bitwidth: int, parameters: Mapping[str, Any]
    ) -> List[Optional[str]]:
        """One prefix key per stage, ``None`` from the first unshareable stage.

        A key digests the design instance (name, bit-width and any
        ``verilog`` text, which the frontend stage declares) and, for every
        stage up to its own, the stage name, the qualified name of its body,
        its declared defaults and its resolved parameter values.  The
        defaults keep apart same-named stages of different flows that read
        an unset parameter differently (the ``optimize`` scripts).  A stage
        whose values are not plain (a pre-built pipeline, a seeded ``aig``),
        or whose body has no qualified name, ends the shareable prefix.
        """
        keys: List[Optional[str]] = []
        digest = hashlib.sha256(repr((design, bitwidth)).encode())
        shareable = _plain([design, bitwidth])
        for stage in self.stages:
            body = getattr(stage.run, "__qualname__", None)  # None: a partial, say
            defaults = sorted(stage.params.items())
            values = sorted(stage.resolve(parameters).items())
            plain = _plain([value for _, value in defaults + values])
            shareable = shareable and body is not None and plain
            if shareable:
                stage_id = (stage.name, stage.run.__module__, body, defaults, values)
                digest.update(repr(stage_id).encode())
            keys.append(digest.copy().hexdigest() if shareable else None)
        return keys

    def run(
        self,
        design: str,
        bitwidth: int,
        memo: Optional[PrefixMemo] = None,
        **parameters: Any,
    ) -> FlowResult:
        """Execute the flow for one design instance.

        With a ``memo``, the longest stage prefix stored under this run's
        prefix keys is restored instead of run (its stages read 0.0 s and
        are listed in :attr:`FlowResult.skipped_stages`), and every prefix
        in the memo's :attr:`~PrefixMemo.keep` set is stored once its last
        stage ran.
        """
        self.check_parameters(parameters)
        seeds = {"design": design, "bitwidth": bitwidth, "extra_metrics": {}}
        seeds.update(parameters)
        context: Dict[str, Any] = dict(seeds)
        keys = [] if memo is None else self.prefix_keys(design, bitwidth, parameters)
        served = 0 if memo is None else memo.longest(keys)
        if served:
            context.update(memo.entries[keys[served - 1]])
        stage_runtimes: Dict[str, float] = {}
        skipped_stages: List[str] = []
        start = time.perf_counter()
        for index, stage in enumerate(self.stages):
            if index < served:
                stage_runtimes[stage.name] = 0.0
                skipped_stages.append(stage.name)
                continue
            stage_start = time.perf_counter()
            stage.run(context, **stage.resolve(parameters))
            stage_runtimes[stage.name] = time.perf_counter() - stage_start
            prefix = keys[index] if memo is not None else None
            if prefix is not None and prefix in memo.keep:
                # What the prefix wrote: every key whose value is not a seed.
                memo.entries[prefix] = {
                    key: value
                    for key, value in context.items()
                    if seeds.get(key, _MISSING) is not value
                }
        total_runtime = time.perf_counter() - start

        circuit = context.get("circuit")
        if not isinstance(circuit, ReversibleCircuit):
            raise RuntimeError(
                f"flow {self.name!r} did not produce a reversible circuit"
            )
        report = CostReport.from_circuit(
            circuit,
            design=design,
            flow=self.name,
            bitwidth=bitwidth,
            runtime_seconds=total_runtime,
            model=self.cost_model,
            verified=context.get("verified"),
            resources=context.get("resources"),
            extra=context.get("extra_metrics"),
        )
        return FlowResult(
            flow=self.name,
            design=design,
            bitwidth=bitwidth,
            circuit=circuit,
            report=report,
            stage_runtimes=stage_runtimes,
            context=context,
            skipped_stages=skipped_stages,
        )
