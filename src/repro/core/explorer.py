"""Design space exploration across flows, flow parameters and designs.

The paper's central claim is that the combination of classical and
reversible logic synthesis "enables nontrivial design space exploration":
the designer can trade qubits against T-count (space against time) by
choosing the flow and its parameters.

This module provides the exploration machinery at two levels:

:class:`ExplorationEngine`
    A batch engine that runs many :class:`ExplorationTask` configurations —
    expanded from :class:`ParameterGrid` sweeps over flows × parameters ×
    designs × bitwidths by :func:`build_sweep` — either serially or on a
    process pool, with a persistent content-addressed
    :class:`~repro.core.cache.ResultCache`, per-configuration error/timeout
    capture (one failing flow never aborts a sweep) and streaming results
    via :meth:`ExplorationEngine.run_iter`.  Configurations that agree on
    a stage prefix (design instance, stages and their parameters) run that
    prefix once and share its artefacts through a
    :class:`~repro.core.flow.PrefixMemo`.

:class:`DesignSpaceExplorer`
    The paper-facing convenience wrapper: one design, one bitwidth, a list
    of :class:`FlowConfiguration`, Pareto-front analysis of the (qubits,
    T-count) plane.  It delegates execution to the engine, so it inherits
    parallelism and caching through its ``jobs`` / ``cache_dir`` arguments.
"""

from __future__ import annotations

import itertools
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.cache import ResultCache, cache_key
from repro.core.cost import CostReport
from repro.core.flow import Flow, PrefixMemo
# ``frontend_artifacts`` is re-exported: callers wrap it by attribute here.
from repro.core.flows import design_source, frontend_artifacts, make_flow, run_flow
from repro.verify.differential import normalize_verify_mode

__all__ = [
    "ConfigurationOutcome",
    "DesignSpaceExplorer",
    "ExplorationEngine",
    "ExplorationTask",
    "FlowConfiguration",
    "ParameterGrid",
    "ParetoPoint",
    "build_sweep",
    "default_configurations",
    "flow_default_configurations",
    "pareto_front_of",
]


@dataclass(frozen=True)
class FlowConfiguration:
    """One point of the design space: a flow plus its parameters."""

    flow: str
    parameters: tuple = ()

    def label(self) -> str:
        """Human-readable configuration label."""
        if not self.parameters:
            return self.flow
        params = ", ".join(f"{key}={value}" for key, value in self.parameters)
        return f"{self.flow}({params})"

    def as_kwargs(self) -> Dict[str, Any]:
        return dict(self.parameters)

    def with_parameter(self, name: str, value: Any) -> "FlowConfiguration":
        """A copy with one parameter set (replacing any existing value).

        Used by ``explore --opt`` to cross a configuration list with a
        set of optimisation pipeline specs.
        """
        parameters = tuple(
            (key, existing) for key, existing in self.parameters if key != name
        ) + ((name, value),)
        return FlowConfiguration(self.flow, parameters)


@dataclass(frozen=True)
class ParetoPoint:
    """A non-dominated (qubits, T-count) point with its provenance.

    When several configurations land on the *same* (qubits, T-count)
    point, the front keeps one :class:`ParetoPoint` whose
    ``configuration`` is the lexicographically smallest label and whose
    ``aliases`` lists every other label that reached the point, so a
    collapsed point still names all of its witnesses.
    """

    configuration: str
    qubits: int
    t_count: int
    report: CostReport
    aliases: Tuple[str, ...] = ()

    def label(self) -> str:
        """The configuration label, with any aliases appended."""
        if not self.aliases:
            return self.configuration
        return f"{self.configuration} [= {', '.join(self.aliases)}]"


def default_configurations() -> List[FlowConfiguration]:
    """The configurations explored by the paper's experiments."""
    return [
        FlowConfiguration("symbolic"),
        FlowConfiguration("esop", (("p", 0),)),
        FlowConfiguration("esop", (("p", 1),)),
        FlowConfiguration("hierarchical", (("strategy", "bennett"),)),
        FlowConfiguration("hierarchical", (("strategy", "per_output"),)),
    ]


#: Default per-flow sweeps (the CLI's ``explore --flow`` argument).  The
#: ``lut`` entries sweep the pebbling strategies; the ``bounded`` budgets
#: are fractions of the LUT count so one sweep fits designs of any size.
#: Each flow also carries one ``rev_opt`` point, so the default sweeps
#: probe the reversible peephole pipeline next to the structural knobs.
_FLOW_DEFAULT_CONFIGURATIONS: Dict[str, List[FlowConfiguration]] = {
    "symbolic": [
        FlowConfiguration("symbolic"),
        FlowConfiguration("symbolic", (("rev_opt", "rev-default"),)),
    ],
    "esop": [
        FlowConfiguration("esop", (("p", 0),)),
        FlowConfiguration("esop", (("p", 1),)),
        FlowConfiguration("esop", (("p", 0), ("rev_opt", "rev-default"))),
    ],
    "hierarchical": [
        FlowConfiguration("hierarchical", (("strategy", "bennett"),)),
        FlowConfiguration("hierarchical", (("strategy", "per_output"),)),
        FlowConfiguration(
            "hierarchical",
            (("strategy", "bennett"), ("xmg_opt", "xmg-default")),
        ),
        FlowConfiguration(
            "hierarchical",
            (("strategy", "per_output"), ("xmg_opt", "xmg-default")),
        ),
        FlowConfiguration(
            "hierarchical",
            (
                ("strategy", "bennett"),
                ("xmg_opt", "xmg-default"),
                ("rev_opt", "rev-default"),
            ),
        ),
    ],
    "lut": [
        FlowConfiguration("lut", (("strategy", "bennett"),)),
        FlowConfiguration(
            "lut", (("strategy", "bennett"), ("xmg_opt", "xmg-default"))
        ),
        FlowConfiguration(
            "lut", (("strategy", "bennett"), ("rev_opt", "rev-default"))
        ),
        FlowConfiguration("lut", (("strategy", "eager"),)),
        FlowConfiguration("lut", (("strategy", "bounded"), ("max_pebbles", 0.25))),
        FlowConfiguration("lut", (("strategy", "bounded"), ("max_pebbles", 0.5))),
        FlowConfiguration("lut", (("strategy", "bounded"), ("max_pebbles", 0.75))),
        FlowConfiguration(
            "lut",
            (
                ("strategy", "exact"),
                ("max_pebbles", 0.5),
                ("lut_synth", "exact"),
            ),
        ),
    ],
}


def flow_default_configurations(flow: str) -> List[FlowConfiguration]:
    """The default sweep of one flow (qubits-vs-T-count curve per strategy)."""
    try:
        return list(_FLOW_DEFAULT_CONFIGURATIONS[flow])
    except KeyError:
        raise ValueError(
            f"unknown flow {flow!r}; available: "
            f"{', '.join(sorted(_FLOW_DEFAULT_CONFIGURATIONS))}"
        ) from None


def pareto_front_of(reports: Dict[str, CostReport]) -> List[ParetoPoint]:
    """Non-dominated points of ``label -> report`` on the (qubits, T-count) plane.

    Dominance rule: a report is dominated iff another report has
    ``qubits <=`` *and* ``t_count <=`` with at least one strict inequality.
    Configurations with *identical* (qubits, T-count) do not dominate each
    other; the front keeps exactly one :class:`ParetoPoint` per distinct
    cost point — represented by the lexicographically smallest
    configuration label, with every other coinciding label recorded in
    :attr:`ParetoPoint.aliases` — so redundant points never appear twice
    but no configuration silently disappears from the front.
    """
    labels_for_point: Dict[Tuple[int, int], List[str]] = {}
    for label, report in reports.items():
        point = (report.qubits, report.t_count)
        labels_for_point.setdefault(point, []).append(label)
    points = []
    for (qubits, t_count), labels in labels_for_point.items():
        labels.sort()
        report = reports[labels[0]]
        dominated = any(
            other.dominates(report)
            for other in reports.values()
            if (other.qubits, other.t_count) != (qubits, t_count)
        )
        if not dominated:
            points.append(
                ParetoPoint(
                    labels[0], qubits, t_count, report, tuple(labels[1:])
                )
            )
    points.sort(key=lambda point: (point.qubits, point.t_count))
    return points


# -- sweep construction -------------------------------------------------------


class ParameterGrid:
    """Expand one flow and parameter value ranges into configurations.

    Every keyword argument names a flow parameter; scalar values are fixed,
    list/tuple/range values are swept, and the grid is their Cartesian
    product::

        >>> [c.label() for c in ParameterGrid("esop", p=[0, 1])]
        ['esop(p=0)', 'esop(p=1)']
    """

    def __init__(self, flow: str, **ranges: Any) -> None:
        self.flow = flow
        self.ranges: List[Tuple[str, Tuple[Any, ...]]] = []
        for name in sorted(ranges):
            values = ranges[name]
            if isinstance(values, (list, tuple, range)):
                values = tuple(values)  # explicit order is preserved
            elif isinstance(values, (set, frozenset)):
                values = tuple(sorted(values, key=repr))  # determinism only
            else:
                values = (values,)
            if not values:
                raise ValueError(f"empty value range for parameter {name!r}")
            self.ranges.append((name, values))

    def configurations(self) -> List[FlowConfiguration]:
        """All configurations of the grid, in deterministic order."""
        if not self.ranges:
            return [FlowConfiguration(self.flow)]
        names = [name for name, _ in self.ranges]
        products = itertools.product(*(values for _, values in self.ranges))
        return [
            FlowConfiguration(self.flow, tuple(zip(names, combo)))
            for combo in products
        ]

    def __iter__(self) -> Iterator[FlowConfiguration]:
        return iter(self.configurations())

    def __len__(self) -> int:
        count = 1
        for _, values in self.ranges:
            count *= len(values)
        return count


@dataclass(frozen=True)
class ExplorationTask:
    """One unit of exploration work: a configuration bound to a design instance."""

    design: str
    bitwidth: int
    configuration: FlowConfiguration
    verilog: Optional[str] = None

    def label(self) -> str:
        return f"{self.design}({self.bitwidth})/{self.configuration.label()}"

    def source(self) -> str:
        """The Verilog source this task synthesises (for cache addressing)."""
        if self.verilog is not None:
            return self.verilog
        return design_source(self.design, self.bitwidth)


def build_sweep(
    designs: Union[str, Sequence[str]],
    bitwidths: Union[int, Sequence[int]],
    configurations: Iterable[Union[FlowConfiguration, ParameterGrid]],
    verilog: Optional[str] = None,
) -> List[ExplorationTask]:
    """Expand designs × bitwidths × configurations into exploration tasks.

    ``configurations`` may mix plain :class:`FlowConfiguration` objects and
    :class:`ParameterGrid` sweeps; grids are expanded in place.  ``verilog``
    optionally supplies the source of a custom (non-built-in) design and is
    attached to every task.
    """
    if isinstance(designs, str):
        designs = [designs]
    if isinstance(bitwidths, int):
        bitwidths = [bitwidths]
    expanded: List[FlowConfiguration] = []
    for entry in configurations:
        if isinstance(entry, ParameterGrid):
            expanded.extend(entry.configurations())
        else:
            expanded.append(entry)
    return [
        ExplorationTask(design, bitwidth, configuration, verilog=verilog)
        for design in designs
        for bitwidth in bitwidths
        for configuration in expanded
    ]


# -- outcomes -----------------------------------------------------------------


@dataclass(frozen=True)
class ConfigurationOutcome:
    """The result of one exploration task: a report, a cache hit, or an error."""

    task: ExplorationTask
    report: Optional[CostReport] = None
    error: Optional[str] = None
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.report is not None

    def label(self) -> str:
        return self.task.label()


#: Error message of outcomes abandoned by an engine stop request (the
#: graceful-drain hook); also the marker the pool path uses to tell a
#: cancelled spec from a genuinely failed one.
_CANCELLED = "cancelled: engine stop requested"


# -- worker -------------------------------------------------------------------

#: The prefix memo of a pool worker process, freed with the worker.
_WORKER_MEMO = PrefixMemo(keep=frozenset())


def _plan(
    specs: Sequence[Dict[str, Any]], chains: Sequence[List[Optional[str]]]
) -> List[Dict[str, Any]]:
    """``specs`` in dispatch order, each naming in ``keep`` the prefixes to store.

    Specs sort by the first-appearance ranks of their prefix keys, so the
    users of every prefix key are adjacent, the given order stays wherever
    it already groups them, and each prefix is still computed by its first
    user in the given order.  A spec keeps the keys of its chain that a
    later spec shares; once a memo moves on to another spec, no spec still
    to come needs the prefixes it drops.
    """
    rank: Dict[str, int] = {}
    for spec in specs:
        for key in chains[spec["index"]]:
            if key is not None:
                rank.setdefault(key, len(rank))
    ordered = sorted(
        specs, key=lambda spec: [rank[key] for key in chains[spec["index"]] if key]
    )
    later: set = set()
    for spec in reversed(ordered):
        chain = chains[spec["index"]]
        spec["keep"] = frozenset(key for key in chain if key in later)
        later.update(key for key in chain if key is not None)
    return ordered


class _AlarmGuard:
    """Best-effort per-configuration timeout via a POSIX interval timer.

    Arms ``SIGALRM`` for ``timeout`` seconds; requires the main thread of
    the (worker) process and is a silent no-op elsewhere.  ``disarm()``
    restores the previously installed handler and any previously running
    timer, so the calling process's own alarm machinery survives a serial
    in-process run.
    """

    def __init__(self, timeout: Optional[float]) -> None:
        self.armed = False
        self._previous_handler = None
        self._previous_timer = (0.0, 0.0)
        if not timeout:
            return
        try:
            import signal

            def _on_timeout(signum, frame):
                raise TimeoutError(
                    f"configuration exceeded timeout of {timeout} s"
                )

            self._previous_handler = signal.signal(signal.SIGALRM, _on_timeout)
        except Exception:  # not the main thread, no SIGALRM on this platform
            return
        try:
            self._previous_timer = signal.setitimer(signal.ITIMER_REAL, timeout)
        except Exception:
            # e.g. OverflowError for absurd timeouts: undo the handler swap
            # so the arming failure cannot corrupt the host's SIGALRM state.
            signal.signal(signal.SIGALRM, self._previous_handler)
            return
        import time

        self._armed_at = time.monotonic()
        self.armed = True

    def disarm(self) -> None:
        if not self.armed:
            return
        self.armed = False
        import signal
        import time

        delay, interval = self._previous_timer
        if delay > 0:
            # The host's timer kept "running" conceptually while ours was
            # armed: restore what would be left of it, not its full span.
            delay = max(delay - (time.monotonic() - self._armed_at), 1e-3)
        signal.setitimer(signal.ITIMER_REAL, delay, interval)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)


def _execute_task(
    spec: Dict[str, Any], memo: Optional[PrefixMemo] = None
) -> Tuple[int, str, Optional[CostReport]]:
    """Run one flow configuration; never raises.

    Module-level so it can be pickled into :class:`ProcessPoolExecutor`
    workers, where ``memo`` defaults to the worker's own.  The memo stores
    the prefixes ``spec["keep"]`` names and afterwards keeps only those, so
    it holds at most one task's shared prefixes at a time.  Returns
    ``(index, error_message, report)`` where exactly one of
    ``error_message`` / ``report`` is meaningful.  A positive ``timeout``
    arms an :class:`_AlarmGuard` around the flow execution; a late alarm
    that fires after the flow already produced its report is ignored
    rather than misreported as a failure.
    """
    index = spec["index"]
    memo = _WORKER_MEMO if memo is None else memo
    memo.keep = spec["keep"]
    guard = _AlarmGuard(spec.get("timeout"))
    report: Optional[CostReport] = None
    error = ""
    try:
        try:
            result = run_flow(
                spec["flow"],
                spec["design"],
                spec["bitwidth"],
                cost_model=spec["cost_model"],
                memo=memo,
                **spec["parameters"],
            )
            report = result.report
        finally:
            guard.disarm()
    except BaseException as exc:  # error isolation: one task must not kill a sweep
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        error = f"{type(exc).__name__}: {exc}"
    memo.retain(memo.keep)
    if report is not None:
        return index, "", report
    return index, error or "unknown error", None


def _prefix_keys(
    spec: Dict[str, Any], flows: Dict[str, Flow]
) -> List[Optional[str]]:
    """The prefix keys of one task spec's run; empty for a run that must fail.

    ``flows`` holds the flow object of every flow name seen so far, so a
    batch builds each flow once.  A run with an unknown flow or an
    undeclared parameter fails before its first stage, with the error the
    worker reports; its empty chain keeps it out of the cache and out of
    prefix sharing.
    """
    name = spec["flow"]
    try:
        if name not in flows:
            flows[name] = make_flow(name, spec["cost_model"])
        flows[name].check_parameters(spec["parameters"])
    except ValueError:  # the run reports it
        return []
    return flows[name].prefix_keys(
        spec["design"], spec["bitwidth"], spec["parameters"]
    )


# -- engine -------------------------------------------------------------------


class ExplorationEngine:
    """Run batches of exploration tasks with parallelism and caching.

    Parameters
    ----------
    jobs:
        Number of worker processes; ``1`` (the default) runs serially in
        the calling process, larger values use a
        :class:`~concurrent.futures.ProcessPoolExecutor`.
    cache:
        ``None`` to disable caching, a directory path, or a pre-built
        :class:`ResultCache`.  Cached results are content-addressed on the
        design source, the flow, the run's last prefix key (design instance
        and resolved stage parameters, ``verify`` included) and the cost
        model, so a cached sweep re-runs zero flows.
    verify:
        A bool (historical) or one of the named verification modes
        ``off`` / ``sampled`` / ``full`` / ``auto``; forwarded to every
        flow's verify stage (see :mod:`repro.verify.differential`).
    timeout:
        Optional per-configuration wall-clock budget in seconds; a timed
        out configuration is recorded as a failed outcome.
    on_result:
        Optional callback invoked with each :class:`ConfigurationOutcome`
        as it completes — the streaming hook used by the CLI progress
        output.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Union[None, str, ResultCache] = None,
        verify: Union[bool, str] = True,
        cost_model: str = "rtof",
        timeout: Optional[float] = None,
        on_result: Optional[Callable[[ConfigurationOutcome], None]] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        if cache is None or isinstance(cache, ResultCache):
            self.cache = cache
        else:
            self.cache = ResultCache(cache)
        # Normalised up front: an unknown mode fails here, not per task deep
        # in a worker, and every spelling of one mode shares a cache entry.
        self.verify = normalize_verify_mode(verify)
        self.cost_model = cost_model
        self.timeout = timeout
        self.on_result = on_result
        #: Configurations dispatched for execution (cache misses, whether
        #: they succeeded or failed) in the last :meth:`run`.
        self.executed = 0
        #: Cache hits in the last :meth:`run`.
        self.cache_hits = 0
        #: Failed configurations in the last :meth:`run`.
        self.failures = 0
        #: Configurations abandoned by ``should_stop`` in the last :meth:`run`.
        self.cancelled = 0
        #: Size in bytes of the largest pickled task spec shipped to a
        #: worker in the last pool :meth:`run` (0 for serial runs).  Task
        #: specs carry the configuration, never an artefact, so this stays
        #: small no matter how large the design is.
        self.last_task_payload_bytes = 0

    # -- execution ------------------------------------------------------------

    def run(
        self,
        tasks: Sequence[ExplorationTask],
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> List[ConfigurationOutcome]:
        """Run every task; outcomes are returned in task order."""
        tasks = list(tasks)
        slots: List[Optional[ConfigurationOutcome]] = [None] * len(tasks)
        for index, outcome in self._run_indexed(tasks, should_stop):
            slots[index] = outcome
        return [outcome for outcome in slots if outcome is not None]

    def run_iter(
        self,
        tasks: Sequence[ExplorationTask],
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> Iterator[ConfigurationOutcome]:
        """Run every task, yielding outcomes as they complete (streaming).

        Cache hits come first; the other tasks run with the users of each
        shared stage prefix back to back (see :func:`_plan`).
        ``should_stop`` is polled between configurations (the cancellation
        hook of the job server's graceful drain): once it returns true, no
        further flow starts and every not-yet-started task is yielded as a
        cancelled outcome.  Cache hits are still served — they cost one
        file read — and configurations already executing run to completion,
        so a stopped sweep never loses a finished result.
        """
        for _, outcome in self._run_indexed(tasks, should_stop):
            yield outcome

    def _run_indexed(
        self,
        tasks: Sequence[ExplorationTask],
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> Iterator[Tuple[int, ConfigurationOutcome]]:
        """Run every task, yielding ``(task position, outcome)`` pairs."""
        self.executed = 0
        self.cache_hits = 0
        self.failures = 0
        self.cancelled = 0
        self.last_task_payload_bytes = 0

        tasks = list(tasks)
        specs = [self._task_spec(index, task) for index, task in enumerate(tasks)]
        flows: Dict[str, Flow] = {}
        chains = [_prefix_keys(spec, flows) for spec in specs]
        sources: Dict[Tuple[str, int, Optional[str]], Optional[str]] = {}
        keys = [
            self._cache_key(task, chain, sources) for task, chain in zip(tasks, chains)
        ]
        pending: List[Dict[str, Any]] = []
        for index, spec in enumerate(specs):
            report = None if keys[index] is None else self.cache.get(keys[index])
            if report is None:
                pending.append(spec)
                continue
            self.cache_hits += 1
            yield index, self._emit(
                ConfigurationOutcome(tasks[index], report=report, cached=True)
            )

        if not pending:
            return
        specs = _plan(pending, chains)

        # jobs > 1 always uses the pool, even for a single pending task:
        # the pool is what provides crash isolation and keeps SIGALRM out
        # of the calling process.
        if self.jobs == 1:
            memo = PrefixMemo(keep=frozenset())
            for position, spec in enumerate(specs):
                if should_stop is not None and should_stop():
                    yield from self._cancel_remaining(specs[position:], tasks)
                    return
                index, error, report = _execute_task(spec, memo)
                yield index, self._finish(tasks[index], keys[index], error, report)
            return

        import pickle

        # Record the largest per-task payload the pool will ship.  Specs
        # that cannot be pickled at all are skipped here — the pool itself
        # turns them into per-task failures without aborting the sweep.
        for spec in specs:
            try:
                size = len(pickle.dumps(spec))
            except Exception:
                continue
            self.last_task_payload_bytes = max(
                self.last_task_payload_bytes, size
            )
        for index, error, report in self._run_pool(specs, should_stop):
            if report is None and error == _CANCELLED:
                self.cancelled += 1
                yield index, self._emit(
                    ConfigurationOutcome(tasks[index], error=_CANCELLED)
                )
                continue
            yield index, self._finish(tasks[index], keys[index], error, report)

    def _cancel_remaining(
        self,
        specs: Sequence[Dict[str, Any]],
        tasks: Sequence[ExplorationTask],
    ) -> Iterator[Tuple[int, ConfigurationOutcome]]:
        """Yield a cancelled outcome for every not-yet-started spec."""
        for spec in specs:
            index = spec["index"]
            self.cancelled += 1
            yield index, self._emit(
                ConfigurationOutcome(tasks[index], error=_CANCELLED)
            )

    #: A task that was in flight during this many pool crashes is assumed
    #: to be the crasher and recorded as failed instead of retried.
    MAX_CRASH_SUSPICIONS = 2

    def _run_pool(
        self,
        specs: Sequence[Dict[str, Any]],
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> Iterator[Tuple[int, str, Optional[CostReport]]]:
        """Execute task specs on a process pool, surviving dead workers.

        A worker that dies outright (OOM, segfault in native code,
        ``sys.exit``) breaks the whole :class:`ProcessPoolExecutor`; to keep
        the per-configuration error-isolation contract, the unfinished
        specs are resubmitted on a fresh pool.  Only the (bounded set of)
        specs whose futures broke are counted as crash suspects; a spec in
        flight during :attr:`MAX_CRASH_SUSPICIONS` crashes is recorded as
        failed rather than retried, so a reliably crashing configuration
        cannot restart pools forever.  Each worker shares stage prefixes
        through its own memo (see :func:`_execute_task`).
        """
        queue = list(specs)
        suspicions: Dict[int, int] = {}
        while queue:
            if should_stop is not None and should_stop():
                for spec in queue:
                    yield spec["index"], _CANCELLED, None
                return
            before = len(queue)
            queue, crashed = yield from self._drain_one_pool(queue, should_stop)
            if not crashed and len(queue) == before:
                # The pool could not make any progress at all (e.g. worker
                # processes cannot even start): fail the remainder rather
                # than restarting pools forever.
                for spec in queue:
                    yield spec["index"], "process pool unavailable", None
                return
            for spec in crashed:
                index = spec["index"]
                suspicions[index] = suspicions.get(index, 0) + 1
                if suspicions[index] >= self.MAX_CRASH_SUSPICIONS:
                    yield (
                        index,
                        "worker process died repeatedly while running this "
                        "configuration",
                        None,
                    )
                else:
                    queue.append(spec)

    def _drain_one_pool(
        self,
        queue: List[Dict[str, Any]],
        should_stop: Optional[Callable[[], bool]] = None,
    ):
        """Run specs on one pool; returns ``(unsubmitted, crashed)`` on a break.

        Keeps at most ``2 * jobs`` futures outstanding so that when the
        pool breaks, the set of specs whose futures errored — the crash
        suspects — is small; specs never submitted are retried without
        suspicion.  Once ``should_stop`` returns true no further spec is
        submitted; the outstanding futures are drained (their results are
        not lost) and the unsubmitted remainder is returned to the caller,
        which reports it as cancelled.
        """
        queue = list(queue)
        crashed: List[Dict[str, Any]] = []
        with self._make_pool() as pool:
            futures: Dict[Any, Dict[str, Any]] = {}
            while queue or futures:
                stopping = should_stop is not None and should_stop()
                try:
                    while queue and not stopping and len(futures) < 2 * self.jobs:
                        spec = queue.pop(0)
                        futures[pool.submit(_execute_task, spec)] = spec
                except Exception:
                    # The pool broke between a worker dying and us seeing
                    # its future fail: submit() raises BrokenProcessPool.
                    # The spec being submitted never ran — retry it without
                    # suspicion; the in-flight ones are the suspects.
                    queue.insert(0, spec)
                    yield from self._salvage_outstanding(futures, crashed)
                    return queue, crashed
                if stopping and not futures:
                    return queue, crashed
                done, _ = wait(set(futures), return_when=FIRST_COMPLETED)
                for future in done:
                    spec = futures.pop(future)
                    try:
                        yield future.result()
                    except BrokenProcessPool:
                        crashed.append(spec)
                    except Exception as exc:
                        # The pool is healthy; only this task's future
                        # failed (e.g. its parameters or result could not
                        # be pickled).  Record it and keep the pool.
                        yield (
                            spec["index"],
                            f"{type(exc).__name__}: {exc}",
                            None,
                        )
                if crashed:
                    # The pool is broken.  Harvest any future that still
                    # finished with a valid result; only the truly lost
                    # ones become crash suspects for the retry.
                    yield from self._salvage_outstanding(futures, crashed)
                    return queue, crashed
        return queue, crashed

    def _make_pool(self) -> ProcessPoolExecutor:
        """A worker pool, forked where the platform can.

        Each worker's prefix memo is freed with the pool.
        """
        import multiprocessing

        context = None
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        return ProcessPoolExecutor(max_workers=self.jobs, mp_context=context)

    @staticmethod
    def _salvage_outstanding(
        futures: Dict[Any, Dict[str, Any]],
        crashed: List[Dict[str, Any]],
    ) -> Iterator[Tuple[int, str, Optional[CostReport]]]:
        """Yield results of already-completed futures; mark the rest crashed.

        A completed-but-unharvested result must not be discarded when the
        pool breaks — otherwise an innocent long-running configuration
        that straddles two crashes would be reported as the crasher.
        """
        for future, spec in futures.items():
            if future.done() and future.exception() is None:
                yield future.result()
            else:
                crashed.append(spec)

    # -- helpers --------------------------------------------------------------

    def _task_spec(self, index: int, task: ExplorationTask) -> Dict[str, Any]:
        parameters = dict(task.configuration.parameters)
        if task.verilog is not None:
            parameters.setdefault("verilog", task.verilog)
        parameters["verify"] = self.verify
        return {
            "index": index,
            "design": task.design,
            "bitwidth": task.bitwidth,
            "flow": task.configuration.flow,
            "parameters": parameters,
            "cost_model": self.cost_model,
            "timeout": self.timeout,
        }

    def _cache_key(
        self,
        task: ExplorationTask,
        chain: List[Optional[str]],
        sources: Dict[Tuple[str, int, Optional[str]], Optional[str]],
    ) -> Optional[str]:
        """The cache entry of ``task``'s run, or ``None`` if it runs uncached.

        A run is addressed by its last prefix key, so a run that must fail
        (empty ``chain``) or reads a non-plain value (last key ``None``)
        has no entry.  ``sources`` memoises each design instance's Verilog.
        """
        if self.cache is None or not chain or chain[-1] is None:
            return None
        instance = (task.design, task.bitwidth, task.verilog)
        if instance not in sources:
            try:
                sources[instance] = task.source()
            except Exception:  # unbuildable design: the worker reports it
                sources[instance] = None
        source = sources[instance]
        if source is None:
            return None
        return cache_key(source, task.configuration.flow, chain[-1], self.cost_model)

    def _finish(
        self,
        task: ExplorationTask,
        key: Optional[str],
        error: str,
        report: Optional[CostReport],
    ) -> ConfigurationOutcome:
        self.executed += 1
        if report is None:
            self.failures += 1
            outcome = ConfigurationOutcome(task, error=error or "unknown error")
        else:
            if self.cache is not None and key is not None:
                self.cache.put(key, report, label=task.label())
            outcome = ConfigurationOutcome(task, report=report)
        return self._emit(outcome)

    def _emit(self, outcome: ConfigurationOutcome) -> ConfigurationOutcome:
        if self.on_result is not None:
            self.on_result(outcome)
        return outcome


# -- the paper-facing explorer ------------------------------------------------


class DesignSpaceExplorer:
    """Run several flow configurations on one design and analyse the results.

    Execution is delegated to an :class:`ExplorationEngine`; pass ``jobs``,
    ``cache_dir`` and ``timeout`` to explore in parallel, reuse previous
    results and survive misbehaving configurations.
    """

    def __init__(
        self,
        design: str,
        bitwidth: int,
        configurations: Optional[Sequence[FlowConfiguration]] = None,
        verify: Union[bool, str] = True,
        cost_model: str = "rtof",
        jobs: int = 1,
        cache_dir: Union[None, str, ResultCache] = None,
        timeout: Optional[float] = None,
    ):
        self.design = design
        self.bitwidth = bitwidth
        self.configurations = list(configurations or default_configurations())
        self.verify = verify
        self.cost_model = cost_model
        self.engine = ExplorationEngine(
            jobs=jobs,
            cache=cache_dir,
            verify=verify,
            cost_model=cost_model,
            timeout=timeout,
        )
        self.reports: Dict[str, CostReport] = {}
        self.errors: Dict[str, str] = {}
        self._explored = False

    # -- exploration --------------------------------------------------------------

    def explore(
        self, on_result: Optional[Callable[[ConfigurationOutcome], None]] = None
    ) -> Dict[str, CostReport]:
        """Run every configuration; returns label -> cost report.

        Failing configurations are captured in :attr:`errors` instead of
        aborting the exploration; ``on_result`` streams outcomes as they
        complete.  Both :attr:`reports` and :attr:`errors` are reset at
        the start of every call, so a retry never shows stale failures.
        """
        self.reports = {}
        self.errors = {}
        tasks = build_sweep(self.design, self.bitwidth, self.configurations)
        self.engine.on_result = on_result
        for outcome in self.engine.run_iter(tasks):
            label = outcome.task.configuration.label()
            if outcome.ok:
                self.reports[label] = outcome.report
            else:
                self.errors[label] = outcome.error
        self._explored = True
        return dict(self.reports)

    def _ensure_explored(self) -> None:
        if not self.reports and not self._explored:
            self.explore()

    def _require_reports(self) -> None:
        self._ensure_explored()
        if not self.reports:
            detail = "; ".join(
                f"{label}: {error}" for label, error in self.errors.items()
            )
            raise RuntimeError(
                "no configuration produced a report"
                + (f" ({detail})" if detail else "")
            )

    # -- analysis -----------------------------------------------------------------

    def pareto_front(self) -> List[ParetoPoint]:
        """Non-dominated points on the (qubits, T-count) plane.

        The dominance rule and the handling of coinciding points are those
        of :func:`pareto_front_of`.
        """
        self._ensure_explored()
        return pareto_front_of(self.reports)

    def best_by_qubits(self) -> CostReport:
        """The configuration with the fewest qubits."""
        self._require_reports()
        return min(self.reports.values(), key=lambda report: report.qubits)

    def best_by_t_count(self) -> CostReport:
        """The configuration with the smallest T-count."""
        self._require_reports()
        return min(self.reports.values(), key=lambda report: report.t_count)

    def summary_rows(self) -> List[tuple]:
        """Rows ``(configuration, qubits, T-count, runtime)`` for reporting."""
        self._ensure_explored()
        return [
            (label, report.qubits, report.t_count, report.runtime_seconds)
            for label, report in sorted(self.reports.items())
        ]
