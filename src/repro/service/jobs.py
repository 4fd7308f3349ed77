"""Job model and worker pool of the synthesis service.

A *job* is one exploration sweep — designs × bitwidths × flow
configurations — submitted by a client and executed asynchronously by the
:class:`JobManager`'s worker threads.  Every worker drives its own
:class:`~repro.core.explorer.ExplorationEngine` over the manager's single
shared :class:`~repro.core.cache.ResultCache`, which is what makes the
service more than a remote CLI: any configuration any client ever
computed is a cache hit for every later job, across processes and across
server restarts (the cache is a directory of files).

Execution and observation are decoupled: workers append outcome events to
the job under a condition variable, and observers read them at their own
pace through :meth:`Job.events_since` cursors.  After every append the
worker calls the job's *listeners* (outside the lock): the streaming HTTP
endpoint registers one that wakes its event loop, so each event is pushed
to the client as soon as it exists.  :meth:`Job.wait` blocks on the
condition until the job ends (the manager's drain uses it).  Each event
carries the job-so-far Pareto front per design instance, so a streaming
client watches the front tighten configuration by configuration.

Shutdown is graceful by default: the manager stops accepting submissions,
lets queued and running jobs finish (*drain*), and only then stops its
workers — no completed result is ever lost.  A non-draining shutdown
instead cancels between configurations via the engine's ``should_stop``
hook; configurations already running still complete and are recorded.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.core.cache import ResultCache
from repro.core.cost import CostReport
from repro.core.explorer import (
    ConfigurationOutcome,
    ExplorationEngine,
    ExplorationTask,
    FlowConfiguration,
    build_sweep,
    default_configurations,
    flow_default_configurations,
    pareto_front_of,
    parse_sweep_spec,
)
from repro.core.flows import make_flow
from repro.service.metrics import ServiceMetrics
from repro.verify.differential import normalize_verify_mode

__all__ = ["Job", "JobManager", "JobSpec", "ServiceClosed"]


class ServiceClosed(RuntimeError):
    """Raised by :meth:`JobManager.submit` once shutdown has begun."""


#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

_TERMINAL = (DONE, FAILED, CANCELLED)


def _parse_configurations(payload: Dict[str, Any]) -> List[FlowConfiguration]:
    """Expand the payload's configuration description (see from_payload)."""
    if "sweeps" in payload:
        configurations: List[FlowConfiguration] = []
        for spec in payload["sweeps"]:
            configurations.extend(parse_sweep_spec(str(spec)).configurations())
        return configurations
    if "configurations" in payload:
        configurations, flows = [], {}
        for entry in payload["configurations"]:
            if not isinstance(entry, dict) or "flow" not in entry:
                raise ValueError(
                    "each configuration must be an object with a 'flow' key"
                )
            parameters = entry.get("parameters", {})
            if not isinstance(parameters, dict):
                raise ValueError("configuration 'parameters' must be an object")
            name = str(entry["flow"])
            flow = flows[name] = flows.get(name) or make_flow(name)
            checked = {
                name: flow.settable(name).check(value)
                for name, value in parameters.items()
            }
            configurations.append(
                FlowConfiguration(flow.name, tuple(sorted(checked.items())))
            )
        return configurations
    if "flow" in payload:
        return flow_default_configurations(str(payload["flow"]))
    return default_configurations()


@dataclass(frozen=True)
class JobSpec:
    """What one job computes: a sweep plus execution knobs."""

    designs: Tuple[str, ...]
    bitwidths: Tuple[int, ...]
    configurations: Tuple[FlowConfiguration, ...]
    verify: str = "off"
    cost_model: str = "rtof"
    jobs: int = 1
    timeout: Optional[float] = None
    verilog: Optional[str] = None

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "JobSpec":
        """Build a spec from a JSON request body.

        Recognised keys: ``design``/``designs``, ``bitwidth``/``bitwidths``,
        one of ``sweeps`` (CLI ``--sweep`` strings) / ``configurations``
        (``[{"flow": ..., "parameters": {...}}]``) / ``flow`` (that flow's
        default sweep) — defaulting to the paper's five configurations —
        plus ``verify``, ``cost_model``, ``jobs``, ``timeout`` and
        ``verilog`` (custom design source).  Raises ``ValueError`` on
        malformed input, an unknown ``verify`` mode, or a parameter its
        flow's declared schema rejects; nothing is executed yet.
        """
        if not isinstance(payload, dict):
            raise ValueError("job payload must be a JSON object")
        designs = payload.get("designs", payload.get("design", "intdiv"))
        if isinstance(designs, str):
            designs = [designs]
        if not designs or not all(isinstance(d, str) for d in designs):
            raise ValueError("'designs' must be a non-empty list of names")
        bitwidths = payload.get("bitwidths", payload.get("bitwidth", 4))
        if isinstance(bitwidths, int):
            bitwidths = [bitwidths]
        if not bitwidths or not all(
            isinstance(n, int) and not isinstance(n, bool) and n > 0
            for n in bitwidths
        ):
            raise ValueError("'bitwidths' must be a non-empty list of positive ints")
        verify = normalize_verify_mode(payload.get("verify", "off"))
        jobs = payload.get("jobs", 1)
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            raise ValueError("'jobs' must be a positive integer")
        timeout = payload.get("timeout")
        if timeout is not None and not (
            isinstance(timeout, (int, float)) and timeout > 0
        ):
            raise ValueError("'timeout' must be a positive number")
        verilog = payload.get("verilog")
        if verilog is not None and not isinstance(verilog, str):
            raise ValueError("'verilog' must be a string of Verilog source")
        spec = cls(
            designs=tuple(designs),
            bitwidths=tuple(bitwidths),
            configurations=tuple(_parse_configurations(payload)),
            verify=verify,
            cost_model=str(payload.get("cost_model", "rtof")),
            jobs=jobs,
            timeout=float(timeout) if timeout is not None else None,
            verilog=verilog,
        )
        spec.tasks()  # fail fast on an empty or inconsistent sweep
        return spec

    def tasks(self) -> List[ExplorationTask]:
        """The sweep expanded into engine tasks (validates the spec)."""
        tasks = build_sweep(
            list(self.designs),
            list(self.bitwidths),
            list(self.configurations),
            verilog=self.verilog,
        )
        if not tasks:
            raise ValueError("job expands to an empty sweep")
        return tasks


def _pareto_groups(
    reports: Dict[Tuple[str, int], Dict[str, CostReport]]
) -> List[Dict[str, Any]]:
    """Per design-instance Pareto fronts, serialised for JSON transport."""
    groups = []
    for (design, bitwidth), labelled in sorted(reports.items()):
        groups.append(
            {
                "design": design,
                "bitwidth": bitwidth,
                "points": [
                    {
                        "configuration": point.configuration,
                        "aliases": list(point.aliases),
                        "qubits": point.qubits,
                        "t_count": point.t_count,
                    }
                    for point in pareto_front_of(labelled)
                ],
            }
        )
    return groups


class Job:
    """One submitted sweep: spec, lifecycle state, streamed outcome events.

    Observers read :attr:`events` through :meth:`events_since` cursors;
    the worker appends under the condition variable, notifies, and then
    calls every listener added with :meth:`add_listener`.  All mutation
    happens through the ``_``-methods called by the owning
    :class:`JobManager` worker.
    """

    def __init__(self, job_id: str, spec: JobSpec, num_tasks: int) -> None:
        self.id = job_id
        self.spec = spec
        self.num_tasks = num_tasks
        self.state = QUEUED
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.error: Optional[str] = None
        self.completed = 0
        self.cached = 0
        self.failed = 0
        self.cancelled = 0
        self.events: List[Dict[str, Any]] = []
        self._reports: Dict[Tuple[str, int], Dict[str, CostReport]] = {}
        self._condition = threading.Condition()
        #: Called with no arguments after every appended event, on the
        #: worker thread and outside the lock.  Replaced, never mutated, so
        #: the worker iterates a snapshot without locking.
        self._listeners: Tuple[Callable[[], None], ...] = ()

    # -- worker side -----------------------------------------------------------

    def _append_event(self, event: Dict[str, Any]) -> None:
        with self._condition:
            self.events.append(event)
            self._condition.notify_all()
        self._notify_listeners()

    def _notify_listeners(self) -> None:
        for listener in self._listeners:
            listener()

    def _mark_running(self) -> None:
        with self._condition:
            self.state = RUNNING
            self.started = time.time()
            self._condition.notify_all()

    def _record(self, outcome: ConfigurationOutcome) -> None:
        """Fold one engine outcome into counters, fronts and the event log."""
        task = outcome.task
        event: Dict[str, Any] = {
            "type": "outcome",
            "label": task.label(),
            "design": task.design,
            "bitwidth": task.bitwidth,
            "configuration": task.configuration.label(),
            "ok": outcome.ok,
            "cached": outcome.cached,
        }
        if outcome.ok:
            self.completed += 1
            if outcome.cached:
                self.cached += 1
            event["report"] = outcome.report.to_dict()
            instance = self._reports.setdefault((task.design, task.bitwidth), {})
            instance[task.configuration.label()] = outcome.report
        else:
            if outcome.error and outcome.error.startswith("cancelled"):
                self.cancelled += 1
            else:
                self.failed += 1
            event["error"] = outcome.error
        event["pareto"] = _pareto_groups(self._reports)
        self._append_event(event)

    def _finish(self, state: str, error: Optional[str] = None) -> None:
        with self._condition:
            self.state = state
            self.error = error
            self.finished = time.time()
            self.events.append(
                {
                    "type": "done",
                    "state": state,
                    "error": error,
                    "pareto": _pareto_groups(self._reports),
                    "summary": self._summary(),
                }
            )
            self._condition.notify_all()
        self._notify_listeners()

    # -- observer side ---------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.state in _TERMINAL

    def events_since(self, cursor: int) -> Tuple[List[Dict[str, Any]], int]:
        """Events appended after ``cursor`` plus the new cursor."""
        with self._condition:
            events = self.events[cursor:]
        return events, cursor + len(events)

    def add_listener(self, listener: Callable[[], None]) -> None:
        """Call ``listener()`` after every event appended from now on.

        It runs on the worker thread, so it must be quick, thread-safe and
        must not raise.
        """
        with self._condition:
            self._listeners = self._listeners + (listener,)

    def remove_listener(self, listener: Callable[[], None]) -> None:
        """Stop calling ``listener`` (a no-op if it is not registered)."""
        with self._condition:
            self._listeners = tuple(
                other for other in self._listeners if other != listener
            )

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state; returns success."""
        with self._condition:
            return self._condition.wait_for(lambda: self.done, timeout)

    def reports(self) -> Dict[Tuple[str, int], Dict[str, CostReport]]:
        """``(design, bitwidth) -> configuration label -> report`` so far."""
        with self._condition:
            return {
                instance: dict(labelled)
                for instance, labelled in self._reports.items()
            }

    def pareto(self) -> List[Dict[str, Any]]:
        """The current per-instance Pareto fronts (JSON-ready)."""
        with self._condition:
            return _pareto_groups(self._reports)

    def _summary(self) -> Dict[str, Any]:
        return {
            "num_tasks": self.num_tasks,
            "completed": self.completed,
            "cached": self.cached,
            "failed": self.failed,
            "cancelled": self.cancelled,
        }

    def to_dict(self, include_events: bool = False) -> Dict[str, Any]:
        """JSON-ready job status (the ``GET /jobs/<id>`` body)."""
        with self._condition:
            data = {
                "id": self.id,
                "state": self.state,
                "created": self.created,
                "started": self.started,
                "finished": self.finished,
                "error": self.error,
                **self._summary(),
                "pareto": _pareto_groups(self._reports),
            }
            if include_events:
                data["events"] = list(self.events)
        return data


class JobManager:
    """A worker-thread pool draining a FIFO job queue through the engine.

    Parameters
    ----------
    cache:
        ``None``, a directory path, or a prebuilt
        :class:`~repro.core.cache.ResultCache`; shared by every worker, so
        concurrent jobs deduplicate work through it.
    workers:
        Worker threads (concurrent jobs).  Each runs one job at a time.
    max_engine_jobs:
        Per-job concurrency limit: a job may request ``jobs`` worker
        *processes* for its engine, clamped to this bound so one job
        cannot monopolise the machine.
    metrics:
        Optional :class:`~repro.service.metrics.ServiceMetrics` receiving
        job/flow counters and latency observations.
    """

    def __init__(
        self,
        cache: Union[None, str, ResultCache] = None,
        workers: int = 2,
        max_engine_jobs: int = 1,
        metrics: Optional[ServiceMetrics] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_engine_jobs < 1:
            raise ValueError("max_engine_jobs must be >= 1")
        if cache is None or isinstance(cache, ResultCache):
            self.cache = cache
        else:
            self.cache = ResultCache(cache)
        self.workers = workers
        self.max_engine_jobs = max_engine_jobs
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._jobs: Dict[str, Job] = {}
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._accepting = True
        self._cancel_event = threading.Event()
        self._lock = threading.Lock()
        self._sequence = itertools.count(1)
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-service-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission ------------------------------------------------------------

    @property
    def accepting(self) -> bool:
        return self._accepting

    def submit(self, spec: Union[JobSpec, Dict[str, Any]]) -> Job:
        """Validate, enqueue and return a new job (raising on bad specs).

        Raises :class:`ServiceClosed` once shutdown has begun and
        ``ValueError`` for malformed specs — both *before* the job exists,
        so every listed job is executable.
        """
        if isinstance(spec, dict):
            spec = JobSpec.from_payload(spec)
        tasks = spec.tasks()  # validates; raises ValueError
        with self._lock:
            if not self._accepting:
                raise ServiceClosed("service is shutting down")
            job_id = f"job-{next(self._sequence)}-{uuid.uuid4().hex[:8]}"
            job = Job(job_id, spec, num_tasks=len(tasks))
            self._jobs[job_id] = job
        self.metrics.incr("jobs_submitted")
        self._queue.put(job_id)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    # -- execution -------------------------------------------------------------

    def _worker(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:  # shutdown sentinel
                self._queue.task_done()
                return
            job = self.get(job_id)
            try:
                if job is not None:
                    self._run_job(job)
            finally:
                self._queue.task_done()

    def _run_job(self, job: Job) -> None:
        if self._cancel_event.is_set():
            self.metrics.incr("jobs_cancelled")
            job._finish(CANCELLED, "cancelled before start")
            return
        job._mark_running()
        self.metrics.incr("jobs_started")
        started = time.monotonic()
        engine = ExplorationEngine(
            jobs=min(job.spec.jobs, self.max_engine_jobs),
            cache=self.cache,
            verify=job.spec.verify,
            cost_model=job.spec.cost_model,
            timeout=job.spec.timeout,
        )
        try:
            tasks = job.spec.tasks()
            clock = time.monotonic()
            for outcome in engine.run_iter(
                tasks, should_stop=self._cancel_event.is_set
            ):
                now = time.monotonic()
                if outcome.ok and not outcome.cached:
                    self.metrics.observe("flow_seconds", now - clock)
                    self.metrics.incr("flows_executed")
                elif outcome.cached:
                    self.metrics.incr("flows_cached")
                clock = now
                job._record(outcome)
        except Exception as exc:  # job isolation: a worker must survive
            self.metrics.incr("jobs_failed")
            job._finish(FAILED, f"{type(exc).__name__}: {exc}")
            return
        # Count before finishing: a client that has read the ``done``
        # event (it is pushed at once) must find it in ``/metrics``.
        self.metrics.observe("job_seconds", time.monotonic() - started)
        if job.cancelled:
            self.metrics.incr("jobs_cancelled")
            job._finish(CANCELLED, "cancelled by shutdown")
        else:
            self.metrics.incr("jobs_done")
            job._finish(DONE)

    # -- shutdown --------------------------------------------------------------

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> bool:
        """Stop the pool; returns whether every job reached a terminal state.

        ``drain=True`` (the default) refuses new submissions but lets
        every queued and running job finish — no completed result is
        lost.  ``drain=False`` additionally asks running engines to stop
        between configurations (outcomes already produced are kept; the
        remaining ones are recorded as cancelled).  ``timeout`` bounds the
        wait; workers are always told to exit before returning.
        """
        with self._lock:
            self._accepting = False
        if not drain:
            self._cancel_event.set()
        deadline = None if timeout is None else time.monotonic() + timeout
        drained = True
        for job in self.jobs():
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            if not job.wait(remaining):
                drained = False
                if remaining == 0.0:
                    break
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            remaining = (
                None if deadline is None else max(0.1, deadline - time.monotonic())
            )
            thread.join(remaining)
        return drained

    # -- introspection ---------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Queue gauges + aggregate counters (the ``/metrics`` building block)."""
        jobs = self.jobs()
        by_state: Dict[str, int] = {}
        for job in jobs:
            by_state[job.state] = by_state.get(job.state, 0) + 1
        data: Dict[str, Any] = {
            "jobs": {
                "total": len(jobs),
                "queued": by_state.get(QUEUED, 0),
                "running": by_state.get(RUNNING, 0),
                "done": by_state.get(DONE, 0),
                "failed": by_state.get(FAILED, 0),
                "cancelled": by_state.get(CANCELLED, 0),
            },
            "workers": self.workers,
            "accepting": self.accepting,
        }
        if self.cache is not None:
            data["cache"] = self.cache.counters()
        return data
