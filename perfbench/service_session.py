"""Closed-loop client sessions against a real ``repro serve`` process.

One session starts a server with one worker thread and a fresh result
cache, then runs, one after another over one connection at a time:

1. the cold job (every configuration misses and is written to the cache),
2. ``RESUBMITS`` identical re-submissions (every configuration hits),
3. the third job, on two bit-widths: one already cached, one not.

The server runs under ``server_main.py``, which times every flow and
takes speed samples around it in the worker thread.  Each response line
of the ndjson stream is time-stamped on arrival; client-side intervals
are converted to reference seconds with the server's speed samples.
Per-configuration latency is the server-side flow time, because the
stream delivers events on a 50 ms poll, which would dominate the spread
of sub-second configurations.
"""

from __future__ import annotations

import http.client
import json
import resource
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict

import calibrate

HERE = Path(__file__).resolve().parent

RESUBMITS = 5
#: Seconds a server may take to print its address, and to drain on shutdown.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0


class ServiceError(RuntimeError):
    """The server did not behave as the protocol promises."""


def _request(port: int, method: str, path: str, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request(
            method, path, body=None if body is None else json.dumps(body),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """A ``repro serve`` child process on an ephemeral port.

    ``workdir`` receives the cache, the server's log and its probe read-out
    (``probe.json``).
    """

    def __init__(self, root: Path, env: Dict[str, str], workdir: Path,
                 trace: bool = False) -> None:
        self.probe_path = workdir / "probe.json"
        command = [sys.executable, str(HERE / "server_main.py"), str(self.probe_path)]
        if trace:
            command.append("--trace")
        command += ["serve", "--port", "0", "--workers", "1",
                    "--cache", str(workdir / "cache")]
        self._log = open(workdir / "server.log", "ab")
        self.rusage_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log
        )
        try:
            self.port = self._read_port()
            while True:
                try:
                    status, _ = _request(self.port, "GET", "/health")
                except OSError:
                    status = None
                if status == 200:
                    break
                if time.perf_counter() - started > START_TIMEOUT:
                    raise ServiceError("server never answered /health")
                time.sleep(0.005)
        except BaseException:
            self.kill()
            raise
        #: Spawn until ``/health`` first answers.
        self.startup_s = time.perf_counter() - started

    def _read_port(self) -> int:
        selector = selectors.DefaultSelector()
        selector.register(self.process.stdout, selectors.EVENT_READ)
        try:
            if not selector.select(START_TIMEOUT):
                raise ServiceError("server printed no address")
        finally:
            selector.close()
        line = self.process.stdout.readline().decode()
        if "serving on http://" not in line:
            raise ServiceError(f"unexpected server banner {line!r}")
        return int(line.split("serving on http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def stop(self) -> float:
        """Drain and stop the server; returns its CPU seconds (user + sys)."""
        try:
            status, _ = _request(self.port, "POST", "/shutdown", {})
            if status != 202:
                raise ServiceError(f"/shutdown answered {status}")
            self.process.communicate(timeout=STOP_TIMEOUT)
            if self.process.returncode != 0:
                raise ServiceError(f"server exited with {self.process.returncode}")
        finally:
            self.kill()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        return (after.ru_utime - self.rusage_before.ru_utime) + (
            after.ru_stime - self.rusage_before.ru_stime
        )

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._log.close()


def run_job(port: int, payload: Dict) -> Dict:
    """Submit one job and stream it to its ``done`` event (raw clock readings)."""
    submitted = time.perf_counter()
    status, body = _request(port, "POST", "/jobs", payload)
    if status != 202:
        raise ServiceError(f"job rejected ({status}): {body[:200]!r}")
    accepted = json.loads(body)
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=600)
    events = []
    try:
        conn.request("GET", accepted["stream_url"])
        response = conn.getresponse()
        while True:
            line = response.readline()
            if not line:
                break
            events.append((time.perf_counter(), json.loads(line)))
    finally:
        conn.close()
    if not events or events[-1][1]["type"] != "done":
        raise ServiceError("stream ended without a done event")
    status, body = _request(port, "GET", f"/jobs/{accepted['id']}")
    job = json.loads(body)
    return {
        "submitted": submitted,
        "events": events,
        "queue_wait_s": job["started"] - job["created"],
    }


def run_session(root: Path, env: Dict[str, str], workdir: Path, cold: Dict,
                third: Dict, trace: bool = False) -> Dict:
    """One server lifetime: cold job, re-submissions, third job.

    Times in the result are reference seconds, except ``wall_s``.
    """
    server = Server(root, env, workdir, trace)
    try:
        jobs = [run_job(server.port, payload)
                for payload in [cold] * (1 + RESUBMITS) + [third]]
        _, body = _request(server.port, "GET", "/metrics")
        metrics = json.loads(body)
    except BaseException:
        server.kill()
        raise
    cpu_s = server.stop()
    probe = json.loads(server.probe_path.read_text())
    timeline = calibrate.Timeline(probe["samples"])

    def since_submit(job, at):
        return timeline.to_reference(at - job["submitted"], job["submitted"], at)

    def job_s(job):
        return since_submit(job, job["events"][-1][0])

    cold_job, resubmits = jobs[0], jobs[1:-1]
    return {
        "sweep_s": sum(job_s(job) for job in jobs),
        "wall_s": sum(job["events"][-1][0] - job["submitted"] for job in jobs),
        "sweep_cpu_s": cpu_s * timeline.mean_speed(),
        "flow_s": [timeline.to_reference(end - start, start, end)
                   for start, end in probe["flows"]],
        "first_result_s": since_submit(cold_job, next(
            at for at, e in cold_job["events"] if e["type"] == "outcome"
        )),
        "job_s": job_s(cold_job),
        "resubmit_s": statistics.median(job_s(job) for job in resubmits),
        "queue_wait_s": statistics.mean(job["queue_wait_s"] for job in jobs),
        "stream_events": sum(len(job["events"]) for job in jobs),
        "metrics": metrics,
        "trace": probe.get("trace"),
        "jobs": {"cold": cold_job, "resubmits": resubmits, "third": jobs[-1]},
    }


def measure_startup(root: Path, env: Dict[str, str], workdir: Path) -> float:
    """Spawn-to-``/health`` time of one server that is then stopped."""
    with calibrate.ConcurrentSampler() as sampler:
        start = time.perf_counter()
        server = Server(root, env, workdir)
    server.stop()
    return sampler.to_reference(server.startup_s, start, start + server.startup_s)
