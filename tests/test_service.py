"""Tests for the synthesis-as-a-service stack (repro.service).

Covers the pieces bottom-up — metrics quantiles, token buckets, job spec
validation, the worker-pool manager (shared cache, drain and cancel
semantics) — and then the HTTP server end to end over a real socket:
submission, status, chunked ndjson streaming, rate limiting, metrics and
graceful shutdown, asserting the streamed Pareto front equals a direct
:class:`ExplorationEngine` run of the same sweep.
"""

import http.client
import json
import threading
import time

import pytest

from repro.core.cache import ResultCache
from repro.core.explorer import (
    ExplorationEngine,
    FlowConfiguration,
    build_sweep,
    pareto_front_of,
)
from repro.service import (
    JobManager,
    JobSpec,
    RateLimiter,
    ServiceMetrics,
    TokenBucket,
    start_in_thread,
)
from repro.service.jobs import CANCELLED, DONE, ServiceClosed
from repro.service.metrics import LatencyReservoir, quantile

#: A trivially fast design so service tests measure the service, not flows.
BUF = "module buf (input a, output y); assign y = a; endmodule\n"


def buf_payload(**overrides):
    payload = {
        "designs": ["buf"],
        "bitwidths": [1],
        "verilog": BUF,
        "sweeps": ["esop:p=0,1", "symbolic"],
    }
    payload.update(overrides)
    return payload


# ---------------------------------------------------------------------------
# metrics


class TestQuantile:
    def test_nearest_rank_values(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert quantile(samples, 0.50) == 2.0
        assert quantile(samples, 0.95) == 4.0
        assert quantile(samples, 0.0) == 1.0
        assert quantile(samples, 1.0) == 4.0

    def test_empty_and_invalid(self):
        assert quantile([], 0.5) is None
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)

    def test_invalid_fraction_rejected_even_on_empty_samples(self):
        # Regression: the empty-sample early return used to run before the
        # fraction check, so a freshly started server's empty reservoirs
        # silently accepted out-of-range quantiles.
        with pytest.raises(ValueError):
            quantile([], 1.5)
        with pytest.raises(ValueError):
            quantile([], -0.1)
        assert quantile([], 0.0) is None
        assert quantile([], 1.0) is None

    def test_reservoir_snapshot(self):
        reservoir = LatencyReservoir(maxlen=4)
        for value in (1.0, 2.0, 3.0):
            reservoir.observe(value)
        snapshot = reservoir.snapshot()
        assert snapshot["count"] == 3
        assert snapshot["mean"] == pytest.approx(2.0)
        assert snapshot["p50"] == 2.0
        assert snapshot["p95"] == 3.0

    def test_reservoir_is_bounded_but_count_is_total(self):
        reservoir = LatencyReservoir(maxlen=2)
        for value in range(10):
            reservoir.observe(float(value))
        snapshot = reservoir.snapshot()
        assert snapshot["count"] == 10
        assert snapshot["p50"] == 8.0  # only the last two samples remain

    def test_service_metrics_roundtrip(self):
        metrics = ServiceMetrics()
        metrics.incr("jobs", 2)
        metrics.observe("lat", 1.5)
        snapshot = metrics.snapshot()
        assert snapshot["counters"] == {"jobs": 2}
        assert snapshot["latency"]["lat"]["count"] == 1
        assert metrics.counter("jobs") == 2
        assert metrics.counter("absent") == 0


# ---------------------------------------------------------------------------
# rate limiting


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestRateLimit:
    def test_bucket_depletes_and_refills(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2, clock=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.now = 1.0
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_bucket_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=0)

    def test_limiter_is_per_client(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=1, clock=clock)
        assert limiter.check("a")
        assert not limiter.check("a")
        assert limiter.check("b")  # a's exhaustion does not affect b

    def test_disabled_limiter_always_passes(self):
        limiter = RateLimiter(None)
        assert not limiter.enabled
        for _ in range(100):
            assert limiter.check("anyone")
        assert limiter.snapshot() == (0, False)

    def test_pruning_bounds_client_table(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=100.0, burst=1, max_clients=4, clock=clock)
        for index in range(4):
            limiter.check(f"client-{index}")
        clock.now = 10.0  # every bucket refills -> idle_and_full -> prunable
        limiter.check("client-new")
        tracked, enabled = limiter.snapshot()
        assert enabled
        assert tracked <= 4


# ---------------------------------------------------------------------------
# job specs


class TestJobSpec:
    def test_from_payload_defaults(self):
        spec = JobSpec.from_payload({})
        assert spec.designs == ("intdiv",)
        assert spec.bitwidths == (4,)
        assert len(spec.configurations) >= 3  # the paper's default sweep

    def test_sweep_strings_expand_like_the_cli(self):
        spec = JobSpec.from_payload(buf_payload())
        assert [c.label() for c in spec.configurations] == [
            "esop(p=0)",
            "esop(p=1)",
            "symbolic",
        ]
        assert len(spec.tasks()) == 3

    def test_explicit_configurations(self):
        spec = JobSpec.from_payload(
            {
                "design": "buf",
                "bitwidth": 1,
                "verilog": BUF,
                "configurations": [
                    {"flow": "esop", "parameters": {"p": 1}},
                    {"flow": "symbolic"},
                ],
            }
        )
        assert [c.label() for c in spec.configurations] == [
            "esop(p=1)",
            "symbolic",
        ]

    @pytest.mark.parametrize("parameter, value", [
        # Another module's source would be synthesised and reported under
        # the requested design's name.
        ("verilog", "module other (input a, output y); assign y = a; endmodule"),
        # The job's own mode would silently override it.
        ("verify", "full"),
        # A frontend seed, not a JSON value.
        ("aig", 1),
    ])
    def test_configuration_cannot_set_a_reserved_parameter(self, parameter, value):
        payload = {
            "design": "intdiv",
            "bitwidth": 3,
            "configurations": [{"flow": "esop", "parameters": {parameter: value}}],
        }
        with pytest.raises(ValueError, match=f"reserved parameter name {parameter!r}"):
            JobSpec.from_payload(payload)
        with pytest.raises(ValueError, match=f"reserved parameter name {parameter!r}"):
            JobSpec.from_payload(
                {"design": "intdiv", "bitwidth": 3, "sweeps": [f"esop:{parameter}=1"]}
            )

    def test_configuration_values_are_checked_by_the_declared_type(self):
        spec = JobSpec.from_payload({
            "configurations": [
                {"flow": "lut", "parameters": {"strategy": "bounded", "max_pebbles": 2}},
                {"flow": "lut", "parameters": {"strategy": "bounded", "max_pebbles": 0.5}},
            ],
        })
        values = [c.parameters[0][1] for c in spec.configurations]
        assert values == [2, 0.5]
        assert [type(v) for v in values] == [int, float]
        with pytest.raises(ValueError, match="'k' expects an int, got '4'"):
            JobSpec.from_payload(
                {"configurations": [{"flow": "lut", "parameters": {"k": "4"}}]}
            )
        with pytest.raises(ValueError, match="'bogus': not one of barenco, rtof"):
            JobSpec.from_payload(
                {"configurations": [{"flow": "esop", "parameters": {"map_model": "bogus"}}]}
            )

    @pytest.mark.parametrize(
        "payload",
        [
            {"designs": []},
            {"designs": [1]},
            {"bitwidths": [0]},
            {"bitwidths": [True]},
            {"jobs": 0},
            {"timeout": -1},
            {"verilog": 7},
            {"configurations": [{"parameters": {}}]},
            {"configurations": [{"flow": "esop", "parameters": [1]}]},
            {"configurations": [{"flow": "esop", "parameters": {"pp": 1}}]},
            {"verify": "bogus"},
            "not an object",
        ],
    )
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(ValueError):
            JobSpec.from_payload(payload)


# ---------------------------------------------------------------------------
# job manager


def shutdown_manager(manager, **kwargs):
    assert manager.shutdown(timeout=30, **kwargs) is not None


class TestJobManager:
    def test_job_runs_to_done_with_streamed_events(self):
        manager = JobManager(workers=1)
        try:
            job = manager.submit(buf_payload())
            assert job.wait(timeout=30)
            assert job.state == DONE
            assert job.completed == job.num_tasks == 3
            assert job.failed == 0
            events, cursor = job.events_since(0)
            assert cursor == len(events) == 4  # 3 outcomes + done
            assert [e["type"] for e in events] == ["outcome"] * 3 + ["done"]
            # Every event carries the job-so-far Pareto front.
            assert all("pareto" in event for event in events)
            assert events[-1]["summary"]["completed"] == 3
        finally:
            shutdown_manager(manager)

    def test_shared_cache_makes_resubmission_free(self, tmp_path):
        cache = ResultCache(tmp_path)
        manager = JobManager(cache=cache, workers=2)
        try:
            first = manager.submit(buf_payload())
            assert first.wait(timeout=30) and first.state == DONE
            assert first.cached == 0
            second = manager.submit(buf_payload())
            assert second.wait(timeout=30) and second.state == DONE
            assert second.cached == second.num_tasks == 3
            assert cache.counters()["hits"] >= 3
            assert manager.metrics.counter("flows_cached") >= 3
        finally:
            shutdown_manager(manager)

    def test_failures_are_recorded_not_raised(self):
        manager = JobManager(workers=1)
        try:
            job = manager.submit(
                {"designs": ["no_such_design"], "bitwidths": [2]}
            )
            assert job.wait(timeout=30)
            assert job.state == DONE  # the job ran; its configurations failed
            assert job.failed == job.num_tasks
            events, _ = job.events_since(0)
            assert all(
                "error" in event
                for event in events
                if event["type"] == "outcome"
            )
        finally:
            shutdown_manager(manager)

    def test_word_or_bool_pebble_budget_fails_with_a_value_error(self):
        # A word or a boolean is no pebble budget: the declared type
        # rejects the sweep at submission, naming max_pebbles.
        manager = JobManager(workers=1)
        try:
            for value in ("half", "true"):
                with pytest.raises(ValueError) as raised:
                    manager.submit(buf_payload(
                        sweeps=[f"lut:strategy=bounded:max_pebbles={value}"]
                    ))
                assert str(raised.value) == (
                    "flow 'lut': parameter 'max_pebbles' expects an int or a "
                    f"number, got {value!r}"
                )
            assert manager.jobs() == []
        finally:
            shutdown_manager(manager)

    def test_submit_validation_precedes_job_creation(self):
        manager = JobManager(workers=1)
        try:
            with pytest.raises(ValueError):
                manager.submit({"bitwidths": [-1]})
            assert manager.jobs() == []
        finally:
            shutdown_manager(manager)

    def test_submit_after_shutdown_raises_service_closed(self):
        manager = JobManager(workers=1)
        shutdown_manager(manager)
        assert not manager.accepting
        with pytest.raises(ServiceClosed):
            manager.submit(buf_payload())

    def test_drain_shutdown_completes_queued_jobs(self):
        manager = JobManager(workers=1)
        jobs = [manager.submit(buf_payload()) for _ in range(3)]
        assert manager.shutdown(drain=True, timeout=60)
        for job in jobs:
            assert job.state == DONE
            assert job.completed == job.num_tasks

    def test_non_drain_shutdown_cancels_between_configurations(
        self, monkeypatch
    ):
        import repro.core.explorer as explorer_mod

        release = threading.Event()
        blocked = threading.Event()
        real_execute = explorer_mod._execute_task

        def gated(spec, frontends=None):
            if dict(spec["parameters"]).get("p") == 1:
                blocked.set()
                release.wait(30)
            return real_execute(spec, frontends)

        monkeypatch.setattr(explorer_mod, "_execute_task", gated)
        manager = JobManager(workers=1)
        running = manager.submit(
            buf_payload(sweeps=["esop:p=0,1,2,3"])
        )
        queued = manager.submit(buf_payload())
        assert blocked.wait(30)  # p=0 done, p=1 in flight, p=2/3 pending
        result = {}
        stopper = threading.Thread(
            target=lambda: result.update(
                drained=manager.shutdown(drain=False, timeout=60)
            )
        )
        stopper.start()
        assert manager._cancel_event.wait(30)
        release.set()
        stopper.join(timeout=60)
        assert not stopper.is_alive()
        assert result["drained"]  # every job reached a terminal state
        # The running job kept its completed configurations and cancelled
        # the rest; the queued job was cancelled before starting.
        assert running.state == CANCELLED
        assert running.completed == 2  # p=0 and the in-flight p=1
        assert running.cancelled == 2  # p=2, p=3
        assert running.failed == 0
        assert queued.state == CANCELLED
        assert queued.completed == 0

    def test_stats_shape(self, tmp_path):
        manager = JobManager(cache=str(tmp_path), workers=1)
        try:
            job = manager.submit(buf_payload())
            assert job.wait(timeout=30)
            stats = manager.stats()
            assert stats["jobs"]["total"] == 1
            assert stats["jobs"]["done"] == 1
            assert stats["workers"] == 1
            assert stats["accepting"] is True
            assert stats["cache"]["misses"] >= 3
        finally:
            shutdown_manager(manager)


# ---------------------------------------------------------------------------
# HTTP server (end to end over a real socket)


def request(url, method, path, body=None, headers=None, timeout=30):
    host, port = url.split("//", 1)[1].split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
    try:
        conn.request(
            method,
            path,
            body=json.dumps(body) if body is not None else None,
            headers=headers or {},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        conn.close()


def stream_events(url, path, timeout=60):
    """Read a chunked ndjson stream to completion (http.client dechunks)."""
    host, port = url.split("//", 1)[1].split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
    events = []
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/x-ndjson"
        while True:
            line = response.readline()
            if not line:
                break
            events.append(json.loads(line))
    finally:
        conn.close()
    return events


@pytest.fixture()
def service(tmp_path):
    handle = start_in_thread(cache=str(tmp_path / "cache"), workers=2)
    try:
        yield handle
    finally:
        if handle.thread.is_alive():
            handle.request_shutdown()
            assert handle.join(timeout=60)


class TestServer:
    def test_submit_stream_and_pareto_matches_direct_engine(self, service):
        status, accepted = request(service.url, "POST", "/jobs", buf_payload())
        assert status == 202
        assert accepted["num_tasks"] == 3
        events = stream_events(service.url, accepted["stream_url"])
        assert [e["type"] for e in events] == ["outcome"] * 3 + ["done"]
        done = events[-1]
        assert done["state"] == "done"
        assert done["summary"]["completed"] == 3

        # The streamed front must equal a direct engine run of the sweep.
        tasks = build_sweep(
            ["buf"],
            [1],
            [
                FlowConfiguration("esop", (("p", 0),)),
                FlowConfiguration("esop", (("p", 1),)),
                FlowConfiguration("symbolic"),
            ],
            verilog=BUF,
        )
        outcomes = ExplorationEngine(jobs=1, verify="off").run(tasks)
        labelled = {
            o.task.configuration.label(): o.report for o in outcomes if o.ok
        }
        expected = [
            {
                "configuration": point.configuration,
                "aliases": list(point.aliases),
                "qubits": point.qubits,
                "t_count": point.t_count,
            }
            for point in pareto_front_of(labelled)
        ]
        assert done["pareto"] == [
            {"design": "buf", "bitwidth": 1, "points": expected}
        ]

    def test_status_and_listing_endpoints(self, service):
        _, accepted = request(service.url, "POST", "/jobs", buf_payload())
        stream_events(service.url, accepted["stream_url"])  # wait for done
        status, body = request(service.url, "GET", accepted["status_url"])
        assert status == 200
        assert body["state"] == "done"
        assert body["completed"] == 3
        status, listing = request(service.url, "GET", "/jobs")
        assert status == 200
        assert [job["id"] for job in listing["jobs"]] == [accepted["id"]]

    def test_health_and_metrics(self, service):
        status, health = request(service.url, "GET", "/health")
        assert status == 200
        assert health == {"status": "ok", "accepting": True}
        _, accepted = request(service.url, "POST", "/jobs", buf_payload())
        stream_events(service.url, accepted["stream_url"])
        status, metrics = request(service.url, "GET", "/metrics")
        assert status == 200
        assert metrics["counters"]["jobs_submitted"] == 1
        assert metrics["counters"]["jobs_done"] == 1
        assert metrics["jobs"]["done"] == 1
        assert metrics["cache"]["misses"] >= 3
        assert "flow_seconds" in metrics["latency"]
        assert metrics["ratelimit"]["enabled"] is False

    def test_error_statuses(self, service):
        assert request(service.url, "GET", "/nope")[0] == 404
        assert request(service.url, "GET", "/jobs/absent")[0] == 404
        assert request(service.url, "PUT", "/metrics")[0] == 405
        assert request(service.url, "POST", "/jobs", {"designs": []})[0] == 400
        status, body = request(
            service.url, "POST", "/jobs", {"bitwidths": ["x"]}
        )
        assert status == 400 and "error" in body

    @pytest.mark.parametrize("parameter, value", [
        ("verilog", BUF), ("verify", "full"), ("aig", 1),
    ])
    def test_reserved_configuration_parameter_is_a_400(self, service, parameter, value):
        status, body = request(service.url, "POST", "/jobs", {
            "design": "intdiv",
            "bitwidth": 3,
            "configurations": [{"flow": "esop", "parameters": {parameter: value}}],
        })
        assert status == 400 and f"reserved parameter name {parameter!r}" in body["error"]

    def test_rate_limit_rejects_with_429(self, tmp_path):
        handle = start_in_thread(
            workers=1, ratelimiter=RateLimiter(rate=0.001, burst=1)
        )
        try:
            headers = {"X-Client-Id": "greedy"}
            first = request(
                handle.url, "POST", "/jobs", buf_payload(), headers=headers
            )
            assert first[0] == 202
            second = request(
                handle.url, "POST", "/jobs", buf_payload(), headers=headers
            )
            assert second[0] == 429
            # A different client still gets through.
            third = request(
                handle.url,
                "POST",
                "/jobs",
                buf_payload(),
                headers={"X-Client-Id": "patient"},
            )
            assert third[0] == 202
            _, metrics = request(handle.url, "GET", "/metrics")
            assert metrics["counters"]["http_rate_limited"] == 1
            assert metrics["ratelimit"]["enabled"] is True
        finally:
            handle.request_shutdown()
            assert handle.join(timeout=60)

    def test_graceful_shutdown_drains_and_keeps_results(self, service):
        accepted = [
            request(service.url, "POST", "/jobs", buf_payload())[1]
            for _ in range(3)
        ]
        status, body = request(service.url, "POST", "/shutdown", {})
        assert status == 202
        assert body == {"shutting_down": True, "drain": True}
        assert service.join(timeout=60)
        assert service.drained is True
        # No completed result was lost: every job drained to done.
        for entry in accepted:
            job = service.manager.get(entry["id"])
            assert job.state == "done"
            assert job.completed == job.num_tasks
        # And rejected-after-shutdown is the manager's contract:
        with pytest.raises(ServiceClosed):
            service.manager.submit(buf_payload())


# ---------------------------------------------------------------------------
# CLI integration


class TestCli:
    def test_serve_and_submit_parsers(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--port", "0", "--workers", "3", "--rate", "2.5"]
        )
        assert args.command == "serve"
        assert args.port == 0 and args.workers == 3 and args.rate == 2.5
        args = parser.parse_args(
            [
                "submit",
                "--design",
                "intdiv",
                "-n",
                "2",
                "--sweep",
                "esop:p=0",
                "--no-stream",
            ]
        )
        assert args.command == "submit"
        assert args.sweep == ["esop:p=0"]

    def test_submit_streams_against_live_server(self, capsys):
        from repro.cli import main

        handle = start_in_thread(workers=1)
        try:
            code = main(
                [
                    "submit",
                    "--url",
                    handle.url,
                    "--design",
                    "intdiv",
                    "-n",
                    "2",
                    "--sweep",
                    "esop:p=0,1",
                ]
            )
            out = capsys.readouterr().out
            assert code == 0
            assert "submitted job-" in out
            assert "[2/2]" in out
            assert "Pareto front of intdiv(2)" in out
        finally:
            handle.request_shutdown()
            assert handle.join(timeout=60)

    def test_submit_shutdown_flag_stops_server(self):
        from repro.cli import main

        handle = start_in_thread(workers=1)
        assert main(["submit", "--url", handle.url, "--shutdown"]) == 0
        assert handle.join(timeout=60)

    def test_submit_connection_refused_is_reported(self, capsys):
        from repro.cli import main

        code = main(
            ["submit", "--url", "http://127.0.0.1:9", "--design", "intdiv"]
        )
        assert code == 2
        assert "cannot reach server" in capsys.readouterr().err
