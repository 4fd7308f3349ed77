"""Unit tests for the hardened result cache (repro.core.cache).

Pins the three correctness properties the job server depends on:

* a run's cache key is derived from its last prefix key, so parameter
  spellings of one configuration (pair order, duplicates, a default spelt
  out) share one entry while distinct values never collide,
* membership and retrieval agree for corrupt entries, which are unlinked
  on first access (regression: ``in`` said yes, ``get`` said no, and the
  dead file counted toward ``len``/eviction forever),
* the bounded cache evicts true-LRU under concurrent multi-thread and
  multi-process access without ever surfacing a partial entry.
"""

import hashlib
import json
import multiprocessing
import threading

import pytest

import repro.core.cache as cache_module
from repro.core.cache import CACHE_FORMAT_VERSION, ResultCache, cache_key
from repro.core.cost import CostReport
from repro.core.explorer import (
    ExplorationEngine,
    ExplorationTask,
    FlowConfiguration,
    _prefix_keys,
    build_sweep,
)
from repro.logic.exact_esop import exact_esop_cubes
from repro.opt import as_pipeline
from repro.quantum.tcount import mct_t_count


def pinned_results_digest():
    """SHA-256 over the golden reports and the exact-ESOP cover costs."""
    from test_exact_lut_synth import INTDIV8_COSTS
    from test_golden_costs import GOLDEN_COSTS, GOLDEN_RTOF_RESOURCES

    exact_costs = [
        [
            sum(
                mct_t_count(cube.num_literals())
                for cube in exact_esop_cubes(truth, num_vars)
            )
            for truth in range(1 << (1 << num_vars))
        ]
        for num_vars in range(4)
    ]
    pinned = {
        "golden_costs": GOLDEN_COSTS,
        "golden_rtof_resources": GOLDEN_RTOF_RESOURCES,
        "intdiv8_costs": sorted(
            [*key, cost] for key, cost in INTDIV8_COSTS.items()
        ),
        "exact_costs": exact_costs,
    }
    text = json.dumps(pinned, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def hits_and_misses(cache):
    counters = cache.counters()
    return counters["hits"], counters["misses"]


def make_report(flow="esop", qubits=8, t_count=100):
    return CostReport("intdiv", flow, 4, qubits, t_count, 10, 3, 0.5)


SOURCE = "module m; endmodule"


def key_of(
    parameters,
    flow="lut",
    design="intdiv",
    bitwidth=4,
    source=SOURCE,
    verify=True,
    cost_model="rtof",
):
    """The cache key the engine gives one configuration of one design instance."""
    if isinstance(parameters, dict):
        parameters = parameters.items()
    engine = ExplorationEngine(verify=verify, cost_model=cost_model)
    task = ExplorationTask(design, bitwidth, FlowConfiguration(flow, tuple(parameters)))
    chain = _prefix_keys(engine._task_spec(0, task), {})
    return cache_key(source, flow, chain[-1], cost_model)


class TestCanonicalisation:
    def test_pair_order_is_ignored(self):
        key = key_of([("strategy", "eager"), ("k", 3)])
        assert key == key_of([("k", 3), ("strategy", "eager")])
        assert key == key_of({"strategy": "eager", "k": 3})

    def test_duplicate_pair_later_wins_like_dict(self):
        assert key_of([("k", 3), ("k", 5)]) == key_of({"k": 5})

    def test_declared_defaults_share_one_key(self):
        # Regression: the key hashed the raw parameter dict, so a sweep that
        # spelt a default out computed and stored the configuration twice.
        base = key_of({})
        assert key_of({"k": 4}) == base
        assert key_of({"strategy": "bennett", "lut_synth": "esop"}) == base
        assert key_of({"k": 3}) != base

    def test_list_order_is_semantic(self):
        assert key_of({"opt": ["b", "rw"]}) != key_of({"opt": ["rw", "b"]})

    def test_scalar_types_stay_distinct(self):
        keys = {
            key_of({"max_pebbles": value}) for value in (1, 1.0, True, "1", None)
        }
        assert len(keys) == 5

    def test_key_depends_on_every_addressed_field(self):
        base = key_of({})
        assert key_of({}, flow="esop") != base
        assert key_of({}, bitwidth=5) != base
        assert key_of({}, design="newton") != base
        assert key_of({}, source="module n; endmodule") != base
        assert key_of({}, cost_model="tpar") != base
        assert key_of({}, verify=False) != base

    def test_verify_spellings_alias(self):
        assert key_of({}, verify=True) == key_of({}, verify="auto")
        assert key_of({}, verify=False) == key_of({}, verify="off")

    def test_non_plain_value_runs_uncached(self, tmp_path):
        # A pre-built pipeline has no identifying repr: no prefix key, so
        # the run computes its report but never stores one.
        opt = as_pipeline("b;rw")
        configuration = FlowConfiguration("hierarchical", (("opt", opt),))
        tasks = build_sweep("intdiv", 3, [configuration])
        for _ in range(2):
            engine = ExplorationEngine(cache=str(tmp_path), verify=False)
            (outcome,) = engine.run(tasks)
            assert outcome.ok and not outcome.cached
            assert (engine.executed, engine.cache_hits) == (1, 0)
        assert len(ResultCache(tmp_path)) == 0

    def test_pinned_results_move_only_with_the_format_version(self):
        # A cache serves reports computed by older code, so any change to a
        # pinned result must come with a CACHE_FORMAT_VERSION bump: update
        # both halves of this pair together.
        assert (CACHE_FORMAT_VERSION, pinned_results_digest()) == (
            13,
            "2a74299927b928d2e27cef59bc232e66a05022575d2341f90bd638ca5e955557",
        )

    def test_entry_of_the_previous_format_version_is_a_miss(
        self, tmp_path, monkeypatch
    ):
        # Prefix keys name stage bodies but do not hash them: the version is
        # what keeps an entry computed by an older stage body from serving.
        key = key_of({}, flow="symbolic")
        monkeypatch.setattr(
            cache_module, "CACHE_FORMAT_VERSION", CACHE_FORMAT_VERSION - 1
        )
        old_key = key_of({}, flow="symbolic")
        ResultCache(tmp_path).put(old_key, make_report(flow="symbolic"))
        monkeypatch.undo()
        cache = ResultCache(tmp_path)
        assert old_key != key and old_key in cache
        assert cache.get(key) is None
        assert hits_and_misses(cache) == (0, 1)


class TestCorruptEntries:
    def test_contains_get_len_agree_on_corrupt_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("good", make_report())
        (tmp_path / "bad.json").write_text("{not json")
        (tmp_path / "worse.json").write_text(json.dumps({"report": {"x": 1}}))
        # Regression: __contains__ returned True for entries get() failed
        # on, and the corrupt file kept counting toward len() forever.
        assert "bad" not in cache
        assert "worse" not in cache
        assert "good" in cache
        assert cache.get("bad") is None
        assert cache.get("worse") is None
        assert not (tmp_path / "bad.json").exists()
        assert not (tmp_path / "worse.json").exists()
        assert len(cache) == 1
        assert cache.clear() == 1

    def test_corrupt_entry_counts_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "bad.json").write_text("][")
        assert cache.get("bad") is None
        assert hits_and_misses(cache) == (0, 1)

    def test_missing_entry_is_plain_miss_without_unlink_attempt(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("absent") is None
        assert "absent" not in cache
        assert hits_and_misses(cache) == (0, 1)

    def test_roundtrip_preserves_report(self, tmp_path):
        cache = ResultCache(tmp_path)
        report = CostReport(
            "intdiv", "lut", 4, 8, 100, 10, 3, 0.5,
            verified=True, t_depth=7, extra={"pebble_steps": 12.0},
        )
        cache.put("k", report, note="bench")
        assert cache.get("k") == report
        assert hits_and_misses(cache) == (1, 0)


class TestBoundedCache:
    def test_max_entries_validation(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path, max_entries=0)

    def test_eviction_is_lru_and_hits_refresh_recency(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        now = 1_000_000_000
        cache.put("a", make_report())
        os_utime(tmp_path / "a.json", now)
        cache.put("b", make_report())
        os_utime(tmp_path / "b.json", now + 10)
        # Touch "a" so "b" becomes the LRU victim.
        assert cache.get("a") is not None
        os_utime(tmp_path / "a.json", now + 20)
        cache.put("c", make_report())
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_just_written_entry_never_evicted(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=1)
        cache.put("old", make_report())
        # Make the new entry look ancient; the keep-guard must still win.
        cache.put("new", make_report())
        os_utime(tmp_path / "new.json", 0)
        cache.put("new", make_report())
        assert "new" in cache
        assert len(cache) == 1

    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(10):
            cache.put(f"k{index}", make_report())
        assert len(cache) == 10
        assert cache.evictions == 0

    def test_counters_snapshot(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=8)
        cache.put("k", make_report())
        cache.get("k")
        cache.get("absent")
        counters = cache.counters()
        assert counters == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "entries": 1,
            "max_entries": 8,
            "hit_rate": 0.5,
        }

    def test_hit_rate_none_before_any_access(self, tmp_path):
        assert ResultCache(tmp_path).counters()["hit_rate"] is None


def os_utime(path, timestamp):
    import os

    os.utime(path, (timestamp, timestamp))


def _process_worker(directory, key, rounds, barrier, failures):
    """Hammer one shared key: read, rewrite, evict — from a subprocess."""
    try:
        cache = ResultCache(directory, max_entries=4)
        barrier.wait(timeout=30)
        for round_index in range(rounds):
            cache.put(key, make_report(t_count=round_index))
            cache.put(f"filler-{key}-{round_index % 6}", make_report())
            report = cache.get(key)
            # The shared key may have been evicted by a sibling, but a
            # returned report must never be partial/corrupt.
            if report is not None and report.design != "intdiv":
                failures.put(f"partial entry observed: {report!r}")
    except Exception as exc:  # pragma: no cover - failure reporting
        failures.put(f"{type(exc).__name__}: {exc}")


class TestConcurrency:
    def test_threads_share_one_key_without_partial_reads(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=3)
        stop = threading.Event()
        errors = []

        def writer(seed):
            index = 0
            while not stop.is_set():
                cache.put("shared", make_report(t_count=seed * 1000 + index))
                cache.put(f"filler-{seed}-{index % 4}", make_report())
                index += 1

        def reader():
            while not stop.is_set():
                try:
                    report = cache.get("shared")
                except Exception as exc:  # noqa: BLE001 - recorded below
                    errors.append(exc)
                    return
                if report is not None and report.flow != "esop":
                    errors.append(AssertionError(repr(report)))
                    return

        threads = [threading.Thread(target=writer, args=(seed,)) for seed in (1, 2)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        threading.Event().wait(0.5)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors
        # Eviction kept the bound (the in-flight writes allow tiny overshoot
        # only between put() and its _evict(); at rest the bound holds).
        cache.put("final", make_report())
        assert len(cache) <= 3

    def test_processes_share_directory_and_evict_racefully(self, tmp_path):
        context = multiprocessing.get_context("spawn")
        failures = context.Queue()
        barrier = context.Barrier(3)
        workers = [
            context.Process(
                target=_process_worker,
                args=(str(tmp_path), "shared", 25, barrier, failures),
            )
            for _ in range(3)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        assert failures.empty(), failures.get()
        # Every process enforced max_entries=4; after the dust settles a
        # single put restores the bound regardless of interleaving.
        cache = ResultCache(tmp_path, max_entries=4)
        cache.put("settle", make_report())
        assert len(cache) <= 4
        assert cache.get("settle") is not None
