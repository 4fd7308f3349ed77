"""Content-addressed result cache for design space exploration.

Exploration sweeps re-run the same flow configurations over and over —
across engine invocations, across benchmark runs, across CLI sessions and
(since the job server exists) across concurrent service clients.  The
:class:`ResultCache` persists every :class:`~repro.core.cost.CostReport`
keyed by a digest of *what was actually computed*:

* the Verilog source of the design instance (not just its name, so editing
  a design generator invalidates its entries),
* the run's last prefix key (:meth:`repro.core.flow.Flow.prefix_keys`),
  which digests the design name, the bit-width and every stage's body,
  declared defaults and resolved parameter values, so configurations that
  spell a default out or leave it unset share one entry, and changing a
  default changes the key,
* the flow name and the cost model,
* a cache-format version (bumped whenever report semantics change).

A run whose last prefix key is ``None`` (a parameter value whose ``repr``
does not identify it, such as a pre-built pipeline) has no key and is
never cached.

Each entry is one small JSON file under the cache directory, so the cache
is trivially inspectable, survives crashes entry-by-entry, and can be
shared between processes without locking (writes go through a temp file +
atomic rename).  A corrupt or truncated entry file is treated exactly like
a missing one — :meth:`ResultCache.get` and ``in`` agree — and is unlinked
on first access so it stops occupying an entry slot.

With ``max_entries`` set the cache is bounded: after every write the
oldest entries (least-recently-used, measured by file mtime — a cache hit
refreshes the entry's mtime) are evicted until the bound holds, and the
instance counts ``hits`` / ``misses`` / ``evictions`` for the service's
metrics endpoint.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.core.cost import CostReport

__all__ = ["ResultCache", "cache_key", "CACHE_FORMAT_VERSION"]

#: Bump to invalidate all existing cache entries when the meaning of a
#: report (or of a flow) changes incompatibly.  Version 6: the ``lut``
#: flow gained the SAT-backed ``strategy=exact`` pebbling and
#: ``lut_synth=exact`` synthesis (plus the ``exact_time_budget`` parameter
#: and ``pebble_engine`` / ``pebble_optimal`` metrics), so old entries
#: must not shadow runs of the new engines.  Version 7: parameter
#: canonicalisation became recursive and order-insensitive (dict- and
#: list-valued parameters previously hashed by ``repr`` insertion order),
#: so every key of a parameterised configuration potentially changed.
#: Version 8: ``lut_synth=exact`` covers became T-cost-optimal (INTDIV(8)
#: ``lut`` with exact pebbling at half the LUT count: 23302 -> 23176 T),
#: so version-7 entries would serve the dearer circuits.  Version 9: the
#: ``hierarchical`` flow became the shared pebble game, which replays
#: uncompute blocks in reverse (NEWTON(3) Bennett rtof T-depth 903 -> 901;
#: ``rev_opt`` now cancels per-output recomputation).  Version 10: the
#: SAT-backed ``strategy=exact`` pebbling, its ``exact_time_budget``
#: parameter and its ``pebble_engine`` / ``pebble_optimal`` metrics were
#: removed, so the ``lut`` pebble stage lost a declared default and every
#: ``lut`` prefix key moved.  Version 11: transformation-based synthesis
#: works on the embedding's care rows only (INTDIV(8) ``symbolic``:
#: 4,919,822 -> 20,478 T), so version-10 entries would serve the dearer
#: circuits.  Version 12: the symbolic ``collapse`` stage simulates the AIG
#: instead of building BDDs, and reports no ``bdd_nodes`` metric; a
#: version-11 entry would still carry it.  Version 13: the ``symbolic`` and
#: ``esop`` flows run no AIG optimisation (no ``opt_pipeline`` /
#: ``opt_gates`` metrics), and every report carries ``verify_complete`` and
#: ``verify_patterns``, which a version-12 entry lacks.
CACHE_FORMAT_VERSION = 13


def cache_key(
    source: str, flow: str, prefix_key: str, cost_model: str = "rtof"
) -> str:
    """Content-addressed key of one flow execution.

    ``source`` is the Verilog text of the design instance and
    ``prefix_key`` the run's last prefix key
    (:meth:`repro.core.flow.Flow.prefix_keys`), which digests the design
    name and bit-width and, for every stage, its body, declared defaults
    and resolved parameter values (``verify`` included).  A cached
    :class:`CostReport` also carries the flow name and cost model, so both
    are addressed too.
    """
    payload = json.dumps(
        {
            "version": CACHE_FORMAT_VERSION,
            "source": source,
            "flow": flow,
            "prefix_key": prefix_key,
            "cost_model": cost_model,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """Persistent store of flow results, one JSON file per entry.

    ``max_entries`` bounds the cache: after every :meth:`put` the
    least-recently-used entries (by file mtime; hits refresh it) are
    unlinked until at most ``max_entries`` remain.  The instance counts
    ``hits`` / ``misses`` / ``evictions``; all counters are thread-safe,
    and the file operations tolerate concurrent readers/writers/evictors
    in other processes (atomic renames, unlink races ignored).
    """

    def __init__(self, directory, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _load(self, key: str) -> Tuple[Optional[CostReport], bool]:
        """``(report, corrupt)`` — the entry, or why there is none.

        ``corrupt`` is ``True`` when an entry file exists but cannot be
        decoded into a report (truncated write, foreign file); both
        :meth:`get` and :meth:`__contains__` build on this, so membership
        and retrieval can never disagree.
        """
        path = self._path(key)
        try:
            text = path.read_text()
        except OSError:
            return None, False
        try:
            data = json.loads(text)
            report = CostReport.from_dict(data["report"])
        except (ValueError, KeyError, TypeError):
            return None, True
        return report, False

    def get(self, key: str) -> Optional[CostReport]:
        """The cached report for ``key``, or ``None`` (counting hit/miss).

        A corrupt entry file counts as a miss and is unlinked, so it
        neither satisfies later ``in`` checks nor occupies an entry slot
        (``len``/eviction) forever.
        """
        report, corrupt = self._load(key)
        if report is None:
            if corrupt:
                try:
                    os.unlink(self._path(key))
                except OSError:
                    pass
            with self._lock:
                self.misses += 1
            return None
        try:
            # Refresh the entry's recency so bounded caches evict true LRU
            # order, not insertion order.
            os.utime(self._path(key))
        except OSError:
            pass
        with self._lock:
            self.hits += 1
        return report

    def put(self, key: str, report: CostReport, **metadata: Any) -> None:
        """Persist a report under ``key`` (atomic write), then evict."""
        entry = {
            "key": key,
            "version": CACHE_FORMAT_VERSION,
            "created": time.time(),
            "report": report.to_dict(),
        }
        if metadata:
            entry["metadata"] = metadata
        fd, tmp_name = tempfile.mkstemp(
            prefix=".cache-", suffix=".tmp", dir=self.directory
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle)
            os.replace(tmp_name, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        if self.max_entries is not None:
            self._evict(keep=key)

    def _evict(self, keep: Optional[str] = None) -> None:
        """Unlink least-recently-used entries until ``max_entries`` holds.

        The just-written ``keep`` entry is never evicted even if a clock
        skew makes it look old.  Unlink races with other processes are
        benign: whoever loses the race simply does not count the eviction.
        """
        entries = []
        for path in self.directory.glob("*.json"):
            try:
                entries.append((path.stat().st_mtime, path))
            except OSError:
                continue  # concurrently evicted
        excess = len(entries) - (self.max_entries or 0)
        if excess <= 0:
            return
        entries.sort(key=lambda item: item[0])
        protected = None if keep is None else self._path(keep)
        for _, path in entries:
            if excess <= 0:
                break
            if protected is not None and path == protected:
                continue
            try:
                path.unlink()
            except OSError:
                excess -= 1  # someone else removed it; the bound still shrank
                continue
            with self._lock:
                self.evictions += 1
            excess -= 1

    def __contains__(self, key: str) -> bool:
        """Whether :meth:`get` would return a report (no counter effect)."""
        report, _ = self._load(key)
        return report is not None

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed."""
        removed = 0
        for path in self.directory.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def counters(self) -> Dict[str, Any]:
        """All counters plus the current entry count and hit rate."""
        with self._lock:
            hits, misses, evictions = self.hits, self.misses, self.evictions
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "entries": len(self),
            "max_entries": self.max_entries,
            "hit_rate": (hits / total) if total else None,
        }
