"""Content-addressed result cache with LRU eviction and disk persistence.

Keys are the :meth:`DetectionRequest.cache_key` digests — (graph
fingerprint, canonical config hash, execution shape) — so two requests
asking for the same detection map to the same entry regardless of who
submits them or in what order the config fields were spelled.

Two tiers:

* **memory** — an LRU of full :class:`~repro.core.result.LouvainResult`
  objects (iteration series, trace and all), bounded by ``capacity``;
* **disk** (optional) — every stored result is also persisted through
  :mod:`repro.core.resultio` (atomic ``.npz`` writes), so a restarted
  service warms up from previous runs.  Disk entries reload the
  assignment, modularity, per-phase stats and elapsed time — the
  durable parts of a result; per-iteration diagnostics and the trace
  live only in the memory tier.  ``disk_capacity`` bounds the tier:
  once exceeded, the least-recently-used entries (by access stamp —
  both stores and disk hits refresh it) are deleted.

Hits served from either tier are *copies*: callers may mutate what they
get back without corrupting the cache.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict

from ..core.result import LouvainResult
from ..core.resultio import load_result, save_result


class ResultStore:
    """Thread-safe two-tier (memory LRU + optional disk) result cache."""

    def __init__(
        self,
        capacity: int = 128,
        directory: str | os.PathLike | None = None,
        disk_capacity: int | None = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.directory = os.fspath(directory) if directory is not None else None
        if disk_capacity is not None:
            if self.directory is None:
                raise ValueError("disk_capacity requires a directory")
            if disk_capacity < 1:
                raise ValueError(
                    f"disk_capacity must be >= 1, got {disk_capacity}"
                )
        self.disk_capacity = disk_capacity
        self._lock = threading.Lock()
        self._memory: OrderedDict[str, LouvainResult] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_evictions = 0
        #: Strictly increasing mtime stamp (ns) — breaks ties between
        #: accesses landing in the same clock tick so disk-LRU order is
        #: total and deterministic.
        self._last_stamp_ns = 0

    # ------------------------------------------------------------------
    def _disk_path(self, key: str) -> str | None:
        if self.directory is None:
            return None
        return os.path.join(self.directory, f"{key}.npz")

    def get(self, key: str) -> LouvainResult | None:
        """Cached result for ``key`` (a copy), or ``None`` on miss.

        A memory hit refreshes the entry's LRU position; a disk hit
        promotes the reloaded result into the memory tier.
        """
        with self._lock:
            result = self._memory.get(key)
            if result is not None:
                self._memory.move_to_end(key)
                self.hits += 1
                return result.copy()
        path = self._disk_path(key)
        if path is not None and os.path.exists(path):
            result = load_result(path)
            with self._lock:
                self.hits += 1
                self._insert_locked(key, result)
                self._touch_locked(path)
            return result.copy()
        with self._lock:
            self.misses += 1
        return None

    def put(self, key: str, result: LouvainResult) -> None:
        """Store a result under its content key (memory + disk tiers)."""
        result = result.copy()
        path = self._disk_path(key)
        if path is not None:
            os.makedirs(self.directory, exist_ok=True)  # type: ignore[arg-type]
            save_result(path, result)
        with self._lock:
            self._insert_locked(key, result)
            if path is not None:
                self._touch_locked(path)
                self._evict_disk_locked()

    def _insert_locked(self, key: str, result: LouvainResult) -> None:
        self._memory[key] = result
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self.evictions += 1

    def _touch_locked(self, path: str) -> None:
        """Stamp ``path`` as just-used with a strictly increasing mtime."""
        stamp = max(time.time_ns(), self._last_stamp_ns + 1)
        self._last_stamp_ns = stamp
        try:
            os.utime(path, ns=(stamp, stamp))
        except FileNotFoundError:
            pass

    def _disk_entries_locked(self) -> list[os.DirEntry]:
        """Disk-tier entries, least- to most-recently used."""
        if self.directory is None:
            return []
        try:
            entries = [
                e for e in os.scandir(self.directory)
                if e.name.endswith(".npz")
            ]
        except FileNotFoundError:
            return []
        entries.sort(key=lambda e: (e.stat().st_mtime_ns, e.name))
        return entries

    def _evict_disk_locked(self) -> None:
        if self.disk_capacity is None:
            return
        entries = self._disk_entries_locked()
        excess = len(entries) - self.disk_capacity
        for entry in entries[:max(excess, 0)]:
            try:
                os.unlink(entry.path)
            except FileNotFoundError:
                continue
            self.disk_evictions += 1

    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._memory:
                return True
        path = self._disk_path(key)
        return path is not None and os.path.exists(path)

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def keys(self) -> list[str]:
        """Memory-tier keys, least- to most-recently used."""
        with self._lock:
            return list(self._memory)

    def disk_keys(self) -> list[str]:
        """Disk-tier keys, least- to most-recently used."""
        with self._lock:
            return [
                e.name[: -len(".npz")] for e in self._disk_entries_locked()
            ]

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._memory),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "directory": self.directory,
                "disk_entries": len(self._disk_entries_locked()),
                "disk_capacity": self.disk_capacity,
                "disk_evictions": self.disk_evictions,
            }
