"""Persistent tuning database: fingerprint-keyed, JSON, atomic writes.

Tuning is expensive (dozens of measured trials) and graph-specific, so
its product — a planned ``(LouvainConfig, ranks)`` pair with the
evidence behind it — is persisted and reused:

* **exact hit** — a graph whose :meth:`CSRGraph.fingerprint` is already
  in the DB gets its planned config back instantly, no trials;
* **nearest-neighbour fallback** — an unseen graph is served the plan
  of the closest previously-tuned graph in feature space
  (:func:`repro.tune.features.feature_distance`), when one is within
  ``max_distance``.  Structure, not identity, is what the plan actually
  depends on, so a near neighbour's plan transfers.

The on-disk format is a single versioned JSON document.  Writes go
through the same temp-file + atomic-rename discipline as
:mod:`repro.core.resultio`, so a crash mid-save never corrupts the DB,
and the file is human-diffable (sorted keys) for review.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Mapping

from ..core.config import LouvainConfig
from .features import GraphFeatures, feature_distance

#: On-disk document version; bump on incompatible layout changes.
#: v2: configs lost two fields and the feature vector a dimension, so
#: v1 plans and nearest-neighbour distances do not carry over.
#: v3: configs lost the ghost-transport switch; v2 plans name it.
#: v4: configs lost the owner-push switch; v3 plans name it.
#: v5: a sweep round is three exchanges and an iteration one allreduce;
#: v4 records hold seconds (predicted, measured, per trial) of the old
#: schedule, which must not be ranked against new ones.
#: v6: a run gathers its small tail phases to rank 0 once that is
#: cheaper; v5 seconds were measured and predicted without the gather.
DB_FORMAT_VERSION = 6

#: Default feature-space radius inside which a neighbour's plan is
#: considered transferable.  Vector axes are normalised to ~unit scale
#: (see :meth:`GraphFeatures.vector`), so 0.75 means "same size class
#: and broadly similar shape".
DEFAULT_NEAREST_DISTANCE = 0.75


@dataclass(frozen=True)
class TuningRecord:
    """Everything one tuning run learned about one graph."""

    fingerprint: str
    features: GraphFeatures
    config: LouvainConfig
    ranks: int
    #: Cost-model estimate for the winning candidate.
    predicted_seconds: float
    #: Measured (modelled) full-run seconds of the winning candidate.
    measured_seconds: float
    #: Paper-default baseline: full-run seconds and modularity.
    baseline_seconds: float
    baseline_modularity: float
    tuned_modularity: float
    #: Quality guard: the tuned config must reach at least
    #: ``baseline_modularity - quality_tolerance``.
    quality_tolerance: float
    quality_guard_passed: bool
    #: Search reproducibility inputs.
    tuner_seed: int
    machine: str
    #: Deterministic trial schedule: (rung, candidate key, phase cap).
    schedule: tuple[dict[str, Any], ...] = ()
    #: Full trial log: per-run measured seconds and modularity.
    trials: tuple[dict[str, Any], ...] = ()
    #: Quality/speed Pareto frontier over the full-fidelity runs
    #: (baseline + finalists): sorted by modelled seconds ascending,
    #: each point strictly higher modularity than the one before it.
    #: Points are ``{candidate, describe, elapsed, modularity}`` dicts.
    frontier: tuple[dict[str, Any], ...] = ()
    #: Total modelled seconds spent on measured trials (tuning cost).
    tune_seconds: float = 0.0
    #: Unix timestamp of when the record was created.
    created: float = 0.0
    #: Unix timestamp of the last lookup that served this record
    #: (exact or nearest hit); drives LRU eviction.  0.0 = never used
    #: since creation, in which case ``created`` stands in.
    last_used: float = 0.0
    #: Where the plan came from ("search"; responses served via the
    #: nearest-neighbour path tag the donor fingerprint).
    source: str = "search"
    #: Serving feedback (the obs drift loop, ROADMAP item 3): jobs the
    #: engine served with this plan, their total measured (modelled)
    #: seconds, and the drift monitor's latest smoothed
    #: measured/predicted ratio.  All written back by the engine after
    #: each served job; absent in pre-drift records.
    served_jobs: int = 0
    served_seconds_total: float = 0.0
    drift_ratio: float = 1.0

    @property
    def speedup(self) -> float:
        """Baseline-over-tuned modelled-time ratio (> 1 is a win)."""
        if self.measured_seconds <= 0:
            return float("inf")
        return self.baseline_seconds / self.measured_seconds

    def to_dict(self) -> dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "features": self.features.to_dict(),
            "config": self.config.to_dict(),
            "ranks": self.ranks,
            "predicted_seconds": self.predicted_seconds,
            "measured_seconds": self.measured_seconds,
            "baseline_seconds": self.baseline_seconds,
            "baseline_modularity": self.baseline_modularity,
            "tuned_modularity": self.tuned_modularity,
            "quality_tolerance": self.quality_tolerance,
            "quality_guard_passed": self.quality_guard_passed,
            "tuner_seed": self.tuner_seed,
            "machine": self.machine,
            "schedule": list(self.schedule),
            "trials": list(self.trials),
            "frontier": list(self.frontier),
            "tune_seconds": self.tune_seconds,
            "created": self.created,
            "last_used": self.last_used,
            "source": self.source,
            "served_jobs": self.served_jobs,
            "served_seconds_total": self.served_seconds_total,
            "drift_ratio": self.drift_ratio,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TuningRecord":
        return cls(
            fingerprint=str(data["fingerprint"]),
            features=GraphFeatures.from_dict(data["features"]),
            config=LouvainConfig.from_dict(dict(data["config"])),
            ranks=int(data["ranks"]),
            predicted_seconds=float(data["predicted_seconds"]),
            measured_seconds=float(data["measured_seconds"]),
            baseline_seconds=float(data["baseline_seconds"]),
            baseline_modularity=float(data["baseline_modularity"]),
            tuned_modularity=float(data["tuned_modularity"]),
            quality_tolerance=float(data["quality_tolerance"]),
            quality_guard_passed=bool(data["quality_guard_passed"]),
            tuner_seed=int(data["tuner_seed"]),
            machine=str(data["machine"]),
            schedule=tuple(data.get("schedule", ())),
            trials=tuple(data.get("trials", ())),
            # Pre-frontier records load with an empty frontier.
            frontier=tuple(data.get("frontier", ())),
            tune_seconds=float(data.get("tune_seconds", 0.0)),
            created=float(data.get("created", 0.0)),
            last_used=float(data.get("last_used", 0.0)),
            source=str(data.get("source", "search")),
            served_jobs=int(data.get("served_jobs", 0)),
            served_seconds_total=float(data.get("served_seconds_total", 0.0)),
            drift_ratio=float(data.get("drift_ratio", 1.0)),
        )

    def summary(self) -> str:
        guard = "ok" if self.quality_guard_passed else "FAILED->baseline"
        return (
            f"plan {self.config.label()} x{self.ranks}: "
            f"{self.measured_seconds:.4f}s vs baseline "
            f"{self.baseline_seconds:.4f}s ({self.speedup:.2f}x), "
            f"Q={self.tuned_modularity:.4f} vs {self.baseline_modularity:.4f} "
            f"[guard {guard}]"
        )


@dataclass
class _NearestHit:
    """A nearest-neighbour lookup result with its distance."""

    record: TuningRecord
    distance: float


class TuningDB:
    """Thread-safe fingerprint-keyed store of :class:`TuningRecord` s.

    ``path=None`` gives an in-memory DB (tests, throwaway engines);
    with a path, the constructor loads any existing file and every
    :meth:`put` persists atomically.

    Hygiene: a long-lived serving deployment shares one DB across
    shards and tunes every graph it ever sees, so the DB is bounded:

    * ``max_entries`` — size cap; beyond it, least-recently-*used*
      records (``last_used``, falling back to ``created``) are evicted;
    * ``max_age_seconds`` — records whose last use is older than this
      are dropped regardless of the cap (stale plans for graphs nobody
      serves anymore).

    GC runs on load and on every :meth:`put`; the pruned document is
    rewritten with the same temp-file + atomic-rename discipline as
    ordinary saves, so a crash mid-GC never corrupts the DB.  Lookups
    (:meth:`get` / :meth:`nearest` hits) stamp ``last_used`` in memory;
    the stamps persist with the next write rather than on every read.
    """

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        *,
        max_entries: int | None = None,
        max_age_seconds: float | None = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_age_seconds is not None and max_age_seconds <= 0:
            raise ValueError(
                f"max_age_seconds must be > 0, got {max_age_seconds}"
            )
        self.path = os.fspath(path) if path is not None else None
        self.max_entries = max_entries
        self.max_age_seconds = max_age_seconds
        #: Records dropped by GC over this instance's lifetime.
        self.gc_evictions = 0
        self._lock = threading.Lock()
        self._entries: dict[str, TuningRecord] = {}
        if self.path is not None and os.path.exists(self.path):
            self._entries = _read_file(self.path)
            with self._lock:
                if self._gc_locked() and self.path is not None:
                    _write_file(self.path, self._entries)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._entries

    def fingerprints(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def get(self, fingerprint: str) -> TuningRecord | None:
        """Exact-fingerprint lookup (stamps ``last_used`` on a hit)."""
        with self._lock:
            record = self._entries.get(fingerprint)
            if record is not None:
                record = self._touch_locked(record)
            return record

    def put(self, record: TuningRecord) -> None:
        """Insert/replace a record, GC, and persist (when file-backed)."""
        if not record.created:
            record = _stamp_created(record)
        with self._lock:
            self._entries[record.fingerprint] = record
            self._gc_locked()
            if self.path is not None:
                _write_file(self.path, self._entries)

    def gc(self) -> int:
        """Apply the size cap and age limit now; returns records dropped.

        Persists the pruned document when file-backed (atomic rewrite),
        also flushing any in-memory ``last_used`` stamps.
        """
        with self._lock:
            dropped = self._gc_locked()
            if self.path is not None:
                _write_file(self.path, self._entries)
            return dropped

    def _touch_locked(self, record: TuningRecord) -> TuningRecord:
        import dataclasses

        record = dataclasses.replace(record, last_used=time.time())
        self._entries[record.fingerprint] = record
        return record

    def _gc_locked(self) -> int:
        """Prune by age then by LRU size cap; returns records dropped."""
        dropped = 0
        if self.max_age_seconds is not None:
            cutoff = time.time() - self.max_age_seconds
            stale = [
                fp
                for fp, rec in self._entries.items()
                if (rec.last_used or rec.created) < cutoff
            ]
            for fp in stale:
                del self._entries[fp]
            dropped += len(stale)
        if (
            self.max_entries is not None
            and len(self._entries) > self.max_entries
        ):
            # Oldest last-use first; fingerprint breaks ties so the
            # eviction order is deterministic.
            victims = sorted(
                self._entries.values(),
                key=lambda r: ((r.last_used or r.created), r.fingerprint),
            )[: len(self._entries) - self.max_entries]
            for rec in victims:
                del self._entries[rec.fingerprint]
            dropped += len(victims)
        self.gc_evictions += dropped
        return dropped

    def save(self, path: str | os.PathLike | None = None) -> str:
        """Persist to ``path`` (default: the DB's own path)."""
        target = os.fspath(path) if path is not None else self.path
        if target is None:
            raise ValueError("in-memory TuningDB has no path to save to")
        with self._lock:
            _write_file(target, self._entries)
        return target

    # ------------------------------------------------------------------
    def nearest(
        self,
        features: GraphFeatures,
        max_distance: float = DEFAULT_NEAREST_DISTANCE,
    ) -> _NearestHit | None:
        """Closest tuned graph in feature space, within ``max_distance``.

        Ties break on fingerprint so lookups are deterministic.
        """
        with self._lock:
            entries = list(self._entries.values())
        best: _NearestHit | None = None
        for rec in sorted(entries, key=lambda r: r.fingerprint):
            d = feature_distance(features, rec.features)
            if d <= max_distance and (best is None or d < best.distance):
                best = _NearestHit(record=rec, distance=d)
        if best is not None:
            with self._lock:
                # The donor may have been evicted concurrently; only a
                # still-present record gets its LRU stamp refreshed.
                if best.record.fingerprint in self._entries:
                    best = _NearestHit(
                        record=self._touch_locked(best.record),
                        distance=best.distance,
                    )
        return best


def _stamp_created(record: TuningRecord) -> TuningRecord:
    import dataclasses

    return dataclasses.replace(record, created=time.time())


def _read_file(path: str) -> dict[str, TuningRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a valid tuning DB: {exc}") from exc
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ValueError(f"{path}: not a tuning DB document")
    version = doc.get("version", 0)
    if version != DB_FORMAT_VERSION:
        raise ValueError(
            f"{path}: tuning DB version {version} not supported "
            f"(this build reads {DB_FORMAT_VERSION})"
        )
    out: dict[str, TuningRecord] = {}
    for fp, entry in doc["entries"].items():
        try:
            out[fp] = TuningRecord.from_dict(entry)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: entry {fp}: {exc}") from exc
    return out


def _write_file(path: str, entries: Mapping[str, TuningRecord]) -> None:
    doc = {
        "version": DB_FORMAT_VERSION,
        "entries": {
            fp: rec.to_dict() for fp, rec in sorted(entries.items())
        },
    }
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".json.tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
