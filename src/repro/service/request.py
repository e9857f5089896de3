"""Typed request/response pair: the one way into the detection engine.

A :class:`DetectionRequest` captures *everything* a detection needs —
input graph (in memory or on disk), algorithm config, world size,
machine model, service-level knobs (priority, timeout, retries) — so
the three historical entry points (``run_louvain``,
``distributed_louvain(resume=...)``, ``incremental_louvain``) collapse
into one typed surface the scheduler can reason about.  A
:class:`DetectionResponse` is what comes back: terminal job state, the
result (or the failure), and the service-side timings.

Requests are content-addressable: :meth:`DetectionRequest.cache_key`
combines the graph fingerprint with the config's canonical hash so the
result store can serve a repeated submission without recomputing it.
A ``graph_path`` input is keyed by the bytes of its file: a process
loads the file only for a file digest it has not seen before.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

import numpy as np

from ..core.config import LouvainConfig
from ..core.result import LouvainResult
from ..graph.csr import CSRGraph
from ..runtime.perfmodel import CORI_HASWELL, MachineModel

#: Detection modes a request may ask for.
MODES = ("batch", "incremental", "resume")

#: Tuning modes: "off" runs the request's own config verbatim; "auto"
#: lets an engine with a tuning DB substitute the planned
#: (config, ranks) for this graph (see :mod:`repro.tune`).
TUNE_MODES = ("off", "auto")


#: Most file digests :data:`_FILE_FINGERPRINTS` remembers.
_FILE_FINGERPRINTS_CAPACITY = 1024


class _FileFingerprints:
    """Bounded, thread-safe map: SHA-256 of a graph file's bytes -> the
    :meth:`CSRGraph.fingerprint` those bytes load to.

    The same bytes always load to the same CSR, so an entry never goes
    stale; the least recently used one is dropped past ``capacity``.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[str, str] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, file_digest: str) -> str | None:
        with self._lock:
            fingerprint = self._entries.get(file_digest)
            if fingerprint is not None:
                self._entries.move_to_end(file_digest)
            return fingerprint

    def put(self, file_digest: str, fingerprint: str) -> None:
        with self._lock:
            self._entries[file_digest] = fingerprint
            self._entries.move_to_end(file_digest)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)


_FILE_FINGERPRINTS = _FileFingerprints(_FILE_FINGERPRINTS_CAPACITY)


def _file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@lru_cache(maxsize=16)
def _machine_key(machine: MachineModel) -> bytes:
    """The machine model's part of :meth:`DetectionRequest.cache_key`."""
    return json.dumps(dataclasses.asdict(machine), sort_keys=True).encode()


class JobState(enum.Enum):
    """Lifecycle of one job inside the engine.

    ``PENDING -> RUNNING -> DONE | FAILED | CANCELLED``; a PENDING job
    may also go straight to DONE (cache hit) or CANCELLED.
    """

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


@dataclass(frozen=True)
class DetectionRequest:
    """One community-detection job, fully described.

    Exactly one of ``graph`` / ``graph_path`` must be set, except in
    ``mode="resume"`` where the graph slice comes from the checkpoint
    and both may be omitted.

    Service-level fields (``priority``, ``timeout``, ``max_retries``,
    ``use_cache``, ``tag``) steer the engine and never affect the
    detection outcome, so they are outside :meth:`cache_key`.
    """

    #: In-memory input graph (CSR).
    graph: CSRGraph | None = None
    #: Or: path to a binary edge-list file, loaded at execution time.
    graph_path: str | None = None
    config: LouvainConfig = field(default_factory=LouvainConfig)
    nranks: int = 4
    machine: MachineModel = CORI_HASWELL
    partition: str = "even_edge"
    #: "batch" (one-shot), "incremental" (warm-started re-detection from
    #: ``previous_assignment``), or "resume" (continue from the latest
    #: valid checkpoint in ``checkpoint_dir``).
    mode: str = "batch"
    #: Incremental mode: community per old vertex from the previous run.
    previous_assignment: np.ndarray | None = None
    #: Incremental mode: vertex ids to reset to singletons (typically
    #: ``EdgeChurn.touched_vertices()``).
    reset_touched: np.ndarray | None = None
    #: Service-level priority: higher runs first (FIFO within a level).
    priority: int = 0
    #: Wall-clock deadline in seconds for the whole job (attempts are
    #: not retried past it); also caps each blocking runtime op.
    timeout: float | None = None
    #: Transparent retries on rank failure.  Each attempt after the
    #: first resumes from the job's last complete in-memory snapshot
    #: when there is one (from its latest valid checkpoint, for a
    #: request that names a ``checkpoint_dir``).
    max_retries: int = 1
    #: Explicit checkpoint directory (required for ``mode="resume"``;
    #: otherwise optional — without one nothing is written to disk).
    checkpoint_dir: str | None = None
    checkpoint_every: int = 1
    checkpoint_every_iterations: int | None = None
    #: Deterministic fault-injection plan (tests / chaos drills); makes
    #: the request uncacheable.
    fault_plan: Any = None
    #: Serve (and populate) the engine's result store for this request.
    use_cache: bool = True
    #: ``"auto"``: ask the engine to consult its tuning database and
    #: run the *planned* config/rank count for this graph instead of
    #: the ones spelled here (exact fingerprint hit or near neighbour;
    #: on a miss the request runs as written and the engine may launch
    #: a background tune job).  ``"off"``: run exactly what was asked.
    tune: str = "off"
    #: Zoom level of this detection: the resolution parameter gamma,
    #: folded into the effective ``config`` at construction so each
    #: resolution is a distinct cache key / result-store entry.  ``None``
    #: inherits whatever ``config.resolution`` says (so a tuner-planned
    #: or hand-built config is never silently reset to 1.0).
    resolution: float | None = None
    #: Post-phase refinement override ("none" / "leiden"), folded into
    #: the effective ``config`` exactly like ``resolution``.
    refine: str | None = None
    #: Owning tenant in a multi-tenant serving tier (``repro.serving``):
    #: fair-share admission groups jobs by this name.  Service-level
    #: only — never affects the detection outcome or the cache key, so
    #: two tenants asking for the same detection share one cache entry.
    tenant: str = ""
    #: Free-form client label carried through to the response.
    tag: str = ""

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {self.nranks}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        have_graph = self.graph is not None
        have_path = self.graph_path is not None
        if self.mode == "resume":
            if self.checkpoint_dir is None:
                raise ValueError('mode="resume" requires checkpoint_dir')
            if have_graph or have_path:
                raise ValueError(
                    'mode="resume" takes its graph from the checkpoint; '
                    "do not pass graph/graph_path"
                )
        elif have_graph == have_path:
            raise ValueError(
                "exactly one of graph / graph_path must be set "
                f"(got graph={'yes' if have_graph else 'no'}, "
                f"graph_path={'yes' if have_path else 'no'})"
            )
        if self.mode == "incremental" and self.previous_assignment is None:
            raise ValueError(
                'mode="incremental" requires previous_assignment'
            )
        if self.tune not in TUNE_MODES:
            raise ValueError(
                f"tune must be one of {TUNE_MODES}, got {self.tune!r}"
            )
        if self.tune == "auto" and self.mode == "resume":
            raise ValueError(
                'tune="auto" needs an input graph to plan for; '
                'mode="resume" carries none'
            )
        if self.resolution is not None and self.resolution <= 0.0:
            raise ValueError(
                f"resolution must be > 0, got {self.resolution}"
            )
        if self.refine is not None and self.refine not in ("none", "leiden"):
            raise ValueError(
                f"refine must be 'none' or 'leiden', got {self.refine!r}"
            )
        # Fold the request-level zoom knobs into the effective config so
        # everything downstream — cache key, checkpoint manifest, the
        # run itself — sees one consistent LouvainConfig.
        overrides: dict[str, Any] = {}
        if (
            self.resolution is not None
            and self.resolution != self.config.resolution
        ):
            overrides["resolution"] = self.resolution
        if self.refine is not None and self.refine != self.config.refine:
            overrides["refine"] = self.refine
        if overrides:
            object.__setattr__(
                self, "config", dataclasses.replace(self.config, **overrides)
            )

    # ------------------------------------------------------------------
    # Content addressing
    # ------------------------------------------------------------------
    @property
    def cacheable(self) -> bool:
        """Whether this request is deterministic and content-addressable.

        Resume requests depend on whatever checkpoint happens to be on
        disk, and fault-injected runs are chaos drills — neither may be
        served from (or stored into) the result cache.
        """
        return (
            self.use_cache
            and self.mode != "resume"
            and self.fault_plan is None
        )

    def cache_key(self) -> str | None:
        """Content hash of (input graph, config, execution shape).

        ``None`` for uncacheable requests.  The graph contributes
        :meth:`graph_fingerprint` (its CSR fingerprint, computed once
        per frozen graph; a ``graph_path`` input is keyed by its file's
        bytes, so the same bytes hash equal either way and a file seen
        before is not loaded again); the config contributes
        :meth:`LouvainConfig.cache_key`, also computed once; ``nranks``,
        ``partition``, and the machine model are included because they
        change the result's assignment/trace/elapsed; incremental
        requests mix in the warm-start labels.
        """
        if not self.cacheable:
            return None
        h = hashlib.sha256()
        h.update(self.graph_fingerprint().encode())
        h.update(self.config.cache_key().encode())
        h.update(f"|{self.nranks}|{self.partition}|{self.mode}|".encode())
        h.update(_machine_key(self.machine))
        if self.mode == "incremental":
            h.update(
                np.asarray(self.previous_assignment, dtype=np.int64).tobytes()
            )
            if self.reset_touched is not None:
                h.update(
                    np.asarray(self.reset_touched, dtype=np.int64).tobytes()
                )
        return h.hexdigest()

    def graph_fingerprint(self) -> str:
        """:meth:`CSRGraph.fingerprint` of the input graph.

        A ``graph_path`` input not loaded yet is looked up by the
        SHA-256 of its file's bytes; only a digest this process has not
        seen loads the file (once, kept on the request like
        :meth:`resolved_graph`).  The digest is kept on the request too,
        so a later load of the file refuses bytes that changed since.
        """
        if self.graph is not None or self.graph_path is None:
            return self.resolved_graph().fingerprint()
        digest = _file_digest(self.graph_path)
        object.__setattr__(self, "_keyed_digest", digest)
        fingerprint = _FILE_FINGERPRINTS.get(digest)
        if fingerprint is None:
            fingerprint = self.resolved_graph().fingerprint()
            _FILE_FINGERPRINTS.put(digest, fingerprint)
        return fingerprint

    def resolved_graph(self) -> CSRGraph:
        """The input CSR graph, loading ``graph_path`` if necessary.

        Raises :class:`ValueError` when the file's bytes are no longer
        the ones :meth:`graph_fingerprint` keyed the request by.
        """
        if self.graph is not None:
            return self.graph
        if self.graph_path is None:
            raise ValueError("resume request carries no input graph")
        from ..graph.binio import read_edgelist

        g = read_edgelist(self.graph_path).to_csr()
        keyed = self.__dict__.get("_keyed_digest")
        if keyed is not None and _file_digest(self.graph_path) != keyed:
            raise ValueError(
                f"{self.graph_path} changed after the request was keyed"
            )
        # Cache the load on the (frozen) request so repeated key
        # computations and the execution itself read the file once.
        object.__setattr__(self, "graph", g)
        return g

    def describe(self) -> str:
        src = self.graph_path or (
            f"<in-memory {self.graph.num_vertices}v>" if self.graph is not None
            else "<checkpoint>"
        )
        return (
            f"{self.config.label()} x{self.nranks} on {src} "
            f"[mode={self.mode} prio={self.priority}"
            + (f" tag={self.tag}" if self.tag else "")
            + "]"
        )


@dataclass
class DetectionResponse:
    """Terminal view of one job, handed back by the engine."""

    job_id: str
    state: JobState
    request: DetectionRequest
    result: LouvainResult | None = None
    #: Failure description (FAILED) or cancellation note (CANCELLED).
    error: str | None = None
    #: Served from the result store without recomputation.
    cache_hit: bool = False
    #: Completed retry attempts (0 = succeeded first try).
    retries: int = 0
    #: The config/ranks that ran were planned by the autotuner (the
    #: ``request`` field reflects the substituted plan).
    tuned: bool = False
    #: Whether any retry resumed from a snapshot or checkpoint (vs
    #: restarting).
    resumed_from_checkpoint: bool = False
    #: Wall-clock timestamps (``time.monotonic`` domain).
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None

    @property
    def queue_seconds(self) -> float | None:
        """Submit -> start latency (None if never started)."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def run_seconds(self) -> float | None:
        """Start -> done latency (None if never started/finished)."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def summary(self) -> str:
        parts = [f"job {self.job_id}: {self.state.value}"]
        if self.cache_hit:
            parts.append("(cache hit)")
        if self.tuned:
            parts.append("(tuned)")
        if self.retries:
            parts.append(
                f"(retried x{self.retries}"
                + (", resumed from checkpoint" if self.resumed_from_checkpoint
                   else ", restarted")
                + ")"
            )
        cfg = self.request.config
        if cfg.resolution != 1.0:
            parts.append(f"(resolution={cfg.resolution:g})")
        if cfg.refine != "none":
            parts.append(f"(refine={cfg.refine})")
        if self.result is not None:
            parts.append(self.result.summary())
        if self.error:
            parts.append(f"error: {self.error}")
        return " ".join(parts)
