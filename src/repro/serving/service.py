"""ServingTier: tenants x shards x streaming churn, composed.

The façade of ``repro.serving``.  It owns a :class:`TenantRegistry`
(who exists, what they may consume, their graphs and churn windows) and
a :class:`ShardRouter` over N engine worker processes, and wires the
two together:

* **Placement** — a tenant's jobs route by its graph fingerprint
  (rendezvous hashing), so repeated detections of the same graph reuse
  one shard's warm memory-cache tier while the shared disk tiers make
  results visible fleet-wide.
* **Streaming updates** — :meth:`add_edges` / :meth:`remove_edges`
  accumulate into the tenant's net-churn window; when the tenant's
  :class:`~repro.serving.tenants.ChurnPolicy` threshold is crossed, the
  tier closes the window automatically: applies the churn, submits an
  *incremental* re-detection warm-started from the last assignment with
  the churn's touched vertices reset, and annotates the tuning database
  with the observed churn profile (the churn feature axes added to
  :class:`~repro.tune.features.GraphFeatures`).
* **Failure handling** — a submission that lands on a dead shard
  triggers a health sweep (marking the corpse) and one reroute to the
  surviving shards; :meth:`drain` settles every queue for shutdown.

Everything stays deterministic end to end: detection results are
bit-identical to a single-process :func:`repro.service.execute_request`
of the same request, which the serving tests assert.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from ..core.config import LouvainConfig
from ..obs.events import EventLog
from ..obs.export import merge_snapshots
from ..obs.registry import MetricsRegistry
from ..runtime.tracing import RankTrace
from ..service.request import DetectionRequest, DetectionResponse
from .router import NoLiveShards, ShardRouter
from .shard import ShardConfig, ShardDeadError
from .tenants import ChurnPolicy, Tenant, TenantQuota, TenantRegistry

__all__ = ["JobHandle", "ServingTier"]


@dataclass(frozen=True)
class JobHandle:
    """A submitted job, addressed by (shard, job id) — pass to
    :meth:`ServingTier.wait` / :meth:`ServingTier.poll`."""

    tenant: str
    job_id: str
    shard_id: int
    #: ``"batch"``, ``"incremental"``, or ``"churn"`` (threshold-fired).
    kind: str
    #: Net churn applied when this job closed a streaming window.
    net_churn: int = 0


class ServingTier:
    """Multi-tenant serving over a sharded engine fleet.

    Parameters
    ----------
    shards:
        Number of engine worker processes.
    workers_per_shard:
        Concurrent jobs per shard's engine.
    queue_depth:
        Per-shard global admission bound.
    cache_dir:
        Shared disk result-cache directory (``None`` = per-shard memory
        caches only; cross-shard hits need the disk tier).
    tuning_db_path:
        Shared tuning database; shards consult it for ``tune="auto"``
        requests, and the tier feeds churn features into it.
    quantum:
        Fair-share quantum of each shard's deficit-round-robin
        scheduler.
    default_max_queued:
        Per-tenant queue quota for tenants with no explicit quota.
    event_log_path:
        Shared JSON-lines event log: the tier appends with
        ``origin="serving"`` and every shard process appends with
        ``origin="shard-<id>"``, so one file traces a detection from
        tenant churn through shard admission to the cache write.
        ``None`` (the default) disables events everywhere.
    drift:
        Enable the simulated-vs-predicted drift monitor on every shard
        engine (see :class:`repro.obs.DriftMonitor`).
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        workers_per_shard: int = 2,
        queue_depth: int = 64,
        cache_dir: str | None = None,
        tuning_db_path: str | None = None,
        quantum: float = 1.0,
        default_max_queued: int | None = None,
        start_method: str = "spawn",
        event_log_path: str | None = None,
        drift: bool = False,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.registry = TenantRegistry()
        self.event_log = (
            EventLog(event_log_path, origin="serving")
            if event_log_path is not None
            else None
        )
        self.router = ShardRouter(
            [
                ShardConfig(
                    shard_id=i,
                    workers=workers_per_shard,
                    queue_depth=queue_depth,
                    cache_dir=cache_dir,
                    tuning_db_path=tuning_db_path,
                    quantum=quantum,
                    default_max_queued=default_max_queued,
                    event_log_path=event_log_path,
                    drift=drift,
                )
                for i in range(shards)
            ],
            start_method=start_method,
        )
        self.tuning_db_path = tuning_db_path
        #: Tier-side accounting: wall seconds of routing and churn
        #: application under the ``"serving"`` trace category.
        self.trace = RankTrace(rank=0)
        self._closed = False

    # ------------------------------------------------------------------
    # Tenants
    # ------------------------------------------------------------------
    def create_tenant(
        self,
        name: str,
        *,
        quota: TenantQuota | None = None,
        config: LouvainConfig | None = None,
        nranks: int = 4,
        churn: ChurnPolicy | None = None,
    ) -> Tenant:
        """Create a tenant and install its queue quota on every shard."""
        tenant = self.registry.create(
            name, quota=quota, config=config, nranks=nranks, churn=churn
        )
        self.router.broadcast_tenant(name, tenant.quota.max_queued)
        self._emit(
            "tenant_created", tenant=name, max_queued=tenant.quota.max_queued
        )
        return tenant

    def _emit(self, event: str, **fields) -> None:
        if self.event_log is not None:
            self.event_log.emit(event, **fields)

    def load_graph(self, name: str, graph) -> None:
        tenant = self.registry.get(name)
        with tenant.lock:
            tenant.load_graph(graph)

    # ------------------------------------------------------------------
    # Streaming mutations
    # ------------------------------------------------------------------
    def add_edges(self, name: str, u, v, w=None) -> JobHandle | None:
        """Stream an insertion batch into ``name``'s churn window.

        Returns the re-detection job handle when this batch pushed net
        churn over the tenant's threshold, else ``None``.
        """
        tenant = self.registry.get(name)
        with tenant.lock:
            triggered = tenant.record_add_edges(u, v, w)
            if not triggered:
                return None
            tenant.counters["churn_triggers"] += 1
            return self._close_window_locked(tenant)

    def remove_edges(self, name: str, u, v) -> JobHandle | None:
        """Stream a deletion batch; same trigger contract as
        :meth:`add_edges`."""
        tenant = self.registry.get(name)
        with tenant.lock:
            triggered = tenant.record_remove_edges(u, v)
            if not triggered:
                return None
            tenant.counters["churn_triggers"] += 1
            return self._close_window_locked(tenant)

    def flush(self, name: str, *, priority: int = 0) -> JobHandle | None:
        """Force-close ``name``'s churn window below threshold.

        Applies whatever churn is pending and submits the re-detection;
        returns ``None`` when the window is empty (nothing to do).
        """
        tenant = self.registry.get(name)
        with tenant.lock:
            if not tenant.accumulator:
                return None
            return self._close_window_locked(tenant, priority=priority)

    def _close_window_locked(
        self, tenant: Tenant, *, priority: int = 0
    ) -> JobHandle:
        """Apply the pending churn and submit the re-detection.

        Caller holds ``tenant.lock``.  Warm-starts from the previous
        assignment when one exists (resetting exactly the churn's
        touched vertices to singletons); falls back to a batch job for
        a tenant that was never detected.
        """
        t0 = time.monotonic()
        net = tenant.accumulator.net_size
        pre_fingerprint = (
            tenant.graph.fingerprint() if tenant.graph is not None else None
        )
        churn = tenant.take_churn()
        self._feed_churn_features(tenant, churn, net, pre_fingerprint)
        warm = tenant.assignment is not None
        touched = churn.touched_vertices() if warm else None
        request = tenant.build_request(
            priority=priority, reset_touched=touched, incremental=warm
        )
        self.trace.charge("serving", time.monotonic() - t0)
        self._emit(
            "churn_window_closed",
            tenant=tenant.name,
            net_churn=net,
            warm_start=warm,
            touched=len(touched) if touched is not None else 0,
        )
        return self._submit(tenant, request, kind="churn", net_churn=net)

    def _feed_churn_features(
        self,
        tenant: Tenant,
        churn,
        net: int,
        pre_fingerprint: str | None,
    ) -> None:
        """Annotate the tuning DB with the observed churn profile.

        The pre-churn graph is the one that may have been tuned; its
        record's features gain the churn axes so nearest-neighbour
        planning can tell a static graph from one that churns hard.
        """
        if self.tuning_db_path is None or pre_fingerprint is None:
            return
        g = tenant.graph
        if g is None:
            return
        from ..tune.db import TuningDB

        db = TuningDB(self.tuning_db_path)
        record = db.get(pre_fingerprint)
        if record is None:
            return
        touched = churn.touched_vertices()
        features = record.features.with_churn(
            edge_fraction=net / max(g.num_edges, 1),
            touched_fraction=len(touched) / max(g.num_vertices, 1),
        )
        db.put(dataclasses.replace(record, features=features))
        tenant.counters["tuning_churn_feedback"] += 1

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------
    def detect(
        self,
        name: str,
        *,
        priority: int = 0,
        incremental: bool | None = None,
    ) -> JobHandle:
        """Submit a detection of ``name``'s current graph (no churn is
        applied; pending churn stays in the window)."""
        tenant = self.registry.get(name)
        with tenant.lock:
            request = tenant.build_request(
                priority=priority, incremental=incremental
            )
        kind = "incremental" if request.mode == "incremental" else "batch"
        return self._submit(tenant, request, kind=kind)

    def detect_at_resolutions(
        self,
        name: str,
        resolutions: list[float],
        *,
        priority: int = 0,
    ) -> list[JobHandle]:
        """Zoom-level API: detect ``name``'s graph at every resolution.

        One batch job per resolution, all sharing the tenant graph's
        fingerprint — so they route to the same shard and each level
        lands as its own cached result-store entry.  Handles come back
        in the order of ``resolutions``.
        """
        if not resolutions:
            raise ValueError("resolutions must be non-empty")
        tenant = self.registry.get(name)
        with tenant.lock:
            base = tenant.build_request(priority=priority, incremental=False)
        return [
            self._submit(
                tenant,
                dataclasses.replace(base, resolution=float(r)),
                kind="batch",
            )
            for r in resolutions
        ]

    def _submit(
        self,
        tenant: Tenant,
        request: DetectionRequest,
        *,
        kind: str,
        net_churn: int = 0,
    ) -> JobHandle:
        """Route and submit, rerouting once over a shard death."""
        if self._closed:
            raise RuntimeError("serving tier is shut down")
        key = request.graph_fingerprint()
        for attempt in range(2):
            t0 = time.monotonic()
            shard = self.router.route(key)
            self.trace.charge("serving", time.monotonic() - t0)
            try:
                job_id = shard.submit(request)
            except ShardDeadError:
                # Mark the corpse fleet-wide, then retry on survivors.
                tenant.counters["shard_failovers"] += 1
                self._emit(
                    "shard_failover",
                    tenant=tenant.name,
                    shard=shard.shard_id,
                )
                self.router.health_check()
                if attempt == 0:
                    continue
                raise
            tenant.counters["jobs_submitted"] += 1
            self._emit(
                "tier_submit",
                tenant=tenant.name,
                shard=shard.shard_id,
                job_id=job_id,
                kind=kind,
                net_churn=net_churn,
            )
            return JobHandle(
                tenant=tenant.name,
                job_id=job_id,
                shard_id=shard.shard_id,
                kind=kind,
                net_churn=net_churn,
            )
        raise NoLiveShards("all shards are dead")  # pragma: no cover

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def poll(self, handle: JobHandle) -> tuple[str, bool]:
        """Cheap ``(state, terminal)`` status of a submitted job."""
        return self.router.shards[handle.shard_id].poll(handle.job_id)

    def wait(
        self, handle: JobHandle, timeout: float | None = None
    ) -> DetectionResponse:
        """Block until the job is terminal; absorb a DONE result as the
        tenant's current solution (the next warm-start seed).

        Raises :class:`ShardDeadError` if the owning shard dies while
        the job runs — the job's window is lost with the shard;
        resubmit via :meth:`detect` to recompute on a survivor.
        """
        shard = self.router.shards[handle.shard_id]
        response = shard.wait(handle.job_id, timeout=timeout)
        if response.result is not None:
            tenant = self.registry.get(handle.tenant)
            with tenant.lock:
                tenant.absorb(
                    response.result.assignment, response.result.modularity
                )
            if response.cache_hit:
                tenant.counters["cache_hits"] += 1
        return response

    def cancel(self, handle: JobHandle) -> bool:
        return self.router.shards[handle.shard_id].cancel(handle.job_id)

    # ------------------------------------------------------------------
    # Fleet operations
    # ------------------------------------------------------------------
    def health_check(self) -> dict[int, bool]:
        return self.router.health_check()

    def kill_shard(self, shard_id: int) -> None:
        """Fault drill: hard-kill one shard (its queued jobs are lost;
        routing re-homes its keys on the next health check/submission)."""
        self.router.shards[shard_id].kill()
        self._emit("shard_killed", shard=shard_id)

    def metrics(self) -> dict:
        """JSON-able fleet snapshot: per-shard engine metrics and cache
        stats, per-tenant counters, tier-side trace seconds."""
        shards = {}
        for sid, shard in sorted(self.router.shards.items()):
            if not shard.alive:
                shards[str(sid)] = {"alive": False}
                continue
            try:
                shards[str(sid)] = {
                    "alive": True,
                    "engine": shard.metrics(),
                    "store": shard.store_stats(),
                }
            except ShardDeadError:
                shards[str(sid)] = {"alive": False}
        tenants = {}
        for tenant in self.registry:
            with tenant.lock:
                tenants[tenant.name] = {
                    "counters": dict(tenant.counters),
                    "pending_churn": tenant.accumulator.net_size,
                    "modularity": tenant.modularity,
                    "edges": (
                        tenant.graph.num_edges
                        if tenant.graph is not None
                        else None
                    ),
                }
        return {
            "shards": shards,
            "tenants": tenants,
            "serving_seconds": float(self.trace.seconds.get("serving", 0.0)),
        }

    def registry_snapshot(self) -> dict:
        """Fleet-wide metrics-registry snapshot (Prometheus input).

        Every live shard's registry merges in with a ``shard`` label;
        tier-side state (serving seconds, per-tenant counters, pending
        churn) is rendered as its own families.  The result feeds
        :func:`repro.obs.export.to_prometheus` directly.
        """
        per_shard: dict[str, dict] = {}
        for sid, shard in sorted(self.router.shards.items()):
            if not shard.alive:
                continue
            try:
                per_shard[str(sid)] = shard.registry_snapshot()
            except ShardDeadError:
                continue
        tier = MetricsRegistry()
        tier.counter(
            "repro_serving_seconds_total",
            "Tier-side wall seconds of routing and churn application.",
        ).inc(float(self.trace.seconds.get("serving", 0.0)))
        tenant_events = tier.counter(
            "repro_tenant_events_total",
            "Per-tenant serving counters (submissions, churn, failovers).",
            labelnames=("tenant", "event"),
        )
        pending = tier.gauge(
            "repro_tenant_pending_churn",
            "Net churn currently buffered in each tenant's window.",
            labelnames=("tenant",),
        )
        modularity = tier.gauge(
            "repro_tenant_modularity",
            "Modularity of each tenant's last absorbed solution.",
            labelnames=("tenant",),
        )
        for tenant in self.registry:
            with tenant.lock:
                for event, count in sorted(tenant.counters.items()):
                    tenant_events.labels(
                        tenant=tenant.name, event=event
                    ).inc(count)
                pending.labels(tenant=tenant.name).set(
                    tenant.accumulator.net_size
                )
                if tenant.modularity is not None:
                    modularity.labels(tenant=tenant.name).set(
                        tenant.modularity
                    )
        merged = merge_snapshots(per_shard, labelname="shard")
        combined = merged["metrics"] + tier.snapshot()["metrics"]
        return {"metrics": sorted(combined, key=lambda m: m["name"])}

    def drain(
        self, *, cancel_pending: bool = False
    ) -> dict[int, list[tuple[str, str]]]:
        """Settle every live shard's queue; id -> (job, state) report of
        the jobs no :meth:`wait` has collected."""
        return self.router.drain(cancel_pending=cancel_pending)

    def shutdown(self, *, cancel_pending: bool = True) -> None:
        if self._closed:
            return
        self._closed = True
        self.router.shutdown(cancel_pending=cancel_pending)
        if self.event_log is not None:
            self.event_log.close()

    def __enter__(self) -> "ServingTier":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
