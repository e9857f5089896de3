"""Shard processes: one detection engine per OS process.

Multi-process scale-out for the serving tier: each **shard** is a real
``multiprocessing`` process running its own
:class:`~repro.service.Engine` (worker pool, fair-share scheduler,
result cache), driven over a duplex pipe by a simple framed RPC.  The
shards share nothing in memory — only the disk tiers of the
:class:`~repro.service.store.ResultStore` and the
:class:`~repro.tune.db.TuningDB`, both of which already write with the
temp-file + atomic-rename discipline, so concurrent shards never
corrupt them and a result computed on one shard is a disk cache hit on
every other.

Protocol (parent -> child ``(cmd, payload)``, child -> parent
``(status, value)``):

==================  =====================================================
``ping``            liveness probe -> ``"pong"``
``register_tenant`` install a per-tenant admission quota on the shard
``submit``          admit a :class:`DetectionRequest` -> job id
``poll``            cheap job status -> ``(state, terminal)``
``fetch``           wait for a job to finish, then collect it: its
                    :class:`DetectionResponse`; the shard then forgets
                    the job
``cancel``          cancel a job -> bool
``metrics``         engine metrics snapshot (JSON-able dict)
``registry``        engine metrics-registry snapshot (Prometheus input)
``store_stats``     result-store stats (or None)
``drain``           stop admitting, settle queued jobs -> summary of
                    the jobs not fetched yet
``shutdown``        drain + exit the process
==================  =====================================================

Long-running states never hold the pipe: ``poll`` is constant-time, so
the parent waits on jobs by polling, and one slow detection never
blocks health checks of the same shard.  A shard that dies (crash,
``kill()``, machine fault) surfaces as :class:`ShardDeadError` on the
next call; the router then reroutes its keys to the surviving shards.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass
from typing import Any

from ..service.engine import Engine
from ..service.request import DetectionRequest, DetectionResponse
from ..service.scheduler import AdmissionError
from ..service.store import ResultStore
from .fairshare import DeficitRoundRobinScheduler

__all__ = [
    "ShardConfig",
    "ShardDeadError",
    "ShardProcess",
]

#: Default per-RPC reply timeout, seconds.  Generous: a busy shard
#: answers control commands between engine callbacks, not detections.
DEFAULT_RPC_TIMEOUT = 60.0


class ShardDeadError(RuntimeError):
    """The shard process is gone (exited, killed, or unresponsive)."""

    def __init__(self, shard_id: int, detail: str):
        super().__init__(f"shard {shard_id}: {detail}")
        self.shard_id = shard_id


@dataclass(frozen=True)
class ShardConfig:
    """Everything a shard process needs to build its engine (picklable)."""

    shard_id: int
    workers: int = 2
    queue_depth: int = 64
    #: Shared disk result-cache directory (``None`` = memory-only).
    cache_dir: str | None = None
    #: Shared tuning-database file (``None`` = no tuning DB).
    tuning_db_path: str | None = None
    #: Fair-share quantum for the shard's DRR scheduler.
    quantum: float = 1.0
    #: Quota for tenants never registered explicitly.
    default_max_queued: int | None = None
    checkpoint_every_iterations: int = 4
    #: Shared JSON-lines event log (``None`` = no events).  Shards
    #: append with ``origin="shard-<id>"``; single-line appends from
    #: multiple processes interleave without tearing, so one file can
    #: carry the whole fleet's correlated records.
    event_log_path: str | None = None
    #: Enable the simulated-vs-predicted drift monitor on this shard's
    #: engine (fires forced background re-tunes through the shared
    #: tuning DB when a config family drifts).
    drift: bool = False


def _build_engine(config: ShardConfig) -> Engine:
    store = (
        ResultStore(directory=config.cache_dir)
        if config.cache_dir is not None
        else None
    )
    tuning_db = None
    if config.tuning_db_path is not None:
        from ..tune.db import TuningDB

        tuning_db = TuningDB(config.tuning_db_path)
    scheduler = DeficitRoundRobinScheduler(
        max_pending=config.queue_depth,
        quantum=config.quantum,
        default_max_queued=config.default_max_queued,
    )
    event_log = None
    if config.event_log_path is not None:
        from ..obs.events import EventLog

        event_log = EventLog(
            config.event_log_path, origin=f"shard-{config.shard_id}"
        )
    drift = None
    if config.drift:
        from ..obs.drift import DriftMonitor

        drift = DriftMonitor()
    return Engine(
        workers=config.workers,
        scheduler=scheduler,
        store=store,
        tuning_db=tuning_db,
        checkpoint_every_iterations=config.checkpoint_every_iterations,
        event_log=event_log,
        drift=drift,
    )


def _shard_main(conn: Any, config: ShardConfig) -> None:
    """Child-process entry: serve RPCs until ``shutdown`` or EOF."""
    engine = _build_engine(config)
    scheduler = engine.scheduler
    assert isinstance(scheduler, DeficitRoundRobinScheduler)
    drained = False
    try:
        while True:
            try:
                cmd, payload = conn.recv()
            except (EOFError, OSError):
                break  # parent went away; die quietly
            try:
                if cmd == "ping":
                    conn.send(("ok", "pong"))
                elif cmd == "register_tenant":
                    name, max_queued = payload
                    scheduler.set_quota(name, max_queued)
                    conn.send(("ok", None))
                elif cmd == "submit":
                    try:
                        conn.send(("ok", engine.submit(payload)))
                    except AdmissionError as exc:
                        conn.send(("admission", (exc.reason, str(exc))))
                elif cmd == "poll":
                    state = engine.status(payload)
                    conn.send(("ok", (state.value, state.terminal)))
                elif cmd == "fetch":
                    # ``poll`` sees the terminal state a moment before
                    # ``Engine._finish`` is done: block, do not time out.
                    conn.send(("ok", engine.wait(payload)))
                elif cmd == "cancel":
                    conn.send(("ok", engine.cancel(payload)))
                elif cmd == "metrics":
                    conn.send(("ok", engine.metrics.snapshot()))
                elif cmd == "registry":
                    conn.send(("ok", engine.metrics.registry.snapshot()))
                elif cmd == "store_stats":
                    conn.send(
                        (
                            "ok",
                            engine.store.stats()
                            if engine.store is not None
                            else None,
                        )
                    )
                elif cmd == "drain":
                    if not drained:
                        engine.shutdown(wait=True, cancel_pending=bool(payload))
                        drained = True
                    conn.send(
                        (
                            "ok",
                            [
                                (r.job_id, r.state.value)
                                for r in engine.jobs()
                            ],
                        )
                    )
                elif cmd == "shutdown":
                    if not drained:
                        engine.shutdown(wait=True, cancel_pending=bool(payload))
                        drained = True
                    conn.send(("ok", None))
                    break
                else:
                    conn.send(("error", f"unknown command {cmd!r}"))
            except Exception as exc:  # keep the protocol alive
                engine.metrics.inc("rpc_errors")
                if engine.event_log is not None:
                    engine.event_log.emit(
                        "rpc_error", command=cmd, error=repr(exc)
                    )
                try:
                    conn.send(("error", repr(exc)))
                except (BrokenPipeError, OSError):
                    break
    finally:
        if not drained:
            engine.shutdown(wait=False, cancel_pending=True)
        if engine.event_log is not None:
            engine.event_log.close()
        try:
            conn.close()
        except OSError:
            pass


class ShardProcess:
    """Parent-side handle on one shard process.

    All calls serialise on an internal lock (the pipe carries one
    request/reply pair at a time).  Any transport failure — broken
    pipe, reply timeout, dead process — marks the shard dead
    permanently and raises :class:`ShardDeadError`; a dead shard never
    recovers, it is replaced by rerouting.
    """

    def __init__(self, config: ShardConfig, *, start_method: str = "spawn"):
        self.config = config
        self.shard_id = config.shard_id
        ctx = multiprocessing.get_context(start_method)
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._proc = ctx.Process(
            target=_shard_main,
            args=(child_conn, config),
            name=f"repro-shard-{config.shard_id}",
            daemon=True,
        )
        self._lock = threading.Lock()
        self._dead_reason: str | None = None
        self._proc.start()
        child_conn.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _mark_dead(self, detail: str) -> ShardDeadError:
        self._dead_reason = detail
        return ShardDeadError(self.shard_id, detail)

    def call(
        self,
        cmd: str,
        payload: Any = None,
        *,
        timeout: float = DEFAULT_RPC_TIMEOUT,
    ) -> Any:
        with self._lock:
            if self._dead_reason is not None:
                raise ShardDeadError(self.shard_id, self._dead_reason)
            try:
                self._conn.send((cmd, payload))
                if not self._conn.poll(timeout):
                    raise self._mark_dead(
                        f"no reply to {cmd!r} within {timeout}s"
                    )
                status, value = self._conn.recv()
            except (BrokenPipeError, ConnectionResetError, EOFError, OSError):
                raise self._mark_dead(
                    f"pipe broken during {cmd!r} "
                    f"(process alive={self._proc.is_alive()})"
                ) from None
        if status == "ok":
            return value
        if status == "admission":
            reason, detail = value
            raise AdmissionError(reason, detail)
        raise RuntimeError(f"shard {self.shard_id}: {cmd!r} failed: {value}")

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Best local knowledge — no RPC (use :meth:`ping` to probe)."""
        return self._dead_reason is None and self._proc.is_alive()

    def ping(self, timeout: float = 5.0) -> bool:
        """Active health check; a failed probe marks the shard dead."""
        if self._dead_reason is not None or not self._proc.is_alive():
            if self._dead_reason is None:
                self._mark_dead(
                    f"process exited with code {self._proc.exitcode}"
                )
            return False
        try:
            return self.call("ping", timeout=timeout) == "pong"
        except ShardDeadError:
            return False

    def kill(self) -> None:
        """Hard-kill the shard (fault drills: models a machine death)."""
        self._proc.kill()
        self._proc.join(timeout=10.0)
        self._mark_dead("killed")

    # ------------------------------------------------------------------
    # Engine surface
    # ------------------------------------------------------------------
    def register_tenant(self, name: str, max_queued: int | None) -> None:
        self.call("register_tenant", (name, max_queued))

    def submit(self, request: DetectionRequest) -> str:
        return str(self.call("submit", request))

    def poll(self, job_id: str) -> tuple[str, bool]:
        value = self.call("poll", job_id)
        return str(value[0]), bool(value[1])

    def fetch(self, job_id: str) -> DetectionResponse:
        response = self.call("fetch", job_id)
        assert isinstance(response, DetectionResponse)
        return response

    def wait(
        self,
        job_id: str,
        timeout: float | None = None,
        poll_interval: float = 0.02,
    ) -> DetectionResponse:
        """Poll until the job is terminal, then fetch (collect) the full
        response; the shard forgets the job."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            _, terminal = self.poll(job_id)
            if terminal:
                return self.fetch(job_id)
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"shard {self.shard_id}: job {job_id} still running "
                    f"after {timeout}s"
                )
            time.sleep(poll_interval)

    def cancel(self, job_id: str) -> bool:
        return bool(self.call("cancel", job_id))

    def metrics(self) -> dict:
        value = self.call("metrics")
        assert isinstance(value, dict)
        return value

    def registry_snapshot(self) -> dict:
        """Metrics-registry snapshot (input for the Prometheus exporter)."""
        value = self.call("registry")
        assert isinstance(value, dict)
        return value

    def store_stats(self) -> dict | None:
        value = self.call("store_stats")
        return value if value is None else dict(value)

    def drain(
        self, *, cancel_pending: bool = False, timeout: float = 600.0
    ) -> list[tuple[str, str]]:
        """Stop the shard admitting and settle its queue.

        ``cancel_pending=False`` runs every queued job to completion
        before returning; ``True`` cancels what is still queued.
        Returns ``(job_id, terminal state)`` for every job the shard
        still holds, i.e. every job not fetched yet.  The shard stays
        queryable afterwards (``fetch``, ``metrics``) but rejects new
        submissions.
        """
        value = self.call("drain", cancel_pending, timeout=timeout)
        return [(str(j), str(s)) for j, s in value]

    def shutdown(self, *, cancel_pending: bool = True, timeout: float = 60.0) -> None:
        """Graceful stop: drain, then let the process exit."""
        if self._dead_reason is None:
            try:
                self.call("shutdown", cancel_pending, timeout=timeout)
            except (ShardDeadError, RuntimeError):
                pass
        self._proc.join(timeout=10.0)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join(timeout=10.0)
        if self._dead_reason is None:
            self._dead_reason = "shut down"
        try:
            self._conn.close()
        except OSError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self.alive else f"dead ({self._dead_reason})"
        return f"ShardProcess(id={self.shard_id}, {state})"
