"""The detection engine: async job multiplexing over a bounded worker pool.

``Engine`` is the serving tier the ROADMAP asks for: typed
:class:`~repro.service.request.DetectionRequest` s go in, jobs move
through ``PENDING -> RUNNING -> DONE | FAILED | CANCELLED``, and many
detections run concurrently — each worker drives its own simulated SPMD
world, so an 8-worker engine multiplexes eight independent detections
the way an inference server multiplexes model replicas.

Reliability semantics:

* **admission control / backpressure** — submissions beyond the queue
  bound are rejected with a reason (:class:`AdmissionError`), never
  buffered unboundedly;
* **retry-with-resume** — a job whose ranks die mid-run (crash, injected
  fault, lost message) is retried up to ``max_retries`` times; every
  job that allows retries keeps in-memory snapshots of its run state
  (:class:`~repro.resilience.snapshots.RunSnapshots`, dropped when the
  job finishes), so each retry *resumes* from the last complete one
  instead of recomputing finished phases.  Only a request that names a
  ``checkpoint_dir`` writes checkpoints to disk, and resumes from them;
* **result caching** — cacheable requests are content-addressed
  (graph fingerprint + canonical config hash) against the engine's
  :class:`~repro.service.store.ResultStore`; a repeat submission is
  served bit-identically without recomputation;
* **cancellation** — pending jobs cancel immediately; running jobs
  cancel best-effort (the in-flight SPMD world completes, its result is
  discarded, and the job lands in CANCELLED).

Timeouts: ``request.timeout`` caps each blocking runtime operation (a
hung collective fails the attempt) and bounds the *retry* schedule — no
attempt starts after the deadline.  A healthy-but-slow attempt already
in flight is not killed mid-collective; like real MPI, there is no safe
preemption point inside a rendezvous.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from ..core.distlouvain import run_louvain
from ..core.dynamic import warm_start_assignment
from ..core.result import LouvainResult
from ..obs.drift import DriftMonitor
from ..obs.events import EventLog, scoped
from ..resilience.checkpoint import CheckpointManager
from ..resilience.snapshots import RunSnapshots
from ..runtime.errors import (
    CommTimeoutError,
    InjectedFault,
    RankFailedError,
)
from ..runtime.tracing import RankTrace, TraceReport
from ..tune.db import TuningDB, TuningRecord
from ..tune.search import TunerSettings
from .metrics import ServiceMetrics
from .request import DetectionRequest, DetectionResponse, JobState
from .scheduler import AdmissionError, PriorityScheduler
from .store import ResultStore

__all__ = [
    "Engine",
    "Job",
    "execute_request",
]

#: Scheduler priority of engine-internal background tune jobs: below
#: any plausible client priority, so tuning only consumes idle workers.
TUNE_JOB_PRIORITY = -1_000_000

#: Exceptions that mark an *attempt* as failed but the job as retryable.
RETRYABLE = (RankFailedError, InjectedFault, CommTimeoutError)

#: Default per-blocking-op timeout (seconds) when a request sets none.
DEFAULT_OP_TIMEOUT = 300.0

_UNSET = object()


def execute_request(
    request: DetectionRequest,
    *,
    checkpoints: CheckpointManager | None = None,
    resume: bool | None = None,
    fault_plan: object = _UNSET,
) -> LouvainResult:
    """Run one request synchronously; the single unified execution path.

    Every way into the library — ``Engine`` workers, the inline
    :func:`repro.service.detect` facade — funnels through here, so
    request semantics are defined once.  The keyword overrides exist for
    the engine's retry machinery (the job's save points, resume-on-retry,
    dropping a fired fault plan); plain callers never pass them, and
    their request's ``checkpoint_dir``, if it names one, is where the
    save points go.
    """
    if checkpoints is None:
        checkpoints = _checkpoints_for(request)
    do_resume = (request.mode == "resume") if resume is None else resume
    plan = request.fault_plan if fault_plan is _UNSET else fault_plan
    seed = graph = None
    if not do_resume:
        graph = request.resolved_graph()
        # A resumed attempt's pending seed, if any, is in the save point.
        if request.mode == "incremental":
            assert request.previous_assignment is not None  # __post_init__
            seed = warm_start_assignment(
                graph,
                request.previous_assignment,
                reset_touched=request.reset_touched,
            )
    return run_louvain(
        graph,  # type: ignore[arg-type]  # unused on the resume path
        request.nranks,
        request.config,
        machine=request.machine,
        partition=request.partition,
        timeout=request.timeout or DEFAULT_OP_TIMEOUT,
        initial_assignment=seed,
        checkpoints=checkpoints,
        resume=do_resume,
        fault_plan=plan,
    )


def _checkpoints_for(
    request: DetectionRequest, retry_every_iterations: int | None = None
) -> CheckpointManager | None:
    """Where ``request``'s save points go: its ``checkpoint_dir``, when
    it names one; else, for an engine job that may be retried
    (``retry_every_iterations``: the engine's cadence where the request
    sets none), memory; else nowhere."""
    kwargs = dict(
        every_phases=request.checkpoint_every,
        every_iterations=(
            request.checkpoint_every_iterations or retry_every_iterations
        ),
        label=request.config.label(),
        config_key=request.config.cache_key(),
    )
    if request.checkpoint_dir is not None:
        return CheckpointManager(request.checkpoint_dir, **kwargs)
    if retry_every_iterations is not None and request.max_retries > 0:
        return RunSnapshots(**kwargs)
    return None


@dataclass
class Job:
    """Engine-internal bookkeeping for one submitted request."""

    id: str
    request: DetectionRequest
    state: JobState = JobState.PENDING
    #: "detect" (client work) or "tune" (engine-internal background
    #: tuning of a graph that missed the tuning DB).
    kind: str = "detect"
    #: The request's config/ranks were substituted by the autotuner.
    tuned: bool = False
    #: Fingerprint a tune job is planning for (in-flight dedup key).
    tune_fingerprint: str | None = None
    #: Drift-triggered tune jobs re-search even when a record exists.
    tune_force: bool = False
    result: LouvainResult | None = None
    error: str | None = None
    cache_hit: bool = False
    cache_key: str | None = None
    retries: int = 0
    resumed_from_checkpoint: bool = False
    #: Where the job's save points go, and what a retry resumes from;
    #: lives from the first attempt to ``_finish``.
    checkpoints: CheckpointManager | None = None
    ticket: int | None = None
    cancel_requested: bool = False
    #: The caller's wait timed out, so no one will collect the job:
    #: ``_finish`` drops it, as it does a tune job.
    abandoned: bool = False
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    done: threading.Event = field(default_factory=threading.Event)

    def response(self) -> DetectionResponse:
        return DetectionResponse(
            job_id=self.id,
            state=self.state,
            request=self.request,
            result=self.result,
            error=self.error,
            cache_hit=self.cache_hit,
            retries=self.retries,
            tuned=self.tuned,
            resumed_from_checkpoint=self.resumed_from_checkpoint,
            submitted_at=self.submitted_at,
            started_at=self.started_at,
            finished_at=self.finished_at,
        )


class Engine:
    """Asynchronous detection service over a bounded worker pool.

    A job, request and result included, stays in the engine until
    :meth:`wait` (which :meth:`detect`, :meth:`wait_all` and
    :meth:`detect_at_resolutions` call) collects its terminal response;
    then :meth:`status`, :meth:`wait` and :meth:`cancel` on its id raise
    :class:`KeyError`.  Background tune jobs, which no caller collects,
    are dropped when they finish.

    Parameters
    ----------
    workers:
        Maximum concurrently-running jobs (each runs its own simulated
        SPMD world of ``request.nranks`` rank threads).
    queue_depth:
        Admission bound on *pending* jobs; beyond it, :meth:`submit`
        raises :class:`AdmissionError` (backpressure, not buffering).
    scheduler:
        Pending-job queue to use instead of the default
        :class:`PriorityScheduler` — any admission-compatible subclass
        works; the multi-tenant serving tier passes its deficit-round-
        robin fair-share scheduler here.  When given, ``queue_depth``
        is ignored (the scheduler owns its own bound).
    store:
        Result cache; ``None`` disables caching entirely.
    workdir:
        Unused: the engine writes no files (retries resume from
        in-memory snapshots).  Still accepted because
        ``benchmarks/e2e/workloads.py`` passes it; goes with the next
        ``benchmark`` PR.
    checkpoint_every_iterations:
        Save cadence for retryable jobs that did not choose their own
        (iterations between mid-phase snapshots or checkpoints).
    tuning_db:
        Autotuning database (:class:`repro.tune.TuningDB`).  Requests
        submitted with ``tune="auto"`` consult it: an exact fingerprint
        hit (or a near neighbour in feature space) substitutes the
        planned config/rank count before the job is queued.
    tune_on_miss:
        When a ``tune="auto"`` request misses the DB, additionally
        queue a *background* tune job at rock-bottom priority so the
        next submission of that graph hits (requires ``tuning_db``).
    tune_settings:
        Search settings for background tune jobs
        (:class:`repro.tune.TunerSettings`); defaults to a small
        4-trial search so tuning never monopolises a worker.
    event_log:
        Structured event sink (:class:`repro.obs.EventLog`): job
        lifecycle, cache writes, SPMD run/phase records, and drift
        decisions all land there with correlated ids.  ``None`` (the
        default) emits nothing — observability is strictly passive.
    drift:
        Measured-vs-predicted drift monitor
        (:class:`repro.obs.DriftMonitor`): every fresh (non-cache-hit)
        detection is folded into its per-config-family EWMA; crossing
        the threshold fires a forced background re-tune (when a
        ``tuning_db`` is present) against the monitor's calibrated
        machine model.
    """

    def __init__(
        self,
        workers: int = 4,
        *,
        queue_depth: int = 64,
        scheduler: PriorityScheduler | None = None,
        store: ResultStore | None = None,
        workdir: str | os.PathLike | None = None,
        checkpoint_every_iterations: int = 4,
        tuning_db: TuningDB | None = None,
        tune_on_miss: bool = False,
        tune_settings: TunerSettings | None = None,
        event_log: EventLog | None = None,
        drift: DriftMonitor | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if tune_on_miss and tuning_db is None:
            raise ValueError("tune_on_miss requires a tuning_db")
        self.workers = workers
        self.store = store
        self.tuning_db = tuning_db
        self.tune_on_miss = tune_on_miss
        self.tune_settings = tune_settings
        self.event_log = event_log
        self.drift = drift
        self._features_cache: dict[str, object] = {}
        self._tuning_in_flight: set[str] = set()
        self.metrics = ServiceMetrics()
        self.scheduler = (
            scheduler
            if scheduler is not None
            else PriorityScheduler(max_pending=queue_depth)
        )
        self.checkpoint_every_iterations = checkpoint_every_iterations
        self._jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._next_id = 0
        self._shutdown = False
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"engine-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def submit(self, request: DetectionRequest) -> str:
        """Admit one job; returns its id immediately (non-blocking).

        Raises :class:`AdmissionError` when the engine is shut down or
        the pending queue is full — the caller owns the retry/shed
        decision.  A cacheable request whose result is already stored
        completes instantly as a cache hit without occupying a queue
        slot.
        """
        if self._shutdown:
            raise AdmissionError("closed", "engine is shut down")
        tuned = False
        if request.tune == "auto":
            request, tuned = self._planned_request(request)
        job = Job(id=self._allocate_id(), request=request, tuned=tuned)
        job.submitted_at = time.monotonic()
        self.metrics.inc("submitted")
        self._emit(
            "job_submitted",
            job_id=job.id,
            kind=job.kind,
            tenant=request.tenant,
            mode=request.mode,
            nranks=request.nranks,
            priority=request.priority,
            tuned=tuned,
        )

        if self.store is not None and request.cacheable:
            job.cache_key = request.cache_key()
            cached = self.store.get(job.cache_key)
            if cached is not None:
                self.metrics.inc("cache_hits")
                self._emit(
                    "cache_hit",
                    job_id=job.id,
                    tenant=request.tenant,
                    cache_key=job.cache_key,
                )
                job.cache_hit = True
                job.started_at = job.submitted_at
                with self._lock:
                    self._jobs[job.id] = job
                self._finish(job, JobState.DONE, result=cached)
                return job.id
            self.metrics.inc("cache_misses")

        with self._lock:
            self._jobs[job.id] = job
        try:
            job.ticket = self.scheduler.submit(job, priority=request.priority)
        except AdmissionError as exc:
            with self._lock:
                del self._jobs[job.id]
            self.metrics.inc("rejected")
            self.metrics.inc(f"rejected_{exc.reason}")
            self._emit(
                "job_rejected",
                job_id=job.id,
                tenant=request.tenant,
                reason=exc.reason,
            )
            raise
        self.metrics.set_gauge("queue_depth", self.scheduler.depth())
        return job.id

    def cancel(self, job_id: str) -> bool:
        """Cancel a job.  Pending jobs cancel immediately; running jobs
        best-effort (the in-flight run completes, its result is
        discarded).  False if the job is already terminal."""
        return self._cancel(self._job(job_id))

    def _cancel(self, job: Job) -> bool:
        if job.state is JobState.PENDING and job.ticket is not None:
            if self.scheduler.cancel(job.ticket):
                self.metrics.set_gauge("queue_depth", self.scheduler.depth())
                self._finish(
                    job, JobState.CANCELLED, error="cancelled while pending"
                )
                return True
        if not job.state.terminal:
            job.cancel_requested = True
            return True
        return False

    def status(self, job_id: str) -> JobState:
        return self._job(job_id).state

    def wait(
        self, job_id: str, timeout: float | None = None
    ) -> DetectionResponse:
        """Block until the job is terminal (or ``timeout`` elapses), then
        collect it: the engine forgets the job, so a later call on its id
        raises :class:`KeyError`, and returns its response."""
        return self._collect(self._job(job_id), timeout)

    def _collect(self, job: Job, timeout: float | None) -> DetectionResponse:
        if not job.done.wait(timeout=timeout):
            raise TimeoutError(
                f"job {job.id} still {job.state.value} after {timeout}s"
            )
        with self._lock:
            self._jobs.pop(job.id, None)
        return job.response()

    def wait_all(
        self,
        job_ids: Sequence[str] | None = None,
        timeout: float | None = None,
    ) -> list[DetectionResponse]:
        """Wait for and collect the given jobs (default: every detect
        job not collected yet; background tune jobs are left to finish
        on their own).

        Responses come back in the order of ``job_ids`` (submission
        order when defaulted).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        if job_ids is None:
            with self._lock:
                jobs = [j for j in self._jobs.values() if j.kind != "tune"]
        else:
            jobs = [self._job(job_id) for job_id in job_ids]
        out = []
        for job in jobs:
            remaining = (
                None if deadline is None else max(deadline - time.monotonic(), 0.0)
            )
            out.append(self._collect(job, remaining))
        return out

    def detect(
        self, request: DetectionRequest, timeout: float | None = None
    ) -> DetectionResponse:
        """Synchronous convenience: submit and wait.  On ``timeout`` the
        job is cancelled and the engine forgets it."""
        job_id = self.submit(request)
        try:
            return self.wait(job_id, timeout=timeout)
        except TimeoutError as exc:
            raise self._abandon([job_id], exc) from None

    def detect_at_resolutions(
        self,
        request: DetectionRequest,
        resolutions: Sequence[float],
        timeout: float | None = None,
    ) -> list[DetectionResponse]:
        """Zoom-level API: one graph, one cached job per resolution.

        Fans ``request`` out to ``len(resolutions)`` submissions that
        differ only in the resolution folded into their config — all
        share the input graph (and its fingerprint), so each level is a
        distinct result-store entry served bit-identically on repeat.
        Responses come back in the order of ``resolutions``.  On
        ``timeout`` every level not collected yet is cancelled and
        forgotten.
        """
        if not resolutions:
            raise ValueError("resolutions must be non-empty")
        # Resolve the graph once so N cache-key computations and N runs
        # share one CSR instead of re-loading graph_path per level.
        if request.mode != "resume":
            request = dataclasses.replace(
                request, graph=request.resolved_graph(), graph_path=None
            )
        ids = [
            self.submit(
                dataclasses.replace(request, resolution=float(r))
            )
            for r in resolutions
        ]
        try:
            return self.wait_all(ids, timeout=timeout)
        except TimeoutError as exc:
            raise self._abandon(ids, exc) from None

    def jobs(self) -> list[DetectionResponse]:
        """Snapshot of every job not collected yet, in submission order."""
        with self._lock:
            return [j.response() for j in self._jobs.values()]

    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Stop admitting work and (optionally) drain what is queued.

        ``cancel_pending=True`` cancels everything still queued;
        otherwise queued jobs are drained to completion first.  With
        ``wait=True`` blocks until the workers exit.
        """
        self._shutdown = True
        if cancel_pending:
            for job in self.scheduler.drain():
                self._finish(
                    job, JobState.CANCELLED, error="engine shut down"
                )
        self.scheduler.close()
        if wait:
            for t in self._threads:
                t.join()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _allocate_id(self) -> str:
        with self._lock:
            self._next_id += 1
            return f"job-{self._next_id:04d}"

    def _abandon(
        self, job_ids: Sequence[str], exc: TimeoutError
    ) -> TimeoutError:
        """Cancel the jobs of ``job_ids`` not collected yet, whose caller
        gave up waiting, and mark them so ``_finish`` drops them; returns
        the error to raise in place of ``exc``."""
        dropped = []
        for job_id in job_ids:
            with self._lock:
                job = self._jobs.get(job_id)
                if job is None:  # collected before the wait timed out
                    continue
                job.abandoned = True
                # ``_finish`` sets the state before it takes the lock, so
                # a job it finished before this is dropped here and one
                # it finishes after is dropped there.
                if job.state.terminal:
                    del self._jobs[job_id]
            dropped.append(job_id)
            self._cancel(job)
        return TimeoutError(f"{exc}; cancelled {', '.join(dropped)}")

    def _job(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job id {job_id!r}") from None

    def _finish(
        self,
        job: Job,
        state: JobState,
        *,
        result: LouvainResult | None = None,
        error: str | None = None,
    ) -> None:
        job.state = state
        job.result = result
        job.error = error
        # Nothing will resume the job any more.
        job.checkpoints = None
        job.finished_at = time.monotonic()
        self.metrics.inc(
            {
                JobState.DONE: "completed",
                JobState.FAILED: "failed",
                JobState.CANCELLED: "cancelled",
            }[state]
        )
        if state is JobState.DONE and result is not None:
            if job.started_at is not None:
                self.metrics.observe_run_latency(
                    job.finished_at - job.started_at
                )
            if not job.cache_hit:
                # A hit re-serves stored work; only fresh runs add
                # modelled time to the workload aggregate.
                self.metrics.observe_trace(result.trace, result.elapsed)
                measured = [
                    p.ghost_fraction
                    for p in result.phases
                    if p.ghost_fraction >= 0.0
                ]
                if measured:
                    self.metrics.set_gauge(
                        "last_ghost_fraction",
                        float(sum(measured) / len(measured)),
                    )
                self._emit_run_events(job, result)
                if self.drift is not None and job.kind == "detect":
                    self._observe_drift(job, result)
        self._emit(
            "job_finished",
            job_id=job.id,
            kind=job.kind,
            tenant=job.request.tenant,
            state=state.value,
            cache_hit=job.cache_hit,
            retries=job.retries,
            error=error,
            elapsed=result.elapsed if result is not None else None,
        )
        with self._lock:
            if job.kind == "tune" or job.abandoned:  # no caller collects it
                self._jobs.pop(job.id, None)
        job.done.set()

    def _worker_loop(self) -> None:
        while True:
            # An idle worker blocks in ``pop``; it must not hold its last
            # job (request, graph, result) while it does.
            job = None
            job = self.scheduler.pop()
            if job is None:  # closed and drained
                return
            self.metrics.set_gauge("queue_depth", self.scheduler.depth())
            if job.cancel_requested:
                self._finish(
                    job, JobState.CANCELLED, error="cancelled while pending"
                )
                continue
            job.state = JobState.RUNNING
            job.started_at = time.monotonic()
            self.metrics.observe_queue_latency(
                job.started_at - job.submitted_at
            )
            self._emit(
                "job_started",
                job_id=job.id,
                kind=job.kind,
                tenant=job.request.tenant,
                queue_seconds=job.started_at - job.submitted_at,
            )
            self.metrics.adjust_gauge("running", +1)
            try:
                self._run_job(job)
            finally:
                self.metrics.adjust_gauge("running", -1)

    # ------------------------------------------------------------------
    # Observability (see repro.obs) — all strictly passive
    # ------------------------------------------------------------------
    def _emit(self, event: str, **fields: object) -> None:
        if self.event_log is not None:
            self.event_log.emit(event, **fields)

    def _emit_run_events(self, job: Job, result: LouvainResult) -> None:
        """Per-phase and collective records for one fresh run, derived
        from the result after the fact (the SPMD world is untouched)."""
        if self.event_log is None:
            return
        for p in result.phases:
            self._emit(
                "spmd_phase",
                job_id=job.id,
                tenant=job.request.tenant,
                phase=p.phase,
                iterations=p.num_iterations,
                modularity=p.modularity,
                num_vertices=p.num_vertices,
                num_edges=p.num_edges,
            )
        if result.trace is not None:
            self._emit(
                "spmd_trace",
                job_id=job.id,
                tenant=job.request.tenant,
                seconds_by_category=result.trace.seconds_by_category(),
                collectives=result.trace.collective_counts(),
                messages=result.trace.total_messages,
                bytes=result.trace.total_bytes,
            )

    def _observe_drift(self, job: Job, result: LouvainResult) -> None:
        """Close the tuning loop: simulated seconds vs the cost model.

        Folds the job into the drift monitor's config-family EWMA,
        writes serving feedback onto the graph's tuning record, and —
        when the family crosses the drift threshold — fires a forced
        background re-tune against the calibrated machine model.
        Failures here must never fail the job: this path is passive.
        """
        assert self.drift is not None
        request = job.request
        try:
            from ..tune.costmodel import predict_cost
            from ..tune.features import compute_features
            from ..tune.space import Candidate

            g = request.resolved_graph()
            fingerprint = g.fingerprint()
            with self._lock:
                features = self._features_cache.get(fingerprint)
            if features is None:
                features = compute_features(g)
                with self._lock:
                    self._features_cache[fingerprint] = features
            machine = self.drift.machine or request.machine
            predicted = predict_cost(
                features,  # type: ignore[arg-type]
                Candidate(config=request.config, ranks=request.nranks),
                machine,
            ).seconds
            family = DriftMonitor.family_key(
                request.machine.name, request.config.label(), request.nranks
            )
            decision = self.drift.observe(family, predicted, result.elapsed)
            self.metrics.inc("drift_observations")
            self._emit(
                "drift_observed",
                job_id=job.id,
                tenant=request.tenant,
                family=family,
                predicted=predicted,
                simulated=result.elapsed,
                ratio=decision.ratio,
                retune=decision.retune,
            )
            if self.tuning_db is not None:
                record = self.tuning_db.get(fingerprint)
                if record is not None:
                    self.tuning_db.put(
                        dataclasses.replace(
                            record,
                            served_jobs=record.served_jobs + 1,
                            served_seconds_total=(
                                record.served_seconds_total + result.elapsed
                            ),
                            drift_ratio=decision.ratio,
                        )
                    )
            if decision.retune:
                self.metrics.inc("drift_retunes")
                calibrated = self.drift.machine
                self._emit(
                    "drift_retune",
                    job_id=job.id,
                    tenant=request.tenant,
                    family=family,
                    calibration=decision.calibration,
                    machine=calibrated.name if calibrated else machine.name,
                )
                if self.tuning_db is not None:
                    self._spawn_tune_job(request, fingerprint, force=True)
        except Exception as exc:
            self.metrics.inc("drift_errors")
            self._emit("drift_error", job_id=job.id, error=repr(exc))

    # ------------------------------------------------------------------
    # Autotuning (see repro.tune)
    # ------------------------------------------------------------------
    def _planned_request(
        self, request: DetectionRequest
    ) -> tuple[DetectionRequest, bool]:
        """Resolve a ``tune="auto"`` request against the tuning DB.

        Exact fingerprint hit, or nearest tuned neighbour in feature
        space, substitutes the planned (config, ranks).  A miss leaves
        the request untouched and — with ``tune_on_miss`` — queues a
        background tune job so the *next* submission hits.
        """
        if self.tuning_db is None:
            self.metrics.inc("tune_unavailable")
            return request, False
        g = request.resolved_graph()
        fingerprint = g.fingerprint()
        record = self.tuning_db.get(fingerprint)
        if record is None:
            from ..tune.features import compute_features

            near = self.tuning_db.nearest(compute_features(g))
            if near is not None:
                record = near.record
                self.metrics.inc("tune_nearest_hits")
        if record is not None:
            self.metrics.inc("tune_hits")
            planned = dataclasses.replace(
                request,
                graph=g,
                graph_path=None,
                config=record.config,
                nranks=record.ranks,
                tune="off",
            )
            return planned, True
        self.metrics.inc("tune_misses")
        if self.tune_on_miss:
            self._spawn_tune_job(request, fingerprint)
        return request, False

    def _spawn_tune_job(
        self, request: DetectionRequest, fingerprint: str, force: bool = False
    ) -> None:
        """Queue one background tune job per not-yet-tuned fingerprint.

        ``force=True`` (the drift-retune path) re-searches even though a
        record exists, using the drift monitor's calibrated machine.
        """
        with self._lock:
            if fingerprint in self._tuning_in_flight:
                return
            self._tuning_in_flight.add(fingerprint)
        job = Job(
            id=self._allocate_id(),
            request=request,
            kind="tune",
            tune_fingerprint=fingerprint,
            tune_force=force,
        )
        job.submitted_at = time.monotonic()
        with self._lock:
            self._jobs[job.id] = job
        try:
            job.ticket = self.scheduler.submit(
                job, priority=TUNE_JOB_PRIORITY
            )
        except AdmissionError:
            # Tuning is opportunistic: under backpressure it is shed
            # first, and the fingerprint may be retried later.
            with self._lock:
                del self._jobs[job.id]
                self._tuning_in_flight.discard(fingerprint)
            self.metrics.inc("tune_jobs_shed")
            return
        self.metrics.inc("tune_jobs")
        self._emit(
            "tune_spawned",
            job_id=job.id,
            tenant=request.tenant,
            fingerprint=fingerprint,
            forced=force,
        )

    def _run_tune_job(self, job: Job) -> None:
        from ..tune.search import tune_graph

        assert self.tuning_db is not None  # guaranteed by _spawn_tune_job
        try:
            settings = self.tune_settings or TunerSettings(
                trials=4, rung_phase_caps=(1,)
            )
            if job.tune_force and self.drift is not None:
                # Drift-triggered: search against the calibrated model so
                # the new plan's predictions match observed reality.
                calibrated = self.drift.machine
                if calibrated is not None:
                    settings = dataclasses.replace(
                        settings, machine=calibrated
                    )
            record, cached = tune_graph(
                job.request.resolved_graph(),
                self.tuning_db,
                settings=settings,
                force=job.tune_force,
            )
            if not cached:
                self.metrics.inc("background_tunes")
                self.metrics.observe_trace(
                    _tune_trace(record), record.tune_seconds
                )
            self._finish(job, JobState.DONE)
        except Exception as exc:
            # The job is dropped at finish, so the counter and the event
            # are the only record of the failure.
            self.metrics.inc("tune_failed")
            self._emit(
                "tune_failed",
                job_id=job.id,
                fingerprint=job.tune_fingerprint,
                error=repr(exc),
            )
            self._finish(job, JobState.FAILED, error=repr(exc))
        finally:
            if job.tune_fingerprint is not None:
                with self._lock:
                    self._tuning_in_flight.discard(job.tune_fingerprint)

    def _run_job(self, job: Job) -> None:
        if job.kind == "tune":
            self._run_tune_job(job)
            return
        request = job.request
        deadline = (
            job.submitted_at + request.timeout
            if request.timeout is not None
            else None
        )
        fault_plan: object = request.fault_plan
        resume = request.mode == "resume"
        while True:
            try:
                if not job.retries:
                    # So a retry can resume instead of restart.  (Built
                    # in here: a cadence it refuses fails the job.)
                    job.checkpoints = _checkpoints_for(
                        request, self.checkpoint_every_iterations
                    )
                with scoped(
                    self.event_log,
                    job_id=job.id,
                    tenant=request.tenant,
                ):
                    result = execute_request(
                        request,
                        checkpoints=job.checkpoints,
                        resume=resume,
                        fault_plan=fault_plan,
                    )
            except RETRYABLE as exc:
                job.retries += 1
                if job.retries > request.max_retries:
                    self._finish(
                        job,
                        JobState.FAILED,
                        error=f"failed after {job.retries - 1} retr"
                        f"{'y' if job.retries == 2 else 'ies'}: {exc!r}",
                    )
                    return
                if deadline is not None and time.monotonic() >= deadline:
                    self._finish(
                        job,
                        JobState.FAILED,
                        error=f"deadline exceeded after {exc!r}",
                    )
                    return
                self.metrics.inc("retries")
                self._emit(
                    "job_retry",
                    job_id=job.id,
                    tenant=request.tenant,
                    attempt=job.retries,
                    error=repr(exc),
                )
                # An injected fault fired; the retry models the post-crash
                # world where the failure condition is gone.
                fault_plan = None
                resume = self._can_resume(job)
                if resume:
                    job.resumed_from_checkpoint = True
                continue
            except Exception as exc:  # non-retryable: bad request, bug, ...
                self._finish(job, JobState.FAILED, error=repr(exc))
                return
            break
        if job.cancel_requested:
            self._finish(
                job,
                JobState.CANCELLED,
                error="cancelled while running; result discarded",
            )
            return
        if (
            self.store is not None
            and request.cacheable
            and job.cache_key is not None
        ):
            self.store.put(job.cache_key, result)
            self._emit(
                "cache_write",
                job_id=job.id,
                tenant=request.tenant,
                cache_key=job.cache_key,
            )
        self._finish(job, JobState.DONE, result=result)

    def _can_resume(self, job: Job) -> bool:
        """A retry resumes iff the job has a complete save point, in
        whichever medium it keeps them."""
        return (
            job.checkpoints is not None
            and job.checkpoints.latest(job.request.nranks) is not None
        )


def _tune_trace(record: TuningRecord) -> TraceReport:
    """The modelled cost of a tuning search as a one-rank ``tune`` trace,
    so the engine's workload aggregate accounts for search overhead the
    same way it accounts for checkpointing or service overhead."""
    rt = RankTrace(rank=0)
    rt.charge("tune", record.tune_seconds)
    return TraceReport.merge([rt])


def detect(request: DetectionRequest) -> DetectionResponse:
    """One-shot inline detection through the unified request API.

    No queue, no worker pool, no cache — the request executes on the
    calling thread via the same :func:`execute_request` path the engine
    uses.  Prefer an :class:`Engine` when serving more than one job.
    """
    response = DetectionResponse(
        job_id="inline",
        state=JobState.PENDING,
        request=request,
        submitted_at=time.monotonic(),
    )
    response.started_at = response.submitted_at
    response.state = JobState.RUNNING
    try:
        response.result = execute_request(request)
        response.state = JobState.DONE
    except Exception as exc:
        response.error = repr(exc)
        response.state = JobState.FAILED
        response.finished_at = time.monotonic()
        raise
    response.finished_at = time.monotonic()
    return response
