"""SPMD executor: run one function on ``p`` simulated ranks.

Usage mirrors ``mpiexec -n p python script.py``::

    def main(comm, graph_parts):
        part = graph_parts[comm.rank]
        ...
        return comm.allreduce(local_value)

    result = run_spmd(8, main, graph_parts)
    result.values      # per-rank return values
    result.elapsed     # modelled execution time (max virtual clock)
    result.trace       # per-category time/message breakdown

Each rank runs in its own thread, and the threads of one world are
confined to **one CPU**.  Ranks spend their lives exchanging small
Python objects, so they serialise on the GIL: a second core adds no
throughput, only a cross-core GIL / condition-variable ping-pong at
every hand-off (measured on a 2-CPU box: one 8-rank ``mesh_p8``
detection made ~30 000 voluntary context switches and ~0.3 s of system
time when the kernel spread its threads over both CPUs — which it does
in some processes and not in others — and ~3 000 and ~0.02 s on one:
0.60 s against 0.20 s of wall).  So each rank thread of a multi-rank
world pins *itself* (``os.sched_setaffinity(0, ...)`` is per-thread on
Linux) to a CPU chosen per world from the caller's allowed set:
successive worlds take successive CPUs, offset by the pid so sibling
shard processes do not march in step.  The calling thread and every
other thread keep their masks, the pin dies with the rank threads, and
where the platform lacks the call (macOS, Windows), refuses it, or
allows one CPU the world runs unconfined.  Thread placement only ever
affects wall time, never the modelled time or the results (the
algorithms are deterministic given their seeds).

Memory: a world's :attr:`~repro.runtime.comm.World.workspace` (what its
scripted rendezvous keep by key — the sweep's buffers, in ``core/``) is
taken
from a pool of the *calling* thread and put back when the world
finishes cleanly, so the next world that thread starts inherits it:
memory such a call needs is allocated and faulted in once per calling
thread, not once per phase or detection, however many rank threads come
and go; and two worlds running at once — started from two threads, or
one nested in another — never share one.  A failed world's workspace is
dropped (a rank thread may still be inside it).

Failure semantics: the first exception on any rank aborts the world;
other ranks observe :class:`~repro.runtime.errors.RankAborted` at their
next communication call, and the executor re-raises a single
:class:`~repro.runtime.errors.RankFailedError` carrying every original
(non-secondary) failure.  A rank that neither returns nor fails — still
running after the join deadline and the abort — is reported the same
way, as a :class:`~repro.runtime.errors.CommTimeoutError` carrying the
deadlock audit; its slot is never handed back as ``None``.  (On
``size == 1`` the fast path lets the exception propagate natively
instead.)

Resilience hook: ``fault_plan`` installs a deterministic fault-injection
plan (see :mod:`repro.resilience.faults`) consulted on every
communication operation.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from ..obs.events import emit_current
from .comm import Communicator, World
from .errors import CommTimeoutError, RankAborted, RankFailedError
from .perfmodel import CORI_HASWELL, MachineModel
from .tracing import TraceReport


#: Multi-rank worlds started by this process so far (see ``_world_cpu``).
_WORLD_SEQ = itertools.count()


def _world_cpu() -> int | None:
    """CPU the next multi-rank world is confined to (``None``: unconfined).

    Read from the *calling* thread's mask, so a caller restricted to a
    subset (``taskset``, a cgroup cpuset) only ever yields CPUs of that
    subset.  The pid is added at use, not at import: a forked shard
    inherits the counter but not the offset.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return None
    return allowed[(os.getpid() + next(_WORLD_SEQ)) % len(allowed)]


#: Per calling thread, the workspaces of its finished worlds.
_IDLE = threading.local()


def _idle_workspaces() -> list[dict]:
    try:
        return _IDLE.pool
    except AttributeError:
        _IDLE.pool = []
        return _IDLE.pool


@dataclass
class SPMDResult:
    """Outcome of one :func:`run_spmd` call."""

    values: list[Any]
    clocks: list[float]
    trace: TraceReport
    machine: MachineModel
    size: int = field(default=0)

    def __post_init__(self) -> None:
        if not self.size:
            self.size = len(self.values)

    @property
    def elapsed(self) -> float:
        """Modelled execution time: the latest rank's virtual clock."""
        return max(self.clocks) if self.clocks else 0.0

    @property
    def value(self) -> Any:
        """Rank 0's return value (convenient for replicated results)."""
        return self.values[0]


def run_spmd(
    size: int,
    fn: Callable[..., Any],
    *args: Any,
    machine: MachineModel = CORI_HASWELL,
    timeout: float = 300.0,
    trace_events: bool = False,
    fault_plan: Any = None,
    **kwargs: Any,
) -> SPMDResult:
    """Execute ``fn(comm, *args, **kwargs)`` on ``size`` simulated ranks.

    Parameters
    ----------
    size:
        Number of ranks (the ``-n`` of ``mpiexec``).
    fn:
        The SPMD program.  Receives a :class:`Communicator` as its first
        argument; everything else is passed through unchanged, so
        rank-local data is usually selected via ``args[comm.rank]``.
    machine:
        Performance-model constants; defaults to the Cori Haswell preset.
    timeout:
        Per-blocking-operation timeout in real seconds: how long a rank
        waits for its peers to reach a rendezvous (or for a message);
        exceeding it is treated as a deadlock in the program under test.
        A world function running after every rank arrived is not
        waiting for a peer; the run as a whole is bounded at about twice
        the timeout.
    trace_events:
        Record per-rank virtual-time timelines, enabling
        ``result.trace.to_chrome_trace()`` (Perfetto-compatible export).
    fault_plan:
        Deterministic fault-injection plan (any object with
        ``on_op(rank, op_index, op_name)``; see
        :class:`repro.resilience.faults.FaultPlan`).
    """
    idle = _idle_workspaces()
    world = World(
        size, machine, timeout=timeout, workspace=idle.pop() if idle else None
    )
    world.fault_plan = fault_plan
    comms: list[Communicator] = [world.communicator(r) for r in range(size)]
    if trace_events:
        for c in comms:
            c.trace.enable_events()
    values: list[Any] = [None] * size
    failures: dict[int, BaseException] = {}
    lock = threading.Lock()
    # Passive observability: when an event scope is installed (the
    # engine wraps jobs in repro.obs.events.scoped), bracket the run
    # with correlated records; a no-op otherwise.
    emit_current("spmd_run_started", size=size, machine=machine.name)

    if size == 1:
        # Fast path: no threads needed, and failures propagate natively.
        try:
            values[0] = fn(comms[0], *args, **kwargs)
        except BaseException:
            emit_current("spmd_run_failed", size=1, failed_ranks=[0])
            raise
        idle.append(world.workspace)
        emit_current("spmd_run_finished", size=1, max_clock=comms[0].clock)
        return SPMDResult(
            values=values,
            clocks=[comms[0].clock],
            trace=TraceReport.merge([comms[0].trace]),
            machine=machine,
        )

    cpu = _world_cpu()

    def runner(rank: int) -> None:
        if cpu is not None:
            # This thread only.  A refusal (sandboxed syscall, cpuset
            # shrunk since the mask was read) costs wall time, nothing else.
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, {cpu})
        try:
            values[rank] = fn(comms[rank], *args, **kwargs)
        except RankAborted as exc:
            # Secondary failure: this rank was a victim, not the cause.
            with lock:
                failures.setdefault(rank, exc)
        except BaseException as exc:  # noqa: BLE001 - must not hang peers
            with lock:
                failures[rank] = exc
            world.abort(exc)

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"rank-{r}", daemon=True)
        for r in range(size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout * 2)
        if t.is_alive():
            world.abort(TimeoutError(f"thread {t.name} failed to finish"))
    for t in threads:
        t.join(timeout=5.0)
    # A rank that is still running never saw the abort (it is computing
    # or spinning, not communicating): its missing value is a failure,
    # not a ``None`` result.
    with lock:
        for r, t in enumerate(threads):
            if t.is_alive():
                failures.setdefault(r, CommTimeoutError(
                    f"rank {r} was still running {timeout * 2}s after the "
                    "world started and did not stop when it was aborted\n"
                    + world.deadlock_audit()
                ))

    if failures:
        primary = {
            r: e for r, e in failures.items() if not isinstance(e, RankAborted)
        }
        emit_current(
            "spmd_run_failed", size=size, failed_ranks=sorted(failures)
        )
        raise RankFailedError(primary or failures)

    idle.append(world.workspace)
    emit_current(
        "spmd_run_finished",
        size=size,
        max_clock=max(c.clock for c in comms),
    )
    return SPMDResult(
        values=values,
        clocks=[c.clock for c in comms],
        trace=TraceReport.merge([c.trace for c in comms]),
        machine=machine,
    )
