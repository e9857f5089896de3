"""MPI-like communicator for the simulated SPMD runtime.

The paper's implementation is an MPI+OpenMP SPMD program.  This module
provides the same programming model inside one Python process: ``p``
ranks run as threads, each holding a :class:`Communicator`, and talk via

* buffered, blocking point-to-point messages (``send``/``recv``/
  ``sendrecv``; there is no nonblocking ``isend``/``irecv`` surface —
  sends never block, so nothing needed one), and
* synchronizing collectives (``barrier``, ``bcast``, ``reduce``,
  ``allreduce``, ``gather``, ``allgather``, ``scatter``, ``alltoall``,
  ``scan``/``exscan``), the MPI-3-style ``neighbor_alltoall`` the
  paper lists as future work (§VI), and a fused request/reply
  ``exchange_roundtrip``.
  The algorithm itself uses allreduce, alltoall, allgather, gather and
  bcast, and checkpointing adds barrier; no caller outside the tests
  sends point to point.  ``send``, ``recv``, ``sendrecv``, ``reduce``,
  ``scatter``, ``scan``, ``exscan``, ``neighbor_alltoall`` and
  ``exchange_roundtrip`` stay only because the end-to-end benchmark's
  span table names them.

Beside them sits one rendezvous that is not a message,
:meth:`Communicator.world_call`: one function run once over every
rank's deposit (the sweep of a synchronised round, in ``core/``).  It
moves no bytes and charges no time, but every rank must make it in
schedule order like a collective, so the schedule verifier and the
deadlock audit see it.  Memory such a call keeps from one world to the
next lives in :attr:`World.workspace`.

:meth:`Communicator.solo` is ``MPI_COMM_SELF``: a one-rank communicator
for work one rank does alone inside the SPMD program (the gathered tail
of a run, in ``core/``).  Its collectives meet no peer, so they cost
nothing on the modelled machine.

The two personalized exchanges (``alltoall``, ``exchange_roundtrip``)
size each wire message exactly once, in the rendezvous finalizer
(:func:`_leg_sizes`): the cost model and the per-rank trace counters
both read that one matrix.

Every operation advances the rank's *virtual clock* according to the
:class:`~repro.runtime.perfmodel.MachineModel` and attributes the time to
a trace category (see :mod:`repro.runtime.tracing`), so the benchmark
harness can report both modelled execution times and the §V-A style
time breakdown.

Semantics notes (documented deviations from real MPI):

* sends are buffered and never block — message matching is FIFO per
  (source, tag) pair, like MPI's non-overtaking rule;
* all collectives are synchronizing (clocks align to the latest arriving
  rank before the collective's cost is added), which is the conservative
  model for a blocking implementation;
* ranks must call collectives in the same order with the same name, as
  MPI requires; mismatches raise
  :class:`~repro.runtime.errors.CollectiveMismatchError` instead of the
  undefined behaviour real MPI gives you.

Fault injection: the :class:`World` optionally carries a *fault plan*
(any object with ``on_op(rank, op_index, op_name)``; see
:class:`repro.resilience.faults.FaultPlan`).  Every send/recv/collective
first consults it.  The plan may raise
:class:`~repro.runtime.errors.InjectedFault` (killing the rank), or
return ``("delay", seconds)`` to add virtual latency, ``("drop",)`` to
silently discard a point-to-point send (the receiver eventually times
out, as with a real lost message), or ``None`` for no action.

Debug-mode dynamic verification (``REPRO_VERIFY_SCHEDULE=1`` or
``World(verify_schedule=True)``): every rank additionally records a
rolling hash of its (op name, payload kind) collective sequence, and
each rendezvous cross-checks the hashes as ranks arrive, so a divergent
schedule is localized to the *first* mismatched op (by op index and
rank) instead of whatever op happens to explode later.  Independent of
that flag, every :class:`~repro.runtime.errors.CommTimeoutError` carries
a wait-for-graph *deadlock audit* naming each blocked rank, the op it is
stuck in, and any wait cycle.  The static half of this tooling is
:mod:`repro.analysis` (``repro-louvain lint``).
"""

from __future__ import annotations

import contextlib
import os
import threading
from collections import defaultdict, deque
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .errors import (
    CollectiveMismatchError,
    CommTimeoutError,
    InvalidRankError,
    RankAborted,
)
from .payload import message_bytes
from .perfmodel import MachineModel
from .tracing import RankTrace

#: Reduction operators accepted by ``reduce``/``allreduce``/``scan``.
_REDUCE_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: a + b,
    "max": lambda a, b: np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b),
    "min": lambda a, b: np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b),
    "prod": lambda a, b: a * b,
    "land": lambda a, b: bool(a) and bool(b),
    "lor": lambda a, b: bool(a) or bool(b),
}


def _resolve_op(op: str | Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    if callable(op):
        return op
    try:
        return _REDUCE_OPS[op]
    except KeyError:
        raise ValueError(
            f"unknown reduction op {op!r}; expected one of {sorted(_REDUCE_OPS)}"
        ) from None


def _fold(values: Sequence[Any], op: Callable[[Any, Any], Any]) -> Any:
    acc = values[0]
    for v in values[1:]:
        acc = op(acc, v)
    return acc


def _leg_sizes(mats: Sequence[Sequence[Any]]) -> list[tuple[list[int], list[int]]]:
    """Size every wire message of one personalized-exchange leg once.

    ``mats[s][d]`` is rank ``s``'s payload for rank ``d``.  Returns, per
    rank, ``(sent, received)``: the sizes of the messages it sends (by
    destination) and receives (by source).  The self-message never
    touches the wire and is not sized.  The cost model prices a rank
    from the integer sums of its two lists and the rank's trace counters
    read the same lists back, so no payload is sized twice.
    """
    p = len(mats)
    sizes = [
        [message_bytes(v) if d != s else 0 for d, v in enumerate(row)]
        for s, row in enumerate(mats)
    ]
    return [
        (
            [sizes[r][d] for d in range(p) if d != r],
            [sizes[s][r] for s in range(p) if s != r],
        )
        for r in range(p)
    ]


# ----------------------------------------------------------------------
# Debug-mode collective-schedule verification
# ----------------------------------------------------------------------
#: FNV-1a offset basis — seed of every rank's rolling schedule hash.
_SCHEDULE_SEED = 0xCBF29CE484222325


def _schedule_hash(prev: int, sig: str) -> int:
    """Fold one op signature into an FNV-1a-style rolling hash."""
    h = prev
    for b in sig.encode():
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


#: Collectives whose deposits must have rank-identical payload kinds.
#: Rooted ops (bcast/scatter) are excluded: non-root ranks legitimately
#: deposit ``None``.
_DTYPE_CHECKED = frozenset(
    {
        "barrier",
        "reduce",
        "allreduce",
        "gather",
        "allgather",
        "alltoall",
        "scan",
        "exscan",
        "neighbor_alltoall",
        "exchange_roundtrip",
        "world_call",
    }
)


def payload_kind(obj: Any) -> str:
    """Shallow type/dtype descriptor of a collective deposit.

    Deliberately shallow: container *contents* may legitimately differ
    across ranks (e.g. per-rank failure lists in an allgather), but the
    top-level kind — and an ndarray's dtype — must agree, which is
    exactly the class of silent divergence real MPI datatypes enforce.
    """
    if obj is None:
        return "none"
    if isinstance(obj, np.ndarray):
        return f"ndarray[{obj.dtype}]"
    if isinstance(obj, (bool, np.bool_)):
        return "bool"
    if isinstance(obj, (int, np.integer)):
        return "int"
    if isinstance(obj, (float, np.floating)):
        return "float"
    if isinstance(obj, (str, bytes, dict, tuple, list)):
        return type(obj).__name__
    return type(obj).__name__


class ScheduleRecorder:
    """One rank's collective schedule as a rolling hash plus op log.

    The hash makes comparison O(1) per op; the log exists only to
    localize a divergence to its first mismatched entry once the hashes
    disagree.
    """

    def __init__(self, rank: int):
        self.rank = rank
        self.count = 0
        self.rolling = _SCHEDULE_SEED
        self.log: list[str] = []

    def record(self, op_name: str, kind: str) -> None:
        sig = f"{op_name}|{kind}" if kind else op_name
        self.count += 1
        self.rolling = _schedule_hash(self.rolling, sig)
        self.log.append(sig)


def _first_divergence(a: list[str], b: list[str]) -> tuple[int, str, str]:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i, x, y
    i = min(len(a), len(b))
    return (
        i,
        a[i] if i < len(a) else "<nothing>",
        b[i] if i < len(b) else "<nothing>",
    )


def _find_wait_cycle(edges: dict[int, set[int]]) -> list[int] | None:
    """First cycle in a wait-for graph (smallest-rank-first DFS)."""
    visited: set[int] = set()

    def dfs(node: int, path: list[int], pos: dict[int, int]):
        if node in pos:
            return path[pos[node]:] + [node]
        if node in visited or node not in edges:
            return None
        visited.add(node)
        pos[node] = len(path)
        path.append(node)
        for nxt in sorted(edges[node]):
            found = dfs(nxt, path, pos)
            if found is not None:
                return found
        path.pop()
        del pos[node]
        return None

    for start in sorted(edges):
        found = dfs(start, [], {})
        if found is not None:
            return found
    return None


class _Rendezvous:
    """Reusable all-ranks rendezvous behind every collective and every
    world call.

    Each call is one *generation*.  Every rank deposits a value; the
    last rank to arrive runs a ``finalize`` callback once, producing a
    per-rank output list; every rank then picks up its slot.  For a
    collective ``finalize`` routes payloads and prices them; for a
    :meth:`Communicator.world_call` it is the caller's computation, run
    on whichever rank thread arrived last (an exception in it fails that
    rank, and the world abort releases the others).  Results are kept
    per generation (refcounted) so a fast rank starting the next call
    cannot clobber a slow rank's pending result.
    """

    def __init__(self, size: int, world: "World"):
        self._size = size
        self._world = world
        self._cv = threading.Condition()
        self._gen = 0
        self._arrived = 0
        self._slots: list[Any] = [None] * size
        self._op_name: str | None = None
        self._results: dict[int, list[Any]] = {}
        self._refs: dict[int, int] = {}
        # Debug-mode schedule verification (lazy; see module docstring).
        self._recorders: list[ScheduleRecorder] | None = None
        self._sched_ref: int | None = None
        #: Ranks inside the current generation (diagnostics: deadlock
        #: audit "waiting for ...").
        self._present: set[int] = set()

    def _verify(
        self, rank: int, op_name: str, kind: str
    ) -> CollectiveMismatchError | None:
        """Record ``rank``'s op and cross-check rolling schedule hashes.

        The first arriver of each generation is the reference; any later
        arriver whose (hash, count) disagrees gets an error localizing
        the divergence to the first mismatched op of the two logs.
        """
        if self._recorders is None:
            self._recorders = [ScheduleRecorder(i) for i in range(self._size)]
        rec = self._recorders[rank]
        rec.record(op_name, kind)
        if self._arrived == 0:
            self._sched_ref = rank
            return None
        ref_rank = self._sched_ref
        ref = self._recorders[ref_rank]
        if (ref.rolling, ref.count) == (rec.rolling, rec.count):
            return None
        idx, ref_sig, sig = _first_divergence(ref.log, rec.log)
        return CollectiveMismatchError(
            f"collective schedule divergence at op #{idx}: rank {ref_rank} "
            f"recorded {ref_sig!r} but rank {rank} recorded {sig!r} "
            f"(detected entering {op_name!r}, collective op #{self._gen})"
        )

    def exchange(
        self,
        rank: int,
        op_name: str,
        deposit: Any,
        finalize: Callable[[list[Any]], list[Any]],
        timeout: float,
        kind: str = "",
    ) -> Any:
        with self._cv:
            self._world.check_abort()
            gen = self._gen
            if self._arrived == 0:
                self._op_name = op_name
            elif self._op_name != op_name:
                exc = CollectiveMismatchError(
                    f"rank {rank} called {op_name!r} while other ranks are in "
                    f"{self._op_name!r} (collective op #{gen})"
                )
                self._world.abort(exc)
                self._cv.notify_all()
                raise exc
            if self._world.verify_schedule:
                mismatch = self._verify(rank, op_name, kind)
                if mismatch is not None:
                    self._world.abort(mismatch)
                    self._cv.notify_all()
                    raise mismatch
            self._slots[rank] = deposit
            self._present.add(rank)
            self._arrived += 1
            if self._arrived == self._size:
                outs = finalize(self._slots)
                if len(outs) != self._size:
                    raise AssertionError(
                        f"finalize for {op_name!r} returned {len(outs)} outputs "
                        f"for {self._size} ranks"
                    )
                self._results[gen] = outs
                self._refs[gen] = self._size
                self._slots = [None] * self._size
                self._arrived = 0
                self._present = set()
                self._gen += 1
                self._cv.notify_all()
            else:
                self._world.set_blocked(rank, ("collective", op_name, self))
                try:
                    while self._gen == gen:
                        if not self._cv.wait(timeout):
                            exc = CommTimeoutError(
                                f"rank {rank} timed out after {timeout}s inside "
                                f"collective {op_name!r} (collective op "
                                f"#{gen}); only {self._arrived}/{self._size} "
                                "ranks arrived — likely a deadlock in the "
                                "SPMD program\n"
                                + self._world.deadlock_audit()
                            )
                            self._world.abort(exc)
                            self._cv.notify_all()
                            raise exc
                        self._world.check_abort()
                finally:
                    self._world.clear_blocked(rank)
            out = self._results[gen][rank]
            self._refs[gen] -= 1
            if self._refs[gen] == 0:
                del self._results[gen]
                del self._refs[gen]
            return out

    def wake_all(self) -> None:
        with self._cv:
            self._cv.notify_all()


class World:
    """Shared state for one SPMD run: mailboxes, rendezvous, abort flag."""

    def __init__(
        self,
        size: int,
        machine: MachineModel,
        timeout: float = 120.0,
        verify_schedule: bool | None = None,
        workspace: dict | None = None,
    ):
        if size < 1:
            raise InvalidRankError(f"world size must be >= 1, got {size}")
        self.size = size
        self.machine = machine
        self.timeout = timeout
        #: Memory the program keeps by key for world calls; it may
        #: outlive the world (``run_spmd`` hands it to the next world its
        #: calling thread starts), so no two live worlds share one.
        self.workspace = {} if workspace is None else workspace
        if verify_schedule is None:
            verify_schedule = os.environ.get(
                "REPRO_VERIFY_SCHEDULE", ""
            ).strip().lower() in ("1", "true", "on", "yes")
        #: Debug mode: cross-check each rank's rolling collective-schedule
        #: hash at every rendezvous (see module docstring).
        self.verify_schedule = bool(verify_schedule)
        self._abort_exc: BaseException | None = None
        # Per-rank blocked state for the deadlock audit:
        # ("recv", source, tag) or ("collective", op_name, rendezvous).
        self._blocked: list[tuple | None] = [None] * size
        #: Optional fault-injection plan (``on_op(rank, op_index, op)``).
        self.fault_plan: Any = None
        # Per-rank communication-operation counters (each rank only ever
        # touches its own slot, so no locking is needed).
        self._op_counts: list[int] = [0] * size
        # One mailbox per destination rank: (source, tag) -> FIFO of
        # (payload, arrival_time, nbytes).
        self._boxes: list[dict[tuple[int, int], deque]] = [
            defaultdict(deque) for _ in range(size)
        ]
        self._box_cvs = [threading.Condition() for _ in range(size)]
        self.rendezvous = _Rendezvous(size, self)

    # -- abort handling -------------------------------------------------
    def abort(self, exc: BaseException) -> None:
        """Record the first failure and wake every blocked rank."""
        if self._abort_exc is None:
            self._abort_exc = exc
        for cv in self._box_cvs:
            with cv:
                cv.notify_all()
        self.rendezvous.wake_all()

    @property
    def aborted(self) -> bool:
        return self._abort_exc is not None

    def check_abort(self) -> None:
        if self._abort_exc is not None:
            raise RankAborted(
                f"world aborted by another rank: {self._abort_exc!r}"
            )

    # -- mailbox plumbing ------------------------------------------------
    def post(self, dest: int, source: int, tag: int, item: tuple) -> None:
        cv = self._box_cvs[dest]
        with cv:
            self._boxes[dest][(source, tag)].append(item)
            cv.notify_all()

    def take(self, dest: int, source: int, tag: int, timeout: float) -> tuple:
        cv = self._box_cvs[dest]
        key = (source, tag)
        with cv:
            self.set_blocked(dest, ("recv", source, tag))
            try:
                while not self._boxes[dest][key]:
                    self.check_abort()
                    if not cv.wait(timeout):
                        exc = CommTimeoutError(
                            f"rank {dest} timed out after {timeout}s waiting "
                            f"for a message from rank {source} tag {tag}\n"
                            + self.deadlock_audit()
                        )
                        self.abort(exc)
                        raise exc
                self.check_abort()
                return self._boxes[dest][key].popleft()
            finally:
                self.clear_blocked(dest)

    def fault_op(self, rank: int, op_name: str) -> Any:
        """Advance ``rank``'s op counter and consult the fault plan.

        Op indices are 1-based (the rank's first communication
        operation is op 1).  Returns the plan's action (``None`` /
        ``("delay", dt)`` / ``("drop",)``); a kill is raised by the
        plan itself as :class:`~repro.runtime.errors.InjectedFault`.
        """
        n = self._op_counts[rank] + 1
        self._op_counts[rank] = n
        if self.fault_plan is None:
            return None
        return self.fault_plan.on_op(rank, n, op_name)

    # -- deadlock audit --------------------------------------------------
    def set_blocked(self, rank: int, info: tuple) -> None:
        self._blocked[rank] = info

    def clear_blocked(self, rank: int) -> None:
        self._blocked[rank] = None

    def deadlock_audit(self) -> str:
        """Wait-for-graph snapshot: every rank's blocking op plus any
        wait cycle.  Attached to each :class:`CommTimeoutError`.

        Reads other ranks' state without their locks — safe for a
        diagnostic taken when progress has already stopped.
        """
        lines = ["deadlock audit (wait-for graph):"]
        edges: dict[int, set[int]] = {}
        for r in range(self.size):
            info = self._blocked[r]
            if info is None:
                lines.append(
                    f"  rank {r}: running (not blocked in communication)"
                )
                continue
            if info[0] == "recv":
                _, source, tag = info
                lines.append(
                    f"  rank {r}: blocked in recv(source={source}, tag={tag})"
                )
                edges[r] = {source}
            else:
                _, op_name, rdv = info
                waiting = sorted(
                    set(range(self.size)) - rdv._present
                )
                lines.append(
                    f"  rank {r}: blocked in collective {op_name!r} "
                    f"(op #{rdv._gen}), waiting for ranks {waiting}"
                )
                edges[r] = set(waiting)
        cycle = _find_wait_cycle(edges)
        if cycle is not None:
            lines.append(
                "  wait cycle: " + " -> ".join(str(r) for r in cycle)
            )
        else:
            lines.append(
                "  no wait cycle detected (a rank may be slow, dead, "
                "or computing)"
            )
        return "\n".join(lines)

    def communicator(self, rank: int) -> "Communicator":
        return Communicator(self, rank)


class Communicator:
    """Per-rank handle: messaging, collectives, and virtual-clock charging."""

    def __init__(self, world: World, rank: int):
        if not 0 <= rank < world.size:
            raise InvalidRankError(f"rank {rank} out of range [0, {world.size})")
        self.world = world
        self.rank = rank
        self.size = world.size
        self.machine = world.machine
        self.clock = 0.0
        self.trace = RankTrace(rank=rank)

    def _fault_hook(self, op_name: str, category: str) -> Any:
        """Consult the world's fault plan before a communication op.

        Applies a ``delay`` action immediately (extra virtual latency
        charged to the op's category) and returns the action so callers
        can honour ``drop``.
        """
        action = self.world.fault_op(self.rank, op_name)
        if isinstance(action, tuple) and action and action[0] == "delay":
            self.charge(category, float(action[1]))
        return action

    # ------------------------------------------------------------------
    # Local cost charging
    # ------------------------------------------------------------------
    def charge(self, category: str, dt: float) -> None:
        """Advance this rank's virtual clock by ``dt`` seconds."""
        self.trace.charge(category, dt, at=self.clock)
        self.clock += dt

    def charge_compute(self, ops: float, category: str = "compute") -> None:
        """Charge ``ops`` edge/vertex operations of local compute."""
        self.charge(category, self.machine.compute_cost(ops))

    def charge_io(self, nbytes: float) -> None:
        """Charge reading ``nbytes`` from the parallel filesystem."""
        self.charge("io", self.machine.io_cost(nbytes))

    # ------------------------------------------------------------------
    # World calls
    # ------------------------------------------------------------------
    def world_call(
        self, deposit: Any, run: Callable[[list[Any]], list[Any]]
    ) -> Any:
        """Run ``run`` once over every rank's ``deposit`` (in rank order)
        and return this rank's item of the list it returns.

        For work that is independent per rank but cheaper as one call:
        the last rank to arrive runs it for all.  It is not a message —
        nothing is sized or sent, the virtual clock does not move, the
        trace records nothing and the fault plan is not consulted (its
        op indices, and so its seeded kill points, count communication
        only) — so each rank charges its own share of the work itself.
        It is a rendezvous all the same: every rank must make the call,
        in the same place of its schedule, which the schedule verifier
        checks and the deadlock audit reports like a collective.
        """
        return self.world.rendezvous.exchange(
            self.rank,
            "world_call",
            deposit,
            run,
            self.world.timeout,
            kind=self._schedule_kind("world_call", deposit),
        )

    @contextlib.contextmanager
    def solo(self) -> Iterator["Communicator"]:
        """``MPI_COMM_SELF``: a one-rank communicator of this rank alone,
        open for the ``with`` block.

        Only this rank uses it; the world's other ranks go on with their
        own schedule (typically, waiting in the collective that follows).
        Its collectives meet no peer: the one-rank cost formulas are
        zero, no fault plan is consulted and no rendezvous waits.  It
        shares this rank's trace and the world's workspace, and runs on
        this rank's clock — it starts at it and hands it back when the
        block ends.
        """
        world = World(
            1,
            self.machine,
            timeout=self.world.timeout,
            verify_schedule=self.world.verify_schedule,
            workspace=self.world.workspace,
        )
        comm = Communicator(world, 0)
        comm.clock, comm.trace = self.clock, self.trace
        try:
            yield comm
        finally:
            self.clock = comm.clock

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0, category: str = "other") -> None:
        """Buffered send; never blocks."""
        self._check_peer(dest)
        action = self._fault_hook("send", category)
        n = message_bytes(obj)
        # Sender pays the injection overhead (cheaper when the peer is
        # on the same node); the payload arrives after the full
        # alpha-beta transfer completes.
        alpha = self.machine.p2p_alpha(self.rank, dest)
        self.charge(category, alpha)
        arrival = self.clock + self.machine.beta * n
        self.trace.record_send(n)
        if isinstance(action, tuple) and action and action[0] == "drop":
            return  # the message is lost in transit
        self.world.post(dest, self.rank, tag, (obj, arrival, n))

    def recv(self, source: int, tag: int = 0, category: str = "other") -> Any:
        """Blocking receive of the next matching message (FIFO order)."""
        self._check_peer(source)
        self._fault_hook("recv", category)
        obj, arrival, n = self.world.take(
            self.rank, source, tag, self.world.timeout
        )
        self.trace.record_recv(n)
        # Time inside recv = wait for arrival (if any) + receive overhead.
        target = max(self.clock, arrival) + self.machine.p2p_alpha(
            source, self.rank
        )
        self.charge(category, target - self.clock)
        return obj

    def sendrecv(
        self,
        obj: Any,
        dest: int,
        source: int,
        sendtag: int = 0,
        recvtag: int = 0,
        category: str = "other",
    ) -> Any:
        self.send(obj, dest, tag=sendtag, category=category)
        return self.recv(source, tag=recvtag, category=category)

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise InvalidRankError(
                f"peer rank {peer} out of range [0, {self.size})"
            )

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def _collective(
        self,
        name: str,
        deposit: Any,
        finalize: Callable[[list[Any]], list[Any]],
        category: str,
    ) -> Any:
        """Run one synchronizing collective and apply its clock update.

        ``finalize`` receives the per-rank deposits ``[(value, clock)]``
        and must return per-rank ``(result, new_clock)`` pairs.
        """
        self._fault_hook(name, category)
        self.trace.record_collective(name)
        out, new_clock = self.world.rendezvous.exchange(
            self.rank,
            name,
            (deposit, self.clock),
            finalize,
            self.world.timeout,
            kind=self._schedule_kind(name, deposit),
        )
        self.charge(category, max(new_clock - self.clock, 0.0))
        return out

    def _schedule_kind(self, name: str, deposit: Any) -> str:
        """Payload descriptor recorded by the schedule verifier."""
        if self.world.verify_schedule and name in _DTYPE_CHECKED:
            return payload_kind(deposit)
        return ""

    def _record_leg(self, sent: list[int], received: list[int]) -> None:
        """Count one exchange leg's messages, sized by ``_leg_sizes``."""
        for n in sent:
            self.trace.record_send(n)
        for n in received:
            self.trace.record_recv(n)

    def barrier(self, category: str = "other") -> None:
        m = self.machine
        p = self.size

        def finalize(slots):
            t = max(c for _, c in slots) + m.barrier_cost(p)
            return [(None, t)] * p

        self._collective("barrier", None, finalize, category)

    def bcast(self, obj: Any, root: int = 0, category: str = "other") -> Any:
        self._check_peer(root)
        m = self.machine
        p = self.size

        def finalize(slots):
            value = slots[root][0]
            t = max(c for _, c in slots) + m.bcast_cost(message_bytes(value), p)
            return [(value, t)] * p

        return self._collective(
            "bcast", obj if self.rank == root else None, finalize, category
        )

    def reduce(
        self,
        value: Any,
        op: str | Callable[[Any, Any], Any] = "sum",
        root: int = 0,
        category: str = "other",
    ) -> Any:
        """Reduce to ``root``; other ranks receive ``None``."""
        self._check_peer(root)
        fn = _resolve_op(op)
        m = self.machine
        p = self.size

        def finalize(slots):
            values = [v for v, _ in slots]
            total = _fold(values, fn)
            n = max(message_bytes(v) for v in values)
            t = max(c for _, c in slots) + m.reduce_cost(n, p)
            return [(total if r == root else None, t) for r in range(p)]

        return self._collective("reduce", value, finalize, category)

    def allreduce(
        self,
        value: Any,
        op: str | Callable[[Any, Any], Any] = "sum",
        category: str = "allreduce",
    ) -> Any:
        fn = _resolve_op(op)
        m = self.machine
        p = self.size

        def finalize(slots):
            values = [v for v, _ in slots]
            total = _fold(values, fn)
            n = max(message_bytes(v) for v in values)
            t = max(c for _, c in slots) + m.allreduce_cost(n, p)
            return [(total, t)] * p

        return self._collective("allreduce", value, finalize, category)

    def gather(self, value: Any, root: int = 0, category: str = "other") -> list | None:
        self._check_peer(root)
        m = self.machine
        p = self.size

        def finalize(slots):
            values = [v for v, _ in slots]
            n = max(message_bytes(v) for v in values)
            t = max(c for _, c in slots) + m.gather_cost(n, p)
            return [(list(values) if r == root else None, t) for r in range(p)]

        return self._collective("gather", value, finalize, category)

    def allgather(self, value: Any, category: str = "other") -> list:
        m = self.machine
        p = self.size

        def finalize(slots):
            values = [v for v, _ in slots]
            n = max(message_bytes(v) for v in values)
            t = max(c for _, c in slots) + m.allgather_cost(n, p)
            return [(list(values), t)] * p

        return self._collective("allgather", value, finalize, category)

    def scatter(
        self, values: Sequence[Any] | None, root: int = 0, category: str = "other"
    ) -> Any:
        """Root provides one value per rank; each rank receives its own."""
        self._check_peer(root)
        m = self.machine
        p = self.size

        def finalize(slots):
            send = slots[root][0]
            if send is None or len(send) != p:
                raise ValueError(
                    f"scatter root must supply exactly {p} values, got "
                    f"{None if send is None else len(send)}"
                )
            n = max(message_bytes(v) for v in send)
            t = max(c for _, c in slots) + m.gather_cost(n, p)
            return [(send[r], t) for r in range(p)]

        return self._collective(
            "scatter", values if self.rank == root else None, finalize, category
        )

    def alltoall(self, values: Sequence[Any], category: str = "other") -> list:
        """Personalized all-to-all: rank ``i`` sends ``values[j]`` to ``j``.

        Cost per rank follows the pairwise-exchange alltoallv model with
        that rank's actual send/receive volumes, so an imbalanced
        exchange (a few heavy ghost owners) costs more on the heavy
        ranks — the effect the paper's §V-A profile attributes waiting
        time to.
        """
        if len(values) != self.size:
            raise ValueError(
                f"alltoall needs one value per rank ({self.size}), got "
                f"{len(values)}"
            )
        m = self.machine
        p = self.size

        def finalize(slots):
            mats = [v for v, _ in slots]
            t0 = max(c for _, c in slots)
            outs = []
            for r, (sent, recv) in enumerate(_leg_sizes(mats)):
                t = t0 + m.alltoallv_cost(sum(sent), sum(recv), p, rank=r)
                outs.append((([mats[s][r] for s in range(p)], sent, recv), t))
            return outs

        out, sent, recv = self._collective(
            "alltoall", list(values), finalize, category
        )
        self._record_leg(sent, recv)
        return out

    def exchange_roundtrip(
        self,
        outgoing: Sequence[Any],
        serve: Callable[[list], list],
        category: str = "other",
    ) -> list:
        """Fused request/reply personalized exchange (one collective).

        Rank ``i``'s ``outgoing[j]`` is delivered to rank ``j``; each
        rank's ``serve(incoming)`` then runs exactly once with the
        requests from every rank (``incoming[s]`` is rank ``s``'s
        request) and must return one reply payload per rank; the call
        returns the replies addressed to this rank (``result[j]`` is
        rank ``j``'s reply).  ``serve`` may mutate rank-local state (the
        deposits travel by reference inside the simulator, and every
        rank is blocked in the collective while the serve callbacks run
        in rank order).

        Cost model: two back-to-back alltoallv legs (see
        :meth:`MachineModel.alltoallv_cost`) with a synchronisation
        point in between — no rank can serve before its last request
        arrives.
        """
        if len(outgoing) != self.size:
            raise ValueError(
                f"exchange_roundtrip needs one payload per rank "
                f"({self.size}), got {len(outgoing)}"
            )
        m = self.machine
        p = self.size

        def finalize(slots):
            mats = [v for (v, _fn), _ in slots]
            serves = [fn for (_v, fn), _ in slots]
            t0 = max(c for _, c in slots)
            # Request leg: servers reply only once every request landed.
            req_sizes = _leg_sizes(mats)
            t_mid = t0 + max(
                m.alltoallv_cost(sum(sent), sum(recv), p, rank=r)
                for r, (sent, recv) in enumerate(req_sizes)
            )
            # Serve in rank order: deterministic regardless of which
            # thread happens to run the rendezvous finalizer.
            reply_mat = []
            for r in range(p):
                replies = serves[r]([mats[s][r] for s in range(p)])
                if len(replies) != p:
                    raise ValueError(
                        f"serve on rank {r} returned {len(replies)} "
                        f"replies for {p} ranks"
                    )
                reply_mat.append(replies)
            outs = []
            for r, (sent, recv) in enumerate(_leg_sizes(reply_mat)):
                t = t_mid + m.alltoallv_cost(sum(sent), sum(recv), p, rank=r)
                received = [reply_mat[s][r] for s in range(p)]
                outs.append(((received, req_sizes[r], (sent, recv)), t))
            return outs

        received, req_leg, reply_leg = self._collective(
            "exchange_roundtrip", (list(outgoing), serve), finalize, category
        )
        self._record_leg(*req_leg)
        self._record_leg(*reply_leg)
        return received

    def neighbor_alltoall(
        self, payloads: dict[int, Any], category: str = "other"
    ) -> dict[int, Any]:
        """Sparse personalized exchange (MPI-3 neighbourhood collective).

        Each rank supplies ``{dest: payload}`` for its actual neighbours
        only; latency scales with the neighbourhood degree instead of
        ``p - 1`` (the optimization the paper proposes in §VI).
        Returns ``{source: payload}``.
        """
        m = self.machine
        p = self.size

        def finalize(slots):
            mats = [v for v, _ in slots]
            t0 = max(c for _, c in slots)
            outs = []
            for r in range(p):
                received = {
                    s: mats[s][r]
                    for s in range(p)
                    if s != r and r in mats[s]
                }
                sent_bytes = sum(
                    message_bytes(v) for d, v in mats[r].items() if d != r
                )
                recv_bytes = sum(message_bytes(v) for v in received.values())
                degree = len([d for d in mats[r] if d != r]) + len(received)
                t = t0 + m.neighbor_alltoallv_cost(sent_bytes, recv_bytes, degree)
                outs.append((received, t))
            return outs

        for d in payloads:
            self._check_peer(d)
        out = self._collective(
            "neighbor_alltoall", dict(payloads), finalize, category
        )
        for d, v in payloads.items():
            if d != self.rank:
                self.trace.record_send(message_bytes(v))
        for v in out.values():
            self.trace.record_recv(message_bytes(v))
        return out

    def scan(
        self,
        value: Any,
        op: str | Callable[[Any, Any], Any] = "sum",
        category: str = "other",
    ) -> Any:
        """Inclusive prefix reduction over ranks 0..self.rank."""
        fn = _resolve_op(op)
        m = self.machine
        p = self.size

        def finalize(slots):
            values = [v for v, _ in slots]
            n = max(message_bytes(v) for v in values)
            t = max(c for _, c in slots) + m.allreduce_cost(n, p)
            outs, acc = [], None
            for r in range(p):
                acc = values[r] if r == 0 else fn(acc, values[r])
                outs.append((acc, t))
            return outs

        return self._collective("scan", value, finalize, category)

    def exscan(
        self,
        value: Any,
        op: str | Callable[[Any, Any], Any] = "sum",
        identity: Any = 0,
        category: str = "other",
    ) -> Any:
        """Exclusive prefix reduction; rank 0 receives ``identity``.

        This is the primitive behind the global renumbering step of the
        distributed graph reconstruction (§IV-A step 3).
        """
        fn = _resolve_op(op)
        m = self.machine
        p = self.size

        def finalize(slots):
            values = [v for v, _ in slots]
            n = max(message_bytes(v) for v in values)
            t = max(c for _, c in slots) + m.allreduce_cost(n, p)
            outs, acc = [], identity
            for r in range(p):
                outs.append((acc, t))
                acc = values[r] if r == 0 else fn(acc, values[r])
            return outs

        return self._collective("exscan", value, finalize, category)
