"""MPI-like communicator for the simulated SPMD runtime.

The paper's implementation is an MPI+OpenMP SPMD program.  This module
provides the same programming model inside one Python process: ``p``
ranks run as threads, each holding a :class:`Communicator`, and talk via

* buffered, blocking point-to-point messages (``send``/``recv``/
  ``sendrecv``; there is no nonblocking ``isend``/``irecv`` surface —
  sends never block, so nothing needed one), and
* synchronizing collectives (``barrier``, ``bcast``, ``reduce``,
  ``allreduce``, ``gather``, ``allgather``, ``scatter``, ``alltoall``,
  ``scan``/``exscan``), the owner-routed ``lookup`` and ``push``, the
  MPI-3-style ``neighbor_alltoall`` the paper lists as future work
  (§VI), and a fused request/reply ``exchange_roundtrip``.
  The algorithm itself uses allreduce, alltoall, lookup, push,
  allgather, gather and bcast, and checkpointing adds barrier; no
  caller outside the tests
  sends point to point.  ``send``, ``recv``, ``sendrecv``, ``reduce``,
  ``scatter``, ``scan``, ``exscan``, ``neighbor_alltoall`` and
  ``exchange_roundtrip`` stay only because the end-to-end benchmark's
  span table names them.

Beside them sits one rendezvous that is not a message,
:meth:`Communicator.world_call`: one function run once over every
rank's deposit (the sweep of a synchronised round, in ``core/``).  It
moves no bytes and charges no time, but every rank must make it in
schedule order like a collective, so the schedule check and the
deadlock audit see it.  Memory such a call keeps from one world to the
next lives in :attr:`World.workspace`.

:meth:`Communicator.solo` is ``MPI_COMM_SELF``: a one-rank communicator
for work one rank does alone inside the SPMD program (the gathered tail
of a run, in ``core/``).  Its collectives meet no peer, so they cost
nothing on the modelled machine.

A *leg* is one personalised exchange on the wire, a message from every
rank to every peer, priced per rank by the alltoallv model from the
bytes it sends and receives; the cost model and the trace counters read
the same sums.  ``alltoall`` is one leg and sizes its payloads once, in
the rendezvous finalizer (:func:`_leg_sizes`).  Owner-routed traffic
(Algorithm 3's community info) runs on the table-backed ``lookup``
(request and reply legs) and ``push`` (one leg): one rendezvous each, in
which the owners' work is done once for the world while every rank is
blocked.  The model, the trace and the fault plan still see the paper's
alltoallv legs — each leg consults the plan and counts as one
``alltoall`` — and message ``(s, d)`` is sized ``ENVELOPE_BYTES + Σ count
× itemsize`` (:func:`_count_sizes`), ``message_bytes`` of the same
slices by construction.

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
* ranks must call collectives in the same order with the same name and
  payload kind, as MPI requires of ops and datatypes; mismatches raise
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

Schedule check (always on): each rendezvous compares every arriving
rank's (op name, :func:`payload_kind` of its deposit) with the
generation's first arriver's — the op name alone for the rooted
``bcast`` and ``scatter``, whose non-roots deposit ``None``.  Every
earlier op already passed the same check on every rank, so a divergent
schedule fails at its *first* mismatched op, named by op index and rank,
instead of whatever op happens to explode later.  Every
:class:`~repro.runtime.errors.CommTimeoutError` carries a
wait-for-graph *deadlock audit* naming each blocked rank, the op it is
stuck in, and any wait cycle.
"""

from __future__ import annotations

import contextlib
import threading
from collections import defaultdict, deque
from itertools import accumulate
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .errors import (
    CollectiveMismatchError,
    CommTimeoutError,
    InvalidRankError,
    RankAborted,
)
from .payload import ENVELOPE_BYTES, message_bytes
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


def _leg_sizes(mats: Sequence[Sequence[Any]]) -> list[tuple[int, int]]:
    """Size every wire message of one ``alltoall`` leg once:
    ``mats[s][d]`` is rank ``s``'s payload for rank ``d``; the
    self-message never touches the wire and is not sized."""
    return _count_sizes(np.array([
        [message_bytes(v) - ENVELOPE_BYTES if d != s else 0 for d, v in enumerate(row)]
        for s, row in enumerate(mats)
    ]))


def _count_sizes(payload: np.ndarray) -> list[tuple[int, int]]:
    """Per rank, the bytes it sends and receives in a leg whose message
    ``(s, d)`` carries ``payload[s, d]`` bytes of arrays in its envelope
    (from counts: ``message_bytes`` of the same slices by construction).
    The cost model and the rank's trace counters read the same sums."""
    sizes = payload + ENVELOPE_BYTES
    sizes.flat[:: len(sizes) + 1] = 0  # the diagonal: self-messages
    return list(zip(sizes.sum(axis=1).tolist(), sizes.sum(axis=0).tolist()))


def _counts(cuts: Sequence[np.ndarray]) -> np.ndarray:
    """``counts[s, d]``: how many of rank ``s``'s ids rank ``d`` owns."""
    c = np.array(cuts)
    return c[:, 1:] - c[:, :-1]


def _widths(arrays: Sequence[Sequence[np.ndarray]]) -> np.ndarray:
    """Bytes per id of every rank's aligned ``arrays``, as a column."""
    return np.array([[sum(a.itemsize for a in row)] for row in arrays])


def _joined(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Every rank's part laid end to end (a lone rank's as it is): with
    contiguous ownership from 0, global ids index the owners' tables."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _route(
    counts: np.ndarray, arrays: Sequence[Sequence[np.ndarray]]
) -> list[tuple[np.ndarray, ...]]:
    """Personalised routing of concatenated arrays in one gather per
    field: ``arrays[s]`` are rank ``s``'s arrays in destination order,
    ``counts[s, d]`` elements for rank ``d``; rank ``d`` gets, per
    field, what every rank sent it concatenated in source order."""
    p = len(counts)
    if not counts.any():
        return [tuple(a[:0] for a in arrays[0])] * p
    flat = counts.ravel()
    lengths = counts.T.ravel()
    # Segment (s, d) moves from its start in the source-major layout to
    # its start in the destination-major one.
    shift = (flat.cumsum() - flat).reshape(p, p).T.ravel()
    shift -= lengths.cumsum() - lengths
    index = shift.repeat(lengths)
    index += np.arange(len(index))
    fields = [np.concatenate(field).take(index) for field in zip(*arrays)]
    cuts = list(accumulate(counts.sum(axis=0).tolist(), initial=0))
    return [
        tuple(f[cuts[d]:cuts[d + 1]] for f in fields) for d in range(p)
    ]


#: Rooted collectives: their non-root ranks deposit ``None``, so only
#: the op name is compared.
_ROOTED = frozenset({"bcast", "scatter"})

#: ``payload_kind`` by ``type`` (by ``(type, dtype)`` for an ndarray).
_KINDS: dict[Any, str] = {}


def payload_kind(obj: Any) -> str:
    """Shallow type/dtype descriptor of a collective deposit.

    Deliberately shallow: container *contents* may legitimately differ
    across ranks (e.g. per-rank failure lists in an allgather), but the
    top-level kind — and an ndarray's dtype — must agree, which is
    exactly the class of silent divergence real MPI datatypes enforce.
    Python and numpy scalars of one family share a kind.  Kinds are
    cached by type (and dtype), so the check costs one dict lookup.
    """
    key = (type(obj), obj.dtype) if isinstance(obj, np.ndarray) else type(obj)
    kind = _KINDS.get(key)
    if kind is None:
        kind = _KINDS[key] = _describe(obj)
    return kind


def _describe(obj: Any) -> str:
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
    return type(obj).__name__


def _delay(action: Any) -> float | None:
    """Seconds a fault-plan ``action`` delays its op (``None``: none)."""
    if isinstance(action, tuple) and action and action[0] == "delay":
        return float(action[1])
    return None


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
        #: The generation's first arriver: ``(rank, op_name, kind)``.
        self._first: tuple[int, str, str] = (0, "", "")
        self._results: dict[int, list[Any]] = {}
        self._refs: dict[int, int] = {}
        #: Ranks inside the current generation (diagnostics: deadlock
        #: audit "waiting for ...").
        self._present: set[int] = set()

    def _mismatch(
        self, rank: int, op_name: str, kind: str
    ) -> CollectiveMismatchError:
        """The error for an arrival whose ``(op_name, kind)`` is not the
        first arriver's.  Every earlier generation passed this check on
        every rank, so the current one is the first divergent op."""
        first, first_name, first_kind = self._first
        gen = self._gen
        if first_name != op_name:
            return CollectiveMismatchError(
                f"rank {rank} called {op_name!r} while other ranks are in "
                f"{first_name!r} (collective op #{gen})"
            )
        first_sig, sig = f"{op_name}|{first_kind}", f"{op_name}|{kind}"
        return CollectiveMismatchError(
            f"collective schedule divergence at op #{gen}: rank {first} "
            f"recorded {first_sig!r} but rank {rank} recorded {sig!r} "
            f"(detected entering {op_name!r}, collective op #{gen})"
        )

    def exchange(
        self,
        rank: int,
        op_name: str,
        kind: str,
        deposit: Any,
        finalize: Callable[[list[Any]], list[Any]],
        timeout: float,
    ) -> Any:
        """Deposit ``rank``'s value for generation ``op_name`` and return
        this rank's output.  ``kind`` is the deposit's
        :func:`payload_kind` (``""`` for a rooted op); it and the op
        name must equal the first arriver's."""
        with self._cv:
            self._world.check_abort()
            gen = self._gen
            if self._arrived == 0:
                self._first = (rank, op_name, kind)
            elif self._first[1:] != (op_name, kind):
                exc = self._mismatch(rank, op_name, kind)
                self._world.abort(exc)
                self._cv.notify_all()
                raise exc
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
        self._abort_exc: BaseException | None = None
        # Per-rank blocked state for the deadlock audit:
        # ("recv", source, tag) or ("collective", op_name, rendezvous).
        self._blocked: list[tuple | None] = [None] * size
        #: Optional fault-injection plan (``on_op(rank, op_index, op)``).
        self.fault_plan: Any = None
        # One mailbox per destination rank: (source, tag) -> FIFO of
        # (payload, arrival_time, nbytes).
        self._boxes: list[dict[tuple[int, int], deque]] = [
            defaultdict(deque) for _ in range(size)
        ]
        self._box_cvs = [threading.Condition() for _ in range(size)]
        self.rendezvous = _Rendezvous(size, self)
        # Each rank's alltoallv latency (its cost of a leg without bytes).
        self._latency = [
            machine.alltoallv_cost(0, 0, size, rank=r) for r in range(size)
        ]

    def leg_costs(self, sizes: list[tuple[int, int]]) -> list[float]:
        """``alltoallv_cost`` of every rank's ``(sent, received)`` bytes
        in one leg, from the latencies the world computed once."""
        beta = self.machine.beta
        return [t + beta * (s + r) for t, (s, r) in zip(self._latency, sizes)]

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
        #: Communication ops so far: the fault plan's 1-based op index.
        self._ops = 0

    def _fault_hook(self, op_name: str, category: str) -> Any:
        """Count one communication op (one call per op and per leg, so
        an observer that patches this method sees each with the
        ``category`` it charges) and return the world's fault-plan
        action for it: ``None``, ``("delay", dt)`` or ``("drop",)``;
        the caller charges a delay.  A kill raises here."""
        self._ops += 1
        plan = self.world.fault_plan
        if plan is None:
            return None
        return plan.on_op(self.rank, self._ops, op_name)

    def _consult(self, op_name: str, category: str) -> Any:
        """:meth:`_fault_hook` for an op that starts now: a ``delay``
        is charged to ``category`` at once; returns the action so
        callers can honour ``drop``."""
        action = self._fault_hook(op_name, category)
        dt = _delay(action)
        if dt is not None:
            self.charge(category, dt)
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
        in the same place of its schedule and with a deposit of the same
        kind, which the rendezvous checks and the deadlock audit reports
        like a collective.
        """
        return self.world.rendezvous.exchange(
            self.rank,
            "world_call",
            payload_kind(deposit),
            deposit,
            run,
            self.world.timeout,
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
            1, self.machine, timeout=self.world.timeout,
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
        action = self._consult("send", category)
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
        self._consult("recv", category)
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
        self._consult(name, category)
        self.trace.record_collective(name)
        out, new_clock = self.world.rendezvous.exchange(
            self.rank,
            name,
            "" if name in _ROOTED else payload_kind(deposit),
            (deposit, self.clock),
            finalize,
            self.world.timeout,
        )
        self.charge(category, max(new_clock - self.clock, 0.0))
        return out

    def _record_leg(self, sent: int, received: int) -> None:
        """Count one exchange leg: a message to and from every peer,
        ``sent`` and ``received`` bytes in all."""
        trace, peers = self.trace, self.size - 1
        trace.messages_sent += peers
        trace.bytes_sent += sent
        trace.messages_received += peers
        trace.bytes_received += received

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
        world, p = self.world, self.size

        def finalize(slots):
            mats, clocks, _ = zip(*slots)
            t0 = max(clocks)
            legs = _leg_sizes(mats)
            return [
                ([mats[s][r] for s in range(p)], (leg,), (t0 + dt,))
                for r, (leg, dt) in enumerate(zip(legs, world.leg_costs(legs)))
            ]

        return self._legs("alltoall", 1, list(values), finalize, category)

    def lookup(
        self,
        ids: np.ndarray,
        cuts: np.ndarray,
        tables: Sequence[np.ndarray],
        category: str = "other",
    ) -> tuple[np.ndarray, ...]:
        """Values of ascending ``ids`` from the ranks that own them
        (``ids[cuts[r]:cuts[r + 1]]`` are rank ``r``'s): request and
        reply legs in one rendezvous.  ``tables`` are this rank's dense
        tables over its own vertex interval, one per field; ownership is
        contiguous from 0, so the finalizer lays every rank's tables end
        to end and answers every rank with one gather per field by
        global id.  Returns one array per field, aligned with ``ids``.
        Request ``(d, s)`` carries the ids ``d`` asks ``s`` for, reply
        ``(s, d)`` one value per id and field (:meth:`_legs`).
        """
        world = self.world

        def finalize(slots):
            deps, clocks, late = zip(*slots)
            asks = [d[0] for d in deps]
            owners = [d[2] for d in deps]
            counts = _counts([d[1] for d in deps])
            asked = _joined(asks)
            fields = [_joined(w).take(asked) for w in zip(*owners)]
            cuts = list(accumulate([len(a) for a in asks], initial=0))
            request = _count_sizes(counts * _widths([[a] for a in asks]))
            reply = _count_sizes(counts.T * _widths(owners))
            t0 = max(clocks)
            mids = [t0 + dt for dt in world.leg_costs(request)]
            # The reply leg starts from every rank's clock after the
            # request leg and its reply-leg delay (the float operations
            # of charging them), as a second alltoall would.
            t1 = max(
                c + max(mid - c, 0.0) + (dt or 0.0)
                for c, mid, (dt,) in zip(clocks, mids, late)
            )
            return [
                (
                    tuple(f[cuts[r]:cuts[r + 1]] for f in fields),
                    (request[r], reply[r]),
                    (mids[r], t1 + dt),
                )
                for r, dt in enumerate(world.leg_costs(reply))
            ]

        return self._legs(
            "lookup", 2, (ids, cuts, tuple(tables)), finalize, category
        )

    def push(
        self,
        ids: np.ndarray,
        cuts: np.ndarray,
        values: Sequence[np.ndarray],
        tables: Sequence[np.ndarray],
        carry: Sequence[np.ndarray] | None = None,
        category: str = "other",
    ) -> tuple[np.ndarray, ...]:
        """Add ``values`` (one array per field, aligned with ascending
        ``ids``, cut by owner as in :meth:`lookup`) into the owners'
        dense ``tables``, in place: one leg.  The finalizer applies every
        rank's values with one ``np.add.at`` per field over the world's
        tables laid end to end, in source-rank order — the order one
        ``np.add.at`` per source gives each element — and copies each
        owner's slice back.  ``carry=(counts, *arrays)`` routes arrays in
        destination order in the same messages, ``counts[d]`` elements
        of each to rank ``d``; returns what was carried here, per field
        in source order (``()`` without ``carry``).
        """
        world, p = self.world, self.size

        def finalize(slots):
            deps, clocks, _ = zip(*slots)
            owners = [d[3] for d in deps]
            payload = _counts([d[1] for d in deps]) * _widths(
                [(d[0], *d[2]) for d in deps]
            )
            at = _joined([d[0] for d in deps])
            joined = [_joined(w) for w in zip(*owners)]
            for table, field in zip(joined, zip(*(d[2] for d in deps))):
                np.add.at(table, at, _joined(field))
            lo = 0
            for own in owners:
                hi = lo + len(own[0])
                for mine, table in zip(own, joined):
                    if mine is not table:
                        mine[:] = table[lo:hi]
                lo = hi
            carried = [()] * p
            if deps[0][4]:
                routed = np.array([d[4][0] for d in deps])
                arrays = [d[4][1:] for d in deps]
                payload += routed * _widths(arrays)
                carried = _route(routed, arrays)
            t0 = max(clocks)
            legs = _count_sizes(payload)
            return [
                (carried[r], (leg,), (t0 + dt,))
                for r, (leg, dt) in enumerate(zip(legs, world.leg_costs(legs)))
            ]

        return self._legs(
            "push",
            1,
            (ids, cuts, tuple(values), tuple(tables), tuple(carry or ())),
            finalize,
            category,
        )

    def _legs(
        self,
        name: str,
        legs: int,
        deposit: Any,
        finalize: Callable[[list[Any]], list[Any]],
        category: str,
    ) -> Any:
        """One rendezvous ``name`` the machine sees as ``legs`` alltoalls.
        Each leg consults the fault plan and is recorded before it.  The
        first leg's delay is charged before the rendezvous; a later
        leg's travels in the deposit ``(deposit, clock, late)`` — ``late``
        holds one delay or ``None`` per later leg — for ``finalize`` to
        start that leg after it, and is charged between the legs.  Each
        leg is then charged and counted from ``finalize``'s ``(result,
        sizes, ends)``, one of each a leg."""
        self._consult("alltoall", category)
        self.trace.record_collective("alltoall")
        late = []
        for _ in range(legs - 1):
            late.append(_delay(self._fault_hook("alltoall", category)))
            self.trace.record_collective("alltoall")
        out, sizes, ends = self.world.rendezvous.exchange(
            self.rank,
            name,
            payload_kind(deposit),
            (deposit, self.clock, late),
            finalize,
            self.world.timeout,
        )
        for dt, (sent, received), end in zip([None, *late], sizes, ends):
            if dt is not None:
                self.charge(category, dt)
            self.charge(category, max(end - self.clock, 0.0))
            self._record_leg(sent, received)
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
                m.alltoallv_cost(sent, recv, p, rank=r)
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
                t = t_mid + m.alltoallv_cost(sent, recv, p, rank=r)
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
