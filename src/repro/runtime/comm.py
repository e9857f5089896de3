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
  caller outside the tests sends point to point.  ``send``, ``recv``,
  ``sendrecv``, ``reduce``, ``scatter``, ``scan``, ``exscan``,
  ``neighbor_alltoall`` and ``exchange_roundtrip`` stay only because
  the end-to-end benchmark's span table names them.

:meth:`Communicator.solo` is ``MPI_COMM_SELF``: a one-rank communicator
for work one rank does alone inside the SPMD program (the gathered tail
of a run, in ``core/``).  Its collectives meet no peer, so they cost
nothing on the modelled machine.

A *leg* is one personalised exchange on the wire, a message from every
rank to every peer, priced per rank by the alltoallv model from the
bytes it sends and receives; the cost model and the trace counters read
the same sums.  ``alltoall`` is one leg and sizes its payloads once
(:func:`_leg_sizes`).  Owner-routed traffic (Algorithm 3's community
info) runs on the table-backed ``lookup`` (request and reply legs) and
``push`` (one leg), in which the owners' work is done once for the
world while every rank is blocked.  The model, the trace and the fault
plan still see the paper's alltoallv legs — each leg consults the plan
and counts as one ``alltoall`` — and message ``(s, d)`` is sized
``ENVELOPE_BYTES + Σ count × itemsize`` (:func:`_count_sizes`),
``message_bytes`` of the same slices by construction.

What a rendezvous charges.  Every collective, ``lookup`` and ``push``
is *scripted* (:meth:`Communicator.scripted`): one rendezvous in which
a *world function* runs once, on whichever rank arrives last, over
every rank's deposit and every rank's :class:`Communicator`.  It makes
the ranks' ops through the world halves (:func:`alltoall_world`,
:func:`lookup_world`, :func:`push_world`, :func:`allreduce_world`,
:func:`allgather_world`; each other collective's is its method's own
``run``), or chains any number of them: one phase of Louvain, in
``core/``, is one world function.  A world step that reads what it
needs off the world's arrays prices a leg from counts alone
(:func:`alltoall_counts_world`).  Per op every rank *begins* it
(:meth:`Communicator._begin`: the fault plan, a delay it sets, the
collective count), then the world synchronises on the latest clock and
each rank *finishes* it at its end (:meth:`Communicator._finish`:
``max(end - clock, 0.0)``), recording the leg's bytes; an op priced
once for every rank is :func:`_synchronise`.  Every rank is blocked in
the rendezvous meanwhile, so the world charges each rank's own clock
and trace directly, in the order and with the float operations making
the ops one by one would.  A rendezvous that makes no op (a scripted
call that only computes) moves no clock and consults no plan, but every
rank must make it in schedule order like a collective, so the schedule
check and the deadlock audit see it.  Memory a world function keeps
from one world to the next lives in :attr:`World.workspace`.

A kill inside a world function.  A kill raised as an op begins stops
the world function there.  The victim raises its
:class:`~repro.runtime.errors.InjectedFault` and every other rank of the
rendezvous raises :class:`~repro.runtime.errors.RankAborted`, whichever
thread ran the world.  When several ranks' kills fall in one rendezvous
— one collective included — only the first the world function reaches
fires: ops in the order it makes them, and within an op the ranks in
rank order; the others' kills never run and they raise ``RankAborted``
like everyone else.  Any other exception in a world function fails the
rank whose thread ran it, and the world abort releases the others.

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
:class:`repro.resilience.faults.FaultPlan`), consulted once per op: by
``send`` and ``recv`` on the rank's own thread as they start, and for a
collective's every leg inside the world function, as the op begins
(:meth:`Communicator._begin`).  The plan may raise
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
from functools import partial
from itertools import accumulate
from typing import Any, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    CollectiveMismatchError,
    CommTimeoutError,
    InjectedFault,
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


def cut_counts(cuts: Sequence[np.ndarray]) -> np.ndarray:
    """``counts[s, d]``: how many of rank ``s``'s ids rank ``d`` owns."""
    c = np.array(cuts)
    return c[:, 1:] - c[:, :-1]


def _width(arrays: Sequence[np.ndarray]) -> int:
    """Bytes per element of aligned ``arrays``."""
    return sum(a.itemsize for a in arrays)


def _joined(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Every rank's part laid end to end (a lone rank's as it is): with
    contiguous ownership from 0, global ids index the owners' tables."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _split(cuts: Sequence[int], fields: Sequence[np.ndarray]) -> list[tuple]:
    """Rank ``r``'s slice ``cuts[r]:cuts[r + 1]`` of every field."""
    return [
        tuple(f[cuts[r]:cuts[r + 1]] for f in fields)
        for r in range(len(cuts) - 1)
    ]


def route(
    counts: np.ndarray, arrays: Sequence[np.ndarray]
) -> tuple[np.ndarray, ...]:
    """Personalised routing of laid-out arrays in one gather per field:
    ``arrays`` hold every rank's elements in destination order, rank
    ``s``'s after rank ``s - 1``'s, ``counts[s, d]`` of rank ``s``'s for
    rank ``d``.  Returns ``(cuts, *fields)``: per field what every rank
    receives, rank ``d``'s at ``cuts[d]:cuts[d + 1]``, in source order."""
    p = len(counts)
    flat = counts.ravel()
    lengths = counts.T.ravel()
    # Segment (s, d) moves from its start in the source-major layout to
    # its start in the destination-major one.
    shift = (flat.cumsum() - flat).reshape(p, p).T.ravel()
    shift -= lengths.cumsum() - lengths
    index = shift.repeat(lengths)
    index += np.arange(len(index))
    cuts = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(counts.sum(axis=0), out=cuts[1:])
    return (cuts, *(field.take(index) for field in arrays))


class _Killed(NamedTuple):
    """Every rank's output of a scripted rendezvous whose world function
    a kill stopped."""

    fault: InjectedFault


def _run_scripted(
    world: "World", run: Callable, slots: list[Any]
) -> list[Any]:
    """The finalizer of a scripted rendezvous: ``run`` over the deposits
    and the ranks' communicators; a kill at one of its ops stops it for
    every rank."""
    deposits, comms = zip(*slots)
    try:
        return run(world, comms, list(deposits))
    except InjectedFault as fault:
        return [_Killed(fault)] * len(slots)


def _largest(values: Sequence[Any]) -> int:
    """The ``message_bytes`` of the largest of ``values``."""
    return max(message_bytes(v) for v in values)


def _synchronise(
    comms: Sequence["Communicator"], op: str, category: str, cost: float
) -> None:
    """One op for every rank: each begins it, and it ends ``cost`` after
    the last has."""
    for comm in comms:
        comm._begin(op, category)
    end = max(comm.clock for comm in comms) + cost
    for comm in comms:
        comm._finish(category, end)


def _leg(
    world: "World", comms: Sequence["Communicator"], sizes, category: str
) -> None:
    """One alltoallv leg for every rank: each starts its next op, the leg
    starts once the last has, and rank ``r``'s share ends after its cost
    for the ``sizes[r] = (sent, received)`` bytes."""
    for comm in comms:
        comm._begin("alltoall", category)
    t0 = max(comm.clock for comm in comms)
    for comm, size, dt in zip(comms, sizes, world.leg_costs(sizes)):
        comm._finish(category, t0 + dt)
        comm._record_leg(*size)


def alltoall_world(
    world: "World", comms: Sequence["Communicator"],
    mats: list[Sequence[Any]], *, category: str,
) -> list[list[Any]]:
    """World half of :meth:`Communicator.alltoall`: ``mats[s][d]`` is
    rank ``s``'s payload for rank ``d``; every message is sized once
    (:func:`_leg_sizes`)."""
    _leg(world, comms, _leg_sizes(mats), category)
    return [[row[d] for row in mats] for d in range(len(mats))]


def alltoall_counts_world(
    world: "World", comms: Sequence["Communicator"], counts: np.ndarray,
    width: int, *, category: str,
) -> None:
    """One ``alltoall`` leg for every rank priced from counts: message
    ``(s, d)`` carries ``counts[s, d]`` elements of ``width`` bytes.
    Nothing is delivered: a world step that reads what it needs off the
    world's own arrays has the leg priced as if it had been sent."""
    _leg(world, comms, _count_sizes(counts * width), category)


def lookup_world(
    world: "World",
    comms: Sequence["Communicator"],
    ids: np.ndarray | None,
    counts: np.ndarray,
    tables: Sequence[np.ndarray],
    *,
    category: str,
) -> list[np.ndarray]:
    """The world half of an owner-routed lookup, request and reply legs
    for every rank: ``ids`` are every rank's asks laid end to end, rank
    ``s``'s asking ``counts[s, d]`` of them of rank ``d``; ``tables``
    arrive joined — the owners' dense tables laid end to end, one per
    field.  Ownership is contiguous from 0, so they are indexed by global
    id and one gather per field answers the world.  Request ``(d, s)``
    carries the ids ``d`` asks ``s`` for, reply ``(s, d)`` one value per
    id and field.  Returns one array per field, aligned with ``ids`` —
    none when ``ids`` is ``None``: a caller that reads the joined tables
    itself has the legs priced (int64 ids) and nothing gathered."""
    width = np.dtype(np.int64).itemsize if ids is None else ids.itemsize
    _leg(world, comms, _count_sizes(counts * width), category)
    _leg(world, comms, _count_sizes(counts.T * _width(tables)), category)
    return [] if ids is None else [table.take(ids) for table in tables]


def _lookup_ranks(
    world: "World", comms: Sequence["Communicator"], deposits: list[Any],
    *, category: str,
) -> list[tuple[np.ndarray, ...]]:
    """:func:`lookup_world` over per-rank deposits ``(ids, cuts,
    tables)`` (:meth:`Communicator.lookup`): joined, answered, cut back
    per rank."""
    asks = [d[0] for d in deposits]
    fields = lookup_world(
        world, comms, _joined(asks), cut_counts([d[1] for d in deposits]),
        [_joined(t) for t in zip(*(d[2] for d in deposits))],
        category=category,
    )
    return _split(list(accumulate(map(len, asks), initial=0)), fields)


def push_world(
    world: "World",
    comms: Sequence["Communicator"],
    ids: np.ndarray,
    counts: np.ndarray,
    values: Sequence[np.ndarray],
    tables: Sequence[np.ndarray],
    carry: tuple[np.ndarray, ...] | None = None,
    *,
    category: str,
) -> None:
    """The world half of an owner-routed push, one leg for every rank:
    ``ids`` are every rank's ids laid end to end, ``counts[s, d]`` of
    rank ``s``'s owned by rank ``d``, ``values`` one array per field
    aligned with them.  ``tables`` arrive joined, as in
    :func:`lookup_world`, and every value lands in them with one
    ``np.add.at`` per field, in source-rank order — the order one
    ``np.add.at`` per source gives each element.  ``carry = (counts,
    *arrays)`` prices arrays laid out the same way (each rank's in
    destination order, ``counts[s, d]`` of rank ``s``'s for ``d``) in the
    same messages; delivering them is the caller's (:func:`route`)."""
    payload = counts * _width([ids, *values])
    for table, field in zip(tables, values):
        np.add.at(table, ids, field)
    if carry is not None:
        routed, *arrays = carry
        payload += routed * _width(arrays)
    _leg(world, comms, _count_sizes(payload), category)


def _push_ranks(
    world: "World", comms: Sequence["Communicator"], deposits: list[Any],
    *, category: str,
) -> list[tuple[np.ndarray, ...]]:
    """:func:`push_world` over per-rank deposits ``(ids, cuts, values,
    tables, carry)`` (:meth:`Communicator.push`): the owners' tables are
    joined for it and each owner's slice copied back, and what was
    carried is routed (:func:`route`) and cut per destination."""
    p = len(deposits)
    owners = [d[3] for d in deposits]
    joined = [_joined(w) for w in zip(*owners)]
    carry = None
    if deposits[0][4]:
        carry = (
            np.array([d[4][0] for d in deposits]),
            *(_joined(f) for f in zip(*(d[4][1:] for d in deposits))),
        )
    push_world(
        world, comms, _joined([d[0] for d in deposits]),
        cut_counts([d[1] for d in deposits]),
        [_joined(f) for f in zip(*(d[2] for d in deposits))], joined, carry,
        category=category,
    )
    lo = 0
    for own in owners:
        hi = lo + len(own[0])
        for mine, table in zip(own, joined):
            if mine is not table:
                mine[:] = table[lo:hi]
        lo = hi
    if carry is None:
        return [()] * p
    carried = route(carry[0], carry[1:])
    return _split(carried[0], carried[1:])


def allreduce_world(
    world: "World",
    comms: Sequence["Communicator"],
    values: list[Any],
    op: Callable[[Any, Any], Any] = _REDUCE_OPS["sum"],
    *,
    category: str,
) -> list[Any]:
    """World half of :meth:`Communicator.allreduce`: ``values`` folded
    in rank order, priced by the largest deposit; every rank gets the
    one result."""
    cost = world.machine.allreduce_cost(_largest(values), len(values))
    _synchronise(comms, "allreduce", category, cost)
    return [_fold(values, op)] * len(values)


def allgather_world(
    world: "World", comms: Sequence["Communicator"], values: list[Any],
    *, category: str,
) -> list[list[Any]]:
    """World half of :meth:`Communicator.allgather`: priced by the
    largest deposit; every rank gets every value, in rank order."""
    cost = world.machine.allgather_cost(_largest(values), len(values))
    _synchronise(comms, "allgather", category, cost)
    return [list(values)] * len(values)


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
    """Reusable all-ranks rendezvous behind :meth:`Communicator.scripted`.

    Each call is one *generation*.  Every rank deposits a value; the
    last rank to arrive runs a ``finalize`` callback once — the world
    function over every rank's deposit and communicator — producing a
    per-rank output list; every rank then picks up its slot.  It runs
    on whichever rank thread arrived last (an exception in it fails that
    rank, and the world abort releases the others; a kill is handed to
    every rank as its output).  Results are kept per generation
    (refcounted) so a fast rank starting the next call cannot clobber a
    slow rank's pending result.
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
                        # A generation that completed while this rank
                        # waited (a long world function, every rank in)
                        # is no deadlock, however long it took.
                        if not self._cv.wait(timeout) and self._gen == gen:
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
        #: Memory the program keeps by key for world functions; it may
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
        if isinstance(action, tuple) and action and action[0] == "delay":
            self.charge(category, float(action[1]))
        return action

    def _begin(self, op_name: str, category: str) -> None:
        """Start this rank's next collective op: the fault plan is
        consulted for it (:meth:`_consult`; a kill raises here) and it
        counts as a collective.  A world function calls it for every
        rank's every op."""
        self._consult(op_name, category)
        self.trace.record_collective(op_name)

    def _finish(self, category: str, end: float) -> None:
        """The current op ends at ``end``: wait for it, in ``category``."""
        self.charge(category, max(end - self.clock, 0.0))

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
    def _record_leg(self, sent: int, received: int) -> None:
        """Count one exchange leg: a message to and from every peer,
        ``sent`` and ``received`` bytes in all."""
        trace, peers = self.trace, self.size - 1
        trace.messages_sent += peers
        trace.bytes_sent += sent
        trace.messages_received += peers
        trace.bytes_received += received

    def barrier(self, category: str = "other") -> None:
        def run(world, comms, deposits):
            cost = world.machine.barrier_cost(len(comms))
            _synchronise(comms, "barrier", category, cost)
            return deposits

        self.scripted("barrier", None, run)

    def bcast(self, obj: Any, root: int = 0, category: str = "other") -> Any:
        self._check_peer(root)

        def run(world, comms, deposits):
            value, p = deposits[root], len(comms)
            cost = world.machine.bcast_cost(message_bytes(value), p)
            _synchronise(comms, "bcast", category, cost)
            return [value] * p

        return self.scripted("bcast", obj if self.rank == root else None, run)

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

        def run(world, comms, values):
            p = len(comms)
            cost = world.machine.reduce_cost(_largest(values), p)
            _synchronise(comms, "reduce", category, cost)
            total = _fold(values, fn)
            return [total if r == root else None for r in range(p)]

        return self.scripted("reduce", value, run)

    def allreduce(
        self,
        value: Any,
        op: str | Callable[[Any, Any], Any] = "sum",
        category: str = "allreduce",
    ) -> Any:
        return self.scripted(
            "allreduce", value,
            partial(allreduce_world, op=_resolve_op(op), category=category),
        )

    def gather(self, value: Any, root: int = 0, category: str = "other") -> list | None:
        self._check_peer(root)

        def run(world, comms, values):
            p = len(comms)
            cost = world.machine.gather_cost(_largest(values), p)
            _synchronise(comms, "gather", category, cost)
            return [values if r == root else None for r in range(p)]

        return self.scripted("gather", value, run)

    def allgather(self, value: Any, category: str = "other") -> list:
        return self.scripted(
            "allgather", value, partial(allgather_world, category=category)
        )

    def scatter(
        self, values: Sequence[Any] | None, root: int = 0, category: str = "other"
    ) -> Any:
        """Root provides one value per rank; each rank receives its own."""
        self._check_peer(root)

        def run(world, comms, deposits):
            send, p = deposits[root], len(comms)
            if send is None or len(send) != p:
                raise ValueError(
                    f"scatter root must supply exactly {p} values, got "
                    f"{None if send is None else len(send)}"
                )
            cost = world.machine.gather_cost(_largest(send), p)
            _synchronise(comms, "scatter", category, cost)
            return list(send)

        return self.scripted(
            "scatter", values if self.rank == root else None, run
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
        return self.scripted(
            "alltoall", list(values),
            partial(alltoall_world, category=category),
        )

    def lookup(
        self,
        ids: np.ndarray,
        cuts: np.ndarray,
        tables: Sequence[np.ndarray],
        category: str = "other",
    ) -> tuple[np.ndarray, ...]:
        """Values of ascending ``ids`` from the ranks that own them
        (``ids[cuts[r]:cuts[r + 1]]`` are rank ``r``'s): request and
        reply legs in one rendezvous (:func:`lookup_world`).  ``tables``
        are this rank's dense tables over its own vertex interval, one
        per field.  Returns one array per field, aligned with ``ids``.
        """
        return self.scripted(
            "lookup", (ids, cuts, tuple(tables)),
            partial(_lookup_ranks, category=category),
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
        dense ``tables``, in place: one leg (:func:`push_world`).
        ``carry=(counts, *arrays)`` routes arrays in destination order in
        the same messages, ``counts[d]`` elements of each to rank ``d``;
        returns what was carried here, per field in source order (``()``
        without ``carry``).
        """
        return self.scripted(
            "push",
            (ids, cuts, tuple(values), tuple(tables), tuple(carry or ())),
            partial(_push_ranks, category=category),
        )

    def scripted(
        self,
        name: str,
        deposit: Any,
        run: Callable[["World", Sequence["Communicator"], list[Any]], list[Any]],
    ) -> Any:
        """One rendezvous ``name``: ``run(world, comms, deposits)`` (a
        world function: :func:`alltoall_world`, :func:`lookup_world`,
        :func:`push_world`, :func:`allreduce_world`,
        :func:`allgather_world`, or a function of any number of them)
        runs once, on whichever rank arrives last, over every rank's
        deposit and its communicator; returns this rank's item of what
        it returns.  Every collective of this class is one.

        Each op the world function makes for this rank begins with
        :meth:`_begin` — the fault plan is consulted there — and is
        charged to this rank's clock and trace.  A kill at one of them
        stops the world function: the victim raises its
        :class:`InjectedFault`, every other rank :class:`RankAborted`
        (the module docstring says which kill fires when several fall in
        one rendezvous).  The schedule check compares the op name and
        the deposit's kind — the op name alone for the rooted ``bcast``
        and ``scatter``, whose non-roots deposit ``None``.
        """
        out = self.world.rendezvous.exchange(
            self.rank,
            name,
            "" if name in _ROOTED else payload_kind(deposit),
            (deposit, self),
            partial(_run_scripted, self.world, run),
            self.world.timeout,
        )
        if type(out) is _Killed:
            if out.fault.rank == self.rank:
                raise out.fault
            raise RankAborted(
                f"world aborted by another rank: {out.fault!r}"
            )
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

        def run(world, comms, deposits):
            mats = [v for v, _ in deposits]
            p = len(comms)
            for comm in comms:
                comm._begin("exchange_roundtrip", category)
            # Request leg: servers reply only once every request landed.
            req_sizes = _leg_sizes(mats)
            t_mid = max(comm.clock for comm in comms)
            t_mid += max(world.leg_costs(req_sizes))
            # Serve in rank order, whichever thread runs the world.
            replies = []
            for r, (_, serve) in enumerate(deposits):
                replies.append(serve([mats[s][r] for s in range(p)]))
                if len(replies[r]) != p:
                    raise ValueError(
                        f"serve on rank {r} returned {len(replies[r])} "
                        f"replies for {p} ranks"
                    )
            rep_sizes = _leg_sizes(replies)
            for comm, req, rep, dt in zip(
                comms, req_sizes, rep_sizes, world.leg_costs(rep_sizes)
            ):
                comm._finish(category, t_mid + dt)
                comm._record_leg(*req)
                comm._record_leg(*rep)
            return [[row[r] for row in replies] for r in range(p)]

        return self.scripted(
            "exchange_roundtrip", (list(outgoing), serve), run
        )

    def neighbor_alltoall(
        self, payloads: dict[int, Any], category: str = "other"
    ) -> dict[int, Any]:
        """Sparse personalized exchange (MPI-3 neighbourhood collective).

        Each rank supplies ``{dest: payload}`` for its actual neighbours
        only; latency scales with the neighbourhood degree instead of
        ``p - 1`` (the optimization the paper proposes in §VI).
        Returns ``{source: payload}``.
        """
        for d in payloads:
            self._check_peer(d)

        def run(world, comms, mats):
            for comm in comms:
                comm._begin("neighbor_alltoall", category)
            t0 = max(comm.clock for comm in comms)
            outs = []
            for r, comm in enumerate(comms):
                got = {s: m[r] for s, m in enumerate(mats) if s != r and r in m}
                sent = [message_bytes(v) for d, v in mats[r].items() if d != r]
                recv = [message_bytes(v) for v in got.values()]
                cost = world.machine.neighbor_alltoallv_cost(
                    sum(sent), sum(recv), len(sent) + len(recv)
                )
                comm._finish(category, t0 + cost)
                for n in sent:
                    comm.trace.record_send(n)
                for n in recv:
                    comm.trace.record_recv(n)
                outs.append(got)
            return outs

        return self.scripted("neighbor_alltoall", dict(payloads), run)

    def scan(
        self,
        value: Any,
        op: str | Callable[[Any, Any], Any] = "sum",
        category: str = "other",
    ) -> Any:
        """Inclusive prefix reduction over ranks 0..self.rank."""
        fn = _resolve_op(op)

        def run(world, comms, values):
            cost = world.machine.allreduce_cost(_largest(values), len(comms))
            _synchronise(comms, "scan", category, cost)
            return list(accumulate(values, fn))

        return self.scripted("scan", value, run)

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

        def run(world, comms, values):
            cost = world.machine.allreduce_cost(_largest(values), len(comms))
            _synchronise(comms, "exscan", category, cost)
            return [identity, *accumulate(values[:-1], fn)]

        return self.scripted("exscan", value, run)
