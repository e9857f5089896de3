"""Distributed graph: 1-D partitioned CSR with ghost-vertex plumbing.

Implements the paper's input distribution (§IV): each rank owns a
contiguous range of global vertices and the CSR rows for them; edge
targets remain *global* ids.  Any target owned by another rank is a
"ghost" vertex, and :class:`GhostPlan` (Algorithm 4) records, once per
phase, which ghost values must be fetched from which owner.

The full ghost exchange of a rank's values — one per ghost vertex — is
:meth:`DistGraph.exchange_ghost_values`, one ``alltoall``.  Both route by
owner the one way ownership allows: ascending ids cut by rank
(:func:`owner_cuts`).  A phase's set-up runs both for every rank inside
one scripted rendezvous: :func:`ghost_plans_world` builds every plan, and
:func:`ghost_exchange_world` prices the exchange from the plans' counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..runtime.comm import (
    Communicator, World, alltoall_counts_world, cut_counts, route,
)
from . import binio
from .csr import CSRGraph, row_index, sum_duplicate_entries
from .partition import even_edge, even_vertex, owner_of


def owner_cuts(
    offsets: np.ndarray, sorted_ids: np.ndarray, rank: int | None = None
) -> np.ndarray:
    """Where each rank's ids start in an ascending id array.

    Ownership is contiguous (``offsets``), so the owners of ascending
    ids ascend too and routing by owner is slicing:
    ``sorted_ids[cuts[r]:cuts[r + 1]]`` are the ids rank ``r`` owns,
    with no sort and no copy.  An id outside the vertex space has no
    owner; it raises rather than being dropped off either end, naming
    ``rank`` (the rank routing them) when given.
    """
    cuts = np.searchsorted(sorted_ids, offsets)
    if cuts[0] != 0 or cuts[-1] != len(sorted_ids):
        raise ValueError(
            ("" if rank is None else f"rank {rank}: ")
            + f"ids outside the vertex space [0, {int(offsets[-1])}): "
            f"{int(sorted_ids[0])} .. {int(sorted_ids[-1])}"
        )
    return cuts


def key_counts(offsets: np.ndarray, keys: np.ndarray, p: int) -> np.ndarray:
    """``counts[s, d]``: how many of the ascending ``keys`` — ``n * s +
    c`` for rank ``s``'s id ``c``, ``n`` the vertex count — rank ``d``
    owns.  Owners ascend with the ids, so one search of the keys against
    every rank's copy of the offsets cuts every (rank, owner) run."""
    n = int(offsets[-1])
    starts = np.add.outer(np.arange(p, dtype=np.int64) * n, offsets)
    return np.diff(np.searchsorted(keys, starts), axis=1)


def distinct_keys(size: int, *keys: np.ndarray, empty=np.empty) -> np.ndarray:
    """The distinct values of every array of ``keys`` (each in
    ``[0, size)``), ascending: one boolean scatter, no sort
    (``empty(n, dtype)`` gives the flags)."""
    flags = empty(size, np.dtype(bool))
    flags[:] = False
    for k in keys:
        flags[k] = True
    return np.flatnonzero(flags)


@dataclass
class GhostPlan:
    """Per-phase ghost exchange plan (paper Algorithm 4): two id
    arrays in owner order, each with its ``int64[p + 1]`` rank cuts.

    Attributes
    ----------
    ghost_ids / ghost_cuts:
        Sorted global ids of this rank's ghost vertices; rank ``r`` owns
        ``ghost_ids[ghost_cuts[r]:ghost_cuts[r + 1]]``.
    send_ids / send_cuts:
        Our owned global ids that rank ``d`` keeps as ghosts are
        ``send_ids[send_cuts[d]:send_cuts[d + 1]]`` (``d``'s
        ``ghost_ids`` slice for us).
    """

    ghost_ids: np.ndarray
    ghost_cuts: np.ndarray
    send_ids: np.ndarray
    send_cuts: np.ndarray

    @property
    def num_ghosts(self) -> int:
        return len(self.ghost_ids)


@dataclass
class DistGraph:
    """The local portion ``G_i`` of a distributed graph at one rank.

    Attributes
    ----------
    offsets:
        Global vertex partition, ``int64[p + 1]``: rank ``r`` owns the
        contiguous range ``[offsets[r], offsets[r + 1])`` (the paper's
        layout).
    rank:
        Owning rank id.
    index / edges / weights:
        Local CSR rows for owned vertices; ``edges`` holds *global* ids.
    total_weight:
        Global ``sum_u k_u`` (replicated on every rank — the paper keeps
        this as part of the modularity denominator).
    """

    offsets: np.ndarray
    rank: int
    index: np.ndarray
    edges: np.ndarray
    weights: np.ndarray
    total_weight: float
    _targets: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False
    )
    _plan: GhostPlan | None = field(default=None, repr=False)
    _rows: np.ndarray | None = field(default=None, repr=False)
    _cross: int = field(default=0, repr=False)

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def nranks(self) -> int:
        return len(self.offsets) - 1

    @property
    def num_global_vertices(self) -> int:
        return int(self.offsets[-1])

    @property
    def vbegin(self) -> int:
        return int(self.offsets[self.rank])

    @property
    def vend(self) -> int:
        return int(self.offsets[self.rank + 1])

    @property
    def num_local(self) -> int:
        return self.vend - self.vbegin

    @property
    def num_local_entries(self) -> int:
        """Stored adjacency entries on this rank (its share of work)."""
        return len(self.edges)

    def cuts(self, sorted_ids: np.ndarray) -> np.ndarray:
        """:func:`owner_cuts` of ascending ``sorted_ids`` in this graph's
        partition: rank ``r`` owns ``sorted_ids[cuts[r]:cuts[r + 1]]``."""
        return owner_cuts(self.offsets, sorted_ids, self.rank)

    def to_local(self, ids: np.ndarray | int):
        """Local slot of each *owned* global vertex id."""
        return ids - self.vbegin

    def from_local(self, slots: np.ndarray | int):
        """Global id of each local slot (inverse of :meth:`to_local`)."""
        return slots + self.vbegin

    def is_owned(self, ids: np.ndarray | int):
        """Whether each global id is owned by this rank."""
        return (ids >= self.vbegin) & (ids < self.vend)

    def local_vertex_ids(self) -> np.ndarray:
        """Global ids of owned vertices, in local-slot order (sorted)."""
        return np.arange(self.vbegin, self.vend, dtype=np.int64)

    def local_rows(self) -> np.ndarray:
        """Local slot of the owning vertex of every stored entry
        (``int64[nnz]``, built once and shared — do not write to it)."""
        if self._rows is None:
            self._rows = np.repeat(
                np.arange(self.num_local, dtype=np.int64),
                np.diff(self.index),
            )
        return self._rows

    def self_loop_mask(self) -> np.ndarray:
        """True for every stored entry that is a self loop."""
        return self.edges == self.from_local(self.local_rows())

    def _row_sums(self, entries: np.ndarray | slice) -> np.ndarray:
        """Per owned vertex, the weight of its ``entries``, added in
        storage order (``bincount`` counts in int64 when given nothing
        to add, hence the cast)."""
        return np.bincount(
            self.local_rows()[entries],
            weights=self.weights[entries],
            minlength=self.num_local,
        ).astype(np.float64, copy=False)

    def local_degrees(self) -> np.ndarray:
        """Weighted degree of each owned vertex."""
        return self._row_sums(slice(None))

    def local_self_loops(self) -> np.ndarray:
        """Self-loop weight of each owned vertex."""
        return self._row_sums(self.self_loop_mask())

    def row(self, local_u: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbour (global ids, weights) of owned vertex ``local_u``."""
        lo, hi = self.index[local_u], self.index[local_u + 1]
        return self.edges[lo:hi], self.weights[lo:hi]

    # ------------------------------------------------------------------
    # Ghost machinery
    # ------------------------------------------------------------------
    def build_ghost_plan(self, comm: Communicator) -> GhostPlan:
        """One-time-per-phase ghost coordinate exchange (Algorithm 4).

        Each rank scans its edge targets for non-owned vertices, cuts
        them by owner, and tells every owner which of its vertices are
        ghosted here; what it hears back, laid end to end, is its send
        list (symmetric alltoall), establishing both halves of the plan.
        One scripted rendezvous (:func:`ghost_plans_world`); a phase's
        set-up makes the same step inside its own.
        """
        if self._plan is not None:
            # The plan is memoised in the same phase on every rank
            # (built when the phase is set up, invalidated together at
            # coarsening): all ranks hit the cache, or none do.
            return self._plan
        return comm.scripted("ghost_plan", self.plan_seat(), ghost_plans_world)

    @property
    def ghost_plan(self) -> GhostPlan | None:
        """The memoised ghost plan (``None`` until it is built)."""
        return self._plan

    def plan_seat(self) -> tuple["DistGraph", np.ndarray, np.ndarray]:
        """This rank's deposit in :func:`ghost_plans_world`: the graph,
        its ghost ids and their owner cuts, scanned here, so an edge
        target outside the vertex space raises on this rank, naming it."""
        ghosts, _ = self._scan_targets()
        return self, ghosts, self.cuts(ghosts)

    def _scan_targets(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ghost ids, compressed targets)`` from one scatter of the
        non-owned edge targets over the vertex space: the flagged ids are
        the ghost vertices, ascending, and each entry's rank among them
        is its ghost slot (no sort: the far targets of a scattered graph
        are most of a rank's entries)."""
        if self._targets is None:
            far = np.flatnonzero(~self.is_owned(self.edges))
            targets = self.edges[far]
            if len(targets):
                # An id outside the vertex space has no owner: raise as
                # routing it would, naming this rank.
                owner_cuts(
                    self.offsets,
                    np.array([targets.min(), targets.max()]), self.rank,
                )
            seen = np.zeros(self.num_global_vertices, dtype=bool)
            seen[targets] = True
            ghosts = np.flatnonzero(seen)
            slot = np.empty(len(seen), dtype=np.int64)
            slot[ghosts] = np.arange(len(ghosts))
            compressed = self.to_local(self.edges)
            compressed[far] = self.num_local + slot.take(targets)
            self._targets, self._cross = (ghosts, compressed), len(far)
        return self._targets

    def num_cross_entries(self) -> int:
        """Stored entries whose target another rank owns (counted by the
        one target scan)."""
        self._scan_targets()
        return self._cross

    def compressed_targets(self) -> np.ndarray:
        """Edge targets re-indexed for O(1) community lookup.

        Owned target ``v`` becomes ``v - vbegin``; ghost target becomes
        ``num_local + slot`` where ``slot`` indexes the plan's
        ``ghost_ids``.
        With local community assignments ``C_loc[num_local]`` and ghost
        values ``C_gho[num_ghosts]``, the community of every edge target
        is ``concat(C_loc, C_gho)[compressed_targets]`` — the vectorised
        equivalent of the per-edge hash-map lookup in the paper's Fig. 1.
        Shared, like :meth:`local_rows`: do not write to it.
        """
        return self._scan_targets()[1]

    def exchange_ghost_values(
        self,
        comm: Communicator,
        plan: GhostPlan,
        local_values: np.ndarray,
        category: str = "ghost_comm",
    ) -> np.ndarray:
        """Fetch one value per ghost vertex from its owner.

        ``local_values`` is indexed by local vertex (0..num_local); the
        return array aligns with ``plan.ghost_ids``.  This is the
        Algorithm 3 lines 4-5 exchange in full, executed once per phase;
        the iterations then ship only values that changed.  Owners
        ascend with the ghost ids, so rank order is ghost order.
        """
        if len(local_values) != self.num_local:
            raise ValueError(
                f"local_values has {len(local_values)} entries for "
                f"{self.num_local} owned vertices"
            )
        received = comm.alltoall(
            np.split(
                local_values[self.to_local(plan.send_ids)],
                plan.send_cuts[1:-1],
            ),
            category=category,
        )
        for r, want in enumerate(np.diff(plan.ghost_cuts)):
            if len(received[r]) != want:
                raise ValueError(
                    f"ghost exchange mismatch with rank {r}: expected "
                    f"{want} values, got {len(received[r])}"
                )
        return np.concatenate(received)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def from_global(
        g: CSRGraph, offsets: np.ndarray, rank: int
    ) -> "DistGraph":
        """Slice rank ``rank``'s rows out of a replicated global CSR.

        Models loading from a pre-partitioned file: every rank can do
        this independently without communication.  The rank's ``edges``
        and ``weights`` are views of ``g``'s frozen arrays, not copies:
        read-only, like them.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets[-1] != g.num_vertices:
            raise ValueError("partition does not cover the vertex set")
        lo, hi = int(offsets[rank]), int(offsets[rank + 1])
        elo, ehi = int(g.index[lo]), int(g.index[hi])
        return DistGraph(
            offsets=offsets,
            rank=rank,
            index=(g.index[lo : hi + 1] - g.index[lo]).astype(np.int64),
            edges=g.edges[elo:ehi],
            weights=g.weights[elo:ehi],
            total_weight=g.total_weight,
        )

    @staticmethod
    def distribute(
        comm: Communicator,
        g: CSRGraph,
        partition: str = "even_edge",
    ) -> "DistGraph":
        """SPMD entry point: every rank slices its part of ``g``.

        ``g`` plays the role of the input file (read-only, identical on
        all ranks); "even_edge" reproduces the paper's loading where
        each process receives roughly the same number of edges.
        """
        if partition == "even_edge":
            offsets = g.even_edge_offsets(comm.size)
        elif partition == "even_vertex":
            offsets = even_vertex(g.num_vertices, comm.size)
        else:
            raise ValueError(f"unknown partition strategy {partition!r}")
        return DistGraph.from_global(g, offsets, comm.rank)

    @staticmethod
    def load_binary(
        comm: Communicator,
        path: str,
        partition: str = "even_edge",
    ) -> "DistGraph":
        """Distributed ingest of a binary edge-list file (paper §V).

        Each rank reads an equal slice of *records* (the MPI-IO
        pattern), the ranks agree on a vertex partition, and every edge
        is routed to the owner(s) of its endpoints with one alltoall.
        """
        header = binio.read_header(path)
        lo, hi = header.record_range_for_rank(comm.rank, comm.size)
        u, v, w = binio.read_edges_slice(path, lo, hi)
        comm.charge_io(binio.slice_nbytes(lo, hi))

        n = header.num_vertices
        if partition == "even_vertex":
            offsets = even_vertex(n, comm.size)
        elif partition == "even_edge":
            # Degrees are global info: accumulate local endpoint counts,
            # then allreduce so all ranks compute identical offsets.
            counts = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
            counts = comm.allreduce(counts, category="io")
            offsets = even_edge(counts, comm.size)
        else:
            raise ValueError(f"unknown partition strategy {partition!r}")

        # Route each record to the owner of each endpoint (twice when the
        # endpoints live on different ranks), as the loader must.
        owner_u, owner_v = owner_of(offsets, u), owner_of(offsets, v)
        keeps = [(owner_u == r) | (owner_v == r) for r in range(comm.size)]
        received = comm.alltoall(
            [(u[k], v[k], w[k]) for k in keeps], category="io"
        )
        ru, rv, rw = (np.concatenate(part) for part in zip(*received))
        vb, ve = int(offsets[comm.rank]), int(offsets[comm.rank + 1])
        local = _rows_from_undirected(ru, rv, rw, vb, ve)
        # Total weight requires one global reduction.
        w_local = float(local[2].sum())
        total = comm.allreduce(w_local, category="io")
        return DistGraph(
            offsets=offsets,
            rank=comm.rank,
            index=local[0],
            edges=local[1],
            weights=local[2],
            total_weight=total,
        )


def ghost_plans_world(
    world: World,
    comms: list[Communicator],
    seats: list[tuple[DistGraph, np.ndarray, np.ndarray]],
) -> list[GhostPlan]:
    """Algorithm 4 for every rank (the world half of
    :meth:`DistGraph.build_ghost_plan`): each rank is charged its scan,
    one pass over its entries (lines 2-7), then one leg tells every
    owner which of its vertices are ghosted where — priced from the
    counts — and what an owner hears, laid end to end in source order,
    is its send list.  Each graph memoises its plan."""
    cost = world.machine.compute_cost
    for comm, (dg, _, _) in zip(comms, seats):
        comm.charge("ghost_comm", cost(dg.num_local_entries))
    counts = cut_counts([cuts for _, _, cuts in seats])
    ghosts = [g for _, g, _ in seats]
    alltoall_counts_world(
        world, comms, counts, ghosts[0].itemsize, category="ghost_comm"
    )
    send_cuts, send_ids = route(counts, [np.concatenate(ghosts)])
    plans = []
    for d, (dg, g, cuts) in enumerate(seats):
        sends = np.zeros(len(seats) + 1, dtype=np.int64)
        np.cumsum(counts[:, d], out=sends[1:])
        dg._plan = GhostPlan(
            ghost_ids=g,
            ghost_cuts=cuts,
            send_ids=send_ids[send_cuts[d]:send_cuts[d + 1]],
            send_cuts=sends,
        )
        plans.append(dg._plan)
    return plans


def ghost_exchange_world(
    world: World, comms: list[Communicator], plans: list[GhostPlan], width: int
) -> None:
    """The full ghost exchange of Algorithm 3 lines 4-5 for every rank,
    priced from the plans' counts (``width`` bytes a value): owner ``d``
    sends rank ``r`` one value per vertex of its send list for ``r``.
    Nothing is delivered — a world that reads a ghost's value off the
    owners' arrays laid end to end needs no copy — so it is
    :meth:`DistGraph.exchange_ghost_values` without the values."""
    counts = np.array([np.diff(plan.send_cuts) for plan in plans])
    alltoall_counts_world(world, comms, counts, width, category="ghost_comm")


def _rows_from_undirected(
    u: np.ndarray, v: np.ndarray, w: np.ndarray, vbegin: int, vend: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build local CSR rows for vertices [vbegin, vend) from undirected
    edge records; targets keep global ids.  Duplicate records merge."""
    nlocal = vend - vbegin
    # Direction u -> v for owned u, and v -> u for owned v (loops once).
    mu = (u >= vbegin) & (u < vend)
    non_loop = u != v
    mv = (v >= vbegin) & (v < vend) & non_loop
    src = np.concatenate([u[mu], v[mv]]) - vbegin
    dst = np.concatenate([v[mu], u[mv]])
    ww = np.concatenate([w[mu], w[mv]])
    src, dst, ww = sum_duplicate_entries(src, dst, ww)
    return row_index(src, nlocal), dst, ww
