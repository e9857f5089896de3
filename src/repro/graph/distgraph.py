"""Distributed graph: 1-D partitioned CSR with ghost-vertex plumbing.

Implements the paper's input distribution (§IV): each rank owns a
contiguous range of global vertices and the CSR rows for them; edge
targets remain *global* ids.  Any target owned by another rank is a
"ghost" vertex, and :class:`GhostPlan` (Algorithm 4) records, once per
phase, which ghost values must be fetched from which owner.

The full ghost exchange a phase starts with — every ghost vertex's
community assignment — is :meth:`DistGraph.exchange_ghost_values`, which
moves a value per ghost vertex through one ``alltoall``.  Both route by
owner the one way ownership allows: ascending ids cut by rank
(:func:`owner_cuts`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..runtime.comm import Communicator
from . import binio
from .csr import CSRGraph, row_index, sum_duplicate_entries
from .partition import even_edge, even_vertex, owner_of


def owner_cuts(offsets: np.ndarray, sorted_ids: np.ndarray) -> np.ndarray:
    """Where each rank's ids start in an ascending id array.

    Ownership is contiguous (``offsets``), so the owners of ascending
    ids ascend too and routing by owner is slicing:
    ``sorted_ids[cuts[r]:cuts[r + 1]]`` are the ids rank ``r`` owns,
    with no sort and no copy.  An id outside the vertex space has no
    owner; it raises rather than being dropped off either end.
    """
    cuts = np.searchsorted(sorted_ids, offsets)
    if cuts[0] != 0 or cuts[-1] != len(sorted_ids):
        raise ValueError(
            f"ids outside the vertex space [0, {int(offsets[-1])}): "
            f"{int(sorted_ids[0])} .. {int(sorted_ids[-1])}"
        )
    return cuts


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
        return owner_cuts(self.offsets, sorted_ids)

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
        """
        if self._plan is not None:
            # The plan is memoised in the same phase on every rank
            # (built right after distribution, invalidated together at
            # coarsening): all ranks hit the cache, or none do.
            return self._plan
        ghosts, _ = self._scan_targets()
        cuts = self.cuts(ghosts)
        # Scan cost: one pass over the local edge list (Algorithm 4 l.2-7).
        comm.charge_compute(self.num_local_entries, category="ghost_comm")

        # No ghost is owned here, so this rank's own slice is empty.
        got = comm.alltoall(
            [ghosts[cuts[r]:cuts[r + 1]] for r in range(comm.size)],
            category="ghost_comm",
        )
        self._plan = GhostPlan(
            ghost_ids=ghosts,
            ghost_cuts=cuts,
            send_ids=np.concatenate(got),
            send_cuts=np.cumsum([0] + [len(ids) for ids in got]),
        )
        return self._plan

    def _scan_targets(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ghost ids, compressed targets)`` from one sort of the
        non-owned edge targets: the distinct ids are the ghost vertices,
        and each entry's rank among them is its ghost slot."""
        if self._targets is None:
            far = np.flatnonzero(~self.is_owned(self.edges))
            ghosts, slots = np.unique(self.edges[far], return_inverse=True)
            compressed = self.to_local(self.edges)
            compressed[far] = self.num_local + slots
            self._targets = ghosts, compressed
        return self._targets

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
        this independently without communication.
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
            edges=g.edges[elo:ehi].copy(),
            weights=g.weights[elo:ehi].copy(),
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
            offsets = even_edge(np.diff(g.index), comm.size)
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
