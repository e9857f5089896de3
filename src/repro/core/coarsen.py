"""Graph coarsening: communities collapse into meta-vertices between phases.

Serial version (:func:`coarsen_csr`) is the textbook Louvain phase-2 step.
The distributed version (:func:`rebuild_distributed`) follows §IV-A(b) of
the paper — the seven numbered steps around Fig. 1:

1. each rank counts/renumbers its *owned*, still-alive communities;
2. owned communities used only by remote vertices are kept alive via a
   notification exchange (the stale-ID check of step 2);
3. alive counts feed a parallel prefix sum (``exscan``) producing the
   global renumbering base per rank;
4. new ids are propagated back to every rank that uses them;
5. each rank translates its edges into partial meta-edge lists
   (intra-community entries become self loops);
6. partial lists are redistributed so every rank owns an (almost) equal
   number of meta-vertices;
7. local CSR arrays of the coarsened graph are rebuilt.

Both versions preserve ``total_weight`` exactly — the invariant property
tests lean on.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.distgraph import DistGraph, split_by_rank
from ..graph.partition import even_vertex
from ..runtime.comm import Communicator


def coarsen_csr(
    g: CSRGraph, assignment: np.ndarray
) -> tuple[CSRGraph, np.ndarray]:
    """Collapse ``assignment`` communities of a global CSR graph.

    Returns ``(meta_graph, vertex_to_meta)`` where ``vertex_to_meta[u]``
    is the meta-vertex (renumbered community) containing ``u``.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    if len(assignment) != g.num_vertices:
        raise ValueError("assignment length must equal num_vertices")
    ids, inverse = np.unique(assignment, return_inverse=True)
    n_new = len(ids)
    rows = np.repeat(
        np.arange(g.num_vertices, dtype=np.int64), np.diff(g.index)
    )
    src = inverse[rows].astype(np.int64)
    dst = inverse[g.edges].astype(np.int64)
    index, edges, weights = _aggregate_directed(src, dst, g.weights, n_new)
    return (
        CSRGraph(index=index, edges=edges, weights=weights),
        inverse.astype(np.int64),
    )


def _aggregate_directed(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, n_rows: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum duplicate (src, dst) entries and emit CSR arrays.

    Inputs are *stored adjacency entries* (both directions of each edge,
    loops once), so the output keeps the library's storage convention
    and the total weight automatically.
    """
    if len(src):
        span = np.int64(max(int(dst.max()) + 1, 1))
        key = src * span + dst
        order = np.argsort(key, kind="stable")
        key, src, dst, w = key[order], src[order], dst[order], w[order]
        uniq = np.empty(len(key), dtype=bool)
        uniq[0] = True
        np.not_equal(key[1:], key[:-1], out=uniq[1:])
        starts = np.flatnonzero(uniq)
        w = np.add.reduceat(w, starts)
        src, dst = src[starts], dst[starts]
    index = np.zeros(n_rows + 1, dtype=np.int64)
    np.add.at(index, src + 1, 1)
    np.cumsum(index, out=index)
    return index, dst.astype(np.int64), w.astype(np.float64)


# ----------------------------------------------------------------------
# Distributed reconstruction (paper §IV-A(b), Fig. 1)
# ----------------------------------------------------------------------
def remote_lookup(
    comm: Communicator,
    owner: np.ndarray | Callable[[np.ndarray], np.ndarray],
    query_ids: np.ndarray,
    local_lookup,
    category: str = "rebuild",
) -> np.ndarray:
    """Resolve values owned by other ranks: route each query id to its
    owner, owners answer via ``local_lookup(ids)``.

    ``owner`` is either a contiguous-partition ``offsets`` array or a
    callable mapping global ids to owning ranks (e.g.
    ``DistGraph.owner_of``).
    ``local_lookup`` must accept an ``int64`` array of *owned* ids and
    return the aligned values.  Queries for locally-owned ids are
    answered without communication, but every rank must call this
    function (it contains collectives).
    """
    query_ids = np.asarray(query_ids, dtype=np.int64)
    uniq_ids, inverse = np.unique(query_ids, return_inverse=True)
    if callable(owner):
        uniq_owners = np.asarray(owner(uniq_ids))
    else:
        uniq_owners = np.searchsorted(owner, uniq_ids, side="right") - 1

    requests = [
        uniq_ids[uniq_owners == r] if r != comm.rank else np.empty(0, np.int64)
        for r in range(comm.size)
    ]
    incoming = comm.alltoall(requests, category=category)
    replies = [
        local_lookup(ids) if len(ids) else np.empty(0, np.int64)
        for ids in incoming
    ]
    answers = comm.alltoall(replies, category=category)

    out_uniq = np.empty(len(uniq_ids), dtype=np.int64)
    mine = uniq_owners == comm.rank
    if np.any(mine):
        out_uniq[mine] = local_lookup(uniq_ids[mine])
    for r in range(comm.size):
        sent = requests[r]
        if len(sent):
            slots = np.searchsorted(uniq_ids, sent)
            out_uniq[slots] = answers[r]
    return out_uniq[inverse]


def rebuild_distributed(
    comm: Communicator,
    dg: DistGraph,
    local_comm: np.ndarray,
    ghost_comm: np.ndarray,
) -> tuple[DistGraph, np.ndarray]:
    """Distributed graph reconstruction at the end of a phase.

    Parameters
    ----------
    local_comm:
        Final community id of each owned vertex (global community ids,
        which live in the vertex-id space).
    ghost_comm:
        Final community id of each ghost vertex, aligned with the phase's
        :class:`~repro.graph.distgraph.GhostPlan` (i.e. current as of
        the last iteration's exchange).

    Returns
    -------
    (new_dg, local_new_id):
        The coarsened distributed graph and, for each *owned vertex of
        the old graph*, the new meta-vertex id of its community — the
        hook callers use to fold the phase into the original-vertex
        assignment.
    """
    plan = dg.build_ghost_plan(comm)
    if len(ghost_comm) != plan.num_ghosts:
        raise ValueError("ghost_comm not aligned with the ghost plan")

    # --- steps 1-2: find alive communities -----------------------------
    used = np.unique(np.concatenate([local_comm, ghost_comm])) if len(
        ghost_comm
    ) else np.unique(local_comm)
    used_sorted = used  # sorted by np.unique

    # A community (id == vertex id) is alive if any vertex anywhere
    # is assigned to it.  Used-here ids are split by owner; owners
    # also learn about remote usage through the notification
    # alltoall.
    owners = np.asarray(dg.owner_of(used))
    notify = [
        used[owners == r] if r != comm.rank else np.empty(0, np.int64)
        for r in range(comm.size)
    ]
    reported = comm.alltoall(notify, category="rebuild")
    mine_here = used[owners == comm.rank]
    alive = np.unique(np.concatenate([mine_here] + list(reported)))
    # (every id reported to us is owned by us by construction)

    # --- step 3: global renumbering via parallel prefix sum --------
    base = comm.exscan(len(alive), category="rebuild")
    n_new = comm.allreduce(len(alive), category="rebuild")
    new_ids = base + np.arange(len(alive), dtype=np.int64)
    alive_sorted = alive  # np.unique output is sorted

    def lookup_owned(ids: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(alive_sorted, ids)
        bad = (pos >= len(alive_sorted)) | (
            alive_sorted[np.minimum(pos, max(len(alive_sorted) - 1, 0))]
            != ids
        )
        if np.any(bad):
            raise KeyError(
                f"rank {comm.rank}: asked for dead community ids "
                f"{np.asarray(ids)[bad][:5].tolist()}"
            )
        return new_ids[pos]

    # --- step 4: propagate new ids for every community used here ---
    new_of_used = remote_lookup(
        comm, dg.owner_of, used, lookup_owned, category="rebuild"
    )

    def translate(ids: np.ndarray) -> np.ndarray:
        return new_of_used[np.searchsorted(used_sorted, ids)]

    local_new = translate(local_comm)
    ghost_new = translate(ghost_comm) if len(ghost_comm) else ghost_comm

    # --- step 5: partial meta edge lists --------------------------------
    rows = np.repeat(
        np.arange(dg.num_local, dtype=np.int64), np.diff(dg.index)
    )
    # Community of each edge target: local targets via local_new, ghost
    # targets via ghost_new (the compressed-target trick).
    ctargets = dg.compressed_targets(plan)
    target_new = np.concatenate([local_new, ghost_new])[ctargets] if len(
        ctargets
    ) else np.empty(0, np.int64)
    src_new = local_new[rows]
    comm.charge_compute(dg.num_local_entries, category="rebuild")

    # --- step 6: redistribute by new owner ------------------------------
    new_offsets = even_vertex(int(n_new), comm.size)
    dest = np.searchsorted(new_offsets, src_new, side="right") - 1
    outgoing = []
    for r, (s, d, w) in enumerate(
        split_by_rank(dest, comm.size, src_new, target_new, dg.weights)
    ):
        # Pre-aggregate per destination to cut message volume (the
        # "partial new edge lists" of step 5 are already combined).
        outgoing.append(_combine_entries(s, d, w))
    received = comm.alltoall(outgoing, category="rebuild")

    rs = np.concatenate([t[0] for t in received])
    rd = np.concatenate([t[1] for t in received])
    rw = np.concatenate([t[2] for t in received])

    # --- step 7: rebuild local CSR --------------------------------------
    vb = int(new_offsets[comm.rank])
    nlocal_new = int(new_offsets[comm.rank + 1]) - vb
    index, edges, weights = _aggregate_directed(
        rs - vb, rd, rw, nlocal_new
    )
    new_dg = DistGraph(
        offsets=new_offsets,
        rank=comm.rank,
        index=index,
        edges=edges,
        weights=weights,
        total_weight=dg.total_weight,
    )
    return new_dg, local_new


def _combine_entries(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge duplicate (src, dst) pairs by summing weights."""
    if not len(src):
        return src, dst, w
    span = np.int64(max(int(dst.max()) + 1, 1))
    key = src * span + dst
    order = np.argsort(key, kind="stable")
    key, src, dst, w = key[order], src[order], dst[order], w[order]
    uniq = np.empty(len(key), dtype=bool)
    uniq[0] = True
    np.not_equal(key[1:], key[:-1], out=uniq[1:])
    starts = np.flatnonzero(uniq)
    return src[starts], dst[starts], np.add.reduceat(w, starts)
