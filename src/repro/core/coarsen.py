"""Graph coarsening: communities collapse into meta-vertices between phases.

Serial version (:func:`coarsen_csr`) is the textbook Louvain phase-2 step.
The distributed version (:func:`rebuild_distributed`) follows §IV-A(b) of
the paper — the seven numbered steps around Fig. 1:

1. each rank counts/renumbers its *owned*, still-alive communities;
2. owned communities used only by remote vertices are kept alive via a
   notification exchange (the stale-ID check of step 2);
3. alive counts are shared (one ``allgather``): the prefix sum giving
   each rank's global renumbering base, and the total, are local;
4. new ids are propagated back to every rank that uses them — the
   notification of step 2 doubles as the request, so this is one reply;
5. each rank translates its edges into partial meta-edge lists
   (intra-community entries become self loops);
6. partial lists are redistributed so every rank owns an (almost) equal
   number of meta-vertices;
7. local CSR arrays of the coarsened graph are rebuilt.

Both versions preserve ``total_weight`` exactly — the invariant property
tests lean on.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import (
    CSRGraph,
    row_index,
    sorted_unique,
    sum_duplicate_entries,
)
from ..graph.distgraph import DistGraph, owner_cuts
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
    src, dst, w = sum_duplicate_entries(src, dst, w)
    return (
        row_index(src, n_rows),
        dst.astype(np.int64, copy=False),
        w.astype(np.float64, copy=False),
    )


# ----------------------------------------------------------------------
# Distributed reconstruction (paper §IV-A(b), Fig. 1)
# ----------------------------------------------------------------------
def remote_lookup(
    comm: Communicator,
    offsets: np.ndarray,
    query_ids: np.ndarray,
    table: np.ndarray,
    category: str = "rebuild",
) -> np.ndarray:
    """Resolve values owned by other ranks: every query id is answered
    from its owner's ``table`` (:func:`owner_lookup`) in the partition
    ``offsets``.  Every rank must call this collective, asking or not.
    """
    query_ids = np.asarray(query_ids, dtype=np.int64)
    uniq_ids, inverse = np.unique(query_ids, return_inverse=True)
    (values,) = owner_lookup(comm, offsets, uniq_ids, (table,), category)
    return values.astype(np.int64, copy=False)[inverse]


def owner_lookup(
    comm: Communicator,
    offsets: np.ndarray,
    ids: np.ndarray,
    tables: tuple[np.ndarray, ...],
    category: str,
) -> tuple[np.ndarray, ...]:
    """The one owner-routed lookup: values of ascending, duplicate-free
    ``ids`` from the dense ``tables`` (one per field, over this rank's
    interval of ``offsets``) of the ranks that own them —
    :meth:`~repro.runtime.comm.Communicator.lookup`, whose owners answer
    every rank at once."""
    return comm.lookup(
        *owner_request(offsets, comm.rank, ids, tables), category=category
    )


def owner_request(
    offsets: np.ndarray,
    rank: int,
    ids: np.ndarray,
    tables: tuple[np.ndarray, ...],
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Rank ``rank``'s deposit in an owner-routed lookup, ``(ids, owner
    cuts, tables)``.  The owners' tables are laid end to end, so one that
    is not as long as its interval would shift every later rank's ids:
    it raises, naming the rank, as an id outside the vertex space does
    first."""
    cuts = owner_cuts(offsets, ids, rank)
    owned = int(offsets[rank + 1] - offsets[rank])
    for table in tables:
        if len(table) != owned:
            raise ValueError(
                f"rank {rank}: owner table of {len(table)} values "
                f"for its {owned} ids"
            )
    return ids, cuts, tables


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
    # ``slot_of[i]`` is the position in ``used`` of slot i's community
    # (owned slots first, then the ghosts), kept for the translation of
    # step 4.
    used, slot_of = np.unique(
        np.concatenate([local_comm, ghost_comm]), return_inverse=True
    )

    # A community (id == vertex id) is alive if any vertex anywhere
    # is assigned to it.  Used-here ids are sliced by owner; owners
    # learn about remote usage through the notification alltoall —
    # also step 4's request: a rank needs the new ids of exactly the
    # communities it reports.  The own slice goes in with the others:
    # ``alltoall`` hands a self-message back unsized and uncounted.
    cuts = dg.cuts(used)
    reported = comm.alltoall(
        [used[cuts[r]:cuts[r + 1]] for r in range(comm.size)],
        category="rebuild",
    )
    alive = sorted_unique(np.concatenate(reported))
    # (every id reported to us is owned by us by construction)

    # --- step 3: global renumbering: every rank's alive count ------
    counts = comm.allgather(len(alive), category="rebuild")
    n_new = sum(counts)
    new_ids = sum(counts[:comm.rank]) + np.arange(len(alive), dtype=np.int64)

    # --- step 4: propagate new ids for every community used here ---
    # Owners answer their notifications (all in ``alive``) with one
    # search, the own slice in place; the replies, in rank order, are
    # the new ids in ``used`` order, so each must be as long as what
    # this rank reported to its sender.
    answers = comm.alltoall(
        np.split(
            new_ids[np.searchsorted(alive, np.concatenate(reported))],
            np.cumsum([len(ids) for ids in reported[:-1]]),
        ),
        category="rebuild",
    )
    for r, got in enumerate(answers):
        if len(got) != cuts[r + 1] - cuts[r]:
            raise ValueError(
                f"rank {comm.rank}: rank {r} answered {len(got)} of "
                f"{cuts[r + 1] - cuts[r]} new community ids"
            )
    slot_new = np.concatenate(answers)[slot_of]
    local_new = slot_new[:dg.num_local]

    # --- step 5: partial meta edge lists --------------------------------
    # Community of each edge target: local targets via their own slot,
    # ghost targets via the ghost slots (the compressed-target trick).
    target_new = slot_new[dg.compressed_targets()]
    src_new = local_new[dg.local_rows()]
    comm.charge_compute(dg.num_local_entries, category="rebuild")

    # --- step 6: redistribute by new owner ------------------------------
    new_offsets = even_vertex(int(n_new), comm.size)
    received = comm.alltoall(
        _meta_edge_payloads(src_new, target_new, dg.weights, new_offsets),
        category="rebuild",
    )

    rs, rd, rw = (np.concatenate(part) for part in zip(*received))

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


def _meta_edge_payloads(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, offsets: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per-owner partial meta-edge lists, duplicates pre-summed to cut
    message volume (the "partial new edge lists" of step 5).

    The owner of a meta edge is the owner of its source, which ascends
    with the source: one stable ``(src, dst)`` sort serves every
    destination, each taking a slice — the same entries, with weights
    summed in the same order, as bucketing by owner first and sorting
    every bucket.
    """
    s, d, w = sum_duplicate_entries(src, dst, w)
    cuts = owner_cuts(offsets, s)
    return [
        (s[cuts[r]:cuts[r + 1]], d[cuts[r]:cuts[r + 1]], w[cuts[r]:cuts[r + 1]])
        for r in range(len(offsets) - 1)
    ]
