"""Reference schedule: the §IV-A(b) rebuild as every rank runs it alone.

The shipped ``repro.core.coarsen.rebuild_distributed`` is one scripted
rendezvous whose world function runs the seven steps once for every
rank, over keys ``n * rank + c``, with every message priced from counts
and nothing routed.  This is the per-rank body it replaced, kept as an
oracle (tests only, never imported by ``src/``): the notification
``alltoall`` of the used communities, the ``allgather`` of the alive
counts, the reply ``alltoall`` with the new ids (each reply checked
against what was asked, the error naming the rank that answered), the
step-5 charge, the meta-edge ``alltoall`` and the receiver's CSR — each
collective its own rendezvous, the rank's work between them on its own
thread.  New CSR arrays, new ids, clock, trace seconds, messages and
bytes must be *equal* to the world's.
"""

from __future__ import annotations

import numpy as np

from repro.core.coarsen import _aggregate_directed
from repro.graph.csr import sum_duplicate_entries
from repro.graph.distgraph import DistGraph, owner_cuts
from repro.graph.partition import even_vertex

from .aggregate_reference import sorted_unique


def rebuild_distributed(
    comm,
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


def end_phase(comm, run, phase):
    """The end of a phase its world closed without it
    (``distlouvain._end_world``) as three rendezvous of their own: the
    per-rank :func:`rebuild_distributed`, the statistics' ``allreduce``
    and the projection's ``remote_lookup``."""
    from repro.core.coarsen import RebuildSeat, remote_lookup
    from repro.core.distlouvain import (
        _Closing, _cross_entries, _phase_partials,
    )

    cross = _cross_entries(run)
    new_dg, local_new = rebuild_distributed(
        comm, run.dg, phase.state.local_comm, phase.ghost_comm
    )
    total = comm.allreduce(
        _phase_partials(_Closing(
            RebuildSeat(run.dg, phase.state.local_comm, phase.ghost_comm),
            run.orig_slice, cross,
        ), new_dg),
        category="allreduce",
    )
    orig = remote_lookup(
        comm, run.dg.offsets, run.orig_slice, local_new, category="rebuild"
    )
    return new_dg, total, orig
