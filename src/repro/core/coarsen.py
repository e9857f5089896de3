"""Graph coarsening: communities collapse into meta-vertices between phases.

Serial version (:func:`coarsen_csr`) is the textbook Louvain phase-2 step.
The distributed version (:func:`rebuild_distributed`) follows §IV-A(b) of
the paper — the seven numbered steps around Fig. 1 — as one scripted
rendezvous whose world function, :func:`rebuild_world`, runs each step
once for every rank, one named world step each:

1. :func:`renumber_locally` — the communities each rank's owned and
   ghost vertices use, as keys ``n * rank + c``;
2. :func:`prune_stale_ids` — a community is alive if some rank uses
   it; the notification that tells its owner so (one ``alltoall``) is
   priced from the keys' counts;
3. :func:`prefix_sum_renumber` — one prefix sum over the alive flags
   renumbers every community, and the ranks' alive counts are the step's
   ``allgather``;
4. :func:`propagate_new_ids` — the owners' answer to the notification
   (one ``alltoall``), every slot's new id read off the prefix sum;
5. :func:`partial_edge_lists` — each rank's entries as meta edges,
   duplicates summed per rank (intra-community entries become self
   loops); each rank is charged its pass;
6. :func:`redistribute` — the partial lists to the owners of their
   sources in the even-vertex layout (one ``alltoall``);
7. :func:`rebuild_csr` — each owner's duplicates summed in source-rank
   order and its CSR rows cut out.

Every message is priced from counts and nothing is routed: the world's
arrays already hold what a rank would receive.  The per-rank formulation
the world steps replace is kept in ``tests/oracles/rebuild_reference.py``.

Both versions preserve ``total_weight`` exactly — the invariant property
tests lean on.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ..graph.csr import CSRGraph, row_index, sum_duplicate_entries
from ..graph.distgraph import (
    DistGraph, distinct_keys, key_counts, owner_cuts,
)
from ..graph.partition import even_vertex
from ..runtime.comm import (
    Communicator, World, allgather_world, alltoall_counts_world,
    lookup_world,
)
from .sweep import SweepWorkspace

_I8 = np.dtype(np.int64)


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


class RebuildSeat(NamedTuple):
    """One rank's deposit in :func:`rebuild_world`: its graph slice and
    the final community of every owned and ghost vertex."""

    dg: DistGraph
    local_comm: np.ndarray
    ghost_comm: np.ndarray


def rebuild_seat(
    comm: Communicator,
    dg: DistGraph,
    local_comm: np.ndarray,
    ghost_comm: np.ndarray,
) -> RebuildSeat:
    """This rank's :class:`RebuildSeat`: ``ghost_comm`` must align with
    the ghost plan (built now if it is not yet), or this rank fails."""
    plan = dg.build_ghost_plan(comm)
    if len(ghost_comm) != plan.num_ghosts:
        raise ValueError("ghost_comm not aligned with the ghost plan")
    return RebuildSeat(dg, local_comm, ghost_comm)


def project_world(
    world: World,
    comms: Sequence[Communicator],
    offsets: np.ndarray,
    origs: list[np.ndarray],
    local_new: list[np.ndarray],
) -> list[np.ndarray]:
    """Fold one coarsening into every rank's original-vertex map: the new
    meta id of original vertex o is ``local_new[to_local(x)]`` at the
    owner of o's current meta vertex x — an owner lookup, its request
    and reply legs priced by the distinct ``(rank, x)`` keys, its answers
    read off the owners' tables laid end to end."""
    n, p = int(offsets[-1]), len(origs)
    empty = SweepWorkspace.of(world.workspace).scratch(
        n * 3 + sum(map(len, origs))
    ).empty
    keys = empty(sum(map(len, origs)), _I8)
    lo = 0
    for r, o in enumerate(origs):
        np.add(o, r * n, out=keys[lo:lo + len(o)])
        lo += len(o)
    table = local_new[0]
    if p > 1:
        table = np.concatenate(
            local_new, out=empty(n, np.result_type(*local_new))
        )
    lookup_world(
        world, comms, None,
        key_counts(offsets, distinct_keys(n * p, keys, empty=empty), p),
        (table,), category="rebuild",
    )
    return [table.take(o) for o in origs]


def rebuild_distributed(
    comm: Communicator,
    dg: DistGraph,
    local_comm: np.ndarray,
    ghost_comm: np.ndarray,
) -> tuple[DistGraph, np.ndarray]:
    """Distributed graph reconstruction at the end of a phase: one
    scripted rendezvous (:func:`rebuild_world`).

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
    return comm.scripted(
        "rebuild", rebuild_seat(comm, dg, local_comm, ghost_comm),
        rebuild_world,
    )


def rebuild_world(
    world: World, comms: Sequence[Communicator], seats: list[RebuildSeat]
) -> list[tuple[DistGraph, np.ndarray]]:
    """§IV-A(b)'s seven steps for every rank, one world step each; their
    ops — step 2's notification, step 3's allgather, step 4's answer and
    step 6's meta edges, all ``rebuild`` — are charged to every rank
    through ``comms[r]``.  Returns each rank's coarsened slice and its
    owned vertices' new ids."""
    offsets = seats[0].dg.offsets
    # Every temporary the steps make is carved from the sweep's scratch,
    # idle between phases, so none settles in this thread's heap.
    empty = SweepWorkspace.of(world.workspace).scratch(
        sum(s.dg.num_local_entries for s in seats) + int(offsets[-1])
    ).empty
    slots, used = renumber_locally(offsets, seats, empty)
    alive, notified = prune_stale_ids(world, comms, offsets, used, empty)
    new_id, new_offsets = prefix_sum_renumber(
        world, comms, offsets, alive, empty
    )
    slot_new = propagate_new_ids(world, comms, notified, new_id, slots)
    meta = partial_edge_lists(
        world, comms, seats, slot_new, new_offsets, empty
    )
    redistribute(world, comms, meta, new_offsets, empty)
    graphs = rebuild_csr(world, seats, meta, new_offsets, empty)
    base, local_new = 0, []
    for s in seats:
        local_new.append(slot_new[base:base + len(s.local_comm)])
        base += len(s.local_comm) + len(s.ghost_comm)
    return list(zip(graphs, local_new))


def renumber_locally(
    offsets: np.ndarray, seats: list[RebuildSeat], empty
) -> tuple[np.ndarray, np.ndarray]:
    """Step 1: every rank's slots — owned vertices, then ghosts — laid
    end to end with their communities, and the distinct communities each
    rank uses, as ascending keys ``n * rank + c`` (one boolean scatter
    over ``n * p`` flags: every rank's sorted, duplicate-free list end to
    end).  A community outside the vertex space has no owner: it raises,
    naming the rank."""
    n = int(offsets[-1])
    parts = [a for s in seats for a in (s.local_comm, s.ghost_comm)]
    slots = np.concatenate(
        parts, out=empty(sum(map(len, parts)), np.result_type(*parts))
    )
    keys = empty(len(slots), _I8)
    lo = 0
    for r, s in enumerate(seats):
        hi = lo + len(s.local_comm) + len(s.ghost_comm)
        mine = slots[lo:hi]
        if len(mine) and (mine.min() < 0 or mine.max() >= n):
            raise ValueError(
                f"rank {r}: ids outside the vertex space [0, {n}): "
                f"{int(mine.min())} .. {int(mine.max())}"
            )
        np.add(mine, r * n, out=keys[lo:hi])
        lo = hi
    return slots, distinct_keys(n * len(seats), keys, empty=empty)


def prune_stale_ids(
    world: World,
    comms: Sequence[Communicator],
    offsets: np.ndarray,
    used: np.ndarray,
    empty,
) -> tuple[np.ndarray, np.ndarray]:
    """Step 2: a community is alive if any rank uses it, however stale
    its owner's own vertices are.  Each rank notifies every owner of the
    communities it uses (one ``alltoall``, ``counts[s, d]`` ids of rank
    ``s`` owned by ``d``, the own slice unsized) — the notification is
    also step 4's request.  Returns the alive flag per community and the
    notification counts."""
    n = int(offsets[-1])
    notified = key_counts(offsets, used, len(comms))
    alltoall_counts_world(
        world, comms, notified, used.itemsize, category="rebuild"
    )
    alive = empty(n, np.dtype(bool))
    alive[:] = False
    alive[np.remainder(used, max(n, 1), out=empty(len(used), _I8))] = True
    return alive, notified


def prefix_sum_renumber(
    world: World,
    comms: Sequence[Communicator],
    offsets: np.ndarray,
    alive: np.ndarray,
    empty,
) -> tuple[np.ndarray, np.ndarray]:
    """Step 3: one prefix sum over the alive flags gives every alive
    community its new id — how many alive ones precede it, so each
    owner's ids run on from the counts of the owners before it — and the
    ranks' alive counts are the step's ``allgather``.  Returns the new
    id by community (meaningless where it is not alive) and the new
    graph's even-vertex partition."""
    below = empty(len(alive) + 1, _I8)
    below[0] = 0
    np.cumsum(alive, out=below[1:])
    allgather_world(
        world, comms, np.diff(below[offsets]).tolist(), category="rebuild"
    )
    return below[:-1], even_vertex(int(below[-1]), len(comms))


def propagate_new_ids(
    world: World,
    comms: Sequence[Communicator],
    notified: np.ndarray,
    new_id: np.ndarray,
    slots: np.ndarray,
) -> np.ndarray:
    """Step 4: every owner answers each notification with the new ids
    of the communities in it (one ``alltoall``, the transposed counts);
    every slot's new id is read off the prefix sum."""
    alltoall_counts_world(
        world, comms, notified.T, new_id.itemsize, category="rebuild"
    )
    return new_id.take(slots)


def partial_edge_lists(
    world: World,
    comms: Sequence[Communicator],
    seats: list[RebuildSeat],
    slot_new: np.ndarray,
    new_offsets: np.ndarray,
    empty,
) -> tuple[np.ndarray, np.ndarray]:
    """Step 5: every rank's entries as meta edges — the source's new id
    by the entry's row, the target's through the compressed targets
    (the owned slots, then the ghosts) — each rank charged one pass over
    its entries.  Duplicates are summed per rank: every entry is keyed
    ``(source * n_new + target) * p + rank``, so one stable sort groups
    the entries by source, target and rank and sums each rank's group in
    its own storage order, float for float what the rank would send.
    Returns every group's key, ascending, and its summed weight."""
    cost = world.machine.compute_cost
    p, n_new = len(seats), int(new_offsets[-1])
    total = sum(s.dg.num_local_entries for s in seats)
    key = empty(total, _I8)
    part = empty(max(s.dg.num_local_entries for s in seats), _I8)
    base = e0 = 0
    for r, (comm, s) in enumerate(zip(comms, seats)):
        dg, e1 = s.dg, e0 + s.dg.num_local_entries
        mine = slot_new[base:base + len(s.local_comm) + len(s.ghost_comm)]
        keys, targets = key[e0:e1], part[:e1 - e0]
        mine.take(dg.local_rows(), out=keys, mode="clip")
        mine.take(dg.compressed_targets(), out=targets, mode="clip")
        keys *= n_new
        keys += targets
        keys *= p
        keys += r
        comm.charge("rebuild", cost(dg.num_local_entries))
        base += len(mine)
        e0 = e1
    weights = [s.dg.weights for s in seats]
    if p > 1:
        weights = [np.concatenate(
            weights, out=empty(total, np.result_type(*weights))
        )]
    return _sum_runs(key, weights[0], empty, world)


def _sum_runs(
    key: np.ndarray, w: np.ndarray, empty, world: World
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and the weights of each key's
    entries summed in input order (the stable-sort sum of
    :func:`~repro.graph.csr.sum_duplicate_entries`, its temporaries in
    scratch; ``key`` is sorted in place)."""
    n = len(key)
    if not n:
        return key, w
    positions = SweepWorkspace.of(world.workspace).positions(n)
    bits = (n - 1).bit_length()
    if int(key.max()) <= np.iinfo(np.int64).max >> bits:
        key <<= bits
        key |= positions
        key.sort()
        order = np.bitwise_and(key, (1 << bits) - 1, out=empty(n, _I8))
        key >>= bits
    else:
        order = np.argsort(key, kind="stable")
        key[:] = key[order]
    starts = _heads(key, empty, positions)
    sums = np.add.reduceat(
        w.take(order, out=empty(n, w.dtype), mode="clip"), starts,
        out=empty(len(starts), w.dtype),
    )
    return key.take(starts, out=empty(len(starts), _I8)), sums


def _heads(
    sorted_keys: np.ndarray, empty, positions: np.ndarray
) -> np.ndarray:
    """Where every run of equal ``sorted_keys`` starts."""
    heads = empty(len(sorted_keys), np.dtype(bool))
    heads[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=heads[1:])
    count = int(np.count_nonzero(heads))
    return np.compress(
        heads, positions[:len(heads)], out=empty(count, _I8)
    )


def redistribute(
    world: World,
    comms: Sequence[Communicator],
    meta: tuple[np.ndarray, np.ndarray],
    new_offsets: np.ndarray,
    empty,
) -> None:
    """Step 6: each rank's partial list to the owners of its sources in
    the even-vertex layout (one ``alltoall``, a source, target and
    weight per meta edge), ``counts[r, d]`` of rank ``r``'s meta edges
    owned by ``d``: the sources ascend with the keys, so the owners'
    runs are cut by one search."""
    key, w = meta
    p, n_new = len(comms), int(new_offsets[-1])
    src = np.floor_divide(key, n_new * p, out=empty(len(key), _I8))
    cuts = owner_cuts(new_offsets, src)
    pair = np.remainder(key, p, out=src)
    pair *= p
    for d in range(1, p):
        pair[cuts[d]:cuts[d + 1]] += d
    counts = np.bincount(pair, minlength=p * p).reshape(p, p)
    alltoall_counts_world(
        world, comms, counts, 2 * _I8.itemsize + w.itemsize,
        category="rebuild",
    )


def rebuild_csr(
    world: World,
    seats: list[RebuildSeat],
    meta: tuple[np.ndarray, np.ndarray],
    new_offsets: np.ndarray,
    empty,
) -> list[DistGraph]:
    """Step 7: every owner's meta edges with duplicates summed — each
    ``(source, target)`` group is one run of the ranks' pre-summed
    entries in source-rank order, the order an owner concatenating what
    it received sums them in — and each rank's CSR rows cut out of the
    world's (its ``edges`` / ``weights`` are views of one array per
    field, its rows the sources less its first vertex)."""
    key, w = meta
    p, n_new = len(seats), int(new_offsets[-1])
    pairs = np.floor_divide(key, p, out=key)
    positions = SweepWorkspace.of(world.workspace).positions(len(pairs))
    starts = _heads(pairs, empty, positions)
    weights = np.add.reduceat(w, starts) if len(w) else w.copy()
    pairs = pairs.take(starts, out=empty(len(starts), _I8))
    src = np.floor_divide(pairs, n_new, out=empty(len(pairs), _I8))
    edges = np.remainder(pairs, max(n_new, 1))
    cuts = owner_cuts(new_offsets, src)
    graphs = []
    for r, s in enumerate(seats):
        lo, hi, a, b = new_offsets[r], new_offsets[r + 1], cuts[r], cuts[r + 1]
        rows = src[a:b] - lo
        graphs.append(DistGraph(
            offsets=new_offsets,
            rank=r,
            index=row_index(rows, int(hi - lo)),
            edges=edges[a:b],
            weights=weights[a:b],
            total_weight=s.dg.total_weight,
            _rows=rows,
        ))
    return graphs
