"""Reference schedules: the one-payload-per-collective formulations.

The shipped code sends everything that is ready at a synchronisation
point in one message per peer.  These are the formulations it replaced,
one payload per collective, kept as oracles (tests only, never imported
by ``src/``): they put the same values on the wire in more messages, so
what every rank holds afterwards must be *equal*, not close.

* :func:`apply_community_deltas` — a sweep round's two closing
  exchanges: the deltas to the community owners, then the moved
  vertices' labels to the ranks ghosting them.
* :func:`rebuild_renumbering` — §IV-A(b) steps 2-4 with the
  notification and the new-id request as separate exchanges and the
  renumbering base from ``exscan`` + ``allreduce``.
"""

from __future__ import annotations

import numpy as np

from repro.core.coarsen import _lookup_sorted
from repro.graph.csr import sorted_unique


def apply_community_deltas(
    comm, dg, ids, dtot, dsize, tot_owned, size_owned, labels=None,
    received_log=None,
):
    """Drop-in for ``repro.core.distlouvain._apply_community_deltas``:
    one alltoall for the delta slices (owners apply them in source-rank
    order), then — when the round has ``labels`` — a second one for the
    label slices.  ``received_log`` collects, per source rank, whether
    its delta slice and its label slice were non-empty."""
    cuts = dg.cuts(ids)
    received = comm.alltoall(
        [
            (ids[a:b], dtot[a:b], dsize[a:b])
            for a, b in zip(cuts[:-1], cuts[1:])
        ],
        category="community_comm",
    )
    for rids, rtot, rsize in received:
        if len(rids):
            loc = dg.to_local(rids)
            np.add.at(tot_owned, loc, rtot)
            np.add.at(size_owned, loc, rsize)
    got = [()] * comm.size
    if labels is not None:
        got = comm.alltoall(labels, category="ghost_comm")
        if received_log is not None:
            received_log.extend(
                (len(deltas[0]) > 0, len(label[0]) > 0)
                for r, (deltas, label) in enumerate(zip(received, got))
                if r != comm.rank
            )
    return got


def rebuild_renumbering(comm, dg, local_comm, ghost_comm):
    """``(n_new, new id of every slot's community)`` — owned slots, then
    ghosts — by the parent formulation of the rebuild's steps 2-4."""
    used, slot_of = np.unique(
        np.concatenate([local_comm, ghost_comm]), return_inverse=True
    )
    cuts = dg.cuts(used)
    notify = [used[cuts[r]:cuts[r + 1]] for r in range(comm.size)]
    mine_here = notify[comm.rank]
    notify[comm.rank] = used[:0]
    reported = comm.alltoall(notify, category="rebuild")
    alive = sorted_unique(np.concatenate([mine_here] + list(reported)))
    base = comm.exscan(len(alive), category="rebuild")
    n_new = comm.allreduce(len(alive), category="rebuild")
    new_ids = base + np.arange(len(alive), dtype=np.int64)

    def lookup_owned(ids):
        pos = np.searchsorted(alive, ids)
        assert np.array_equal(alive[pos], ids), "asked for a dead community"
        return new_ids[pos]

    slot_new = _lookup_sorted(
        comm, dg.offsets, used, lookup_owned, category="rebuild"
    )[slot_of]
    return int(n_new), slot_new
