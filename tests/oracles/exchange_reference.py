"""Reference schedules: the list protocols the shipped exchanges replaced.

The shipped code routes owner traffic through two table-backed
collectives (``Communicator.lookup`` and ``Communicator.push``) whose
owners do their work once per world, and sends everything that is ready
at a synchronisation point in one message per peer.  These are the
formulations they replaced, kept as oracles (tests only, never imported
by ``src/``): what every rank holds afterwards must be *equal*, not
close.

* :func:`lookup_sorted` — the owner-routed lookup as a request
  ``alltoall`` and a reply ``alltoall``, every owner answering each
  source's request with one call of its lookup function.
* :func:`lookup` / :func:`push` — drop-ins for ``Communicator.lookup`` /
  ``Communicator.push`` on that list protocol: the same messages, so
  the same clock, counts and bytes; ``push`` applies each source's
  values with one ``np.add.at`` per source.
* :func:`apply_community_deltas` — a sweep round's two closing
  exchanges: the deltas to the community owners, then the moved
  vertices' labels to the ranks ghosting them.
* :func:`rebuild_renumbering` — §IV-A(b) steps 2-4 with the
  notification and the new-id request as separate exchanges and the
  renumbering base from ``exscan`` + ``allreduce``.
"""

from __future__ import annotations

import numpy as np

from repro.graph.distgraph import owner_cuts

from .aggregate_reference import sorted_unique


def _send_requests(comm, offsets, ids, category):
    """Requests are slices of ``ids`` by owner: deliver them and return
    ``(cuts, this rank's own slice, the slices sent here)`` — the own
    slice never touches the wire."""
    cuts = owner_cuts(offsets, ids)
    requests = [ids[cuts[r]:cuts[r + 1]] for r in range(comm.size)]
    mine = requests[comm.rank]
    requests[comm.rank] = ids[:0]
    return cuts, mine, comm.alltoall(requests, category=category)


def lookup_sorted(
    comm, offsets, ids, local_lookup, category, what="lookups"
):
    """Values of ascending, duplicate-free ``ids`` from the ranks that
    own them.  Owners answer every request — an empty one included —
    with ``local_lookup``, and the replies in rank order, this rank
    answering its own slice in place, are the values in ``ids`` order.
    A reply holds one value per id along its *last* axis and is refused
    unless it is as long as its request."""
    cuts, mine, incoming = _send_requests(comm, offsets, ids, category)
    answers = comm.alltoall(
        [local_lookup(asked) for asked in incoming], category=category
    )
    answers[comm.rank] = local_lookup(mine)
    for r, got in enumerate(answers):
        if got.shape[-1] != cuts[r + 1] - cuts[r]:
            raise ValueError(
                f"rank {comm.rank}: rank {r} answered {got.shape[-1]} of "
                f"{cuts[r + 1] - cuts[r]} {what}"
            )
    return np.concatenate(answers, axis=-1)


def lookup(comm, offsets, ids, tables, category="other"):
    """``Communicator.lookup`` on the list protocol: a reply is the
    tuple of the owner's per-field values, so it is sized like the
    shipped reply.  Returns one array per field."""
    lo = offsets[comm.rank]
    cuts, mine, incoming = _send_requests(comm, offsets, ids, category)
    answers = comm.alltoall(
        [tuple(t[asked - lo] for t in tables) for asked in incoming],
        category=category,
    )
    answers[comm.rank] = tuple(t[mine - lo] for t in tables)
    return tuple(np.concatenate(field) for field in zip(*answers))


def push(comm, offsets, ids, values, tables, carry=None, category="other"):
    """``Communicator.push`` on the list protocol: one ``alltoall`` of
    per-destination tuples (id slice, value slices, carried slices);
    owners apply the values with one ``np.add.at`` per source, in
    source-rank order.  Returns the carried arrays concatenated in
    source order (``()`` without ``carry``)."""
    cuts = owner_cuts(offsets, ids)
    extra = [()] * comm.size
    if carry is not None:
        counts, *arrays = carry
        at = np.concatenate([[0], np.cumsum(counts)])
        extra = [
            tuple(a[at[d]:at[d + 1]] for a in arrays)
            for d in range(comm.size)
        ]
    received = comm.alltoall(
        [
            (ids[a:b], *(v[a:b] for v in values), *more)
            for a, b, more in zip(cuts[:-1], cuts[1:], extra)
        ],
        category=category,
    )
    lo = offsets[comm.rank]
    for message in received:
        rids = message[0]
        for table, rvalues in zip(tables, message[1:1 + len(values)]):
            np.add.at(table, rids - lo, rvalues)
    if carry is None:
        return ()
    return tuple(
        np.concatenate(field)
        for field in zip(*(m[1 + len(values):] for m in received))
    )


def apply_community_deltas(
    comm, dg, ids, dtot, dsize, tot_owned, size_owned, labels=None,
    received_log=None,
):
    """Drop-in for the per-rank iteration's delta exchange
    (``iteration_reference.apply_community_deltas``): one alltoall for the delta slices (owners apply them in source-rank
    order), then — when the round has ``labels``, its
    ``(counts, ids, values)`` — a second one for the label slices.
    ``received_log`` collects, per source rank, whether its delta slice
    and its label slice were non-empty."""
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
    carried = ()
    if labels is not None:
        counts, vertices, values = labels
        at = np.concatenate([[0], np.cumsum(counts)])
        got = comm.alltoall(
            [
                (vertices[at[d]:at[d + 1]], values[at[d]:at[d + 1]])
                for d in range(comm.size)
            ],
            category="ghost_comm",
        )
        if received_log is not None:
            received_log.extend(
                (len(deltas[0]) > 0, len(label[0]) > 0)
                for r, (deltas, label) in enumerate(zip(received, got))
                if r != comm.rank
            )
        carried = (
            np.concatenate([v for v, _ in got]),
            np.concatenate([c for _, c in got]),
        )
    return carried


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

    slot_new = lookup_sorted(
        comm, dg.offsets, used, lookup_owned, category="rebuild"
    )[slot_of]
    return int(n_new), slot_new
