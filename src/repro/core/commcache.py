"""Owner-push incremental community-info exchange (subscription caches).

The paper's §V-A profile attributes ~34% of Baseline runtime to the
per-iteration community-info traffic.  The pull protocol pays it in
full every round: ``_fetch_community_info`` re-requests ``(a_c, |c|)``
for *every* referenced community (two dense alltoalls) and
``_apply_community_deltas`` ships the move deltas in a third — even
though between rounds only a shrinking fraction of communities actually
change.

This module implements the owner-push alternative
(``LouvainConfig.community_push_updates``):

* each rank keeps a :class:`CommunityCache` of ``(a_c, |c|)`` for the
  remotely-owned communities it references, and *subscribes* to those
  ids at their owners when they are first pulled;
* the end-of-round delta exchange fuses into a single
  :meth:`~repro.runtime.comm.Communicator.exchange_roundtrip`: deltas
  travel to owners in the request leg, owners apply them and push fresh
  ``(id, a_c, |c|)`` records *only for subscribed communities that
  changed* in the reply leg — the next round then reads its community
  info from the cache instead of re-fetching it;
* new references are *pre-subscribed* before they can miss: the first
  fetch of a phase pulls every community the rank's vertices could
  reference (all neighbour communities, not just this round's active
  set), and afterwards the only way a new community id can reach a
  rank is through a ghost vertex moving into it — which the mover sees,
  so it attaches a *subscription hint* ``(community, ghosting rank)``
  to its delta records and the owner folds the fresh info into the same
  exchange's push leg (see :meth:`CommunityCache.exchange_deltas` for
  the completeness argument).

Because the cached values always equal the owner state after all
deltas of earlier rounds — the same state the pull protocol re-fetches
— assignments and modularity stay **bit-identical** to the pull
protocol.

Steady state cost per round: *zero* collectives in the fetch (pure
cache read) plus one fused exchange whose payload is proportional to
the number of *changed* communities — versus three dense alltoalls
with payload proportional to the number of *referenced* communities.

Payloads are packed ``(id, tot, size)`` struct arrays
(:data:`COMM_INFO_DTYPE`), so the performance model charges the true
24-byte-per-record wire size of the equivalent MPI derived datatype.
"""

from __future__ import annotations

import numpy as np

from ..graph.distgraph import DistGraph, split_by_rank
from ..runtime.comm import Communicator

#: Packed wire record of one community's info (or one community delta):
#: community id, incident-weight total a_c (or its delta), size (or its
#: delta).  24 bytes per record.
COMM_INFO_DTYPE = np.dtype(
    [("id", "<i8"), ("tot", "<f8"), ("size", "<i8")]
)

_EMPTY_INFO = np.empty(0, dtype=COMM_INFO_DTYPE)
_EMPTY_IDS = np.empty(0, dtype=np.int64)


def pack_info(
    ids: np.ndarray, tot: np.ndarray, size: np.ndarray
) -> np.ndarray:
    """Pack aligned (ids, tot, size) columns into one struct array."""
    out = np.empty(len(ids), dtype=COMM_INFO_DTYPE)
    out["id"] = ids
    out["tot"] = tot
    out["size"] = size
    return out


def unpack_info(
    packed: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unpack a struct array into contiguous (ids, tot, size) columns."""
    return (
        np.ascontiguousarray(packed["id"]),
        np.ascontiguousarray(packed["tot"]),
        np.ascontiguousarray(packed["size"]),
    )


def aggregate_deltas(
    old: np.ndarray, new: np.ndarray, deg: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Net (a_c, |c|) delta per community touched by a batch of moves.

    A vertex moving ``old -> new`` contributes ``(-k, -1)`` to its old
    community and ``(+k, +1)`` to its new one; duplicates are summed
    before communicating.  Returns ``(ids, dtot, dsize)`` with ``ids``
    ascending; a touched community whose deltas cancel is still listed.
    """
    ids, dense = np.unique(np.concatenate([old, new]), return_inverse=True)
    return aggregate_dense_deltas(
        ids, dense[:len(old)], dense[len(old):], deg
    )


def aggregate_dense_deltas(
    ids: np.ndarray, old: np.ndarray, new: np.ndarray, deg: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`aggregate_deltas` of moves given as positions in the
    ascending id table ``ids`` (which may hold untouched ids too).

    One scatter per column instead of a sort; ``np.bincount`` adds its
    weights left to right like ``np.add.at``, all departures before all
    arrivals.  This is the one accumulation every protocol's deltas go
    through, so the owner-side floats cannot depend on the protocol.
    """
    n = len(ids)
    left = np.bincount(old, minlength=n)
    joined = np.bincount(new, minlength=n)
    # (bincount counts in int64 when given nothing to add: cast.)
    dtot = np.bincount(
        np.concatenate([old, new]),
        weights=np.concatenate([-deg, deg]),
        minlength=n,
    ).astype(np.float64, copy=False)
    touched = np.flatnonzero(left + joined)
    return ids[touched], dtot[touched], (joined - left)[touched]


def _membership(sorted_ids: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Bool mask: which ``query`` ids appear in sorted ``sorted_ids``."""
    if not len(sorted_ids) or not len(query):
        return np.zeros(len(query), dtype=bool)
    pos = np.searchsorted(sorted_ids, query)
    pos_clipped = np.minimum(pos, len(sorted_ids) - 1)
    return (pos < len(sorted_ids)) & (sorted_ids[pos_clipped] == query)


class CommunityCache:
    """Per-phase subscription cache of remote community info at one rank.

    Subscriber side: ``ids`` (sorted), ``tot``, ``size`` mirror the
    owners' dense C_info entries for every remotely-owned community this
    rank has referenced so far this phase.  Owner side: ``subs[r]``
    holds the *local slots* (``dg.to_local(community id)``) rank ``r`` is
    subscribed to, and ``changed`` marks owned slots touched by deltas
    since the last push.

    Lifetime is one phase: community ids live in the vertex-id space of
    the current (coarsened) graph, so the cache is rebuilt from scratch
    — via the cold-start pull of the first fetch — after every
    reconstruction, and likewise after a checkpoint restore (the pull
    re-materialises exactly the owner state the interrupted run held).
    """

    def __init__(self, dg: DistGraph, comm_size: int):
        self.dg = dg
        #: True until the first (collective, cold-start) fetch.
        self.cold = True
        # Subscriber-side mirror of remote C_info entries.
        self.ids = np.empty(0, dtype=np.int64)
        self.tot = np.empty(0, dtype=np.float64)
        self.size = np.empty(0, dtype=np.int64)
        # Owner-side subscription sets (local slots, sorted) per rank.
        self.subs: list[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in range(comm_size)
        ]
        # Owned slots with un-pushed (a_c, |c|) changes.
        self.changed = np.zeros(dg.num_local, dtype=bool)
        # Hint pairs already sent (key = community * size + rank), so a
        # repeated move into the same community costs no hint bytes —
        # the subscription it created is permanent.
        self._hinted = np.empty(0, dtype=np.int64)
        # Instrumentation (read by benchmarks/tests).
        self.pulled_entries = 0
        self.pushed_entries = 0
        self.hinted_pairs = 0

    # ------------------------------------------------------------------
    # Subscriber side
    # ------------------------------------------------------------------
    def fetch(
        self,
        comm: Communicator,
        needed: np.ndarray,
        tot_owned: np.ndarray,
        size_owned: np.ndarray,
        prefetch: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Current (a_c, |c|) for each id in sorted-unique ``needed``.

        The first call of a phase is collective on every rank: it pulls
        — and subscribes to — all of ``prefetch`` (the full set of
        communities this rank's vertices could reference, not just this
        round's active subset).  Every later call is a pure local cache
        read: the cold pull plus the subscription hints of
        :meth:`exchange_deltas` guarantee that any community referenced
        after round one is already cached, so no miss gate is needed.
        Returns exactly what the pull protocol's
        ``_fetch_community_info`` would.
        """
        dg = self.dg
        owners = dg.owner_of(needed)
        mine = owners == comm.rank
        remote = needed[~mine]
        if self.cold:
            self.cold = False
            ids = remote if prefetch is None else prefetch
            ids = ids[dg.owner_of(ids) != comm.rank]
            self._pull_and_subscribe(comm, ids, tot_owned, size_owned)
        elif len(remote):
            missing = remote[~_membership(self.ids, remote)]
            if len(missing):
                # The no-miss invariant (cold prefetch + hints) is the
                # correctness basis of the gate-free fetch; a miss here
                # is a protocol bug, never a recoverable condition.
                raise RuntimeError(
                    f"community cache miss on rank {comm.rank}: "
                    f"{missing[:8].tolist()}{'...' if len(missing) > 8 else ''}"
                )

        tot_out = np.empty(len(needed), dtype=np.float64)
        size_out = np.empty(len(needed), dtype=np.int64)
        if np.any(mine):
            loc = dg.to_local(needed[mine])
            tot_out[mine] = tot_owned[loc]
            size_out[mine] = size_owned[loc]
        if len(remote):
            slots = np.searchsorted(self.ids, remote)
            tot_out[~mine] = self.tot[slots]
            size_out[~mine] = self.size[slots]
        return tot_out, size_out

    def _pull_and_subscribe(
        self,
        comm: Communicator,
        wanted: np.ndarray,
        tot_owned: np.ndarray,
        size_owned: np.ndarray,
    ) -> None:
        """Cold-start pull of ``wanted`` ids; each request doubles as
        the subscription, so owners push future changes of these ids.

        Replies are id-less ``(2, n)`` value arrays (16 bytes/record):
        the requester aligns them with the ids it asked for, exactly
        like the pull protocol's reply leg.
        """
        dg = self.dg
        cuts = dg.cuts(wanted)
        requests = [wanted[cuts[r]:cuts[r + 1]] for r in range(comm.size)]

        def serve(incoming: list) -> list:
            replies = []
            for r, ids in enumerate(incoming):
                if ids is None or not len(ids):
                    replies.append(np.empty((2, 0)))
                    continue
                loc = np.asarray(dg.to_local(ids))
                self.subscribe(r, loc)
                replies.append(
                    np.stack(
                        [tot_owned[loc], size_owned[loc].astype(np.float64)]
                    )
                )
            return replies

        got = comm.exchange_roundtrip(
            requests, serve, category="community_comm"
        )
        fresh = [
            pack_info(requests[r], got[r][0], got[r][1].astype(np.int64))
            for r in range(comm.size)
            if got[r] is not None and got[r].shape[1]
        ]
        if fresh:
            self._insert(np.concatenate(fresh))

    def _insert(self, packed: np.ndarray) -> None:
        """Merge newly pulled records into the sorted cache arrays."""
        ids, tot, size = unpack_info(packed)
        self.pulled_entries += len(ids)
        all_ids = np.concatenate([self.ids, ids])
        order = np.argsort(all_ids, kind="stable")
        self.ids = all_ids[order]
        self.tot = np.concatenate([self.tot, tot])[order]
        self.size = np.concatenate([self.size, size])[order]

    def _apply_push(self, packed: np.ndarray) -> None:
        """Fold owner-pushed fresh values into the cache.

        Known ids are overwritten in place; unknown ids (proactive
        hint-driven subscriptions — see :meth:`exchange_deltas`) are
        inserted, pre-empting the fallback pull the next fetch would
        otherwise need.
        """
        ids, tot, size = unpack_info(packed)
        self.pushed_entries += len(ids)
        known = _membership(self.ids, ids)
        if np.any(known):
            slots = np.searchsorted(self.ids, ids[known])
            self.tot[slots] = tot[known]
            self.size[slots] = size[known]
        if not np.all(known):
            new = ~known
            all_ids = np.concatenate([self.ids, ids[new]])
            order = np.argsort(all_ids, kind="stable")
            self.ids = all_ids[order]
            self.tot = np.concatenate([self.tot, tot[new]])[order]
            self.size = np.concatenate([self.size, size[new]])[order]

    # ------------------------------------------------------------------
    # Owner side
    # ------------------------------------------------------------------
    def subscribe(self, rank: int, local_slots: np.ndarray) -> None:
        """Register ``rank`` for future pushes of these owned slots."""
        self.subs[rank] = np.union1d(self.subs[rank], local_slots)

    def exchange_deltas(
        self,
        comm: Communicator,
        ids: np.ndarray,
        dtot: np.ndarray,
        dsize: np.ndarray,
        tot_owned: np.ndarray,
        size_owned: np.ndarray,
        hint_ids: np.ndarray | None = None,
        hint_ranks: np.ndarray | None = None,
    ) -> None:
        """The fused end-of-round exchange (replaces three alltoalls).

        Request leg: this rank's aggregated move deltas ``(ids, dtot,
        dsize)`` (:func:`aggregate_deltas`; ``ids`` ascending), sliced
        by community owner, plus *subscription hints* — ``(hint_ids[i],
        hint_ranks[i])`` pairs saying "rank ``hint_ranks[i]`` may
        reference community ``hint_ids[i]`` from now on" (the mover of
        a ghosted vertex knows which ranks ghost it, so it subscribes
        them to the move's target community before they could miss it).
        Serve step (owner side, runs once per rank inside the
        collective): apply every rank's deltas to the dense C_info
        arrays — same rank order and ``np.add.at`` accumulation as the
        pull protocol, so the owned floats stay bit-identical — mark the
        touched slots, then register the hinted subscriptions.  Reply
        leg: fresh ``(id, a_c, |c|)`` for ``changed ∩ subscribed`` per
        subscriber; received pushes update the local cache (hint-driven
        entries are inserted).  Unconditional every round, like the
        delta alltoall of Algorithm 3 it fuses away.

        Hints + the cold prefetch make the gate-free fetch complete: a
        community ``c`` referenced by rank ``r`` at round ``t`` is the
        community of one of ``r``'s local vertices or their neighbours,
        so either it dates from before the phase's first fetch (covered
        by the cold prefetch over *all* of ``r``'s neighbour
        communities), or some vertex ``v`` moved into ``c`` at a round
        ``t' < t``.  If ``v`` is owned by ``r``, then ``r`` evaluated
        ``c`` during that sweep, so ``c`` was in round ``t'``'s fetch
        set.  If ``v`` is a ghost, its owner hinted ``(c, r)`` in round
        ``t'``'s exchange (``r`` ghosts ``v``), and the push leg
        delivered ``c``'s info.  Either way ``c`` is cached — and kept
        fresh by the permanent subscription — before round ``t``.
        A moved vertex always changes its target community's delta
        entry, so hinted communities are always in ``changed`` and the
        hint's info always rides the same exchange's push.
        """
        dg = self.dg
        p = comm.size
        cuts = dg.cuts(ids)
        deltas = [
            pack_info(ids[a:b], dtot[a:b], dsize[a:b])
            for a, b in zip(cuts[:-1], cuts[1:])
        ]
        if hint_ids is None or not len(hint_ids):
            hints = [(_EMPTY_IDS, _EMPTY_IDS)] * p
        else:
            # Dedupe (community, subscriber) pairs — within this round
            # and against every pair ever hinted (subscriptions are
            # permanent, so re-hinting is pure payload waste) — and
            # drop pairs where the subscriber owns the community.
            key = hint_ids * np.int64(p) + hint_ranks
            key = np.unique(key)
            key = key[~_membership(self._hinted, key)]
            hid = key // p
            hrank = key % p
            m = dg.owner_of(hid) != hrank
            hid, hrank, key = hid[m], hrank[m], key[m]
            self._hinted = np.union1d(self._hinted, key)
            self.hinted_pairs += len(key)
            hints = split_by_rank(dg.owner_of(hid), p, hid, hrank)
        requests = [(deltas[r], *hints[r]) for r in range(p)]
        changed = self.changed

        def serve(incoming: list) -> list:
            for req in incoming:
                if req is None:
                    continue
                packed, hid, hrank = req
                if len(packed):
                    ids, dtot, dsize = unpack_info(packed)
                    loc = np.asarray(dg.to_local(ids))
                    np.add.at(tot_owned, loc, dtot)
                    np.add.at(size_owned, loc, dsize)
                    changed[loc] = True
                for r in np.unique(hrank):
                    self.subscribe(
                        int(r), np.asarray(dg.to_local(hid[hrank == r]))
                    )
            replies = []
            for r in range(p):
                sel = self.subs[r]
                if len(sel):
                    sel = sel[changed[sel]]
                replies.append(
                    pack_info(
                        np.asarray(dg.from_local(sel)),
                        tot_owned[sel],
                        size_owned[sel],
                    )
                )
            changed[:] = False
            return replies

        got = comm.exchange_roundtrip(
            requests, serve, category="community_comm"
        )
        for packed in got:
            if packed is not None and len(packed):
                self._apply_push(packed)
