"""Vectorised move-selection kernel for one Louvain iteration.

The paper's implementation is MPI+OpenMP: within a rank, vertices are
processed *in parallel* by OpenMP threads, so move decisions within one
iteration are made against a snapshot of the community state from the
iteration start (the same semantics as Grappolo [22]).  This module
implements that snapshot sweep as one pass of numpy segment operations
over the edges, with a single sort:

0. everything that depends only on the phase's CSR — the row of every
   entry, the non-self-loop entries and their rows/weights, one
   zero-weight *own-community* entry per vertex so the current community
   is always a candidate — is hoisted into a :class:`SweepPlan`, built
   once per phase; an iteration only gathers community ids.  The plan
   also owns the scratch memory of the sweep: the entry-sized
   temporaries are carved from one buffer that lives as long as the
   phase (gathers and ufuncs write through ``out=``), so an iteration
   neither mallocs nor page-faults them afresh — that was a third of the
   call and the part whose cost follows the host, not the input;
1. every (vertex, neighbouring community) entry gets the fused integer
   key ``row * C + community`` and **one** stable sort groups equal
   pairs, rows ascending and communities ascending within a row (the
   entry's position rides in the key's low bits, so the sort runs in
   place on the keys; ids too wide for that fall back to a stable
   ``argsort``); stability keeps the CSR order inside a group, so the
   segment sum ``d_{u,c}`` adds the same floats in the same order
   whatever the ids;
2. score each candidate ``score(c) = d_{u,c} - k_u * tot'(c) / W`` where
   ``tot'`` excludes ``u``'s own degree from its current community —
   maximising this score is equivalent to maximising the modularity gain
   of Algorithm 1 line 6;
3. per vertex, pick the best-scoring community without sorting again:
   the pairs of a row are contiguous with ids ascending, so the winner
   is the *first* pair whose score equals the row's segment maximum
   (ties go to the smallest community id, which also gives
   deterministic output);
4. suppress the classic singleton-singleton swap oscillation: when both
   the vertex's community and the target are singletons, only the move
   toward the smaller id is allowed (the "minimum labelling" rule of
   Lu et al. [22]).

The kernel knows nothing about ownership: the distributed caller feeds
it snapshot community ids for *global* targets and a ``tot`` lookup that
covers remotely-owned communities, so exactly the same decision logic
runs in the serial, shared-memory and distributed paths.  Community ids
must be non-negative with ``nloc * (max id + 1)`` inside int64; the
distributed caller keeps the ids a rank has seen this phase numbered
densely (an order-preserving map, so tie-breaks are unaffected), which
also lets it hand over totals as plain arrays through
:func:`array_lookup`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Relative tolerance for "strictly positive gain" decisions.
GAIN_EPS = 1e-12
#: Scratch per candidate entry, in 8-byte words; a masked sweep from the
#: singleton state, the worst case, uses 10.3.  Pages are only touched
#: as far as a sweep gets, and a sweep that outgrows it mallocs the rest.
SCRATCH_WORDS = 11


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one snapshot sweep over the local vertices."""

    #: Proposed community per local vertex (== current where no move).
    proposal: np.ndarray
    #: True where the proposal differs from the current community.
    moved: np.ndarray
    #: Number of (vertex, community) candidate pairs evaluated — the
    #: work measure charged to the performance model.
    pairs_evaluated: int

    @property
    def num_moves(self) -> int:
        return int(self.moved.sum())


class _Scratch:
    """Bump allocator over one buffer a plan keeps for its phase.

    A sweep needs about a dozen temporaries as long as the entry list.
    Left to malloc they are given back to the OS when the call ends and
    faulted in again on the next — a third of the kernel's time, and the
    share that moves most with the state of the host.  The kernel carves
    them from here instead; nothing it returns to the caller lives here.
    """

    def __init__(self, nbytes: int) -> None:
        self._buf = np.empty(nbytes, dtype=np.uint8)
        #: Offset of the first free byte; callers save and restore it.
        self.top = 0

    def empty(self, n: int, dtype: type | np.dtype) -> np.ndarray:
        size = n * np.dtype(dtype).itemsize
        end = self.top + -(-size // 64) * 64
        if end > len(self._buf):
            return np.empty(n, dtype)
        out = self._buf[self.top:self.top + size].view(dtype)
        self.top = end
        return out

    def take(self, source: np.ndarray, where: np.ndarray) -> np.ndarray:
        """``source[where]`` into scratch; ``where`` must be in range."""
        out = self.empty(len(where), source.dtype)
        return source.take(where, out=out, mode="clip")


@dataclass(frozen=True)
class SweepPlan:
    """The part of a sweep that depends only on the phase's CSR.

    The candidate *entries* of a sweep are the non-self-loop CSR entries
    followed by one synthetic zero-weight entry per vertex pointing at
    its own community (so the current community is always scored).
    Their rows and weights never change within a phase; only the
    community of each entry does.
    """

    #: Owning row of every CSR entry, ``int64[nnz]``.
    rows: np.ndarray
    #: CSR positions of the non-self-loop entries.
    entries: np.ndarray
    #: Row of every candidate entry: ``rows[entries]`` then ``0..nloc-1``.
    entry_rows: np.ndarray
    #: Weight of every candidate entry: ``weights[entries]`` then zeros.
    entry_weights: np.ndarray
    #: ``0..len(entry_rows)-1``, packed under the sort key.
    positions: np.ndarray
    #: The kernel's temporaries; one sweep at a time per plan.
    scratch: _Scratch

    @classmethod
    def build(
        cls,
        index: np.ndarray,
        weights: np.ndarray,
        self_mask: np.ndarray,
        rows: np.ndarray | None = None,
    ) -> "SweepPlan":
        """``rows`` is the owning row of every entry when the caller
        already has it (``DistGraph.local_rows``); derived otherwise."""
        nloc = len(index) - 1
        own = np.arange(nloc, dtype=np.int64)
        if rows is None:
            rows = np.repeat(own, np.diff(index))
        entries = np.flatnonzero(~self_mask)
        entry_rows = np.concatenate([rows[entries], own])
        return cls(
            rows=rows,
            entries=entries,
            entry_rows=entry_rows,
            entry_weights=np.concatenate([weights[entries], np.zeros(nloc)]),
            positions=np.arange(len(entry_rows), dtype=np.int64),
            scratch=_Scratch(SCRATCH_WORDS * 8 * len(entry_rows) + 4096),
        )


def _group_starts(sorted_keys: np.ndarray, scratch: _Scratch) -> np.ndarray:
    """Start position of every run of equal values."""
    first = scratch.empty(len(sorted_keys), bool)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return np.flatnonzero(first)


def propose_moves(
    index: np.ndarray,
    target_comm: np.ndarray,
    weights: np.ndarray,
    self_mask: np.ndarray,
    degrees: np.ndarray,
    cur_comm: np.ndarray,
    total_weight: float,
    tot_lookup: Callable[[np.ndarray], np.ndarray],
    size_lookup: Callable[[np.ndarray], np.ndarray],
    active: np.ndarray | None = None,
    resolution: float = 1.0,
    plan: SweepPlan | None = None,
) -> SweepResult:
    """Compute the best move for every (active) local vertex.

    Parameters
    ----------
    index:
        Local CSR row index, ``int64[nloc + 1]``.
    target_comm:
        Snapshot community id of every edge target, aligned with the CSR
        entries (ghosts already resolved by the caller).
    weights:
        Edge weights aligned with the entries.
    self_mask:
        True for entries that are self loops (excluded from ``d_{u,c}``).
    degrees:
        Weighted degree ``k_u`` per local vertex.
    cur_comm:
        Current community id per local vertex.
    total_weight:
        Global ``W`` (= 2m).
    tot_lookup / size_lookup:
        Vectorised maps from community ids to the snapshot ``a_c`` and
        community size.  Must cover every id in ``target_comm`` and
        ``cur_comm``.
    active:
        Bool mask of vertices participating this iteration (ET); default
        all.  Inactive vertices never move but still appear as targets in
        their neighbours' candidate lists.
    resolution:
        Gamma of generalized modularity: candidate scores become
        ``d_{u,c} - gamma * k_u * tot'(c) / W``; 1.0 is classic Q.
    plan:
        ``SweepPlan.build(index, weights, self_mask)``, when the caller
        sweeps the same CSR repeatedly; built here otherwise.
    """
    nloc = len(index) - 1
    proposal = cur_comm.copy()
    moved = np.zeros(nloc, dtype=bool)
    idle = SweepResult(proposal=proposal, moved=moved, pairs_evaluated=0)
    if nloc == 0 or total_weight <= 0.0:
        return idle
    if plan is None:
        plan = SweepPlan.build(index, weights, self_mask)
    if len(target_comm) != len(plan.rows) or len(cur_comm) != nloc:
        raise ValueError("target_comm / cur_comm do not match the CSR")
    target_comm = np.asarray(target_comm, dtype=np.int64)
    ws = plan.scratch
    ws.top = 0

    # Candidate entries: neighbours' communities, then every vertex's own
    # (zero weight), restricted to the active rows.
    def entry_comm(out: np.ndarray) -> np.ndarray:
        inner = len(plan.entries)
        target_comm.take(plan.entries, out=out[:inner], mode="clip")
        out[inner:] = cur_comm
        return out

    c_rows, c_w = plan.entry_rows, plan.entry_weights
    if active is None or active.all():
        c_comm = entry_comm(ws.empty(len(c_rows), np.int64))
    else:
        sel = np.flatnonzero(ws.take(active, c_rows))
        if not len(sel):
            return idle
        c_rows, c_w = ws.take(c_rows, sel), ws.take(c_w, sel)
        c_comm = ws.empty(len(sel), np.int64)
        mark = ws.top
        every = entry_comm(ws.empty(len(plan.entry_rows), np.int64))
        every.take(sel, out=c_comm, mode="clip")
        ws.top = mark
    n_entries = len(c_comm)

    # Group by (row, community) with one sort of a fused key and sum
    # weights -> d_{u,c}.  The pair arrays outlive the sort's scratch.
    span = int(c_comm.max()) + 1
    if int(c_comm.min()) < 0 or nloc * span > np.iinfo(np.int64).max:
        raise ValueError(
            "community ids must be non-negative with nloc * (max id + 1) "
            f"inside int64 (nloc={nloc}, ids in "
            f"[{int(c_comm.min())}, {span - 1}])"
        )
    d = ws.empty(n_entries, np.float64)
    pr = ws.empty(n_entries, np.int64)
    pc = ws.empty(n_entries, np.int64)
    mark = ws.top
    key = ws.empty(n_entries, np.int64)
    np.multiply(c_rows, span, out=key)
    key += c_comm
    bits = (n_entries - 1).bit_length()
    if nloc * span <= np.iinfo(np.int64).max >> bits:
        # The entry's position rides in the key's low bits, so sorting
        # the keys in place *is* the stable sort and no index array or
        # merge buffer is made.
        key <<= bits
        key |= plan.positions[:n_entries]
        key.sort()
        order = ws.empty(n_entries, np.int64)
        np.bitwise_and(key, (1 << bits) - 1, out=order)
        key >>= bits
    else:
        order = np.argsort(key, kind="stable")
        key = key[order]
    starts = _group_starts(key, ws)
    d = np.add.reduceat(ws.take(c_w, order), starts, out=d[:len(starts)])
    lead = ws.take(order, starts)
    pr = c_rows.take(lead, out=pr[:len(starts)], mode="clip")
    pc = c_comm.take(lead, out=pc[:len(starts)], mode="clip")
    ws.top = mark

    # Score candidates against the snapshot totals (minus own degree
    # when evaluating the current community).  Every swept row holds
    # exactly one own-community pair (the synthetic entry guarantees it).
    flags = ws.empty(len(pr), bool)
    own = np.flatnonzero(np.equal(pc, ws.take(cur_comm, pr), out=flags))
    tot_eff = ws.empty(len(pr), np.float64)
    tot_eff[:] = tot_lookup(pc)
    tot_eff[own] -= degrees[pr[own]]
    score = ws.take(degrees, pr)
    np.multiply(resolution, score, out=score)  # d - gamma * k * tot' / W,
    score *= tot_eff                           # left to right, in place
    score /= total_weight
    np.subtract(d, score, out=score)

    # Per-row argmax with smallest-community-id tie break: a row's pairs
    # are contiguous with ids ascending, so the winner is the first pair
    # that reaches the row's maximum.
    row_starts = _group_starts(pr, ws)
    row_best = np.empty(nloc)
    row_best[pr[row_starts]] = np.maximum.reduceat(score, row_starts)
    at_best = np.flatnonzero(
        np.equal(score, ws.take(row_best, pr), out=flags)
    )
    win = at_best[_group_starts(pr[at_best], ws)]
    win_rows = pr[win]
    own_score = np.empty(nloc)
    own_score[pr[own]] = score[own]
    src_score = own_score[win_rows]

    eps = GAIN_EPS * (1.0 + np.abs(src_score))
    better = score[win] > src_score + eps
    cand_rows = win_rows[better]
    cand_comm = pc[win][better]

    # Singleton-singleton swap suppression (minimum labelling).
    if len(cand_rows):
        src_c = cur_comm[cand_rows]
        src_alone = (size_lookup(src_c) == 1) & (
            np.abs(tot_lookup(src_c) - degrees[cand_rows]) <= 1e-9
        )
        dst_single = size_lookup(cand_comm) == 1
        blocked = src_alone & dst_single & (cand_comm > src_c)
        cand_rows = cand_rows[~blocked]
        cand_comm = cand_comm[~blocked]

    proposal[cand_rows] = cand_comm
    moved[cand_rows] = True
    return SweepResult(
        proposal=proposal, moved=moved, pairs_evaluated=len(pr)
    )


def array_lookup(ids: np.ndarray | None, values: np.ndarray) -> Callable:
    """Lookup over a dense array indexed directly by community id.

    ``values[i]`` is the value of community ``i``; a slot that was never
    filled holds NaN.  Querying one raises ``KeyError`` — in the
    distributed algorithm it means a community's owner was never asked
    for its totals, a protocol bug worth failing loudly on rather than
    scoring against garbage.  ``ids[i]``, when given, is the name of
    slot ``i`` in the error (the caller's id before dense renumbering).
    """

    def look(query: np.ndarray) -> np.ndarray:
        out = values[query]
        missing = np.isnan(out)
        if missing.any():
            slots = np.unique(np.asarray(query)[missing])[:5]
            names = slots if ids is None else np.asarray(ids)[slots]
            raise KeyError(
                f"community totals missing for ids {names.tolist()}"
            )
        return out

    return look
