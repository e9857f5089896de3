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
   plan, or longer (gathers and ufuncs write through ``out=``), so an
   iteration neither mallocs nor page-faults them afresh — that was a
   third of the call and the part whose cost follows the host, not the
   input;
1. a masked sweep gathers the communities of its selected entries only;
   every (vertex, neighbouring community) entry gets the bit-field key
   ``row << (cb + bits) | community << bits | position`` (``position``
   in the full entry list, so weights are read by it) and **one**
   in-place sort groups equal pairs, rows ascending, then communities;
   each pair's row and community come off its key by shift and mask
   (ids too wide to pack fall back to a stable ``argsort`` of ``row * C
   + community``).  Stability keeps the CSR order inside a group, so the
   segment sum ``d_{u,c}`` adds the same floats in the same order;
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
distributed caller sweeps global ids (community ids are vertex ids) and
hands over the owners' tables, indexed by id, as the lookups.

Nothing in a row's decision reads another row, so independent CSR
slices — the ranks' slices of one synchronised round — can be swept by
one call: :meth:`SweepWorkspace.stack` lays them end to end (rows and
entry positions offset by the slices before), and ``segments=``
(:class:`Segments`) counts each slice's pairs apart.  Every array such a
call touches that grows with the entries lives in the
:class:`SweepWorkspace`, which the caller keeps from sweep to sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

#: Relative tolerance for "strictly positive gain" decisions.
GAIN_EPS = 1e-12
#: Scratch per candidate entry, in 8-byte words: the worst fingerprint-graph
#: sweep measured (``test_core_sweep.py::TestScratch``: channel, singletons,
#: every row active) reaches 7.97.  Pages are only touched as far as a
#: sweep gets, and one that outgrows it (a coarse phase) mallocs the rest.
SCRATCH_WORDS = 8
_I8, _F8, _B1 = np.dtype(np.int64), np.dtype(np.float64), np.dtype(bool)


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
    #: ``pairs_evaluated`` per segment, when the call had ``segments=``.
    segment_pairs: np.ndarray | None = None
    #: The swept ``(rows, communities)``, ascending, one per candidate
    #: pair (also where ``W = 0`` scores none): scratch views, valid
    #: until the plan's scratch is reused.
    pairs: tuple[np.ndarray, ...] = (np.empty(0, dtype=np.int64),) * 2

    @property
    def num_moves(self) -> int:
        return int(self.moved.sum())


class Segments(NamedTuple):
    """Consecutive row slices swept as independent problems in one call.

    Slice ``s`` is rows ``rows[s]:rows[s + 1]``.  Grouping, scores and
    tie-breaks compare ids within one row, so every slice decides
    exactly as it would swept alone; the result counts its pairs apart.
    """

    #: Where each slice starts, then the row count: ``int64[s + 1]``.
    rows: np.ndarray


class _Scratch:
    """Bump allocator over one buffer kept from sweep to sweep.

    A sweep needs about a dozen temporaries as long as the entry list.
    Left to malloc they are given back to the OS when the call ends and
    faulted in again on the next — a third of the kernel's time, and the
    share that moves most with the state of the host.  The kernel carves
    them from here instead; nothing it returns to the caller lives here.
    """

    def __init__(self, buf: np.ndarray) -> None:
        self._buf = buf
        #: Offset of the first free byte; callers save and restore it.
        self.top = 0
        self._newest: tuple[int, np.ndarray | None] = (0, None)

    def empty(self, n: int, dtype: np.dtype) -> np.ndarray:
        end = self.top + -(-n * dtype.itemsize // 64) * 64
        if end > len(self._buf):
            return np.empty(n, dtype)
        out = np.ndarray(n, dtype, self._buf, self.top)
        self._newest = (self.top, out)
        self.top = end
        return out

    def trim(self, out: np.ndarray, n: int) -> np.ndarray:
        """``out[:n]``; when ``out`` is the newest allocation, the space
        past it is free again."""
        start, newest = self._newest
        if newest is out:
            self.top = start + -(-n * out.itemsize // 64) * 64
        return out[:n]

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
    #: Where a sweep writes its proposal and moved mask — overwritten by
    #: the next sweep with this plan; allocated per sweep when ``None``.
    out: tuple[np.ndarray, np.ndarray] | None = None

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
            entries=entries,
            entry_rows=entry_rows,
            entry_weights=np.concatenate([weights[entries], np.zeros(nloc)]),
            positions=np.arange(len(entry_rows), dtype=np.int64),
            scratch=_Scratch(
                np.empty(_scratch_bytes(len(entry_rows)), dtype=np.uint8)
            ),
        )


def _scratch_bytes(n_entries: int) -> int:
    return SCRATCH_WORDS * 8 * n_entries + 4096


@dataclass(frozen=True)
class StackedSweep:
    """CSR slices laid end to end as the input of one sweep
    (:meth:`SweepWorkspace.stack`); its arrays live in the workspace.

    ``index``, ``degrees`` and ``plan`` are fixed when it is built.
    ``target``, ``cur`` and ``active`` are written before every sweep
    (:meth:`segment`: slice ``s``'s views).
    """

    plan: SweepPlan
    #: Row index of the stacked CSR: slice ``s``'s entries offset by
    #: ``entry_cuts[s]``.
    index: np.ndarray
    degrees: np.ndarray
    #: Community of every entry's target, of every row, and the active
    #: flag of every row.
    target: np.ndarray
    cur: np.ndarray
    active: np.ndarray
    #: Where slice ``s`` starts in the rows / the CSR entries, then the
    #: totals.
    row_cuts: np.ndarray
    entry_cuts: np.ndarray
    workspace: "SweepWorkspace"

    def segment(self, s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Slice ``s``'s views of ``(target, cur, active)``."""
        e0, e1 = self.entry_cuts[s], self.entry_cuts[s + 1]
        r0, r1 = self.row_cuts[s], self.row_cuts[s + 1]
        return self.target[e0:e1], self.cur[r0:r1], self.active[r0:r1]


class SweepWorkspace:
    """Memory of stacked sweeps that outlives any one of them.

    Every array a stacked sweep reads or writes that grows with the
    entries — its plan, its inputs, the kernel's scratch — is a view of
    a buffer kept here by name.  A buffer grows when a larger input
    arrives and is never shrunk or handed back, so a caller that keeps
    the workspace (one per concurrently running sweep, however many
    phases and detections it serves) allocates and faults in its pages
    once, whichever thread runs the sweep.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._positions = np.empty(0, dtype=np.int64)

    def array(self, name: str, n: int, dtype: type | np.dtype) -> np.ndarray:
        """``n`` elements of the buffer ``name`` (its contents are lost
        when it has to grow)."""
        size = n * np.dtype(dtype).itemsize
        buf = self._buffers.get(name)
        if buf is None or len(buf) < size:
            grown = size if buf is None else max(size, len(buf) * 5 // 4)
            buf = self._buffers[name] = np.empty(grown, dtype=np.uint8)
        return buf[:size].view(dtype)

    @staticmethod
    def of(workspace: dict) -> "SweepWorkspace":
        """The one kept in a world's ``workspace`` (made on first use)."""
        if "sweep" not in workspace:
            workspace["sweep"] = SweepWorkspace()
        return workspace["sweep"]

    def scratch(self, n_entries: int) -> _Scratch:
        """The kernel's scratch, sized for ``n_entries`` candidate
        entries — free between sweeps, so a world step between them
        carves its entry-sized temporaries from it too."""
        return _Scratch(
            self.array("scratch", _scratch_bytes(n_entries), np.uint8)
        )

    def positions(self, n: int) -> np.ndarray:
        """``0..n-1``, from one arange that only grows."""
        if len(self._positions) < n:
            self._positions = np.arange(
                max(n, len(self._positions) * 5 // 4), dtype=np.int64
            )
        return self._positions[:n]

    def stack(self, slices: Sequence["SweepSlice"]) -> StackedSweep:
        """Lay ``slices`` end to end as one CSR: rows offset by the rows
        before, entry positions by the entries before."""
        row_cuts = _cuts([len(s.index) - 1 for s in slices])
        entry_cuts = _cuts([int(s.index[-1]) for s in slices])
        inner_cuts = _cuts([len(s.entries) for s in slices])
        n, inner = int(row_cuts[-1]), int(inner_cuts[-1])
        index = self.array("index", n + 1, np.int64)
        degrees = self.array("degrees", n, np.float64)
        entries = self.array("entries", inner, np.int64)
        entry_rows = self.array("entry_rows", inner + n, np.int64)
        entry_weights = self.array("entry_weights", inner + n, np.float64)
        index[0] = 0
        for s, part in enumerate(slices):
            r0, r1 = row_cuts[s], row_cuts[s + 1]
            i0, i1 = inner_cuts[s], inner_cuts[s + 1]
            e0, e1 = entry_cuts[s], entry_cuts[s + 1]
            np.add(part.index[1:], e0, out=index[r0 + 1:r1 + 1])
            degrees[r0:r1] = part.degrees
            np.add(part.entries, e0, out=entries[i0:i1])
            part.rows.take(part.entries, out=entry_rows[i0:i1], mode="clip")
            entry_rows[i0:i1] += r0
            part.weights.take(
                part.entries, out=entry_weights[i0:i1], mode="clip"
            )
        entry_rows[inner:] = self.positions(n)
        entry_weights[inner:] = 0.0
        plan = SweepPlan(
            entries=entries,
            entry_rows=entry_rows,
            entry_weights=entry_weights,
            positions=self.positions(inner + n),
            scratch=self.scratch(inner + n),
            out=(
                self.array("proposal", n, np.int64),
                self.array("moved", n, bool),
            ),
        )
        return StackedSweep(
            plan=plan,
            index=index,
            degrees=degrees,
            target=self.array("target", int(entry_cuts[-1]), np.int64),
            cur=self.array("cur", n, np.int64),
            active=self.array("active", n, bool),
            row_cuts=row_cuts,
            entry_cuts=entry_cuts,
            workspace=self,
        )


class SweepSlice(NamedTuple):
    """One CSR slice of a stack: what :meth:`SweepWorkspace.stack`
    reads of it (``entries``: positions of the non-self-loop entries;
    ``rows``: owning row of every entry)."""

    index: np.ndarray
    weights: np.ndarray
    entries: np.ndarray
    rows: np.ndarray
    degrees: np.ndarray


def _cuts(counts: Sequence[int]) -> np.ndarray:
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _group_starts(sorted_keys: np.ndarray, scratch: _Scratch) -> np.ndarray:
    """Start position of every run of equal values."""
    first = scratch.empty(len(sorted_keys), _B1)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return _nonzero(first, scratch)


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
    segments: Segments | None = None,
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
        Like ``weights``, only read when no ``plan`` is given.
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
    segments:
        Independent row slices (:class:`Segments`); the result then
        counts each slice's pairs in ``segment_pairs``.
    """
    nloc = len(index) - 1
    if len(target_comm) != index[-1] or len(cur_comm) != nloc:
        raise ValueError("target_comm / cur_comm do not match the CSR")
    if plan is not None and plan.out is not None:
        proposal, moved = plan.out
        proposal[:] = cur_comm
        moved[:] = False
    else:
        proposal = cur_comm.copy()
        moved = np.zeros(nloc, dtype=bool)
    idle = SweepResult(
        proposal=proposal,
        moved=moved,
        pairs_evaluated=0,
        segment_pairs=(
            None if segments is None
            else np.zeros(len(segments.rows) - 1, dtype=np.int64)
        ),
    )
    if nloc == 0:
        return idle
    if plan is None:
        plan = SweepPlan.build(index, weights, self_mask)
    target_comm = np.asarray(target_comm, dtype=np.int64)
    cur = np.asarray(cur_comm, dtype=np.int64)
    ws = plan.scratch
    ws.top = 0

    # Candidate entries: neighbours' communities, then every vertex's own
    # (zero weight), restricted to the active rows: ``sel``, positions in
    # the full list (the first ``k`` CSR entries), and their rows.
    inner = len(plan.entries)
    full = active is None or active.all()
    if full:
        sel, k = plan.positions[:len(plan.entry_rows)], inner
    else:
        sel = _nonzero(ws.take(active, plan.entry_rows), ws)
        if not len(sel):
            return idle
        k = int(sel.searchsorted(inner))
    n_entries = len(sel)
    rows = plan.entry_rows if full else ws.take(plan.entry_rows, sel)
    comm = ws.empty(n_entries, _I8)
    mark = ws.top
    at = plan.entries if full else ws.take(plan.entries, sel[:k])
    target_comm.take(at, out=comm[:k], mode="clip")
    cur.take(rows[k:], out=comm[k:], mode="clip")
    ws.top = mark

    # Group by (row, community) with one sort of the key ``row << (cb +
    # bits) | community << bits | position`` and sum weights -> d_{u,c};
    # the pairs, read off the keys, and ``d`` outlive the sort's scratch.
    top = int(comm.max())
    if int(comm.min()) < 0 or nloc * (top + 1) > np.iinfo(np.int64).max:
        raise ValueError(
            "community ids must be non-negative with nloc * (max id + 1) "
            f"inside int64 (nloc={nloc}, ids in [{int(comm.min())}, {top}])"
        )
    cb = top.bit_length()
    bits = (len(plan.entry_rows) - 1).bit_length()
    key = ws.empty(n_entries, _I8) if full else rows  # a scratch copy
    order = ws.empty(n_entries, _I8)
    paired = ws.top
    packed = (nloc - 1).bit_length() + cb + bits <= 63
    if packed:
        # The entry's position rides in the key's low bits, so sorting
        # the keys in place *is* the stable sort and no index array or
        # merge buffer is made.
        np.left_shift(rows, cb, out=key)
        key |= comm
        key <<= bits
        key |= sel
        key.sort()
        np.bitwise_and(key, (1 << bits) - 1, out=order)
        key >>= bits
    else:
        np.multiply(rows, top + 1, out=key)
        key += comm
        by = np.argsort(key, kind="stable")
        sel.take(by, out=order, mode="clip")
        key, comm = key.take(by, out=comm, mode="clip"), key
    starts = _group_starts(key, ws)
    n_pairs = len(starts)
    # The weights in sorted order take the communities' place, the sums
    # the positions'; both are read by then.
    sorted_w = comm.view(_F8)
    plan.entry_weights.take(order, out=sorted_w, mode="clip")
    d = np.add.reduceat(sorted_w, starts, out=order.view(_F8)[:n_pairs])
    pc = key.take(starts, out=comm[:n_pairs], mode="clip")
    if packed:
        pr = np.right_shift(pc, cb, out=key[:n_pairs])
        pc &= (1 << cb) - 1
    else:
        pr, pc = np.divmod(pc, top + 1, out=(key[:n_pairs], pc))
    ws.top = paired
    if total_weight <= 0.0:
        # Nothing to score against: every candidate's gain is zero.
        return replace(idle, pairs=(pr, pc))

    # Score candidates against the snapshot totals (minus own degree
    # when evaluating the current community).  Pairs ascend by row, so
    # each segment's pairs are one run; every swept row holds exactly one
    # own-community pair (the synthetic entry guarantees it), so ``own``,
    # ``row_starts`` and ``swept`` are one per swept row, rows ascending.
    # ``spare`` holds, in turn, the two pair-sized arrays that are dead as
    # soon as they are read.
    pair_cuts = None if segments is None else pr.searchsorted(segments.rows)
    row_starts = _group_starts(pr, ws)
    swept = ws.take(pr, row_starts)
    flags = ws.empty(len(pr), _B1)
    spare = ws.empty(len(pr), _I8)
    own = _nonzero(
        np.equal(pc, cur.take(pr, out=spare, mode="clip"), out=flags),
        ws,
    )
    tot_eff = _look_up(tot_lookup, pc, ws.empty(len(pr), _F8))
    own_tot = ws.take(tot_eff, own)
    own_tot -= ws.take(degrees, swept)
    tot_eff[own] = own_tot
    score = ws.take(degrees, pr)
    np.multiply(resolution, score, out=score)  # d - gamma * k * tot' / W,
    score *= tot_eff                           # left to right, in place
    score /= total_weight
    np.subtract(d, score, out=score)

    # Per-row argmax with smallest-community-id tie break: a row's pairs
    # are contiguous with ids ascending, so the winner is the first pair
    # that reaches the row's maximum.
    row_best = ws.empty(nloc, _F8)
    row_best[swept] = np.maximum.reduceat(
        score, row_starts, out=ws.empty(len(row_starts), _F8)
    )
    pair_best = row_best.take(pr, out=spare.view(np.float64), mode="clip")
    at_best = _nonzero(np.equal(score, pair_best, out=flags), ws)
    win = ws.take(at_best, _group_starts(ws.take(pr, at_best), ws))
    src_score = ws.take(score, own)

    # better = score[win] > src_score + GAIN_EPS * (1 + |src_score|)
    eps = np.abs(src_score, out=ws.empty(len(win), _F8))
    np.add(1.0, eps, out=eps)
    np.multiply(GAIN_EPS, eps, out=eps)
    np.add(src_score, eps, out=eps)
    better = np.greater(ws.take(score, win), eps, out=flags[:len(win)])
    pick = _nonzero(better, ws)
    cand_rows = ws.take(swept, pick)
    cand_comm = ws.take(pc, ws.take(win, pick))

    # Singleton-singleton swap suppression (minimum labelling).
    if len(cand_rows):
        src_c = ws.take(cur, cand_rows)
        looked = ws.empty(len(cand_rows), _F8)
        src_alone = _look_up(size_lookup, src_c, looked) == 1
        gap = _look_up(tot_lookup, src_c, looked)
        gap -= ws.take(degrees, cand_rows)
        src_alone &= np.abs(gap, out=gap) <= 1e-9
        src_alone &= _look_up(size_lookup, cand_comm, looked) == 1
        src_alone &= cand_comm > src_c  # now: blocked
        keep = _nonzero(np.logical_not(src_alone, out=src_alone), ws)
        cand_rows = ws.take(cand_rows, keep)
        cand_comm = ws.take(cand_comm, keep)

    proposal[cand_rows] = cand_comm
    moved[cand_rows] = True
    ws.top = paired  # past the pairs, the scratch is free again
    return SweepResult(
        proposal=proposal,
        moved=moved,
        pairs_evaluated=len(pr),
        segment_pairs=None if pair_cuts is None else np.diff(pair_cuts),
        pairs=(pr, pc),
    )


#: Entries per block of the calls that cannot write into scratch.
_BLOCK = 1 << 14


def _nonzero(mask: np.ndarray, ws: _Scratch) -> np.ndarray:
    """``np.flatnonzero(mask)``, into scratch past one block: numpy's
    ``nonzero`` has no ``out=``, so a long result is found a block of the
    mask at a time and what it mallocs stays one block's worth, whatever
    the length."""
    if len(mask) <= _BLOCK or np.count_nonzero(mask) <= _BLOCK:
        return mask.nonzero()[0]
    out = ws.empty(len(mask), _I8)
    at = 0
    for lo in range(0, len(mask), _BLOCK):
        found = mask[lo:lo + _BLOCK].nonzero()[0]
        np.add(found, lo, out=out[at:at + len(found)])
        at += len(found)
    return ws.trim(out, at)


def _look_up(
    lookup: Callable[[np.ndarray], np.ndarray],
    ids: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """``out[:] = lookup(ids)``, a block at a time (see :func:`_nonzero`)."""
    if len(ids) <= _BLOCK:
        out[:] = lookup(ids)
        return out
    for lo in range(0, len(ids), _BLOCK):
        out[lo:lo + _BLOCK] = lookup(ids[lo:lo + _BLOCK])
    return out


def array_lookup(ids: np.ndarray | None, values: np.ndarray) -> Callable:
    """Lookup over a dense array indexed directly by community id.

    ``values[i]`` is the value of community ``i``; a slot that was never
    filled holds NaN.  Querying one raises ``KeyError`` — in a per-rank
    view of the communities (the reference iteration) it means a
    community's owner was never asked for its totals, a protocol bug
    worth failing loudly on rather than scoring against garbage.
    ``ids[i]``, when given, is the name of slot ``i`` in the error (the
    caller's id before dense renumbering).
    """

    def look(query: np.ndarray) -> np.ndarray:
        out = values[query]
        missing = np.isnan(out)
        if missing.any():
            slots = np.unique(np.asarray(query)[missing])[:5]
            names = slots if ids is None else np.asarray(ids)[slots]
            raise KeyError(f"community totals missing for ids {names.tolist()}")
        return out

    return look
