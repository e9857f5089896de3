"""Reference move-selection kernel: the two-``lexsort`` formulation.

This is the ``repro.core.sweep.propose_moves`` that shipped before the
sort-light rewrite, moved here verbatim (tests only, never imported by
``src/``).  ``tests/test_core_sweep_differential.py`` requires the
shipped kernel to reproduce its ``proposal``, ``moved`` and
``pairs_evaluated`` exactly: the arithmetic is unchanged, so equality —
not a tolerance — is the contract.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.sweep import GAIN_EPS, SweepResult


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
    """
    nloc = len(index) - 1
    if active is None:
        active = np.ones(nloc, dtype=bool)
    proposal = cur_comm.copy()
    moved = np.zeros(nloc, dtype=bool)
    if nloc == 0 or total_weight <= 0.0:
        return SweepResult(proposal=proposal, moved=moved, pairs_evaluated=0)

    rows = np.repeat(np.arange(nloc, dtype=np.int64), np.diff(index))
    keep = active[rows] & ~self_mask
    c_rows = rows[keep]
    c_comm = target_comm[keep]
    c_w = weights[keep]

    # Guarantee the current community is a candidate for every active
    # vertex (zero-weight synthetic entry), so src_score always exists.
    act_ids = np.flatnonzero(active)
    if len(act_ids) == 0:
        return SweepResult(proposal=proposal, moved=moved, pairs_evaluated=0)
    c_rows = np.concatenate([c_rows, act_ids])
    c_comm = np.concatenate([c_comm, cur_comm[act_ids]])
    c_w = np.concatenate([c_w, np.zeros(len(act_ids))])

    # Group by (row, community) and sum weights -> d_{u,c}.
    order = np.lexsort((c_comm, c_rows))
    c_rows, c_comm, c_w = c_rows[order], c_comm[order], c_w[order]
    first = np.empty(len(c_rows), dtype=bool)
    first[0] = True
    first[1:] = (c_rows[1:] != c_rows[:-1]) | (c_comm[1:] != c_comm[:-1])
    starts = np.flatnonzero(first)
    d = np.add.reduceat(c_w, starts)
    pr = c_rows[starts]
    pc = c_comm[starts]

    # Score candidates against the snapshot totals (minus own degree
    # when evaluating the current community).
    tot_eff = tot_lookup(pc).astype(np.float64, copy=True)
    is_src = pc == cur_comm[pr]
    tot_eff[is_src] -= degrees[pr[is_src]]
    score = d - resolution * degrees[pr] * tot_eff / total_weight

    # Per-row argmax with smallest-community-id tie break: sort so the
    # winner is the last element of each row group.
    order2 = np.lexsort((-pc, score, pr))
    pr2, pc2, score2 = pr[order2], pc[order2], score[order2]
    last = np.empty(len(pr2), dtype=bool)
    last[-1] = True
    last[:-1] = pr2[1:] != pr2[:-1]
    win_rows = pr2[last]
    win_comm = pc2[last]
    win_score = score2[last]

    src_rows = pr[is_src]
    src_score = np.empty(nloc, dtype=np.float64)
    src_score[src_rows] = score[is_src]

    eps = GAIN_EPS * (1.0 + np.abs(src_score[win_rows]))
    better = win_score > src_score[win_rows] + eps
    cand_rows = win_rows[better]
    cand_comm = win_comm[better]

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
