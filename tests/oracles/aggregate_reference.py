"""Reference aggregations: the sort-per-call formulations.

These are the ``aggregate_deltas`` and the ``argsort(dest)`` +
per-destination ``_combine_entries`` of ``repro.core`` as they shipped
before the per-phase community view, moved here verbatim (tests only,
never imported by ``src/``), together with the argsort bucketing
``split_by_rank`` they used, which ``src/`` replaced with owner cuts of
ascending ids.  The shipped code — a scatter over the touched ids'
dense positions, one ``(src, dst)`` sort for every destination — keeps
their arithmetic: same floats added in the same order, same arrays on
the wire.  Equality, not a tolerance, is the contract.

``sorted_unique`` served only the other oracles once ``src/`` stopped
calling it, and moved here from ``repro.graph.csr``.
"""

from __future__ import annotations

import numpy as np


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct ``values``, ascending — ``np.unique(values)`` as one
    sort and one comparison pass (numpy's own picks a hash table when no
    inverse is asked for, several times slower at the sizes a rank
    sees)."""
    values = np.sort(values)
    heads = np.empty(len(values), dtype=bool)
    heads[:1] = True
    np.not_equal(values[1:], values[:-1], out=heads[1:])
    return values[heads]


def split_by_rank(
    ranks: np.ndarray, nranks: int, *arrays: np.ndarray
) -> list[tuple[np.ndarray, ...]]:
    """Bucket parallel arrays by destination rank in one argsort.

    ``ranks`` assigns a destination rank to every element; the aligned
    ``arrays`` are returned as one tuple of slices per rank (empty
    slices for ranks with no elements).  Element order *within* a rank
    follows the input order (stable sort), which callers rely on for
    deterministic payloads.  This replaces the per-rank boolean-mask
    loops (``for r in range(p): a[ranks == r]``) that scanned the full
    array ``p`` times per call on the hot communication paths.
    """
    order = np.argsort(ranks, kind="stable")
    bounds = np.searchsorted(
        ranks, np.arange(nranks + 1, dtype=np.int64), sorter=order
    )
    return [
        tuple(a[order[bounds[r]:bounds[r + 1]]] for a in arrays)
        for r in range(nranks)
    ]


def aggregate_deltas(
    old: np.ndarray, new: np.ndarray, deg: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Net (a_c, |c|) delta per community touched by a batch of moves:
    one sort of the ``2 * moves`` raw ids, then ``np.add.at``."""
    ids = np.concatenate([old, new])
    dtot = np.concatenate([-deg, deg])
    dsize = np.concatenate(
        [-np.ones(len(old), np.int64), np.ones(len(new), np.int64)]
    )
    uniq, inv = np.unique(ids, return_inverse=True)
    agg_tot = np.zeros(len(uniq))
    agg_size = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(agg_tot, inv, dtot)
    np.add.at(agg_size, inv, dsize)
    return uniq, agg_tot, agg_size


def combine_entries(
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


def meta_edge_payloads(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, offsets: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Rebuild step 6: bucket the meta edges by the owner of their
    source, then sort and combine every bucket on its own."""
    dest = np.searchsorted(offsets, src, side="right") - 1
    return [
        combine_entries(s, d, ww)
        for s, d, ww in split_by_rank(dest, len(offsets) - 1, src, dst, w)
    ]
