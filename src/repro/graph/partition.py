"""1-D vertex partitioners for distributing the input graph.

The paper deliberately uses *no* smart partitioning (§II, §IV): vertices
and their edge lists are split so "each process receives roughly the same
number of edges".  Two strategies are provided:

* :func:`even_vertex` — contiguous ranges of equal vertex count (the
  simplest baseline, and what graph reconstruction re-establishes after
  each phase, §IV-A step 6);
* :func:`even_edge` — contiguous ranges balancing stored edge count,
  matching the paper's input distribution.

A contiguous partition is represented by an ``int64[p + 1]`` offsets
array ``offsets``; rank ``i`` owns global vertices
``[offsets[i], offsets[i+1])``.
"""

from __future__ import annotations

import numpy as np


def even_vertex(num_vertices: int, nranks: int) -> np.ndarray:
    """Offsets giving each rank ``n / p`` vertices (±1)."""
    _validate(num_vertices, nranks)
    base, extra = divmod(num_vertices, nranks)
    counts = np.full(nranks, base, dtype=np.int64)
    counts[:extra] += 1
    offsets = np.zeros(nranks + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def even_edge(row_lengths: np.ndarray, nranks: int) -> np.ndarray:
    """Offsets balancing the stored adjacency entries per rank.

    ``row_lengths[u]`` is the CSR row length of vertex ``u`` (what a rank
    actually stores).  Ranges stay contiguous; the split greedily targets
    ``nnz / p`` entries per rank, matching the paper's "roughly the same
    number of edges" loading.
    """
    row_lengths = np.asarray(row_lengths, dtype=np.int64)
    num_vertices = len(row_lengths)
    _validate(num_vertices, nranks)
    csum = np.concatenate([[0], np.cumsum(row_lengths)])
    total = csum[-1]
    if total == 0:
        # All rows empty: every cut would collapse to 0 and the last rank
        # would own the whole vertex set.  Spread vertices evenly instead.
        return even_vertex(num_vertices, nranks)
    offsets = np.zeros(nranks + 1, dtype=np.int64)
    offsets[nranks] = num_vertices
    # Rank r's target is total * r / nranks, as a float; one search gives
    # every rank the first vertex boundary whose prefix reaches it.
    targets = np.arange(1, nranks, dtype=np.int64) * total / nranks
    np.minimum(
        np.searchsorted(csum, targets, side="left"), num_vertices,
        out=offsets[1:nranks],
    )
    # Guarantee monotonicity even for degenerate inputs (many empty rows).
    np.maximum.accumulate(offsets, out=offsets)
    return offsets


def owner_of(offsets: np.ndarray, vertices: np.ndarray | int) -> np.ndarray | int:
    """Rank owning each global vertex id under ``offsets``."""
    result = np.searchsorted(offsets, vertices, side="right") - 1
    if np.any(np.asarray(result) < 0) or np.any(
        np.asarray(vertices) >= offsets[-1]
    ):
        raise ValueError("vertex id outside partition range")
    return result


def local_counts(offsets: np.ndarray) -> np.ndarray:
    """Vertices owned per rank."""
    return np.diff(offsets)


def _validate(num_vertices: int, nranks: int) -> None:
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    if num_vertices < 0:
        raise ValueError(f"num_vertices must be >= 0, got {num_vertices}")
