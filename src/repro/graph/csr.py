"""Compressed sparse row (CSR) representation of weighted undirected graphs.

This is the storage format the paper uses on every rank (§IV, "Input
Distribution").  Conventions, chosen to match the Louvain reference
implementation and kept consistent across the whole library:

* the graph is undirected; every edge ``{u, v}`` with ``u != v`` is
  stored twice (in ``u``'s row and in ``v``'s row) with the same weight;
* a self loop ``{u, u}`` is stored **once** in ``u``'s row;
* the *weighted degree* ``k_u`` is the sum of ``u``'s row weights (the
  self loop counted once);
* ``total_weight`` is ``sum_u k_u`` — equal to ``2m`` for loop-free
  graphs.  This quantity is invariant under Louvain graph coarsening,
  which is what makes modularity comparable across phases.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .partition import even_edge

#: Held while a graph computes a value it keeps (:meth:`CSRGraph._memo`),
#: so ranks that ask at once compute it once.
_MEMO_LOCK = threading.Lock()


def sum_duplicate_entries(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort ``(src, dst, w)`` entries by ``(src, dst)`` and merge equal
    pairs by summing their weights.

    The sort is stable, so each sum adds its floats in input order
    whatever the ids.  Ids must be non-negative.  Like the sweep kernel,
    the entry's position rides in the low bits of the fused key
    ``src * span + dst`` when it fits, so sorting the keys in place *is*
    the stable sort (a third of the time of a stable ``argsort``); ids
    too wide for that fall back to the ``argsort``.
    """
    n = len(src)
    if not n:
        return src, dst, w
    span = int(dst.max()) + 1
    key = src * np.int64(span)
    key += dst
    bits = (n - 1).bit_length()
    if (int(src.max()) + 1) * span <= np.iinfo(np.int64).max >> bits:
        key <<= bits
        key |= np.arange(n, dtype=np.int64)
        key.sort()
        order = key & ((1 << bits) - 1)
        key >>= bits
    else:
        order = np.argsort(key, kind="stable")
        key = key[order]
    starts = np.flatnonzero(_run_heads(key))
    del key  # entry-sized, like the gather below: keep the peak down
    summed = np.add.reduceat(w[order], starts)
    lead = order[starts]
    return src[lead], dst[lead], summed


def _run_heads(sorted_values: np.ndarray) -> np.ndarray:
    """True at the first element of every run of equal values."""
    heads = np.empty(len(sorted_values), dtype=bool)
    heads[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=heads[1:])
    return heads


def row_index(rows: np.ndarray, num_rows: int) -> np.ndarray:
    """CSR ``index`` array of entries whose (sorted) rows are ``rows``."""
    index = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_rows), out=index[1:])
    return index


def _weight_sum(weights: np.ndarray) -> float:
    return float(weights.sum())


def _even_edge_offsets(index: np.ndarray, nranks: int) -> np.ndarray:
    offsets = even_edge(np.diff(index), nranks)
    offsets.flags.writeable = False
    return offsets


def _digest(g: "CSRGraph") -> str:
    h = hashlib.sha256()
    h.update(np.int64(g.num_vertices).tobytes())
    h.update(g.index.tobytes())
    h.update(g.edges.tobytes())
    h.update(g.weights.tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class CSRGraph:
    """Immutable weighted undirected graph in CSR form.

    Construction freezes the three arrays (``writeable`` cleared).  They
    are the arrays the graph was given, so a caller's own arrays become
    read-only too: keep a copy to go on writing (an array that is a view
    keeps a writeable base, so pass owned arrays).  A graph unpickled in
    another process comes back frozen.  Since the bytes cannot change,
    what is derived from them — :meth:`fingerprint`, :attr:`total_weight`
    and :meth:`even_edge_offsets` — is computed once per instance and
    kept on it (outside the dataclass fields, so it pickles with them).

    Attributes
    ----------
    index:
        ``int64[n + 1]``; row ``u`` occupies ``edges[index[u]:index[u+1]]``.
    edges:
        ``int64[nnz]`` neighbour vertex ids.
    weights:
        ``float64[nnz]`` edge weights, aligned with ``edges``.
    """

    index: np.ndarray
    edges: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.index.ndim != 1 or self.index.dtype != np.int64:
            raise TypeError("index must be a 1-D int64 array")
        if self.edges.ndim != 1 or self.edges.dtype != np.int64:
            raise TypeError("edges must be a 1-D int64 array")
        if self.weights.shape != self.edges.shape:
            raise ValueError("weights must align with edges")
        if self.index[0] != 0 or self.index[-1] != len(self.edges):
            raise ValueError("index must start at 0 and end at nnz")
        if np.any(np.diff(self.index) < 0):
            raise ValueError("index must be non-decreasing")
        self._freeze()

    def _freeze(self) -> None:
        for value in self.__dict__.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def __setstate__(self, state: dict) -> None:
        # Unpickled numpy arrays are writeable; the values kept, if any,
        # travel with the bytes they were computed from.
        self.__dict__.update(state)
        self._freeze()

    def _memo(self, key: str, compute: Callable[..., Any], *args: Any) -> Any:
        """``compute(*args)``, once per instance, kept as ``key``."""
        value = self.__dict__.get(key)
        if value is None:
            with _MEMO_LOCK:
                value = self.__dict__.get(key)
                if value is None:
                    value = compute(*args)
                    object.__setattr__(self, key, value)
        return value

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.index) - 1

    @property
    def nnz(self) -> int:
        """Stored adjacency entries (2 per edge + 1 per self loop)."""
        return len(self.edges)

    @property
    def num_edges(self) -> int:
        """Undirected edge count (self loops counted once)."""
        loops = int(np.count_nonzero(self.edges == self._row_ids()))
        return (self.nnz - loops) // 2 + loops

    def _row_ids(self) -> np.ndarray:
        """Source vertex id for every stored adjacency entry."""
        return np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), np.diff(self.index)
        )

    @property
    def total_weight(self) -> float:
        """``sum_u k_u`` (a.k.a. ``2m`` for loop-free graphs)."""
        return self._memo("_total_weight", _weight_sum, self.weights)

    def even_edge_offsets(self, nranks: int) -> np.ndarray:
        """The even-edge partition of this graph over ``nranks`` ranks
        (:func:`~repro.graph.partition.even_edge` of the row lengths),
        read-only."""
        return self._memo(
            f"_even_edge_{nranks}", _even_edge_offsets, self.index, nranks
        )

    def degrees(self) -> np.ndarray:
        """Weighted degree ``k_u`` for every vertex (float64[n])."""
        out = np.zeros(self.num_vertices, dtype=np.float64)
        np.add.at(out, self._row_ids(), self.weights)
        return out

    def edge_counts(self) -> np.ndarray:
        """Unweighted degree (row length) for every vertex (int64[n])."""
        return np.diff(self.index)

    def fingerprint(self) -> str:
        """SHA-256 content hash of the graph (structure + weights).

        Two CSR graphs fingerprint equal iff their ``index``/``edges``/
        ``weights`` arrays are byte-identical — the graph half of the
        detection-service result-cache key (:mod:`repro.service.store`).
        The arrays are frozen, so the digest is computed on the first
        call and kept on the instance (outside the dataclass fields).
        """
        return self._memo("_fingerprint", _digest, self)

    def self_loop_weights(self) -> np.ndarray:
        """Self-loop weight per vertex (float64[n], zero when absent)."""
        out = np.zeros(self.num_vertices, dtype=np.float64)
        rows = self._row_ids()
        mask = self.edges == rows
        np.add.at(out, rows[mask], self.weights[mask])
        return out

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def neighbors(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of the neighbour ids and weights of vertex ``u``."""
        lo, hi = self.index[u], self.index[u + 1]
        return self.edges[lo:hi], self.weights[lo:hi]

    def iter_edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield each undirected edge once as ``(u, v, w)`` with u <= v."""
        rows = self._row_ids()
        mask = rows <= self.edges
        for u, v, w in zip(rows[mask], self.edges[mask], self.weights[mask]):
            yield int(u), int(v), float(w)

    def edge_array(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each undirected edge once as ``(u[], v[], w[])`` with u <= v."""
        rows = self._row_ids()
        mask = rows <= self.edges
        return rows[mask], self.edges[mask], self.weights[mask]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def from_edges(
        num_vertices: int,
        u: np.ndarray | Iterable[int],
        v: np.ndarray | Iterable[int],
        w: np.ndarray | Iterable[float] | None = None,
        *,
        combine_duplicates: bool = True,
    ) -> "CSRGraph":
        """Build from an undirected edge list (each edge listed once).

        Duplicate ``{u, v}`` pairs have their weights summed (the
        behaviour graph coarsening relies on).  Self loops are kept as
        single row entries.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if w is None:
            w = np.ones(len(u), dtype=np.float64)
        else:
            w = np.asarray(w, dtype=np.float64)
        if not (len(u) == len(v) == len(w)):
            raise ValueError("u, v, w must have equal length")
        if len(u) and (u.min() < 0 or v.min() < 0):
            raise ValueError("vertex ids must be non-negative")
        if len(u) and max(int(u.max()), int(v.max())) >= num_vertices:
            raise ValueError(
                f"edge endpoint exceeds num_vertices={num_vertices}"
            )

        # Symmetrize: both directions for u != v, one entry for loops.
        non_loop = u != v
        src = np.concatenate([u, v[non_loop]])
        dst = np.concatenate([v, u[non_loop]])
        ww = np.concatenate([w, w[non_loop]])

        if combine_duplicates:
            src, dst, ww = sum_duplicate_entries(src, dst, ww)
        else:
            order = np.lexsort((dst, src))
            src, dst, ww = src[order], dst[order], ww[order]
        return CSRGraph(
            index=row_index(src, num_vertices), edges=dst, weights=ww
        )

    @staticmethod
    def empty(num_vertices: int) -> "CSRGraph":
        """A graph with ``num_vertices`` vertices and no edges."""
        return CSRGraph(
            index=np.zeros(num_vertices + 1, dtype=np.int64),
            edges=np.empty(0, dtype=np.int64),
            weights=np.empty(0, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on breakage.

        Verifies symmetry (``w(u, v) == w(v, u)``) in addition to the
        cheap checks done at construction.
        """
        if len(self.edges) and (
            self.edges.min() < 0 or self.edges.max() >= self.num_vertices
        ):
            raise ValueError("edge target out of range")
        rows = self._row_ids()
        fwd = {}
        for a, b, w in zip(rows, self.edges, self.weights):
            fwd[(int(a), int(b))] = fwd.get((int(a), int(b)), 0.0) + float(w)
        for (a, b), w in fwd.items():
            if a == b:
                continue
            back = fwd.get((b, a))
            if back is None or abs(back - w) > 1e-9 * max(1.0, abs(w)):
                raise ValueError(f"asymmetric edge ({a}, {b}): {w} vs {back}")

    def relabel(self, mapping: np.ndarray) -> "CSRGraph":
        """Return the graph with vertex ``u`` renamed ``mapping[u]``.

        ``mapping`` must be a permutation of ``range(n)``.
        """
        mapping = np.asarray(mapping, dtype=np.int64)
        if len(mapping) != self.num_vertices:
            raise ValueError("mapping length must equal num_vertices")
        if len(np.unique(mapping)) != self.num_vertices:
            raise ValueError("mapping must be a permutation")
        eu, ev, ew = self.edge_array()
        return CSRGraph.from_edges(
            self.num_vertices, mapping[eu], mapping[ev], ew
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(n={self.num_vertices}, edges={self.num_edges}, "
            f"W={self.total_weight:.6g})"
        )
