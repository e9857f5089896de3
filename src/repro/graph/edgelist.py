"""Edge-list utilities: canonicalisation, symmetrisation, weighting.

The paper converts every input graph from its native format into a flat
binary edge list before running (§V, "Experimental setup").  This module
holds the in-memory edge-list type that sits between generators, the
binary file format (:mod:`repro.graph.binio`) and CSR construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRGraph, sum_duplicate_entries


@dataclass(frozen=True)
class EdgeList:
    """A weighted undirected edge list; each edge appears exactly once.

    ``u <= v`` canonically for every stored edge (self loops allowed).
    """

    num_vertices: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.u) == len(self.v) == len(self.w)):
            raise ValueError("u, v, w must have equal length")
        if self.num_vertices < 0:
            raise ValueError("num_vertices must be >= 0")

    @property
    def num_edges(self) -> int:
        return len(self.u)

    @property
    def total_weight(self) -> float:
        """``2m`` convention: loop-free edges twice, self loops once."""
        loops = self.u == self.v
        return float(2.0 * self.w[~loops].sum() + self.w[loops].sum())

    @staticmethod
    def from_arrays(
        num_vertices: int,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray | None = None,
        *,
        dedup: bool = True,
    ) -> "EdgeList":
        """Canonicalise raw arrays: orient ``u <= v``, optionally merge
        duplicates by summing weights, drop nothing else."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        w = (
            np.ones(len(u), dtype=np.float64)
            if w is None
            else np.asarray(w, dtype=np.float64)
        )
        if len(u) and (u.min() < 0 or v.min() < 0):
            raise ValueError("vertex ids must be non-negative")
        if len(u) and max(int(u.max()), int(v.max())) >= num_vertices:
            raise ValueError("edge endpoint exceeds num_vertices")
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        if dedup:
            lo, hi, w = sum_duplicate_entries(lo, hi, w)
        return EdgeList(num_vertices=num_vertices, u=lo, v=hi, w=w)

    def to_csr(self) -> CSRGraph:
        return CSRGraph.from_edges(self.num_vertices, self.u, self.v, self.w)

    @staticmethod
    def from_csr(g: CSRGraph) -> "EdgeList":
        eu, ev, ew = g.edge_array()
        return EdgeList(num_vertices=g.num_vertices, u=eu, v=ev, w=ew)

    def permuted(self, rng: np.random.Generator) -> "EdgeList":
        """Shuffle edge order (models arbitrary on-disk ordering)."""
        order = rng.permutation(self.num_edges)
        return EdgeList(
            num_vertices=self.num_vertices,
            u=self.u[order],
            v=self.v[order],
            w=self.w[order],
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EdgeList(n={self.num_vertices}, m={self.num_edges})"
