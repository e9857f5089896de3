"""Cheap graph featurizer feeding the autotuner's cost model and DB.

The best Louvain variant and parameter setting varies per graph (the
paper's Tables II-VII show different winners on different inputs), so
the tuner characterises a graph by a handful of *cheap* structural
features — one CSR pass, no detection run — and uses them two ways:

* the analytic cost model (:mod:`repro.tune.costmodel`) predicts a
  candidate configuration's modelled runtime from them;
* the tuning database (:mod:`repro.tune.db`) falls back to the
  nearest previously-tuned graph in feature space when an unseen
  fingerprint arrives.

Features are deterministic functions of the CSR arrays, so the same
graph always featurizes identically regardless of process or platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.partition import owner_of

#: Rank counts at which the ghost fraction is probed.  These match the
#: default search space's rank axis; other counts are served by the
#: nearest probed point (``p = 1`` is exactly zero by construction).
DEFAULT_GHOST_PROBES: tuple[int, ...] = (2, 4, 8)

#: Version stamp stored with persisted features; bump on incompatible
#: changes so stale DB entries are recognisably old.
#: v2 added the streaming-churn axes (default 0.0, so v1 records load
#: unchanged as "static graph, no churn observed").
#: v4 added the degree-one vertex fraction (default 0.0, so older
#: records load unchanged as "no leaves": vertex following then gets no
#: modelled discount, which is the conservative estimate).
#: v5 removed v3's achieved-ghost feedback map and its vector slot.
FEATURES_VERSION = 5


@dataclass(frozen=True)
class GraphFeatures:
    """Structural summary of one input graph.

    ``ghost_fraction[p]`` is the fraction of stored adjacency entries
    whose endpoint lives on a *different* rank under the paper's
    ``even_edge`` 1-D partition at ``p`` ranks — the direct driver of
    ghost- and community-communication volume (§IV-A).
    """

    num_vertices: int
    num_edges: int
    mean_degree: float
    #: Coefficient of variation of the unweighted degree distribution.
    degree_cv: float
    #: Third standardized moment (skewness) of the degree distribution;
    #: power-law webs score high, meshes near zero.
    degree_skew: float
    #: Largest degree as a fraction of ``n`` (hub concentration).
    max_degree_fraction: float
    #: p -> cross-rank adjacency-entry fraction under even_edge.
    ghost_fraction: Mapping[int, float]
    #: Streaming workloads only: net churned edges per accumulation
    #: window as a fraction of ``m`` (0.0 for static graphs).  A plan
    #: tuned under heavy churn should not transfer to a static graph of
    #: the same shape, and vice versa — these axes keep them apart in
    #: nearest-neighbour space.
    churn_edge_fraction: float = 0.0
    #: Streaming workloads only: vertices incident to churn per window
    #: as a fraction of ``n`` — the warm-restart reset footprint.
    churn_touched_fraction: float = 0.0
    #: Fraction of vertices with exactly one stored adjacency entry —
    #: the population Grappolo's vertex-following heuristic merges away
    #: before phase 1, hence the direct driver of its modelled payoff.
    degree_one_fraction: float = 0.0

    # ------------------------------------------------------------------
    def ghost_fraction_at(self, nranks: int) -> float:
        """Ghost fraction at ``nranks``, served from the nearest probe.

        ``p = 1`` is exactly 0 (nothing is remote).  Other counts use
        the probe with the closest ``log2`` distance, which is accurate
        for the power-of-two rank axis the search space uses.
        """
        if nranks <= 1:
            return 0.0
        probes = sorted(self.ghost_fraction)
        if not probes:
            return 0.0
        if nranks in self.ghost_fraction:
            return float(self.ghost_fraction[nranks])
        best = min(probes, key=lambda p: abs(math.log2(p) - math.log2(nranks)))
        return float(self.ghost_fraction[best])

    def vector(self) -> tuple[float, ...]:
        """Normalised feature vector for nearest-neighbour distance.

        Size features are log-scaled (a 10x bigger graph is "one unit
        away", not a thousand), shape features are squashed into [0, 1]
        ranges so no single axis dominates the L2 distance.
        """
        return (
            math.log10(self.num_vertices + 1.0),
            math.log10(self.num_edges + 1.0),
            math.log10(self.mean_degree + 1.0),
            min(self.degree_cv, 4.0) / 4.0,
            math.atan(self.degree_skew) / math.pi + 0.5,
            self.max_degree_fraction,
            self.ghost_fraction_at(max(DEFAULT_GHOST_PROBES)),
            min(self.churn_edge_fraction, 1.0),
            min(self.churn_touched_fraction, 1.0),
            min(self.degree_one_fraction, 1.0),
        )

    def with_churn(
        self, *, edge_fraction: float, touched_fraction: float
    ) -> "GraphFeatures":
        """Copy with the streaming-churn axes filled in.

        The serving tier calls this with the per-window net-churn rates
        observed on a tenant's graph, so the tuning DB can distinguish
        "this structure under churn" from "this structure, static".
        """
        import dataclasses

        return dataclasses.replace(
            self,
            churn_edge_fraction=max(float(edge_fraction), 0.0),
            churn_touched_fraction=max(float(touched_fraction), 0.0),
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "version": FEATURES_VERSION,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "mean_degree": self.mean_degree,
            "degree_cv": self.degree_cv,
            "degree_skew": self.degree_skew,
            "max_degree_fraction": self.max_degree_fraction,
            # JSON object keys are strings; restored in from_dict.
            "ghost_fraction": {
                str(p): float(f) for p, f in sorted(self.ghost_fraction.items())
            },
            "churn_edge_fraction": self.churn_edge_fraction,
            "churn_touched_fraction": self.churn_touched_fraction,
            "degree_one_fraction": self.degree_one_fraction,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GraphFeatures":
        return cls(
            num_vertices=int(data["num_vertices"]),
            num_edges=int(data["num_edges"]),
            mean_degree=float(data["mean_degree"]),
            degree_cv=float(data["degree_cv"]),
            degree_skew=float(data["degree_skew"]),
            max_degree_fraction=float(data["max_degree_fraction"]),
            ghost_fraction={
                int(p): float(f)
                for p, f in dict(data["ghost_fraction"]).items()
            },
            # v1 records carry no churn axes: load as static (0.0).
            churn_edge_fraction=float(data.get("churn_edge_fraction", 0.0)),
            churn_touched_fraction=float(
                data.get("churn_touched_fraction", 0.0)
            ),
            # v1-v3 records carry no leaf census: load as "no leaves".
            degree_one_fraction=float(data.get("degree_one_fraction", 0.0)),
        )

    def format(self) -> str:
        ghosts = " ".join(
            f"p{p}={f:.2f}" for p, f in sorted(self.ghost_fraction.items())
        )
        churn = (
            f" churn[e={self.churn_edge_fraction:.3f} "
            f"v={self.churn_touched_fraction:.3f}]"
            if self.churn_edge_fraction or self.churn_touched_fraction
            else ""
        )
        return (
            f"n={self.num_vertices} m={self.num_edges} "
            f"deg[mean={self.mean_degree:.2f} cv={self.degree_cv:.2f} "
            f"skew={self.degree_skew:.2f} "
            f"leaf={self.degree_one_fraction:.2f}] ghost[{ghosts}]{churn}"
        )


def compute_features(
    g: CSRGraph, ghost_probes: tuple[int, ...] = DEFAULT_GHOST_PROBES
) -> GraphFeatures:
    """Featurize ``g`` in one CSR pass plus one partition per probe."""
    counts = g.edge_counts().astype(np.float64)
    n = g.num_vertices
    mean = float(counts.mean()) if n else 0.0
    std = float(counts.std()) if n else 0.0
    if n and std > 0.0:
        skew = float(np.mean(((counts - mean) / std) ** 3))
    else:
        skew = 0.0
    return GraphFeatures(
        num_vertices=n,
        num_edges=g.num_edges,
        mean_degree=mean,
        degree_cv=(std / mean) if mean > 0 else 0.0,
        degree_skew=skew,
        max_degree_fraction=(float(counts.max()) / n) if n else 0.0,
        degree_one_fraction=(
            float(np.count_nonzero(counts == 1) / n) if n else 0.0
        ),
        ghost_fraction={
            p: _ghost_fraction(g, p) for p in ghost_probes if p <= max(n, 1)
        },
    )


def _ghost_fraction(g: CSRGraph, nranks: int) -> float:
    """Cross-rank fraction of stored adjacency entries at ``nranks``."""
    if nranks <= 1 or g.nnz == 0:
        return 0.0
    offsets = g.even_edge_offsets(nranks)
    rows = np.repeat(
        np.arange(g.num_vertices, dtype=np.int64), np.diff(g.index)
    )
    row_owner = owner_of(offsets, rows)
    nbr_owner = owner_of(offsets, g.edges)
    return float(np.count_nonzero(row_owner != nbr_owner) / g.nnz)


def feature_distance(a: GraphFeatures, b: GraphFeatures) -> float:
    """L2 distance between two graphs' normalised feature vectors."""
    va, vb = a.vector(), b.vector()
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(va, vb)))
