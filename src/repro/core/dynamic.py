"""Dynamic (incremental) community detection.

The Grappolo line of work the paper builds on supports *dynamic*
community detection (Halappanavar et al. [14]): when the graph changes
by a small batch of edge insertions/deletions, re-detect communities by
warm-starting Louvain from the previous solution instead of from
singletons.  Only vertices whose neighbourhood changed (and their
ripples) move, so convergence takes far fewer iterations.

This module provides:

* :class:`EdgeChurn` — a batch of insertions and deletions;
* :class:`ChurnAccumulator` — streamed updates folded into one *net*
  batch (repeated add/remove of the same edge deduplicated);
* :func:`apply_churn` — produce the updated graph;
* :func:`incremental_louvain` — warm-started distributed re-detection;
* :func:`churn_statistics` — how disruptive a batch was.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.edgelist import EdgeList
from ..runtime.perfmodel import CORI_HASWELL, MachineModel
from .config import LouvainConfig
from .distlouvain import run_louvain
from .result import LouvainResult


@dataclass(frozen=True)
class EdgeChurn:
    """A batch of graph updates.

    Insertions carry weights; deletions remove the named undirected
    edges entirely (a partial weight decrease is an insertion with a
    negative... no — express it as delete + re-insert).
    """

    add_u: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    add_v: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    add_w: np.ndarray = field(default_factory=lambda: np.empty(0, np.float64))
    del_u: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    del_v: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    def __post_init__(self) -> None:
        if not (len(self.add_u) == len(self.add_v) == len(self.add_w)):
            raise ValueError("insertion arrays must have equal length")
        if len(self.del_u) != len(self.del_v):
            raise ValueError("deletion arrays must have equal length")

    @property
    def num_insertions(self) -> int:
        return len(self.add_u)

    @property
    def num_deletions(self) -> int:
        return len(self.del_u)

    def touched_vertices(self) -> np.ndarray:
        """Sorted unique vertices incident to any update."""
        return np.unique(
            np.concatenate([self.add_u, self.add_v, self.del_u, self.del_v])
        )

    @staticmethod
    def random(
        g: CSRGraph,
        insert_fraction: float = 0.01,
        delete_fraction: float = 0.01,
        seed: int = 0,
    ) -> "EdgeChurn":
        """Random churn: delete a fraction of existing edges, insert the
        same order of new random edges (unit weight)."""
        rng = np.random.default_rng(seed)
        eu, ev, _ = g.edge_array()
        m = len(eu)
        n_del = int(delete_fraction * m)
        n_ins = int(insert_fraction * m)
        pick = (
            rng.choice(m, size=n_del, replace=False)
            if n_del
            else np.empty(0, np.int64)
        )
        au = rng.integers(0, g.num_vertices, n_ins).astype(np.int64)
        av = rng.integers(0, g.num_vertices, n_ins).astype(np.int64)
        keep = au != av
        return EdgeChurn(
            add_u=au[keep],
            add_v=av[keep],
            add_w=np.ones(int(keep.sum())),
            del_u=eu[pick],
            del_v=ev[pick],
        )


def apply_churn(g: CSRGraph, churn: EdgeChurn) -> CSRGraph:
    """Return the graph after applying ``churn``.

    Deletions remove whole undirected edges (missing edges are ignored);
    insertions add weight to existing edges or create new ones.
    """
    eu, ev, ew = g.edge_array()
    n = g.num_vertices
    if churn.num_deletions:
        dl = np.minimum(churn.del_u, churn.del_v).astype(np.int64)
        dh = np.maximum(churn.del_u, churn.del_v).astype(np.int64)
        # One key per undirected edge (``eu <= ev`` already).  A pair
        # naming a vertex outside the graph can match nothing and is
        # dropped first: folded on ``n`` it would alias a real edge.
        inside = (dl >= 0) & (dh < n)
        keep = ~np.isin(eu * n + ev, dl[inside] * n + dh[inside])
        eu, ev, ew = eu[keep], ev[keep], ew[keep]
    if churn.num_insertions:
        hi = max(
            int(churn.add_u.max()), int(churn.add_v.max())
        ) if churn.num_insertions else -1
        n = max(n, hi + 1)
        eu = np.concatenate([eu, churn.add_u])
        ev = np.concatenate([ev, churn.add_v])
        ew = np.concatenate([ew, churn.add_w])
    return EdgeList.from_arrays(n, eu, ev, ew).to_csr()


class ChurnAccumulator:
    """Fold streamed edge updates into one deduplicated *net* batch.

    The serving tier triggers incremental re-detection when accumulated
    churn crosses a threshold, so the count that matters is the **net**
    effect on the graph, not the raw operation count: a client that adds
    and then removes the same edge within one accumulation window has
    changed nothing, and adding the same edge twice touches one edge,
    not two.  Per normalised edge key ``(min(u, v), max(u, v))``:

    * repeated inserts accumulate their weight but count once;
    * repeated deletes count once;
    * insert followed by delete cancels the insert (the delete is kept —
      deleting an edge absent from the base graph is a no-op, while a
      base edge the window first fattened and then removed must go);
    * delete followed by insert keeps both, which
      :func:`apply_churn` applies as delete-then-insert — i.e. the edge
      ends at exactly the re-inserted weight, matching the sequential
      replay of the window.

    ``net_size`` — the number of distinct edges with a pending
    operation — is what threshold checks should use.
    """

    def __init__(self) -> None:
        self._adds: dict[tuple[int, int], float] = {}
        self._dels: set[tuple[int, int]] = set()
        #: Raw (pre-dedup) operation counts, for observability.
        self.raw_insertions = 0
        self.raw_deletions = 0

    @staticmethod
    def _key(u: int, v: int) -> tuple[int, int]:
        u, v = int(u), int(v)
        return (u, v) if u <= v else (v, u)

    def add(self, u: int, v: int, w: float = 1.0) -> None:
        """Record one edge insertion (weights of repeats accumulate)."""
        key = self._key(u, v)
        self._adds[key] = self._adds.get(key, 0.0) + float(w)
        self.raw_insertions += 1

    def remove(self, u: int, v: int) -> None:
        """Record one edge deletion (cancels a pending insert)."""
        key = self._key(u, v)
        self._adds.pop(key, None)
        self._dels.add(key)
        self.raw_deletions += 1

    def add_edges(self, u, v, w=None) -> None:
        """Vectorised :meth:`add` over aligned arrays."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        ws = (
            np.ones(len(u), dtype=np.float64)
            if w is None
            else np.asarray(w, dtype=np.float64)
        )
        if not (len(u) == len(v) == len(ws)):
            raise ValueError("u, v, w must have equal length")
        for a, b, x in zip(u, v, ws):
            self.add(int(a), int(b), float(x))

    def remove_edges(self, u, v) -> None:
        """Vectorised :meth:`remove` over aligned arrays."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if len(u) != len(v):
            raise ValueError("u, v must have equal length")
        for a, b in zip(u, v):
            self.remove(int(a), int(b))

    @property
    def net_size(self) -> int:
        """Distinct edges with a pending net operation."""
        return len(self._adds.keys() | self._dels)

    @property
    def raw_size(self) -> int:
        """Total operations recorded (before deduplication)."""
        return self.raw_insertions + self.raw_deletions

    def __len__(self) -> int:
        return self.net_size

    def __bool__(self) -> bool:
        return self.net_size > 0

    def batch(self) -> EdgeChurn:
        """The pending net churn as one deterministic :class:`EdgeChurn`.

        Edges are emitted in sorted key order so the same stream of
        updates always produces a byte-identical batch (and therefore a
        bit-identical incremental re-detection).
        """
        adds = sorted(self._adds.items())
        dels = sorted(self._dels)
        return EdgeChurn(
            add_u=np.array([k[0] for k, _ in adds], dtype=np.int64),
            add_v=np.array([k[1] for k, _ in adds], dtype=np.int64),
            add_w=np.array([w for _, w in adds], dtype=np.float64),
            del_u=np.array([k[0] for k in dels], dtype=np.int64),
            del_v=np.array([k[1] for k in dels], dtype=np.int64),
        )

    def clear(self) -> None:
        """Reset to an empty window (raw counters included)."""
        self._adds.clear()
        self._dels.clear()
        self.raw_insertions = 0
        self.raw_deletions = 0

    def take(self) -> EdgeChurn:
        """:meth:`batch` then :meth:`clear`, atomically from the
        caller's perspective — the accumulation-window handoff."""
        out = self.batch()
        self.clear()
        return out


def incremental_louvain(
    g_new: CSRGraph,
    previous_assignment: np.ndarray,
    nranks: int = 4,
    config: LouvainConfig | None = None,
    *,
    machine: MachineModel = CORI_HASWELL,
    reset_touched: np.ndarray | None = None,
) -> LouvainResult:
    """Re-detect communities on the updated graph, warm-started.

    Parameters
    ----------
    g_new:
        Graph after the churn.  May have *more* vertices than the
        previous assignment covers: new vertices start as singletons.
    previous_assignment:
        Community per old vertex from the previous detection.
    reset_touched:
        Optional vertex ids to reset to singletons (typically
        ``churn.touched_vertices()``), letting vertices whose
        neighbourhood changed re-decide from scratch while the rest of
        the graph keeps its structure.
    """
    seed = warm_start_assignment(
        g_new, previous_assignment, reset_touched=reset_touched
    )
    return run_louvain(
        g_new,
        nranks,
        config,
        machine=machine,
        initial_assignment=seed,
    )


def warm_start_assignment(
    g_new: CSRGraph,
    previous_assignment: np.ndarray,
    *,
    reset_touched: np.ndarray | None = None,
) -> np.ndarray:
    """Build the warm-start seed labels for an incremental re-detection.

    Extends the previous assignment to any new vertices (fresh
    singletons) and optionally resets the ``reset_touched`` vertices to
    singletons so they re-decide from scratch.  Shared by
    :func:`incremental_louvain` and the detection service's
    ``mode="incremental"`` requests.
    """
    previous_assignment = np.asarray(previous_assignment, dtype=np.int64)
    n_new = g_new.num_vertices
    if len(previous_assignment) > n_new:
        raise ValueError(
            f"previous assignment covers {len(previous_assignment)} "
            f"vertices, new graph has only {n_new}"
        )
    # Extend to new vertices: fresh singleton labels beyond the old range.
    n_old = len(previous_assignment)
    seed = np.empty(n_new, dtype=np.int64)
    seed[:n_old] = previous_assignment
    if n_new > n_old:
        base = int(previous_assignment.max()) + 1 if n_old else 0
        seed[n_old:] = base + np.arange(n_new - n_old, dtype=np.int64)
    if reset_touched is not None and len(reset_touched):
        touched = np.asarray(reset_touched, dtype=np.int64)
        fresh = int(seed.max()) + 1
        seed[touched] = fresh + np.arange(len(touched), dtype=np.int64)
    return seed


@dataclass(frozen=True)
class ChurnStats:
    """How disruptive a churn batch was, relative to the old solution."""

    touched_vertices: int
    touched_fraction: float
    intra_deleted: int
    inter_inserted: int


def churn_statistics(
    churn: EdgeChurn, previous_assignment: np.ndarray
) -> ChurnStats:
    """Classify a churn batch against the previous communities.

    Deleting intra-community edges and inserting inter-community edges
    are the disruptive operations — they are what can make the old
    partition suboptimal.
    """
    previous_assignment = np.asarray(previous_assignment)
    n = len(previous_assignment)
    touched = churn.touched_vertices()
    touched = touched[touched < n]

    def labels(x):
        x = np.asarray(x)
        safe = np.clip(x, 0, n - 1) if n else x
        return previous_assignment[safe] if n else x

    intra_del = int(
        np.sum(labels(churn.del_u) == labels(churn.del_v))
    ) if churn.num_deletions and n else 0
    inter_ins = int(
        np.sum(labels(churn.add_u) != labels(churn.add_v))
    ) if churn.num_insertions and n else 0
    return ChurnStats(
        touched_vertices=len(touched),
        touched_fraction=len(touched) / n if n else 0.0,
        intra_deleted=intra_del,
        inter_inserted=inter_ins,
    )
