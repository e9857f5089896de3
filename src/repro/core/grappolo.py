"""Shared-memory parallel Louvain in the style of Grappolo [22].

The paper uses Grappolo as its single-node comparator (Table III) and as
the vehicle for the preliminary ET study (Table I).  This module
reproduces its algorithmic behaviour:

* vertices decide moves **in parallel against an iteration-start
  snapshot** (OpenMP semantics), implemented here with the shared
  vectorised sweep kernel;
* optional **distance-1 coloring**: color classes are processed one
  after another, each class in parallel, so vertices moving together are
  never adjacent — Grappolo's convergence heuristic;
* optional **vertex following**: degree-1 vertices are pre-merged into
  their sole neighbour's community at the start of each phase;
* the ET heuristic (Eq. 3) exactly as §IV-B(b) describes modifying the
  multithreaded implementation for Table I.

Thread count affects modelled time through the machine model's OpenMP
curve; the algorithmic trajectory is deterministic and thread-agnostic
(as is Grappolo's under coloring).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..runtime.perfmodel import CORI_HASWELL_SHARED, MachineModel
from .coarsen import coarsen_csr
from .config import LouvainConfig
from .heuristics import EarlyTermination, ThresholdCycler, make_rank_rng
from .result import IterationStats, LouvainResult, PhaseStats, normalize_assignment
from .sweep import SweepPlan, array_lookup, propose_moves


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s+c)`` for each (start, count), counts > 0."""
    total = int(counts.sum())
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    if len(starts) > 1:
        bounds = np.cumsum(counts[:-1])
        out[bounds] = starts[1:] - (starts[:-1] + counts[:-1]) + 1
    return np.cumsum(out)


def greedy_coloring(g: CSRGraph) -> np.ndarray:
    """Distance-1 greedy coloring (smallest available color, id order).

    Vectorised wave schedule producing the exact sequential result: the
    id-order greedy color of ``u`` depends only on its lower-id
    neighbours, so each wave colors every vertex whose lower-id
    neighbours are all colored and computes the per-vertex mex with
    segment ops over the wave's edge list.  Two vertices in the same
    wave are never adjacent, so within-wave order cannot matter.
    Bit-identical to ``greedy_coloring_loop`` in
    ``tests/oracles/grappolo_reference.py``.
    """
    n = g.num_vertices
    colors = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return colors
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.index))
    lower = g.edges < rows
    pred_rows = rows[lower]  # already sorted by row
    pred_cols = g.edges[lower]
    pred_index = np.searchsorted(pred_rows, np.arange(n + 1))
    remaining = np.bincount(pred_rows, minlength=n)
    # Reverse CSR: for each vertex, the higher-id vertices waiting on it.
    order = np.argsort(pred_cols, kind="stable")
    succ_targets = pred_rows[order]
    succ_index = np.searchsorted(pred_cols[order], np.arange(n + 1))
    ready = np.flatnonzero(remaining == 0)
    while ready.size:
        colors[ready] = _wave_mex(ready, pred_index, pred_cols, colors)
        remaining[ready] = -1  # retire: never becomes ready again
        starts = succ_index[ready]
        counts = succ_index[ready + 1] - starts
        nz = counts > 0
        if np.any(nz):
            waiting = succ_targets[_ranges(starts[nz], counts[nz])]
            np.subtract.at(remaining, waiting, 1)
        ready = np.flatnonzero(remaining == 0)
    return colors


def _wave_mex(
    ready: np.ndarray,
    pred_index: np.ndarray,
    pred_cols: np.ndarray,
    colors: np.ndarray,
) -> np.ndarray:
    """Smallest color unused by each ready vertex's lower-id neighbours."""
    starts = pred_index[ready]
    counts = pred_index[ready + 1] - starts
    m = len(ready)
    nz = counts > 0
    if not np.any(nz):
        return np.zeros(m, dtype=np.int64)
    eids = _ranges(starts[nz], counts[nz])
    group = np.repeat(np.flatnonzero(nz), counts[nz])
    taken = colors[pred_cols[eids]]
    # Unique (group, color) pairs, color-sorted within each group.
    order = np.lexsort((taken, group))
    gs, cs = group[order], taken[order]
    keep = np.ones(len(gs), dtype=bool)
    keep[1:] = (gs[1:] != gs[:-1]) | (cs[1:] != cs[:-1])
    gs, cs = gs[keep], cs[keep]
    # mex = first rank where the sorted unique colors skip a value.
    grp_start = np.searchsorted(gs, np.arange(m))
    rank = np.arange(len(gs), dtype=np.int64) - grp_start[gs]
    mex = (np.searchsorted(gs, np.arange(1, m + 1)) - grp_start).astype(
        np.int64
    )
    gap = cs != rank
    np.minimum.at(mex, gs[gap], rank[gap])
    return mex


def vertex_following_seed(g: CSRGraph) -> np.ndarray:
    """Initial assignment merging degree-1 vertices into their neighbour.

    Lu et al.'s vertex-following heuristic: a vertex with exactly one
    (non-loop) neighbour can never profitably sit in its own community,
    so it starts in the neighbour's.  Vectorised over the CSR index with
    the same single-pass id-order semantics as the reference loop: a
    leaf adopts its neighbour's label, and a mutual leaf pair (isolated
    edge) lands on the larger id — bit-identical to
    ``vertex_following_loop`` in ``tests/oracles/grappolo_reference.py``.
    """
    n = g.num_vertices
    comm = np.arange(n, dtype=np.int64)
    if n == 0 or g.nnz == 0:
        return comm
    deg = np.diff(g.index)
    # First stored neighbour per row (clamped for trailing empty rows,
    # whose leaf mask is False anyway).
    nbr = g.edges[np.minimum(g.index[:-1], g.nnz - 1)]
    # True leaf: exactly one neighbour and no self loop.  (A meta vertex
    # with a self loop has internal structure; following it would
    # wrongly dissolve a whole community.)
    leaf = (deg == 1) & (nbr != np.arange(n, dtype=np.int64))
    comm[leaf] = nbr[leaf]
    # A leaf's neighbour is itself a leaf only on an isolated edge; the
    # sequential pass lands both endpoints on the larger id.
    ids = np.flatnonzero(leaf)
    partner = nbr[ids]
    mutual = leaf[partner] & (nbr[partner] == ids)
    comm[ids[mutual]] = np.maximum(ids[mutual], partner[mutual])
    return comm


class _Timer:
    """Accumulates modelled seconds for the shared-memory run."""

    def __init__(self, machine: MachineModel):
        self.machine = machine
        self.seconds = 0.0

    def charge(self, ops: float) -> None:
        self.seconds += self.machine.compute_cost(ops)


def grappolo_louvain(
    g: CSRGraph,
    config: LouvainConfig | None = None,
    *,
    threads: int = 8,
    coloring: bool = True,
    vertex_following: bool = True,
    machine: MachineModel = CORI_HASWELL_SHARED,
    initial_assignment: np.ndarray | None = None,
) -> LouvainResult:
    """Multi-phase shared-memory Louvain; returns result with modelled time.

    ``initial_assignment`` warm-starts phase 0 from an existing
    partition (arbitrary integer labels) instead of singletons — the
    dynamic re-detection mode of [14].
    """
    config = config or LouvainConfig()
    if initial_assignment is not None and len(initial_assignment) != g.num_vertices:
        raise ValueError(
            f"initial_assignment covers {len(initial_assignment)} vertices, "
            f"graph has {g.num_vertices}"
        )
    timer = _Timer(machine.with_threads(threads))
    orig_assign = np.arange(g.num_vertices, dtype=np.int64)
    cur = g
    cycler = (
        ThresholdCycler(config)
        if config.variant.uses_threshold_cycling
        else None
    )
    prev_mod = -np.inf
    phases: list[PhaseStats] = []
    iterations: list[IterationStats] = []
    final_mod = 0.0

    for phase in range(config.max_phases):
        tau = cycler.tau_for_phase(phase) if cycler else config.tau
        assignment, mod, stats, exited_inactive = _phase(
            cur, tau, config, phase, timer, coloring, vertex_following,
            seed_assignment=initial_assignment if phase == 0 else None,
        )
        iterations.extend(stats)
        phases.append(
            PhaseStats(
                phase=phase,
                tau=tau,
                num_iterations=len(stats),
                modularity=mod,
                num_vertices=cur.num_vertices,
                num_edges=cur.num_edges,
                exited_by_inactive=exited_inactive,
            )
        )
        meta, vertex_to_meta = coarsen_csr(cur, assignment)
        timer.charge(cur.nnz)  # rebuild pass
        orig_assign = vertex_to_meta[orig_assign]
        final_mod = mod

        gain = mod - prev_mod
        no_merge = meta.num_vertices == cur.num_vertices
        if gain <= tau or no_merge:
            if cycler and not cycler.in_final_pass and tau > cycler.final_tau:
                cycler.enter_final_pass()
                prev_mod = mod
                cur = meta
                continue
            break
        prev_mod = mod
        cur = meta

    return LouvainResult(
        modularity=final_mod,
        assignment=normalize_assignment(orig_assign),
        phases=phases,
        iterations=iterations,
        elapsed=timer.seconds,
    )


def _phase(
    g: CSRGraph,
    tau: float,
    config: LouvainConfig,
    phase: int,
    timer: _Timer,
    coloring: bool,
    vertex_following: bool,
    seed_assignment: np.ndarray | None = None,
) -> tuple[np.ndarray, float, list[IterationStats], bool]:
    n = g.num_vertices
    w = g.total_weight
    k = g.degrees()
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.index))
    self_mask = g.edges == rows
    sweep_plan = SweepPlan.build(g.index, g.weights, self_mask)

    if seed_assignment is not None:
        # Warm start: rename each community to its minimum member vertex
        # so labels live in the vertex-id space the sweep expects.
        from .distlouvain import _labels_to_vertex_space

        comm = _labels_to_vertex_space(seed_assignment)
    else:
        comm = (
            vertex_following_seed(g)
            if vertex_following
            else np.arange(n, dtype=np.int64)
        )
        if vertex_following:
            timer.charge(g.nnz)

    if coloring and n:
        colors = greedy_coloring(g)
        color_classes = [
            np.flatnonzero(colors == c) for c in range(int(colors.max()) + 1)
        ]
        timer.charge(g.nnz)
    else:
        color_classes = [np.arange(n, dtype=np.int64)]

    et = (
        EarlyTermination(n, config, make_rank_rng(config.seed, 0, phase))
        if config.variant.uses_early_termination
        else None
    )
    stats: list[IterationStats] = []
    prev_q = -np.inf
    q = 0.0
    exited_inactive = False

    for it in range(config.max_iterations):
        active = et.draw_active() if et else np.ones(n, dtype=bool)
        moved = np.zeros(n, dtype=bool)
        for cls in color_classes:
            cls_active = np.zeros(n, dtype=bool)
            cls_active[cls] = active[cls]
            if not cls_active.any():
                continue
            tot = np.bincount(comm, weights=k, minlength=n)
            size = np.bincount(comm, minlength=n)
            res = propose_moves(
                index=g.index,
                target_comm=comm[g.edges],
                weights=g.weights,
                self_mask=self_mask,
                degrees=k,
                cur_comm=comm,
                total_weight=w,
                tot_lookup=array_lookup(None, tot),
                size_lookup=array_lookup(None, size),
                active=cls_active,
                resolution=config.resolution,
                plan=sweep_plan,
            )
            comm = res.proposal
            moved |= res.moved
            timer.charge(res.pairs_evaluated + int(cls_active[rows].sum()))

        q = _modularity_dense(g, comm, k, w, rows, config.resolution)
        timer.charge(g.nnz)  # modularity pass
        inactive_frac = 0.0
        if et is not None:
            et.update(moved)
            inactive_frac = et.inactive_fraction()
        stats.append(
            IterationStats(
                phase=phase,
                iteration=it,
                modularity=q,
                moves=int(moved.sum()),
                active_fraction=float(active.mean()) if n else 1.0,
                inactive_fraction=inactive_frac,
            )
        )
        if (
            config.variant.uses_inactive_exit
            and inactive_frac >= config.etc_exit_fraction
        ):
            exited_inactive = True
            break
        if q - prev_q <= tau:
            break
        prev_q = q

    return comm, q, stats, exited_inactive


def _modularity_dense(
    g: CSRGraph,
    comm: np.ndarray,
    k: np.ndarray,
    w: float,
    rows: np.ndarray,
    resolution: float = 1.0,
) -> float:
    if w <= 0:
        return 0.0
    intra = comm[rows] == comm[g.edges]
    cin = float(g.weights[intra].sum())
    tot = np.zeros(g.num_vertices, dtype=np.float64)
    np.add.at(tot, comm, k)
    return cin / w - resolution * float(np.square(tot / w).sum())
