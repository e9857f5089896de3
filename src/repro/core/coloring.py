"""Distributed distance-1 graph coloring (paper §VI future work).

The paper's conclusion proposes "the use of distance-1 coloring to
ensure that the set of vertices that are processed in parallel for
community assignments are mutually non-adjacent and hence independent.
This may lead to faster convergence."  This module implements it with
the Jones-Plassmann algorithm adapted to the simulated runtime:

* every vertex gets a random priority (a deterministic hash of its
  global id and the seed);
* in rounds, each uncoloured vertex whose priority beats every
  uncoloured neighbour picks the smallest colour unused by its already-
  coloured neighbours;
* each round exchanges the (colour, done) state of ghost vertices.

The colouring is *global*: two adjacent vertices never share a colour
even across rank boundaries, so processing one colour class at a time
gives the distributed sweep the sequential algorithm's freshness
guarantees (at the price of extra synchronisation per iteration — the
trade-off `benchmarks/test_ablation_coloring.py` measures).
"""

from __future__ import annotations

import numpy as np

from ..graph.distgraph import DistGraph, GhostPlan
from ..runtime.comm import Communicator

#: Colour value meaning "not coloured yet".
UNCOLORED = np.int64(-1)


def _priorities(ids: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic pseudo-random priority per global vertex id.

    SplitMix64-style mixing: uncorrelated with vertex order, identical
    on every rank, no communication needed.
    """
    offset = np.uint64((seed * 0x9E3779B97F4A7C15) % (1 << 64))
    x = (ids.astype(np.uint64) + offset) * np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def distributed_coloring(
    comm: Communicator,
    dg: DistGraph,
    plan: GhostPlan | None = None,
    seed: int = 0,
    max_rounds: int = 10_000,
) -> np.ndarray:
    """Colour the distributed graph; returns a colour per owned vertex.

    Colours are dense from 0.  Self loops are ignored (a vertex is not
    adjacent to itself for colouring purposes).  Deterministic given
    ``seed`` and the graph.
    """
    plan = plan or dg.build_ghost_plan(comm)
    nloc = dg.num_local
    colors = np.full(nloc, UNCOLORED, dtype=np.int64)
    ctargets = dg.compressed_targets()
    rows = dg.local_rows()
    row_gid = dg.from_local(rows)
    self_mask = dg.self_loop_mask()

    my_prio = _priorities(dg.local_vertex_ids().astype(np.uint64), seed)
    ghost_prio = _priorities(plan.ghost_ids.astype(np.uint64), seed)
    all_prio = np.concatenate([my_prio, ghost_prio])

    for _ in range(max_rounds):
        # Refresh ghost colours (UNCOLORED propagates naturally).
        ghost_colors = dg.exchange_ghost_values(
            comm, plan, colors, category="other"
        )
        all_colors = np.concatenate([colors, ghost_colors])
        target_colors = all_colors[ctargets]
        target_prio = all_prio[ctargets]

        uncolored = colors == UNCOLORED
        # A vertex wins the round if every *uncoloured* neighbour has a
        # strictly lower priority (ties broken by global id, which the
        # hash makes vanishingly rare but still must be deterministic).
        contested = (
            ~self_mask
            & uncolored[rows]
            & (target_colors == UNCOLORED)
        )
        beaten = np.zeros(nloc, dtype=bool)
        if contested.any():
            cr = rows[contested]
            higher = (target_prio[contested] > my_prio[cr]) | (
                (target_prio[contested] == my_prio[cr])
                & (dg.edges[contested] > row_gid[contested])
            )
            np.logical_or.at(beaten, cr, higher)
        winners = uncolored & ~beaten
        comm.charge_compute(dg.num_local_entries, category="other")

        if winners.any():
            # Smallest colour unused by coloured neighbours, per winner.
            colored_entries = ~self_mask & (target_colors != UNCOLORED)
            for u in np.flatnonzero(winners):
                lo, hi = dg.index[u], dg.index[u + 1]
                used = set(
                    int(c)
                    for c in target_colors[lo:hi][colored_entries[lo:hi]]
                )
                c = 0
                while c in used:
                    c += 1
                colors[u] = c

        remaining = comm.allreduce(
            int((colors == UNCOLORED).sum()), category="other"
        )
        if remaining == 0:
            return colors
    raise RuntimeError(
        f"coloring failed to converge within {max_rounds} rounds"
    )


def verify_coloring(
    comm: Communicator,
    dg: DistGraph,
    colors: np.ndarray,
    plan: GhostPlan | None = None,
) -> bool:
    """SPMD check that no edge connects same-coloured endpoints."""
    plan = plan or dg.build_ghost_plan(comm)
    ghost_colors = dg.exchange_ghost_values(
        comm, plan, colors, category="other"
    )
    targets = np.concatenate([colors, ghost_colors])[dg.compressed_targets()]
    local_ok = bool(
        np.all((colors[dg.local_rows()] != targets) | dg.self_loop_mask())
        and np.all(colors >= 0)
    )
    return bool(comm.allreduce(local_ok, op="land", category="other"))
