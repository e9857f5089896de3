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

A world step (:func:`color_world`), run in a phase's set-up: a round
decides against the colours at its start — what every rank's ghost
exchange delivers — so one pass over every rank's entries laid end to
end computes what the ranks would, each rank charged its exchange,
compute and allreduce as it makes them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..graph.distgraph import (
    DistGraph, GhostPlan, ghost_exchange_world, world_entries,
)
from ..runtime.comm import Communicator, World, allreduce_world

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


def color_world(
    world: World,
    comms: Sequence[Communicator],
    graphs: Sequence[DistGraph],
    plans: Sequence[GhostPlan],
    seed: int = 0,
    max_rounds: int = 10_000,
) -> tuple[np.ndarray, int]:
    """Colour the distributed graph for every rank: returns the colour of
    every vertex (by global id; dense from 0) and the colour count, the
    sweep rounds of an iteration.

    Per round every rank exchanges its ghosts' colours, scans its
    entries and joins the allreduce of its uncoloured count (category
    ``other``); then the colour count's ``max`` allreduce.  Self loops
    are ignored (a vertex is not adjacent to itself for colouring
    purposes).  Deterministic given ``seed`` and the graph.
    """
    offsets = graphs[0].offsets
    n = int(offsets[-1])
    rows, targets = world_entries(graphs)
    keep = rows != targets
    rows, targets = rows[keep], targets[keep]
    prio = _priorities(np.arange(n), seed)
    # A target beats its row when its priority is higher (ties broken
    # by global id, which the hash makes vanishingly rare but still must
    # be deterministic).
    beats = (prio[targets] > prio[rows]) | (
        (prio[targets] == prio[rows]) & (targets > rows)
    )
    colors = np.full(n, UNCOLORED, dtype=np.int64)
    cost = world.machine.compute_cost
    for _ in range(max_rounds):
        ghost_exchange_world(
            world, comms, plans, colors.itemsize, category="other"
        )
        for comm, dg in zip(comms, graphs):
            comm.charge("other", cost(dg.num_local_entries))
        # Every rank decides against the colours at the round's start.
        uncolored = colors == UNCOLORED
        open_target = uncolored[targets]
        # A vertex wins the round if no uncoloured neighbour beats it.
        beaten = np.zeros(n, dtype=bool)
        beaten[rows[uncolored[rows] & open_target & beats]] = True
        winners = uncolored & ~beaten
        if winners.any():
            taken = winners[rows] & ~open_target
            colors[winners] = _smallest_unused(
                np.flatnonzero(winners), rows[taken], colors[targets[taken]]
            )
        remaining = allreduce_world(world, comms, [
            int(np.count_nonzero(colors[a:b] == UNCOLORED))
            for a, b in zip(offsets[:-1], offsets[1:])
        ], category="other")[0]
        if remaining == 0:
            break
    else:
        raise RuntimeError(
            f"coloring failed to converge within {max_rounds} rounds"
        )
    num_colors = allreduce_world(world, comms, [
        int(colors[a:b].max()) + 1 if b > a else 0
        for a, b in zip(offsets[:-1], offsets[1:])
    ], max, category="other")[0]
    return colors, int(num_colors)


def _smallest_unused(
    winners: np.ndarray, rows: np.ndarray, taken: np.ndarray
) -> np.ndarray:
    """Per vertex of ascending ``winners``, the smallest colour no entry
    ``(rows[i], taken[i])`` names for it."""
    m = len(winners)
    span = int(taken.max(initial=0)) + 1
    # Unique (winner, colour) pairs, colour-sorted within each winner.
    pairs = np.unique(np.searchsorted(winners, rows) * span + taken)
    gs, cs = pairs // span, pairs % span
    start = np.searchsorted(gs, np.arange(m))
    mex = np.searchsorted(gs, np.arange(1, m + 1)) - start
    # The first place where the sorted colours skip a value.
    rank = np.arange(len(gs), dtype=np.int64) - start[gs]
    gap = cs != rank
    np.minimum.at(mex, gs[gap], rank[gap])
    return mex
