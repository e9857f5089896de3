"""Leiden-style post-phase refinement (``LouvainConfig.refine="leiden"``).

Louvain's known defect (Traag, Waltman & van Eck, *From Louvain to
Leiden*, 2019) is that a community can become *internally disconnected*:
a vertex that acted as the bridge between two parts of its community
moves away — under this repo's synchronised snapshot sweeps, label
swaps make this routine — and the two parts stay fused because each
still gains from the community's aggregate ``a_c``.  The fix is to
split every community into its connected components before coarsening.

Splitting along a zero-edge cut can never lower modularity: the
components of a disconnected community share no edges, so the total
internal weight ``in_c`` is preserved exactly while the degree-sum
penalty shrinks (``(sum_i a_i)^2 >= sum_i a_i^2`` for non-negative
``a_i``).  Applied after every phase's sweep, the final hierarchy
contains only connected communities by induction (coarsening a
connected community yields one meta-vertex, trivially connected).

The pass is a *community-constrained* connected-components sweep:
min-label propagation where a vertex may only adopt a neighbour's label
when both sit in the same community.  Component labels are then mapped back so
that **unsplit communities keep their original id** — refinement is a
bit-exact no-op on a phase whose communities are all connected — while
each component of a split community takes its minimum member id (a
valid community id under the repo-wide "community = some vertex id"
ownership convention).

One rare hazard guards the id-preserving mapping: a community's id is
a vertex id whose vertex may have *left* it (an orphan id, another
snapshot-sweep artefact), so a kept original id could coincide with
the min-member label of some split component elsewhere, silently
merging unrelated communities at the next coarsening.  An owner-routed
uniqueness audit detects any such clash, and the pass then falls back
to canonical min-member labels for every community (injective by
construction: min members of disjoint vertex sets are distinct).  Both
the split decision and the fallback decision are global and purely
structural, so refined runs stay bit-identical across rank counts and
layouts.

A world step (:func:`refine_world`), run where a phase closes: the
propagation is a Jacobi sweep against the labels at each round's start
— what every rank's ghost exchange delivers — so one pass over every
rank's entries laid end to end computes what the ranks would, and
every rank is charged each exchange, count and audit as it makes them.
The trip count is data-dependent but replicated (one ``lor`` allreduce
per round).
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

from ..graph.distgraph import (
    DistGraph, GhostPlan, distinct_keys, ghost_exchange_world, key_counts,
    world_entries,
)
from ..runtime.comm import (
    Communicator, World, allreduce_world, alltoall_counts_world,
    lookup_world, push_world,
)

__all__ = ["refine_world"]


def refine_world(
    world: World,
    comms: Sequence[Communicator],
    graphs: Sequence[DistGraph],
    plans: Sequence[GhostPlan],
    communities: np.ndarray,
    *,
    max_rounds: int = 10_000,
) -> np.ndarray:
    """Split every internally disconnected community into components.

    ``communities`` holds every vertex's community by global id, as a
    phase's world leaves them; ``graphs`` and ``plans`` are the ranks'
    slices and ghost plans.  Returns the refined community of every
    vertex: communities that are already connected keep their id; each
    component of a disconnected community becomes its own community
    labelled by its minimum member id (or, on the rare label clash the
    module docstring describes, every community is canonically
    relabelled to its minimum member).  Each rank's ops, category
    ``other`` (its scans ``compute``): the propagation rounds, the
    component counts' push and lookup, the clash check's alltoall and
    allreduce, and a ghost exchange of the refined labels.
    """
    offsets = graphs[0].offsets
    labels = _component_labels(
        world, comms, graphs, plans, communities, max_rounds
    )
    split = _split_flags(world, comms, offsets, communities, labels)
    refined = np.where(split, labels, communities)
    if _labels_collide(world, comms, offsets, refined, communities):
        refined = labels
    ghost_exchange_world(
        world, comms, plans, refined.itemsize, category="other"
    )
    return refined


def _component_labels(
    world: World,
    comms: Sequence[Communicator],
    graphs: Sequence[DistGraph],
    plans: Sequence[GhostPlan],
    communities: np.ndarray,
    max_rounds: int,
) -> np.ndarray:
    """Min vertex id of every vertex's (community, component)."""
    offsets = graphs[0].offsets
    rows, targets = world_entries(graphs)
    # The community constraint: only same-community edges carry
    # labels, so propagation never crosses a community wall.
    same = communities[targets] == communities[rows]
    rows, targets = rows[same], targets[same]
    labels = np.arange(int(offsets[-1]), dtype=np.int64)
    cost = world.machine.compute_cost
    for _ in range(max_rounds):
        ghost_exchange_world(
            world, comms, plans, labels.itemsize, category="other"
        )
        new_labels = labels.copy()
        np.minimum.at(new_labels, rows, labels[targets])
        for comm, dg in zip(comms, graphs):
            comm.charge("compute", cost(dg.num_local_entries))
        changed = [
            bool(np.any(new_labels[a:b] != labels[a:b]))
            for a, b in zip(offsets[:-1], offsets[1:])
        ]
        labels = new_labels
        if not allreduce_world(
            world, comms, changed, operator.or_, category="other"
        )[0]:
            return labels
    raise RuntimeError(
        f"refinement propagation did not converge in {max_rounds} rounds"
    )


def _split_flags(
    world: World,
    comms: Sequence[Communicator],
    offsets: np.ndarray,
    communities: np.ndarray,
    labels: np.ndarray,
) -> np.ndarray:
    """Per vertex: does its community have more than one component?

    Component representatives (label == own vertex id, exactly one per
    component) report to their community's owner, who counts — one push
    of each rank's distinct communities with its count of each; every
    vertex then asks its community's owner for the count — one lookup
    of each rank's distinct communities.
    """
    p, n = len(comms), len(labels)
    rank_key = np.repeat(np.arange(p, dtype=np.int64) * n, np.diff(offsets))
    roots = np.flatnonzero(labels == np.arange(n))
    keys, per_key = np.unique(
        rank_key[roots] + communities[roots], return_counts=True
    )
    ncomp = np.zeros(n, dtype=np.int64)
    push_world(
        world, comms, keys % n, key_counts(offsets, keys, p),
        (per_key.astype(np.int64, copy=False),), (ncomp,), category="other",
    )
    asked = distinct_keys(p * n, rank_key + communities)
    lookup_world(
        world, comms, None, key_counts(offsets, asked, p), (ncomp,),
        category="other",
    )
    return ncomp[communities] > 1


def _labels_collide(
    world: World,
    comms: Sequence[Communicator],
    offsets: np.ndarray,
    refined: np.ndarray,
    original: np.ndarray,
) -> bool:
    """Do two different original communities claim one refined label?

    Each rank routes its distinct ``(refined label, original
    community)`` pairs to the label's owner (one alltoall of two int64
    per pair), who checks that every claim on a label names the same
    source community.  Replicated verdict via one ``lor`` allreduce.
    """
    p, n = len(comms), len(refined)
    counts = np.zeros((p, p), dtype=np.int64)
    for s, (a, b) in enumerate(zip(offsets[:-1], offsets[1:])):
        pairs = np.unique(refined[a:b] * n + original[a:b])
        counts[s] = np.diff(np.searchsorted(pairs, offsets * n))
    alltoall_counts_world(
        world, comms, counts, 2 * refined.itemsize, category="other"
    )
    claimed = np.unique(refined * n + original) // n
    clash = claimed[1:][claimed[1:] == claimed[:-1]]
    conflict = np.zeros(p, dtype=bool)
    conflict[np.searchsorted(offsets, clash, side="right") - 1] = True
    return bool(allreduce_world(
        world, comms, conflict.tolist(), operator.or_, category="other"
    )[0])
