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

SPMD: call from every rank.  The propagation trip count is
data-dependent but replicated (one ``lor`` allreduce per round), the
same schedule-safe shape as the component kernel.
"""

from __future__ import annotations

import numpy as np

from ..graph.distgraph import DistGraph, GhostPlan
from ..runtime.comm import Communicator
from .coarsen import remote_lookup

__all__ = ["refine_communities"]


def _component_labels(
    comm: Communicator,
    dg: DistGraph,
    plan: GhostPlan,
    local_comm: np.ndarray,
    ghost_comm: np.ndarray,
    max_rounds: int,
) -> np.ndarray:
    """Min vertex id of each owned vertex's (community, component)."""
    ctargets = dg.compressed_targets()
    rows = dg.local_rows()
    labels = dg.local_vertex_ids().copy()

    for _ in range(max_rounds):
        ghost_labels = dg.exchange_ghost_values(
            comm,
            plan,
            labels,
            category="other",
        )
        target_labels = np.concatenate([labels, ghost_labels])[ctargets]
        # The community constraint: only same-community edges carry
        # labels, so propagation never crosses a community wall.
        comm_both = np.concatenate([local_comm, ghost_comm])
        same = comm_both[ctargets] == local_comm[rows]
        new_labels = labels.copy()
        np.minimum.at(new_labels, rows[same], target_labels[same])
        comm.charge_compute(dg.num_local_entries)
        changed = bool(np.any(new_labels != labels))
        labels = new_labels
        if not comm.allreduce(changed, op="lor", category="other"):
            return labels
    raise RuntimeError(
        f"refinement propagation did not converge in {max_rounds} rounds"
    )


def _split_flags(
    comm: Communicator,
    dg: DistGraph,
    local_comm: np.ndarray,
    labels: np.ndarray,
) -> np.ndarray:
    """Per owned vertex: does its community have more than one component?

    Component representatives (label == own vertex id, exactly one per
    component) report to their community's owner, who counts; every
    vertex then asks its community's owner for the count.  Two
    owner-routed exchanges, both unconditional.
    """
    roots = labels == dg.local_vertex_ids()
    root_comms, root_counts = np.unique(
        local_comm[roots], return_counts=True
    )
    ncomp = np.zeros(dg.num_local, dtype=np.int64)
    comm.push(
        root_comms, dg.cuts(root_comms), (root_counts,), (ncomp,),
        category="other",
    )
    counts = remote_lookup(
        comm, dg.offsets, local_comm, ncomp, category="other"
    )
    return counts > 1


def _labels_collide(
    comm: Communicator,
    dg: DistGraph,
    refined: np.ndarray,
    original: np.ndarray,
) -> bool:
    """Do two different original communities claim one refined label?

    Each rank routes its distinct ``(refined label, original community)``
    pairs — ascending by label, so cut by owner — to the label's owner,
    who checks that every claim on a label names the same source
    community.  Replicated verdict via one ``lor`` allreduce.
    """
    pairs = np.unique(np.stack([refined, original], axis=1), axis=0)
    lab, orig = pairs[:, 0], pairs[:, 1]
    cuts = dg.cuts(lab)
    received = comm.alltoall(
        [(lab[a:b], orig[a:b]) for a, b in zip(cuts[:-1], cuts[1:])],
        category="other",
    )
    all_lab = np.concatenate([rl for rl, _ in received])
    all_orig = np.concatenate([ro for _, ro in received])
    conflict = False
    if len(all_lab):
        order = np.lexsort((all_orig, all_lab))
        sl, so = all_lab[order], all_orig[order]
        dup = sl[1:] == sl[:-1]
        conflict = bool(np.any(dup & (so[1:] != so[:-1])))
    return bool(comm.allreduce(conflict, op="lor", category="other"))


def refine_communities(
    comm: Communicator,
    dg: DistGraph,
    local_comm: np.ndarray,
    ghost_comm: np.ndarray,
    *,
    max_rounds: int = 10_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Split every internally disconnected community into components.

    ``local_comm`` holds the community of each owned vertex and
    ``ghost_comm`` the communities of this rank's ghosts (aligned with
    ``dg.build_ghost_plan(comm)``), exactly as a Louvain phase leaves
    them.  Returns ``(refined_local, refined_ghost)`` in the same
    layout.  Communities that are already connected keep their id
    untouched; each component of a disconnected community becomes its
    own community labelled by its minimum member id (or, on the rare
    label clash the module docstring describes, every community is
    canonically relabelled to its minimum member).
    """
    if len(local_comm) != dg.num_local:
        raise ValueError(
            f"local_comm covers {len(local_comm)} vertices, rank owns "
            f"{dg.num_local}"
        )
    plan = dg.build_ghost_plan(comm)
    labels = _component_labels(
        comm,
        dg,
        plan,
        local_comm,
        ghost_comm,
        max_rounds,
    )
    split = _split_flags(comm, dg, local_comm, labels)
    refined = np.where(split, labels, local_comm)
    if _labels_collide(comm, dg, refined, local_comm):
        refined = labels
    refined_ghost = dg.exchange_ghost_values(
        comm,
        plan,
        refined,
        category="other",
    )
    return refined, refined_ghost
