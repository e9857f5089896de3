"""Invariant auditing for distributed Louvain state.

The distributed algorithm maintains replicated/partitioned state whose
consistency is easy to silently break (lagged C_info, stale ghosts,
renumbering bugs).  ``LouvainConfig.validate_invariants`` runs three
audits where every phase closes, as one world step
(:func:`audit_world`) over the world's labels and owner tables:

* **C_info consistency** — every owner's ``a_c``/size must equal the
  values recomputed from the actual vertex assignments;
* **partition sanity** — sizes sum to ``|V|``, weights sum to ``W``;
* **ghost coherence** — every rank's ghost copy matches the owner's
  current value.

Each audit prices what every rank would exchange for it as the rank
makes it, collects every rank's findings in an :class:`AuditReport`
and merges them with one allgather; a failed audit raises
``AssertionError`` naming what disagrees.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..graph.distgraph import DistGraph, GhostPlan, key_counts
from ..runtime.comm import (
    Communicator, World, allgather_world, allreduce_world, cut_counts,
    lookup_world, push_world,
)

#: Relative slack of the C_info audit's a_c comparison.
TOLERANCE = 1e-6


@dataclass
class AuditReport:
    """Outcome of a distributed state audit: one rank's findings, or the
    world's once merged."""

    ok: bool = True
    failures: list[str] = field(default_factory=list)

    def record(self, condition: bool, message: str) -> None:
        if not condition:
            self.ok = False
            self.failures.append(message)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise AssertionError(
                "distributed state audit failed:\n  "
                + "\n  ".join(self.failures)
            )


def audit_world(
    world: World,
    comms: Sequence[Communicator],
    graphs: Sequence[DistGraph],
    plans: Sequence[GhostPlan],
    labels: np.ndarray,
    tot: np.ndarray,
    size: np.ndarray,
    ghosts: Sequence[np.ndarray],
) -> None:
    """The three audits for every rank, in order: ``labels`` / ``tot`` /
    ``size`` are every vertex's community and every community's
    maintained ``a_c`` / size, by global id; ``ghosts[r]`` is rank
    ``r``'s copy of its ghosts' communities, aligned with
    ``plans[r].ghost_ids``.  Every op is category ``other``.  Raises
    ``AssertionError`` at the first audit that fails (a label outside
    the vertex space, which no owner holds, before any op)."""
    n = len(labels)
    bad = np.flatnonzero((labels < 0) | (labels >= n))
    if len(bad):
        ranks = np.unique(np.searchsorted(graphs[0].offsets, bad, "right") - 1)
        AuditReport(False, [
            f"rank {r}: community ids outside [0, {n})" for r in ranks
        ]).raise_if_failed()
    for audit in (
        lambda: audit_community_info(world, comms, graphs, labels, tot, size),
        lambda: audit_partition(world, comms, graphs),
        lambda: audit_ghost_coherence(world, comms, plans, labels, ghosts),
    ):
        _merged(world, comms, audit()).raise_if_failed()


def _merged(
    world: World, comms: Sequence[Communicator], reports: list[AuditReport]
) -> AuditReport:
    """Every rank's findings combined (one allgather of the failure
    lists)."""
    gathered = allgather_world(
        world, comms, [r.failures for r in reports], category="other"
    )[0]
    merged = [f for sub in gathered for f in sub]
    return AuditReport(ok=not merged, failures=merged)


def audit_community_info(
    world: World,
    comms: Sequence[Communicator],
    graphs: Sequence[DistGraph],
    labels: np.ndarray,
    tot: np.ndarray,
    size: np.ndarray,
) -> list[AuditReport]:
    """Owner-side C_info against ground truth: each rank sums the degrees
    of its vertices per community and pushes the partials to the
    community owners, who compare them with their maintained arrays.
    Returns every rank's findings, as its owner would report them."""
    offsets = graphs[0].offsets
    p, n = len(graphs), len(labels)
    keys, at = np.unique(
        np.repeat(np.arange(p, dtype=np.int64) * n, np.diff(offsets))
        + labels,
        return_inverse=True,
    )
    k = np.concatenate([dg.local_degrees() for dg in graphs])
    true_tot = np.zeros(n)
    true_size = np.zeros(n, dtype=np.int64)
    push_world(
        world, comms, keys % n, key_counts(offsets, keys, p),
        (np.bincount(at, weights=k, minlength=len(keys)),
         np.bincount(at, minlength=len(keys))),
        (true_tot, true_size), category="other",
    )
    bad_tot = np.flatnonzero(
        np.abs(true_tot - tot) > TOLERANCE * (1 + np.abs(true_tot))
    )
    bad_size = np.flatnonzero(true_size != size)
    reports = []
    for r, (a, b) in enumerate(zip(offsets[:-1], offsets[1:])):
        report = AuditReport()
        for c in bad_tot[(bad_tot >= a) & (bad_tot < b)][:5]:
            report.record(
                False,
                f"rank {r}: a_c mismatch for community {int(c)}: "
                f"maintained {tot[c]}, actual {true_tot[c]}",
            )
        for c in bad_size[(bad_size >= a) & (bad_size < b)][:5]:
            report.record(
                False,
                f"rank {r}: size mismatch for community {int(c)}: "
                f"maintained {size[c]}, actual {true_size[c]}",
            )
        reports.append(report)
    return reports


def audit_partition(
    world: World, comms: Sequence[Communicator], graphs: Sequence[DistGraph]
) -> list[AuditReport]:
    """Global partition sanity: the ranks' vertices cover the vertex set
    and their weights sum to the replicated total (two allreduces)."""
    dg = graphs[0]
    n_global = dg.num_global_vertices
    total_vertices = allreduce_world(
        world, comms, [g.num_local for g in graphs], category="other"
    )[0]
    total_weight = allreduce_world(
        world, comms, [float(g.weights.sum()) for g in graphs],
        category="other",
    )[0]
    report = AuditReport()
    report.record(
        total_vertices == n_global,
        f"vertex coverage {total_vertices} != {n_global}",
    )
    report.record(
        abs(total_weight - dg.total_weight)
        <= 1e-9 * max(1.0, dg.total_weight),
        f"weight drift: stored {dg.total_weight}, actual {total_weight}",
    )
    return [AuditReport(report.ok, list(report.failures)) for _ in graphs]


def audit_ghost_coherence(
    world: World,
    comms: Sequence[Communicator],
    plans: Sequence[GhostPlan],
    labels: np.ndarray,
    ghosts: Sequence[np.ndarray],
) -> list[AuditReport]:
    """Every ghost copy must equal the owner's current value.  Whether a
    copy is misaligned with its plan is decided collectively (one ``lor``
    allreduce), so every rank skips the owners' lookup together."""
    misaligned = [len(g) != plan.num_ghosts for g, plan in zip(ghosts, plans)]
    reports = [AuditReport() for _ in plans]
    if allreduce_world(
        world, comms, misaligned, operator.or_, category="other"
    )[0]:
        for r, (report, g, plan) in enumerate(zip(reports, ghosts, plans)):
            report.record(
                not misaligned[r],
                f"rank {r}: ghost array misaligned "
                f"({len(g)} entries for {plan.num_ghosts} ghosts)",
            )
        return reports
    lookup_world(
        world, comms, None, cut_counts([plan.ghost_cuts for plan in plans]),
        (labels,), category="other",
    )
    for r, (report, g, plan) in enumerate(zip(reports, ghosts, plans)):
        truth = labels[plan.ghost_ids]
        for i in np.flatnonzero(truth != g)[:5]:
            report.record(
                False,
                f"rank {r}: ghost {plan.ghost_ids[i]} holds "
                f"{g[i]}, owner says {truth[i]}",
            )
    return reports
