"""Invariant auditing for distributed Louvain state.

The distributed algorithm maintains replicated/partitioned state whose
consistency is easy to silently break (lagged C_info, stale ghosts,
renumbering bugs).  This module provides SPMD audits used by tests and
by the ``audit_distributed_state`` debugging entry point:

* **C_info consistency** — every owner's ``a_c``/size must equal the
  values recomputed from the actual vertex assignments;
* **partition sanity** — assignments reference alive communities only,
  sizes sum to ``|V|``, weights sum to ``W``;
* **ghost coherence** — after an exchange, every ghost copy matches the
  owner's current value.

All audits are collective (every rank must call them) and return a
:class:`AuditReport` replicated on every rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.distgraph import DistGraph
from ..runtime.comm import Communicator
from .coarsen import remote_lookup


@dataclass
class AuditReport:
    """Outcome of a distributed state audit (replicated on all ranks)."""

    ok: bool = True
    failures: list[str] = field(default_factory=list)

    def record(self, condition: bool, message: str) -> None:
        if not condition:
            self.ok = False
            self.failures.append(message)

    def merge_global(self, comm: Communicator) -> "AuditReport":
        """Combine every rank's findings (allgather of failure lists)."""
        all_failures = comm.allgather(self.failures, category="other")
        merged = [f for sub in all_failures for f in sub]
        return AuditReport(ok=not merged, failures=merged)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise AssertionError(
                "distributed state audit failed:\n  "
                + "\n  ".join(self.failures)
            )


def audit_community_info(
    comm: Communicator,
    dg: DistGraph,
    local_comm: np.ndarray,
    tot_owned: np.ndarray,
    size_owned: np.ndarray,
    tolerance: float = 1e-6,
) -> AuditReport:
    """Verify owner-side C_info against ground truth.

    Recomputes every community's ``a_c`` (sum of member degrees) and
    size from the actual assignments: each rank aggregates the degrees
    of its *vertices* per community and routes the partials to the
    community owners, who compare with their maintained arrays.
    """
    report = AuditReport()
    k = dg.local_degrees()
    uniq, inv = np.unique(local_comm, return_inverse=True)
    part_tot = np.zeros(len(uniq))
    part_size = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(part_tot, inv, k)
    np.add.at(part_size, inv, 1)

    true_tot = np.zeros(dg.num_local)
    true_size = np.zeros(dg.num_local, dtype=np.int64)
    comm.push(
        uniq, dg.cuts(uniq), (part_tot, part_size), (true_tot, true_size),
        category="other",
    )

    bad_tot = np.flatnonzero(
        np.abs(true_tot - tot_owned) > tolerance * (1 + np.abs(true_tot))
    )
    for c in bad_tot[:5]:
        report.record(
            False,
            f"rank {comm.rank}: a_c mismatch for community "
            f"{int(dg.from_local(int(c)))}: "
            f"maintained {tot_owned[c]}, actual {true_tot[c]}",
        )
    bad_size = np.flatnonzero(true_size != size_owned)
    for c in bad_size[:5]:
        report.record(
            False,
            f"rank {comm.rank}: size mismatch for community "
            f"{int(dg.from_local(int(c)))}: "
            f"maintained {size_owned[c]}, actual {true_size[c]}",
        )
    return report.merge_global(comm)


def audit_partition(
    comm: Communicator,
    dg: DistGraph,
    local_comm: np.ndarray,
) -> AuditReport:
    """Global partition sanity: coverage, label validity, weight."""
    report = AuditReport()
    n_global = dg.num_global_vertices
    report.record(
        len(local_comm) == dg.num_local,
        f"rank {comm.rank}: assignment length {len(local_comm)} != "
        f"{dg.num_local} owned vertices",
    )
    if len(local_comm):
        report.record(
            bool((local_comm >= 0).all() and (local_comm < n_global).all()),
            f"rank {comm.rank}: community ids outside [0, {n_global})",
        )
    total_vertices = comm.allreduce(dg.num_local, category="other")
    report.record(
        total_vertices == n_global,
        f"vertex coverage {total_vertices} != {n_global}",
    )
    total_weight = comm.allreduce(
        float(dg.weights.sum()), category="other"
    )
    report.record(
        abs(total_weight - dg.total_weight)
        <= 1e-9 * max(1.0, dg.total_weight),
        f"weight drift: stored {dg.total_weight}, actual {total_weight}",
    )
    return report.merge_global(comm)


def audit_ghost_coherence(
    comm: Communicator,
    dg: DistGraph,
    local_comm: np.ndarray,
    ghost_comm: np.ndarray,
) -> AuditReport:
    """Every ghost copy must equal the owner's current value."""
    report = AuditReport()
    plan = dg.build_ghost_plan(comm)
    # The alignment check must be decided collectively: an early return
    # taken by the misaligned rank alone would skip the remote_lookup
    # collectives the healthy ranks are about to enter (schedule
    # divergence -> deadlock on real MPI).
    misaligned = len(ghost_comm) != plan.num_ghosts
    if comm.allreduce(misaligned, op="lor", category="other"):
        report.record(
            not misaligned,
            f"rank {comm.rank}: ghost array misaligned "
            f"({len(ghost_comm)} entries for {plan.num_ghosts} ghosts)",
        )
        return report.merge_global(comm)
    truth = remote_lookup(
        comm, dg.offsets, plan.ghost_ids, local_comm, category="other"
    )
    bad = np.flatnonzero(truth != ghost_comm)
    for g in bad[:5]:
        report.record(
            False,
            f"rank {comm.rank}: ghost {plan.ghost_ids[g]} holds "
            f"{ghost_comm[g]}, owner says {truth[g]}",
        )
    return report.merge_global(comm)
