"""Result containers: per-iteration/per-phase statistics and final output.

Figures 5 and 6 of the paper plot modularity growth and iterations per
phase; :class:`LouvainResult` keeps exactly the series needed to redraw
them, alongside the final community assignment and modelled timings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..runtime.tracing import TraceReport


@dataclass(frozen=True)
class IterationStats:
    """One Louvain iteration within a phase (one row of Fig. 5a/6a)."""

    phase: int
    iteration: int
    modularity: float
    moves: int
    active_fraction: float
    inactive_fraction: float


@dataclass(frozen=True)
class PhaseStats:
    """One Louvain phase (graph level) — one point of Fig. 5b/6b.

    A distributed run's records do not depend on where a phase ran: a
    phase of the tail gathered to rank 0 (``core/tail.py``) reports what
    the run's p ranks would have, ``ghost_fraction`` included.
    """

    phase: int
    tau: float
    num_iterations: int
    modularity: float
    num_vertices: int
    #: Stored adjacency entries // 2 (a self loop is stored once).
    num_edges: int
    exited_by_inactive: bool = False  # ETC's 90%-inactive exit fired
    #: Achieved cross-rank stored-entry fraction of the graph this phase
    #: ran on, under the run's p-rank layout — for a gathered phase, the
    #: p-rank even-vertex layout the rebuild would have spread it over
    #: (distributed runs; -1.0 when not measured, e.g. serial runs or
    #: pre-existing checkpoints).
    ghost_fraction: float = -1.0


@dataclass
class LouvainResult:
    """Outcome of a full (multi-phase) Louvain run.

    ``assignment`` maps every *original* vertex to its final community,
    with community ids renumbered contiguously from 0.
    """

    modularity: float
    assignment: np.ndarray
    phases: list[PhaseStats] = field(default_factory=list)
    iterations: list[IterationStats] = field(default_factory=list)
    #: Modelled execution time in seconds (distributed runs only).
    elapsed: float = 0.0
    #: Trace breakdown (distributed runs only).
    trace: TraceReport | None = None
    #: Per-phase assignments of original vertices (when tracking is on).
    phase_assignments: list[np.ndarray] | None = None

    def copy(self) -> "LouvainResult":
        """An independent result: own arrays, own stats lists (their
        records are frozen, so they are shared) and own trace counters.
        Mutating the copy leaves the original as it was."""
        return replace(
            self,
            assignment=self.assignment.copy(),
            phases=list(self.phases),
            iterations=list(self.iterations),
            trace=None if self.trace is None else self.trace.copy(),
            phase_assignments=(
                None
                if self.phase_assignments is None
                else [a.copy() for a in self.phase_assignments]
            ),
        )

    @property
    def num_phases(self) -> int:
        return len(self.phases)

    @property
    def total_iterations(self) -> int:
        return sum(p.num_iterations for p in self.phases)

    @property
    def num_communities(self) -> int:
        return int(self.assignment.max()) + 1 if len(self.assignment) else 0

    def community_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.num_communities)

    def modularity_by_iteration(self) -> list[tuple[int, float]]:
        """Cumulative iteration index -> modularity (Fig. 5a/6a series)."""
        return [
            (i, it.modularity) for i, it in enumerate(self.iterations)
        ]

    def iterations_per_phase(self) -> list[tuple[int, int]]:
        """Phase -> iteration count (Fig. 5b/6b series)."""
        return [(p.phase, p.num_iterations) for p in self.phases]

    def summary(self) -> str:
        return (
            f"Q={self.modularity:.5f} communities={self.num_communities} "
            f"phases={self.num_phases} iterations={self.total_iterations} "
            f"elapsed={self.elapsed:.4f}s"
        )


def normalize_assignment(raw: np.ndarray) -> np.ndarray:
    """Renumber arbitrary community ids to 0..k-1 (order-preserving)."""
    _, dense = np.unique(raw, return_inverse=True)
    return dense.astype(np.int64)
