"""(De)serialization of distributed-Louvain state for checkpointing.

A phase boundary is a natural consistency point: the coarsened per-rank
CSR slice plus the original-vertex -> meta-vertex mapping fully
determine the remaining computation (the per-phase ET RNG is re-derived
from ``(seed, rank, phase)``, so phase-boundary checkpoints need no RNG
state at all).  A mid-phase (iteration) checkpoint additionally carries
the live iteration state: community labels, the owner-side ``C_info``
arrays, the ET activity probabilities and RNG state, and the iteration
statistics accumulated so far.

The two halves are packed separately — :func:`pack_phase_state` for what
holds for a whole phase, :func:`pack_iteration_state` for what changes
inside it — because a delta checkpoint stores only the second; a loaded
checkpoint is always the two merged, which :func:`unpack_rank_state`
reads.

Everything numeric rides in the shard's arrays (bit-exact ``.npz``
round-trip); scalars and statistics ride in the JSON meta (Python's
``repr``-based float serialization round-trips exactly, so resumed runs
reproduce an uninterrupted run bit for bit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.result import IterationStats, PhaseStats
from ..graph.distgraph import DistGraph
from .checkpoint import ShardPayload


def _phases_to_json(phases: list[PhaseStats]) -> list[dict]:
    return [
        {
            "phase": p.phase,
            "tau": p.tau,
            "num_iterations": p.num_iterations,
            "modularity": p.modularity,
            "num_vertices": p.num_vertices,
            "num_edges": p.num_edges,
            "exited_by_inactive": p.exited_by_inactive,
            "ghost_fraction": p.ghost_fraction,
        }
        for p in phases
    ]


def _phases_from_json(raw: list[dict]) -> list[PhaseStats]:
    return [PhaseStats(**p) for p in raw]


def _iterations_to_json(iterations: list[IterationStats]) -> list[dict]:
    return [
        {
            "phase": s.phase,
            "iteration": s.iteration,
            "modularity": s.modularity,
            "moves": s.moves,
            "active_fraction": s.active_fraction,
            "inactive_fraction": s.inactive_fraction,
        }
        for s in iterations
    ]


def _iterations_from_json(raw: list[dict]) -> list[IterationStats]:
    return [IterationStats(**s) for s in raw]


@dataclass
class IterationState:
    """Live mid-phase state (present only in ``kind="iteration"``).

    Ghost copies are not stored: a resumed phase starts, like every
    phase, with the full ghost exchange of ``local_comm``.
    """

    iteration: int
    prev_q: float
    q: float
    stats: list[IterationStats]
    local_comm: np.ndarray
    tot_owned: np.ndarray
    size_owned: np.ndarray
    et_prob: np.ndarray | None
    et_inactive: np.ndarray | None
    et_rng_state: dict | None


@dataclass
class RestoredLouvainState:
    """Everything one rank needs to rejoin the phase loop."""

    kind: str
    phase: int
    dg: DistGraph
    orig_slice: np.ndarray
    prev_mod: float
    final_mod: float
    phases: list[PhaseStats]
    iterations: list[IterationStats]
    in_final_pass: bool
    clock: float
    seed_assignment: np.ndarray | None
    phase_assignments: list[np.ndarray] | None
    iteration_state: IterationState | None


def pack_phase_state(
    *,
    phase: int,
    dg: DistGraph,
    orig_slice: np.ndarray,
    prev_mod: float,
    final_mod: float,
    phases: list[PhaseStats],
    iterations: list[IterationStats],
    in_final_pass: bool,
    seed_assignment: np.ndarray | None = None,
    phase_assignments: list[np.ndarray] | None = None,
) -> ShardPayload:
    """One rank's (meta, arrays) that hold for the whole of ``phase``:
    the graph slice, the original-vertex map and the history up to the
    phase's start.  Only a full checkpoint stores them."""
    meta: dict[str, Any] = {
        "phase": phase,
        "rank": dg.rank,
        "total_weight": dg.total_weight,
        "prev_mod": prev_mod,
        "final_mod": final_mod,
        "in_final_pass": in_final_pass,
        "phases": _phases_to_json(phases),
        "iterations": _iterations_to_json(iterations),
    }
    arrays: dict[str, np.ndarray] = {
        "index": dg.index,
        "edges": dg.edges,
        "weights": dg.weights,
        "orig_slice": orig_slice,
        "offsets": dg.offsets,
    }
    if seed_assignment is not None:
        arrays["seed_assignment"] = np.asarray(seed_assignment, dtype=np.int64)
    if phase_assignments is not None:
        meta["num_phase_assignments"] = len(phase_assignments)
        for i, a in enumerate(phase_assignments):
            arrays[f"passign_{i:04d}"] = a
    return meta, arrays


def pack_iteration_state(
    *, kind: str, clock: float, state: IterationState | None = None
) -> ShardPayload:
    """One rank's (meta, arrays) that change from save to save inside a
    phase — all a delta checkpoint stores.  ``state`` is ``None`` at a
    phase boundary, where no iteration has run yet."""
    meta: dict[str, Any] = {"kind": kind, "clock": clock}
    arrays: dict[str, np.ndarray] = {}
    if state is not None:
        meta["iteration"] = state.iteration
        meta["prev_q"] = state.prev_q
        meta["q"] = state.q
        meta["phase_stats"] = _iterations_to_json(state.stats)
        arrays["local_comm"] = state.local_comm
        arrays["tot_owned"] = state.tot_owned
        arrays["size_owned"] = state.size_owned
        if state.et_prob is not None:
            arrays["et_prob"] = state.et_prob
            arrays["et_inactive"] = state.et_inactive
            meta["et_rng_state"] = state.et_rng_state
    return meta, arrays


def unpack_rank_state(
    rank: int, meta: dict[str, Any], arrays: dict[str, np.ndarray]
) -> RestoredLouvainState:
    """Rebuild a rank's phase-loop state from a checkpoint's payload
    (phase state and iteration state together, as ``load_shard`` hands
    them back for full and delta checkpoints alike)."""
    saved_rank = int(meta["rank"])
    if saved_rank != rank:
        raise ValueError(
            f"checkpoint shard belongs to rank {saved_rank}, loaded on "
            f"rank {rank}"
        )
    if "offsets" not in arrays:
        # Pre-key manifests skip the resume-config check, so a shard
        # written under the deleted option can reach this point.
        raise ValueError(
            "checkpoint uses the removed community-placed layout "
            "(no 'offsets' array); re-run without --resume"
        )
    dg = DistGraph(
        offsets=np.asarray(arrays["offsets"], dtype=np.int64),
        rank=rank,
        index=np.asarray(arrays["index"], dtype=np.int64),
        edges=np.asarray(arrays["edges"], dtype=np.int64),
        weights=np.asarray(arrays["weights"], dtype=np.float64),
        total_weight=float(meta["total_weight"]),
    )
    phase_assignments: list[np.ndarray] | None = None
    if "num_phase_assignments" in meta:
        phase_assignments = [
            np.asarray(arrays[f"passign_{i:04d}"], dtype=np.int64)
            for i in range(int(meta["num_phase_assignments"]))
        ]
    iteration_state: IterationState | None = None
    if meta["kind"] == "iteration":
        iteration_state = IterationState(
            iteration=int(meta["iteration"]),
            prev_q=float(meta["prev_q"]),
            q=float(meta["q"]),
            stats=_iterations_from_json(meta["phase_stats"]),
            local_comm=np.asarray(arrays["local_comm"], dtype=np.int64),
            tot_owned=np.asarray(arrays["tot_owned"], dtype=np.float64),
            size_owned=np.asarray(arrays["size_owned"], dtype=np.int64),
            et_prob=(
                np.asarray(arrays["et_prob"], dtype=np.float64)
                if "et_prob" in arrays
                else None
            ),
            et_inactive=(
                np.asarray(arrays["et_inactive"], dtype=bool)
                if "et_inactive" in arrays
                else None
            ),
            et_rng_state=meta.get("et_rng_state"),
        )
    return RestoredLouvainState(
        kind=str(meta["kind"]),
        phase=int(meta["phase"]),
        dg=dg,
        orig_slice=np.asarray(arrays["orig_slice"], dtype=np.int64),
        prev_mod=float(meta["prev_mod"]),
        final_mod=float(meta["final_mod"]),
        phases=_phases_from_json(meta["phases"]),
        iterations=_iterations_from_json(meta["iterations"]),
        in_final_pass=bool(meta["in_final_pass"]),
        clock=float(meta["clock"]),
        seed_assignment=(
            np.asarray(arrays["seed_assignment"], dtype=np.int64)
            if "seed_assignment" in arrays
            else None
        ),
        phase_assignments=phase_assignments,
        iteration_state=iteration_state,
    )
