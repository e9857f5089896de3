"""(De)serialization of distributed-Louvain state for checkpointing.

A phase boundary is a natural consistency point: the coarsened per-rank
CSR slice plus the original-vertex -> meta-vertex mapping fully
determine the remaining computation (the per-phase ET RNG is re-derived
from ``(seed, rank, phase)``, so phase-boundary checkpoints need no RNG
state at all).  A mid-phase (iteration) checkpoint additionally carries
the live iteration state: community labels, the owner-side ``C_info``
arrays, the ET activity probabilities and RNG state, and the iteration
statistics accumulated so far.

The state itself is defined once, in :mod:`repro.core.state`, and is
the very object the loops work on; this module only gives each field
its place in a shard.  The two classes are packed separately —
:func:`pack_phase_state` writes the :class:`~repro.core.state.RunState`,
which holds for a whole phase, :func:`pack_iteration_state` the
:class:`~repro.core.state.IterationState`, which changes inside it —
because a delta checkpoint stores only the second; a loaded checkpoint
is always the two merged, which :func:`unpack_rank_state` turns back
into the objects.

Everything numeric rides in the shard's arrays (bit-exact ``.npz``
round-trip); scalars and statistics ride in the JSON meta (Python's
``repr``-based float serialization round-trips exactly, so resumed runs
reproduce an uninterrupted run bit for bit).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.config import LouvainConfig
from ..core.heuristics import EarlyTermination, make_rank_rng
from ..core.result import IterationStats, PhaseStats
from ..core.state import IterationState, RunState
from ..graph.distgraph import DistGraph
from .checkpoint import ShardPayload


def _stats_to_json(stats: list[PhaseStats] | list[IterationStats]) -> list[dict]:
    """One dict per record, keys in field order (``_stats_from_json``
    hands them back to the constructor, so a new stats field needs no
    line here)."""
    return [dict(vars(s)) for s in stats]


def _stats_from_json(cls, raw: list[dict]) -> list:
    return [cls(**s) for s in raw]


def pack_phase_state(run: RunState) -> ShardPayload:
    """One rank's (meta, arrays) that hold for the whole of phase
    ``run.phase``: the graph slice, the original-vertex map and the
    history up to the phase's start.  Only a full checkpoint stores
    them."""
    dg = run.dg
    meta: dict[str, Any] = {
        "phase": run.phase,
        "rank": dg.rank,
        "total_weight": dg.total_weight,
        "prev_mod": run.prev_mod,
        "final_mod": run.final_mod,
        "in_final_pass": run.in_final_pass,
        "phases": _stats_to_json(run.phases),
        "iterations": _stats_to_json(run.iterations),
    }
    arrays: dict[str, np.ndarray] = {
        "index": dg.index,
        "edges": dg.edges,
        "weights": dg.weights,
        "orig_slice": run.orig_slice,
        "offsets": dg.offsets,
    }
    if run.seed_assignment is not None:
        arrays["seed_assignment"] = np.asarray(
            run.seed_assignment, dtype=np.int64
        )
    if run.phase_assignments is not None:
        meta["num_phase_assignments"] = len(run.phase_assignments)
        for i, a in enumerate(run.phase_assignments):
            arrays[f"passign_{i:04d}"] = a
    return meta, arrays


def pack_iteration_state(
    clock: float, state: IterationState | None = None
) -> ShardPayload:
    """One rank's (meta, arrays) that change from save to save inside a
    phase — all a delta checkpoint stores: the rank's modelled
    ``clock`` and the iteration ``state`` (``None`` at a phase boundary,
    where no iteration has run yet)."""
    meta: dict[str, Any] = {
        "kind": "phase" if state is None else "iteration",
        "clock": clock,
    }
    arrays: dict[str, np.ndarray] = {}
    if state is not None:
        meta["iteration"] = state.iteration
        meta["prev_q"] = state.prev_q
        meta["q"] = state.q
        meta["phase_stats"] = _stats_to_json(state.stats)
        arrays["local_comm"] = state.local_comm
        arrays["tot_owned"] = state.tot_owned
        arrays["size_owned"] = state.size_owned
        if state.et is not None:
            arrays["et_prob"] = state.et.prob
            arrays["et_inactive"] = state.et.permanently_inactive
            meta["et_rng_state"] = state.et.rng.bit_generator.state
    return meta, arrays


def unpack_rank_state(
    rank: int,
    meta: dict[str, Any],
    arrays: dict[str, np.ndarray],
    config: LouvainConfig,
) -> tuple[RunState, IterationState | None, float]:
    """The state a checkpoint's payload holds (phase state and iteration
    state together, as ``load_shard`` hands them back for full and delta
    checkpoints alike): ``(run, iteration state, clock)``, the second
    ``None`` for a phase-boundary checkpoint.  ``config`` is the
    resuming run's — ET's constants come from it, as in a fresh phase."""
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
    run = RunState(
        dg=DistGraph(
            offsets=np.asarray(arrays["offsets"], dtype=np.int64),
            rank=rank,
            index=np.asarray(arrays["index"], dtype=np.int64),
            edges=np.asarray(arrays["edges"], dtype=np.int64),
            weights=np.asarray(arrays["weights"], dtype=np.float64),
            total_weight=float(meta["total_weight"]),
        ),
        orig_slice=np.asarray(arrays["orig_slice"], dtype=np.int64),
        phase=int(meta["phase"]),
        prev_mod=float(meta["prev_mod"]),
        final_mod=float(meta["final_mod"]),
        phases=_stats_from_json(PhaseStats, meta["phases"]),
        iterations=_stats_from_json(IterationStats, meta["iterations"]),
        in_final_pass=bool(meta["in_final_pass"]),
    )
    if "seed_assignment" in arrays:
        run.seed_assignment = np.asarray(
            arrays["seed_assignment"], dtype=np.int64
        )
    if "num_phase_assignments" in meta:
        run.phase_assignments = [
            np.asarray(arrays[f"passign_{i:04d}"], dtype=np.int64)
            for i in range(int(meta["num_phase_assignments"]))
        ]
    state: IterationState | None = None
    if meta["kind"] == "iteration":
        state = IterationState(
            local_comm=np.asarray(arrays["local_comm"], dtype=np.int64),
            tot_owned=np.asarray(arrays["tot_owned"], dtype=np.float64),
            size_owned=np.asarray(arrays["size_owned"], dtype=np.int64),
            iteration=int(meta["iteration"]),
            prev_q=float(meta["prev_q"]),
            q=float(meta["q"]),
            stats=_stats_from_json(IterationStats, meta["phase_stats"]),
        )
        if "et_prob" in arrays:
            et = EarlyTermination(
                run.dg.num_local,
                config,
                make_rank_rng(config.seed, rank, run.phase),
            )
            et.prob = np.asarray(arrays["et_prob"], dtype=np.float64)
            et.permanently_inactive = np.asarray(
                arrays["et_inactive"], dtype=bool
            )
            et.rng.bit_generator.state = meta["et_rng_state"]
            state.et = et
    return run, state, float(meta["clock"])
