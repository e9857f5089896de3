"""Analytic pre-screening cost model for tuning candidates.

Running a measured trial for every point of the search space would cost
hundreds of simulated detections; the tuner instead *ranks* candidates
with a closed-form estimate built from the same
:class:`~repro.runtime.perfmodel.MachineModel` cost primitives the
simulator charges, then measures only the most promising few.

The model mirrors the per-iteration structure of Algorithm 3 — what
leaves at each synchronisation point is one message per peer:

* local ΔQ sweep over the rank's adjacency entries (``compute``);
* community-info exchange — the three alltoallv legs of a sweep round,
  each priced by what it carries: ids out, ``(a_c, |c|)`` back, and
  after the sweep the deltas of the changed share to the owners with
  the changed ghost labels in the same message (``community_comm``);
* the iteration's one allreduce — modularity partials and the move,
  activity and inactive counters, the same vector on every variant
  (``allreduce``);
* once per phase, the ghost plan and the full exchange of the ghost
  vertices' starting communities (``ghost_comm``);

plus per-phase graph reconstruction and one-time ingest.  Variant
effects enter as *work multipliers*: ET deactivates vertices (stronger
on skewed graphs, Table I), threshold cycling truncates early phases
(Fig. 2), ETC exits phases at its inactive fraction.

The absolute numbers only need to be plausible — the measured
successive-halving stage corrects them — but the *ordering* they induce
decides which candidates get measured at all, so the model must rank
e.g. ET-vs-Baseline the same way the simulator does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..core.config import LouvainConfig
from ..runtime.perfmodel import MachineModel
from .features import GraphFeatures
from .space import Candidate

#: Bytes per shipped ghost community entry (vertex id + community id).
_GHOST_ENTRY_BYTES = 16
#: Bytes per edge moved during distributed graph reconstruction.
_REBUILD_ENTRY_BYTES = 24
#: Bytes per edge of the on-disk binary input.
_INPUT_ENTRY_BYTES = 20
#: Per-phase shrink factor of the coarsened graph (empirically the
#: rebuilt graph keeps ~20-30% of the previous phase's edges).
_PHASE_SHRINK = 0.25
#: Iterations of a phase relative to the one before it: the coarsened
#: graph starts closer to its optimum (on the four benchmark workloads
#: phases run 17-22, 5-15, 2-6, 2-5 iterations), down to the two any
#: phase needs to see that nothing moves.
_ITERATION_DECAY = 0.5
_MIN_ITERATIONS = 2.0
#: Share of a round's records that changed (unmoved vertices and
#: untouched communities ship nothing).
_DELTA_PAYLOAD_FACTOR = 0.45
#: Bytes per referenced community on each leg of a sweep round: the
#: request ships ids, the reply (a_c, |c|) pairs, the closing leg the
#: (id, da_c, d|c|) records and the ghost labels of the share that
#: changed, one message per peer.
_COMMUNITY_LEG_BYTES = (
    8.0, 16.0, (24.0 + _GHOST_ENTRY_BYTES) * _DELTA_PAYLOAD_FACTOR
)
#: Per-color-class sweep-round overhead of coloring-ordered sweeps.
#: Coloring buys modularity (independent sets move on fresh neighbour
#: state), never time: every iteration runs one synchronised sweep
#: round per color class, each paying its own scan/bookkeeping pass and
#: its own community legs.  The measured simulator shows colored
#: runs 1.5-4x slower even at one rank, so the model must rank coloring
#: as strictly more expensive everywhere.  That is why coloring is not a
#: search axis: it is priced only when the caller's base config asks
#: for it, and then every candidate carries it.
_COLORING_ROUND_OVERHEAD = 0.25
#: Modelled propagation rounds of one Leiden refinement pass (min-label
#: propagation converges in the intra-community diameter, small for the
#: dense communities Louvain forms).
_REFINE_ROUNDS = 4.0


@dataclass(frozen=True)
class CostEstimate:
    """Predicted modelled runtime of one candidate, with a breakdown."""

    seconds: float
    breakdown: Mapping[str, float]

    def format(self) -> str:
        parts = " ".join(
            f"{k}={v:.4f}" for k, v in sorted(self.breakdown.items())
        )
        return f"{self.seconds:.4f}s ({parts})"


def _iterations_per_phase(features: GraphFeatures) -> float:
    """Baseline iteration count of the first phase: grows slowly with
    size (later phases: ``_ITERATION_DECAY``)."""
    import math

    return 11.0 + 2.0 * math.log10(features.num_vertices + 10.0)


def _phase_count(features: GraphFeatures) -> int:
    import math

    return max(3, int(round(2.0 + math.log10(features.num_vertices + 10.0))))


def _variant_factors(
    config: LouvainConfig, features: GraphFeatures
) -> tuple[float, float]:
    """(compute work multiplier, iteration-count multiplier).

    ET work scales with ``(1 + alpha) / 2`` — small alpha retires
    vertices aggressively — and pays off more on skewed degree
    distributions, where a few hubs dominate the sweep (§IV-B, Table I).
    TC truncates early phases; its saving grows with how coarse the
    cycle's thresholds are relative to the final tau.  ETC's exit cuts
    iterations in proportion to how early it pulls the trigger.
    """
    import math

    work = 1.0
    iters = 1.0
    variant = config.variant
    if variant.uses_early_termination:
        work *= 0.55 + 0.35 * config.alpha
        # Skew bonus: hubs deactivate late, leaves early.
        work *= 1.0 - 0.10 * min(features.degree_cv, 2.0)
    if variant.uses_threshold_cycling:
        exps = [
            -math.log10(t) * c for t, c in config.threshold_cycle
        ]
        total = sum(c for _, c in config.threshold_cycle)
        mean_exp = sum(exps) / max(total, 1)
        final_exp = -math.log10(config.min_cycle_tau)
        # Coarser mean threshold (smaller exponent) -> fewer iterations.
        iters *= 0.65 + 0.30 * min(mean_exp / max(final_exp, 1.0), 1.0)
    if variant.uses_inactive_exit:
        iters *= 0.55 + 0.45 * config.etc_exit_fraction
    return work, iters


def _rebuild_cost(machine: MachineModel, entries: float, p: int) -> float:
    """One §IV-A(b) reconstruction of a graph of ``entries`` per rank:
    the translation pass, five exchanges (notification-and-request,
    reply, meta edges, the projection's request and reply) and the
    alive-count allgather.  Only the meta edges carry volume: the
    partial lists are pre-summed, so about the next phase's entries
    move (none of them, on a single rank)."""
    moved = (
        int(entries * _PHASE_SHRINK * _REBUILD_ENTRY_BYTES) if p > 1 else 0
    )
    return (
        machine.compute_cost(entries)
        + machine.alltoallv_cost(moved, moved, p, rank=0)
        + 4.0 * machine.alltoallv_cost(0, 0, p, rank=0)
        + machine.allgather_cost(8, p)
    )


def predict_cost(
    features: GraphFeatures,
    candidate: Candidate,
    machine: MachineModel,
) -> CostEstimate:
    """Closed-form modelled-seconds estimate for one candidate."""
    config, p = candidate.config, candidate.ranks
    nnz = max(features.mean_degree * features.num_vertices, 1.0)
    # Input-sized entries: the on-disk read and VF's pre-coarsening see
    # the graph as ingested, before any merging shrinks it.
    input_entries_per_rank = nnz / p
    entries_per_rank = input_entries_per_rank
    gf = features.ghost_fraction_at(p)
    work_factor, iter_factor = _variant_factors(config, features)
    first_iters = _iterations_per_phase(features) * iter_factor
    phases = _phase_count(features)

    # Vertex following merges the degree-one population away before
    # phase 0: each merged leaf removes one vertex and its two stored
    # entries, shrinking every phase's sweep and comm volume.  The
    # one-time pre-coarsening is charged below as an extra rebuild.
    vertex_following = config.vertex_following
    if vertex_following:
        leaf = min(features.degree_one_fraction, 0.95)
        entries_per_rank *= 1.0 - min(
            2.0 * leaf / max(features.mean_degree, 1.0), 0.9
        )

    # Coloring-ordered sweeps: one synchronised sweep round per color
    # class inside each iteration — per-round scan overhead on the
    # compute side, per-round community legs on the comm side,
    # plus the one-time distance-1 coloring itself.  The class count
    # grows with density.
    colors = 1.0
    if config.use_coloring:
        import math

        colors = min(8.0, 2.0 + math.log2(features.mean_degree + 2.0))
        work_factor *= 1.0 + _COLORING_ROUND_OVERHEAD * (colors - 1.0)

    compute = ghost = community = allreduce = rebuild = 0.0
    refine = 0.0
    if vertex_following:
        # The pre-coarsening, all on the *input* graph: the leaves'
        # owner-routed neighbour-degree lookup (request, reply), a ghost
        # plan and exchange of its own (one scan, two exchanges), then
        # a rebuild.
        rebuild += (
            machine.compute_cost(input_entries_per_rank)
            + 4.0 * machine.alltoallv_cost(0, 0, p, rank=0)
            + _rebuild_cost(machine, input_entries_per_rank, p)
        )
    size = 1.0  # relative size of the current phase's graph
    for k in range(phases):
        e = entries_per_rank * size
        iters = max(first_iters * _ITERATION_DECAY**k, _MIN_ITERATIONS)
        per_iter_compute = machine.compute_cost(e * work_factor)

        # One exchange of a value per ghost vertex.  A phase has two
        # outside its rounds' own messages — the plan's ids after a
        # scan of the entries, then the starting communities (a single
        # rank has no ghosts to plan for).
        ghost_bytes = int(gf * e * _GHOST_ENTRY_BYTES / 2)
        ghost_exchange = machine.alltoallv_cost(
            ghost_bytes, ghost_bytes, p, rank=0
        )
        if p > 1:
            ghost += machine.compute_cost(e) + 2.0 * ghost_exchange

        per_iter_community = 0.0
        for nbytes in _COMMUNITY_LEG_BYTES:
            leg = int(gf * e * nbytes)
            per_iter_community += machine.alltoallv_cost(leg, leg, p, rank=0)

        compute += iters * per_iter_compute
        # Each color class pays its own three legs inside one
        # iteration; the end-of-iteration allreduce stays single, and
        # the phase adds one (its statistics and exact Q).
        community += iters * per_iter_community * colors
        allreduce += (iters + 1.0) * machine.allreduce_cost(64, p)
        if config.use_coloring:
            # One distance-1 coloring per phase: a few conflict-
            # resolution sweeps over the adjacency, each with an
            # exchange of the ghosts' colours and a convergence vote.
            compute += machine.compute_cost(3.0 * e)
            ghost += 3.0 * ghost_exchange
            allreduce += 3.0 * machine.allreduce_cost(16, p)

        if config.refine == "leiden":
            # Per-phase refinement: a few min-label propagation rounds
            # (ghost exchange + convergence vote each) plus the
            # owner-routed split census and label-clash audit.
            refine += _REFINE_ROUNDS * (
                ghost_exchange + machine.allreduce_cost(8, p)
            ) + 2.0 * machine.alltoallv_cost(
                int(gf * e * _GHOST_ENTRY_BYTES),
                int(gf * e * _GHOST_ENTRY_BYTES),
                p,
                rank=0,
            )

        rebuild += _rebuild_cost(machine, e, p)
        size *= _PHASE_SHRINK

    io = machine.io_cost(input_entries_per_rank * _INPUT_ENTRY_BYTES)
    breakdown = {
        "compute": compute,
        "ghost_comm": ghost,
        "community_comm": community,
        "allreduce": allreduce,
        "rebuild": rebuild,
        "refine": refine,
        "io": io,
    }
    return CostEstimate(
        seconds=float(sum(breakdown.values())), breakdown=breakdown
    )


def screen(
    features: GraphFeatures,
    candidates: list[Candidate],
    machine: MachineModel,
) -> list[tuple[float, Candidate]]:
    """Rank candidates by predicted modelled seconds, cheapest first.

    Ties (identical predictions) break on the candidate key, so the
    ordering is fully deterministic.
    """
    scored = [
        (predict_cost(features, c, machine).seconds, c) for c in candidates
    ]
    scored.sort(key=lambda sc: (sc[0], sc[1].key()))
    return scored
