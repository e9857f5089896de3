"""Distributed-memory parallel Louvain (the paper's Algorithms 2-4).

SPMD structure (executed identically on every rank); every step is a
named stage of this module:

Phase loop (Algorithm 2, :func:`distributed_louvain` → :func:`_run_phases`)
    begin the run (:func:`_begin_run`, then Grappolo's vertex-following
    pre-merge, :func:`_premerge_leaves`) or restore it
    (:func:`_restore_run`); per phase — until, at a boundary after the
    first phase, the rest is cheaper on one rank (:mod:`.tail`) and
    rank 0 finishes it alone (:func:`_finish_on_one_rank`):

    * begin the phase (:func:`_begin_phase`): singleton, warm-started
      or resumed labels, then ``ExchangeGhostVertices`` — one-time-per-
      phase ghost coordinate exchange (Algorithm 4;
      :meth:`DistGraph.build_ghost_plan`) and one full exchange of the
      ghost vertices' starting communities;
    * iteration loop (Algorithm 3, :func:`louvain_phase_distributed`;
      one :func:`_iterate` of one or more :func:`_sweep_round`):

      i.   the community of every ghost vertex as of the last
           synchronisation point is already in place (lines 4-5; see
           step iv);
      ii.  fetch current ``a_c``/size for every community referenced by
           this iteration's *active* vertices from the community owners
           (category ``community_comm``);
      iii. snapshot sweep: compute the best move for every active local
           vertex against the fetched state (lines 6-9; the shared
           kernel from :mod:`repro.core.sweep`) — for every rank at
           once: the round's sweeps are independent, so one world call
           (:func:`_sweep_world`) runs the kernel once over every rank's
           entries, laid end to end once per phase by
           :func:`_stack_sweep`;
      iv.  one personalised exchange carries everything the moves
           changed, one message per peer: the ``a_c``/size deltas of the
           communities that peer owns, which it applies (lines 10-11),
           and the new community of every moved vertex it ghosts (the
           next sweep's lines 4-5) — category ``community_comm``;
      v.   one global allreduce combines the modularity partials with
           the move, activity and inactive-vertex counters (lines 12-13,
           category ``allreduce``);
      vi.  tau test, and ETC's 90% exit on the inactive count the same
           allreduce delivered (§IV-B(b)) — no variant adds a
           collective; then, the phase going on, an optional checkpoint
           (:func:`_save_checkpoint`);

    * finish the phase (:func:`_finish_phase`): Leiden refinement,
      audits, distributed graph reconstruction (§IV-A(b);
      :mod:`~.coarsen`), statistics and exact Q (one allreduce),
      projection of the original vertices;

    and gather the assignment (:func:`_gather_result`).

What the two loops carry from one synchronisation point to the next is
one object each (:mod:`repro.core.state`), mutated in place and handed
whole to the checkpoint; the rest of a phase's working set is derived
from it (:class:`_PhaseDerived`).

Community ids live in the vertex-id space, and a community is owned by
the rank owning the same-numbered vertex, so owners keep *dense*
``a_c``/size arrays over their vertex interval — the ``C_info`` vector
of Algorithm 3.  Ownership is contiguous (§IV), so anything routed by
owner — community requests, deltas, ghost updates — is an ascending id
array cut into one slice per rank (:meth:`DistGraph.cuts`), and the
replies, in rank order, are already in request order.  Whatever is ready
at the same synchronisation point leaves in one message per peer.  What
a rank knows of the communities between exchanges lives in a per-phase
:class:`_CommunityView` that the rounds patch rather than rebuild.

Consistency semantics are the paper's: within an iteration every rank
decides against state from the last synchronisation point, so remote
community updates lag by one exchange (§III-B).  This is why the final
modularity can differ slightly from the serial reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..graph.csr import CSRGraph, sorted_unique
from ..graph.distgraph import DistGraph, GhostPlan
from ..graph.partition import even_vertex
from ..runtime.comm import Communicator
from ..runtime.executor import SPMDResult, run_spmd
from ..runtime.perfmodel import CORI_HASWELL, MachineModel
from .coarsen import _lookup_sorted, rebuild_distributed, remote_lookup
from .config import LouvainConfig
from .heuristics import (
    EarlyTermination,
    LayoutStreams,
    ThresholdCycler,
    make_rank_rng,
)
from .refine import refine_communities
from .result import IterationStats, LouvainResult, PhaseStats, normalize_assignment
from .state import IterationState, RunState
from .sweep import (
    Segments,
    StackedSweep,
    SweepSlice,
    SweepWorkspace,
    array_lookup,
    propose_moves,
)
from .tail import gather_pays


@dataclass
class _PhaseOutcome:
    """What one phase hands back to the phase loop: its last iteration
    state, and what the loop needs that is not part of it."""

    state: IterationState
    #: Community of every ghost vertex as of the last exchange.
    ghost_comm: np.ndarray
    #: ETC's inactive-fraction exit ended the phase.
    exited_by_inactive: bool


class _CommunityView:
    """What this rank knows of the communities during one phase.

    Inside a phase only labels change (Algorithm 3): the CSR, the ghost
    plan and the id -> owner map are fixed.  So the view is built once,
    from the phase's one full ghost exchange
    (:meth:`DistGraph.exchange_ghost_values`), and every sweep round
    patches it with what the round already has in hand instead of
    re-deriving it from the raw labels:

    * :attr:`values` — community of every ghost vertex (Algorithm 3,
      lines 4-5).  :meth:`publish` lists only the values that changed; a
      ghost copy of an unmoved vertex is already correct (the "further
      sophistication" §IV-B(b) sketches).  The view itself never
      communicates: the lists ride the round's one update exchange.
    * :attr:`ids` — every community id seen here this phase, ascending.
      It only grows: an id no vertex here holds any more costs one
      unused table row, while deleting it would renumber every slot.
    * :attr:`slot` — position in :attr:`ids` of the community of every
      vertex slot (owned vertices, then ghosts).  Positions ascend with
      the ids, so the kernel's smallest-id tie-breaks are those of the
      raw ids whatever else the table holds.
    * :attr:`target` — ``slot[ctargets]``, the dense community of every
      CSR entry's target: the kernel's ``target_comm``, and one side of
      the modularity estimate.  Kept in ``target`` when one is given —
      the rank's segment of the world sweep's input, so the round's
      patch is also the sweep's input, with no copy in between.

    The sweep, the modularity estimate and the graph rebuild all read
    this one object.
    """

    def __init__(
        self,
        dg: DistGraph,
        plan,
        local_comm: np.ndarray,
        values: np.ndarray,
        target: np.ndarray | None = None,
    ):
        self.plan = plan
        self.nloc = dg.num_local
        #: Community of every ghost vertex, aligned with ``plan.ghost_ids``.
        self.values = values
        self.ids, self.slot = np.unique(
            np.concatenate([local_comm, values]), return_inverse=True
        )
        self._ctargets = dg.compressed_targets(plan)
        self.target = self.slot.take(self._ctargets, out=target, mode="clip")
        # Flattened ghost send plan: the owned vertex ids each rank
        # ghosts, ascending by destination rank, and their local slots.
        per_rank = [
            plan.send_ids.get(r, np.empty(0, np.int64))
            for r in range(dg.nranks)
        ]
        counts = [len(ids) for ids in per_rank]
        self.send_ids = np.concatenate(per_rank)
        self.send_loc = np.asarray(dg.to_local(self.send_ids))
        #: Where each destination's pairs start in the send lists.
        self._send_cuts = np.concatenate([[0], np.cumsum(counts)])

    def publish(
        self, local_comm: np.ndarray, moved: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """This round's label slices by destination rank: the
        ``(vertex ids, new communities)`` of the ``moved`` owned
        vertices each rank ghosts (empty for a rank that ghosts none of
        them).  The caller ships them with the round's deltas
        (:func:`_apply_community_deltas`) and hands what came back to
        :meth:`absorb`.  ``slot`` must already hold the moved vertices'
        own new positions (the kernel proposes in positions, so the
        caller has them for free)."""
        sel = np.flatnonzero(moved[self.send_loc])
        cuts = np.searchsorted(sel, self._send_cuts)
        ids = self.send_ids[sel]
        values = local_comm[self.send_loc[sel]]
        return [
            (ids[a:b], values[a:b]) for a, b in zip(cuts[:-1], cuts[1:])
        ]

    def absorb(self, ghost_ids: np.ndarray, values: np.ndarray) -> None:
        """Ghost vertices ``ghost_ids`` now belong to communities
        ``values`` (raw ids, possibly never seen here): update the ghost
        copies and their positions, then re-aim :attr:`target`."""
        if len(ghost_ids):
            ghosts = np.searchsorted(self.plan.ghost_ids, ghost_ids)
            self.values[ghosts] = values
            self.slot[self.nloc + ghosts] = self._positions(values)
        self.slot.take(self._ctargets, out=self.target, mode="clip")

    def _positions(self, values: np.ndarray) -> np.ndarray:
        """Position in :attr:`ids` of each raw id, merging unseen ids in
        (which shifts the positions above them, in ``slot`` too)."""
        pos = np.searchsorted(self.ids, values)
        unseen = self.ids.take(pos, mode="clip") != values
        if unseen.any():
            fresh = sorted_unique(values[unseen])
            # Every position, old or asked for, moves up by the number
            # of fresh ids below it.
            shift = np.searchsorted(fresh, self.ids)
            shift += np.arange(len(self.ids))
            self.slot[:] = shift[self.slot]
            self.ids = np.insert(
                self.ids, np.searchsorted(self.ids, fresh), fresh
            )
            pos += np.searchsorted(fresh, values)
        return pos


@dataclass(frozen=True)
class _WorldSweep:
    """This rank's share of the phase's world sweep (:func:`_stack_sweep`):
    the stack, and the rank's segments of its inputs, which the rank
    writes before every sweep."""

    stack: StackedSweep
    target: np.ndarray
    cur: np.ndarray
    active: np.ndarray
    total_weight: float
    resolution: float


def _stack_sweep(
    comm: Communicator,
    part: SweepSlice,
    total_weight: float,
    resolution: float,
) -> _WorldSweep:
    """One world call per phase: every rank's CSR slice laid end to end
    in the world's workspace, as one input of :func:`_sweep_world`."""
    return comm.world_call(
        part,
        partial(_stack_world, comm.world.workspace, total_weight, resolution),
    )


def _stack_world(
    workspace: dict, total_weight: float, resolution: float, slices
) -> list[_WorldSweep]:
    if "sweep" not in workspace:
        workspace["sweep"] = SweepWorkspace()
    stack = workspace["sweep"].stack(slices)
    return [
        _WorldSweep(stack, *stack.segment(r), total_weight, resolution)
        for r in range(len(slices))
    ]


def _sweep_world(rounds) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """Step (iii) for every rank at once: one :func:`propose_moves` over
    the stack.  ``rounds[r]`` is rank ``r``'s ``(sweep, dense (a_c, |c|)
    table, ids)``; its tables, laid end to end, back the lookups, each
    rank's positions shifted by the ids of the ranks before (one rank
    has nothing to shift).  Returns, per rank, its proposals, moved mask
    and pair count."""
    sweep = rounds[0][0]
    stack = sweep.stack
    segments = None
    if len(rounds) == 1:
        _, info, ids = rounds[0]
    else:
        lengths = [len(r_ids) for _, _, r_ids in rounds]
        shift = np.zeros(len(rounds), dtype=np.int64)
        np.cumsum(lengths[:-1], out=shift[1:])
        segments = Segments(stack.row_cuts, shift)
        total = sum(lengths)
        ids = stack.workspace.array("ids", total, np.int64)
        info = stack.workspace.array("info", 2 * total, np.float64)
        info = info.reshape(2, total)
        np.concatenate([r_ids for _, _, r_ids in rounds], out=ids)
        np.concatenate([r_info for _, r_info, _ in rounds], axis=1, out=info)
    res = propose_moves(
        index=stack.index,
        target_comm=stack.target,
        weights=None,
        self_mask=None,
        degrees=stack.degrees,
        cur_comm=stack.cur,
        total_weight=sweep.total_weight,
        tot_lookup=array_lookup(ids, info[0]),
        size_lookup=array_lookup(ids, info[1]),
        active=stack.active,
        resolution=sweep.resolution,
        plan=stack.plan,
        segments=segments,
    )
    if segments is None:
        return [(res.proposal, res.moved, res.pairs_evaluated)]
    cuts = stack.row_cuts
    return [
        (res.proposal[a:b], res.moved[a:b], int(pairs))
        for a, b, pairs in zip(cuts[:-1], cuts[1:], res.segment_pairs)
    ]


def _world_propose(
    comm: Communicator,
    sweep: _WorldSweep,
    cur: np.ndarray,
    active: np.ndarray,
    info: np.ndarray,
    ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Step (iii) as a world call: this rank's current communities and
    active flags go into its segment of the stack (its targets are there
    already), and it gets back its proposals, a moved mask of its own and
    its pair count.  The proposals are the stack's, valid until the
    rank's next sweep."""
    sweep.cur[:] = cur
    sweep.active[:] = active
    proposal, moved, pairs = comm.world_call((sweep, info, ids), _sweep_world)
    return proposal, moved.copy(), pairs


def _sweep_round(
    comm: Communicator,
    dg: DistGraph,
    view: _CommunityView,
    sweep: _WorldSweep,
    k: np.ndarray,
    local_comm: np.ndarray,
    tot_owned: np.ndarray,
    size_owned: np.ndarray,
    active: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Steps (i)-(iv) of one Louvain iteration for one active set:
    three exchanges — community-info request, reply, and after the
    sweep one message per peer with the deltas it owns and the labels
    it ghosts — and between them the world call of the sweep.

    Updates ``local_comm``, the owner-side ``tot_owned`` / ``size_owned``
    and ``view`` in place and returns ``(moved mask, moves)``;
    ``view.values`` is current again on return.
    The baseline calls this once per iteration with the full active set;
    the coloring mode (§VI) calls it once per colour class.
    """
    nloc = dg.num_local
    # (i) ghost vertex community assignments as of the last exchange
    # (lines 4-5) are in the view, already numbered densely: the kernel
    # works in positions of ``view.ids``.
    ids = view.ids
    local_dense = view.slot[:nloc]

    # (ii) fetch a_c and |c| for the communities this round evaluates:
    # neighbours of active vertices + their own.  Every slot is a local
    # vertex or the target of a local entry, so a full active set needs
    # the community of every slot; a partial one flags its candidates.
    # Unfetched communities — among them ids nobody here holds any more
    # — stay NaN in the dense tables, which ``array_lookup`` turns into
    # the ``KeyError`` a protocol bug deserves.
    flags = np.zeros(len(ids), dtype=bool)
    if active.all():
        scanned = dg.num_local_entries
        flags[view.slot] = True
    else:
        active_entries = active[dg.local_rows()]
        scanned = int(np.count_nonzero(active_entries))
        flags[view.target[active_entries]] = True
        flags[local_dense[active]] = True
    wanted = np.flatnonzero(flags)
    # Row 0: a_c, row 1: |c|, by position in ``ids``.
    dense_info = np.full((2, len(ids)), np.nan)
    dense_info[0, wanted], dense_info[1, wanted] = _fetch_community_info(
        comm, dg, ids[wanted], tot_owned, size_owned
    )

    # (iii) local move computation (lines 6-9), in dense ids, swept with
    # every other rank's in one call; the view already wrote the
    # targets into this rank's segment.  Each rank is charged for its
    # own pairs, as if it had swept alone.
    proposal, moved, pairs = _world_propose(
        comm, sweep, local_dense, active, dense_info, ids
    )
    comm.charge_compute(pairs + scanned + nloc)

    # (iv) everything the moves changed, one message per peer: the
    # a_c/|c| deltas of the communities it owns (lines 10-11;
    # duplicates pre-aggregated in the view's dense space) and the new
    # community of every moved vertex it ghosts (the next round's
    # lines 4-5).
    rows = np.flatnonzero(moved)
    new_dense = proposal[rows]
    deltas = aggregate_dense_deltas(ids, local_dense[rows], new_dense, k[rows])
    local_comm[rows] = ids[new_dense]
    local_dense[rows] = new_dense
    labels = _apply_community_deltas(
        comm, dg, *deltas, tot_owned=tot_owned, size_owned=size_owned,
        labels=view.publish(local_comm, moved),
    )
    view.absorb(
        np.concatenate([vertices for vertices, _ in labels]),
        np.concatenate([values for _, values in labels]),
    )
    return moved, len(rows)


@dataclass
class _PhaseDerived:
    """What a phase derives once from its graph slice and its starting
    labels.  None of it is state: a resumed phase rebuilds all of it
    exactly as a fresh one does (:mod:`repro.core.state`)."""

    #: Weighted degree of every owned vertex.
    k: np.ndarray
    #: This rank's share of the world's phase-invariant sweep input
    #: (rows, non-self-loop entries, the synthetic own-community
    #: entries), gathered from every iteration.
    sweep: _WorldSweep
    view: _CommunityView
    #: §VI future work: distance-1 colour classes, swept one after
    #: another so concurrently processed vertices are non-adjacent.
    color_classes: list[np.ndarray] | None


def louvain_phase_distributed(
    comm: Communicator,
    dg: DistGraph,
    tau: float,
    config: LouvainConfig,
    phase: int,
    initial_assignment: np.ndarray | None = None,
    checkpoint_hook=None,
    resume_state: IterationState | None = None,
    layout_ranks: int | None = None,
) -> _PhaseOutcome:
    """Algorithm 3: the Louvain iterations of one phase at this rank.

    ``initial_assignment`` (community id per *owned* vertex, in the
    global vertex-id space) seeds the phase instead of singletons —
    the hook the dynamic/incremental mode uses to warm-start from a
    previous solution.

    ``checkpoint_hook`` (resilience subsystem) is called at the end of
    every non-final iteration with the live
    :class:`~repro.core.state.IterationState`, so mid-phase checkpoints
    can be cut; ``resume_state`` is such a state, and rejoins the
    iteration loop after its last iteration instead of starting from
    singletons or the seed.  Both are collective-consistent: the hook
    fires at the same iterations on every rank.

    ``layout_ranks`` is set on a phase gathered onto one rank
    (:func:`_run_phases`): ET then draws as that many ranks would.
    """
    state, derived = _begin_phase(
        comm, dg, config, phase, initial_assignment, resume_state,
        layout_ranks,
    )
    exited_by_inactive = False
    for it in range(state.iteration + 1, config.max_iterations):
        exited_by_inactive = _iterate(
            comm, dg, derived, state, it, config, phase
        )
        if exited_by_inactive or state.q - state.prev_q <= tau:
            break
        state.prev_q = state.q
        if checkpoint_hook is not None:
            # The phase continues past this iteration on every rank
            # (all exit tests are derived from replicated global
            # values), so cutting a checkpoint here is collective-safe.
            checkpoint_hook(state)
    return _PhaseOutcome(state, derived.view.values, exited_by_inactive)


def _begin_phase(
    comm: Communicator,
    dg: DistGraph,
    config: LouvainConfig,
    phase: int,
    initial_assignment: np.ndarray | None,
    resume_state: IterationState | None,
    layout_ranks: int | None,
) -> tuple[IterationState, _PhaseDerived]:
    """The phase's starting state — resumed, warm-started or singleton —
    and everything derived from it: ghost set-up (Algorithm 4), colour
    classes, and the community view after the phase's one full ghost
    exchange (Algorithm 3, lines 4-5)."""
    plan = dg.build_ghost_plan(comm)
    k = dg.local_degrees()
    sweep = _stack_sweep(
        comm,
        SweepSlice(
            dg.index,
            dg.weights,
            np.flatnonzero(~dg.self_loop_mask()),
            dg.local_rows(),
            k,
        ),
        dg.total_weight,
        config.resolution,
    )
    if resume_state is not None:
        # Rejoin the loop exactly where the checkpoint was cut.
        state = resume_state
    else:
        # Each vertex starts in its own community; owners of the
        # community id set coincide with owners of the vertex set, so
        # C_info is dense over the owned slots.
        state = IterationState(
            local_comm=dg.local_vertex_ids().copy(),
            tot_owned=k.copy(),
            size_owned=np.ones(dg.num_local, dtype=np.int64),
        )
        if config.variant.uses_early_termination:
            state.et = EarlyTermination(
                dg.num_local,
                config,
                make_rank_rng(config.seed, comm.rank, phase)
                if layout_ranks is None
                else LayoutStreams(
                    config.seed,
                    phase,
                    np.diff(even_vertex(dg.num_local, layout_ranks)),
                ),
            )
        if initial_assignment is not None:
            _warm_start(comm, dg, k, state, initial_assignment)
    color_classes = (
        _color_classes(comm, dg, plan, config.seed)
        if config.use_coloring
        else None
    )
    # Later rounds ship only what changed.  The view is derived state:
    # the full exchange of a resumed phase reproduces the ghost values
    # the uninterrupted run holds at this point.
    view = _CommunityView(
        dg,
        plan,
        state.local_comm,
        dg.exchange_ghost_values(
            comm, plan, state.local_comm, category="ghost_comm"
        ),
        target=sweep.target,
    )
    return state, _PhaseDerived(k, sweep, view, color_classes)


def _warm_start(
    comm: Communicator,
    dg: DistGraph,
    k: np.ndarray,
    state: IterationState,
    initial_assignment: np.ndarray,
) -> None:
    """Move the singleton ``state`` to the seed, as one batch of moves:
    the owner-side C_info updates flow through the same delta machinery
    as regular iterations."""
    seed_comm = np.asarray(initial_assignment, dtype=np.int64)
    if len(seed_comm) != dg.num_local:
        raise ValueError(
            f"initial_assignment covers {len(seed_comm)} vertices, "
            f"rank owns {dg.num_local}"
        )
    moved = seed_comm != state.local_comm
    _apply_community_deltas(
        comm,
        dg,
        *aggregate_deltas(state.local_comm[moved], seed_comm[moved], k[moved]),
        tot_owned=state.tot_owned,
        size_owned=state.size_owned,
    )
    state.local_comm = seed_comm.copy()


def _color_classes(
    comm: Communicator, dg: DistGraph, plan: GhostPlan, seed: int
) -> list[np.ndarray]:
    """One mask of owned vertices per colour of a distance-1 coloring;
    every rank gets the same number of classes."""
    from .coloring import distributed_coloring

    colors = distributed_coloring(comm, dg, plan, seed=seed)
    num_colors = int(comm.allreduce(
        int(colors.max()) + 1 if dg.num_local else 0, op="max",
        category="other",
    ))
    return [colors == c for c in range(num_colors)]


def _iterate(
    comm: Communicator,
    dg: DistGraph,
    derived: _PhaseDerived,
    state: IterationState,
    it: int,
    config: LouvainConfig,
    phase: int,
) -> bool:
    """Iteration ``it`` of a phase: sweep rounds, then the iteration's
    one allreduce (modularity partials and the global move / active /
    inactive counts, the same 5-vector on every variant), then the exit
    tests on its result.  Updates ``state`` in place (labels, C_info,
    ET, ``q``, one more ``stats`` row) and returns whether ETC's
    inactive-fraction exit fired; the tau test is the caller's.
    """
    nloc = dg.num_local
    n_global = dg.num_global_vertices
    w = dg.total_weight
    view = derived.view
    et = state.et
    # ET: vertices mark themselves active/inactive first (§IV-B(b)).
    active = et.draw_active() if et is not None else np.ones(nloc, dtype=bool)

    moved = np.zeros(nloc, dtype=bool)
    moves = 0
    rounds = (
        [active]
        if derived.color_classes is None
        else [active & cls for cls in derived.color_classes]
    )
    # Trip count is len(rounds) — 1, or the allreduced colour count —
    # replicated even though each round's active *mask* is rank-local
    # (the mask only gates local move proposals).
    for round_active in rounds:  # spmdlint: ignore[SPMD001]
        round_moved, n = _sweep_round(
            comm, dg, view, derived.sweep, derived.k,
            state.local_comm, state.tot_owned, state.size_owned,
            round_active,
        )
        moved |= round_moved
        moves += n

    # (v) global modularity (lines 12-13).  The round's exchange has
    # delivered every move, so both sides of every stored entry
    # evaluate under the *post-move* assignment: the estimate is a
    # function of the global assignment alone and cannot depend on
    # which endpoints happen to be rank-local under the current
    # layout (a requirement for bit-identity across rank counts and
    # input partitions).  Each sweep still decided against the
    # synchronisation point before it (§III-B).
    intra = view.slot[dg.local_rows()] == view.target
    local_in = float(dg.weights.compress(intra).sum())
    comm.charge_compute(dg.num_local_entries)
    local_inactive = et.update(moved) if et is not None else 0
    # a_c^2 is summed *before* dividing by w^2 (like _record_phase's
    # exact Q) so the reduction is exact for integer weights — the
    # per-rank grouping of communities then cannot perturb Q, which
    # keeps every rank count and input partition bit-identical.  The
    # three counts ride along: below 2**53 they sum exactly in float64
    # in any order.
    partial = np.array(
        [
            local_in,
            float(np.square(state.tot_owned).sum()),
            float(moves),
            float(active.sum()),
            float(local_inactive),
        ]
    )
    total = comm.allreduce(partial, category="allreduce")
    state.q = (
        float(total[0] / w - config.resolution * total[1] / (w * w))
        if w > 0
        else 0.0
    )

    # (vi) exit tests, all on replicated values: ETC's is on the global
    # inactive count the allreduce just delivered (§IV-B(b)).
    inactive_fraction = float(total[4] / n_global) if n_global else 0.0
    state.stats.append(
        IterationStats(
            phase=phase,
            iteration=it,
            modularity=state.q,
            moves=int(total[2]),
            active_fraction=float(total[3] / n_global) if n_global else 1.0,
            inactive_fraction=inactive_fraction,
        )
    )
    state.iteration = it
    return (
        config.variant.uses_inactive_exit
        and inactive_fraction >= config.etc_exit_fraction
    )


def _fetch_community_info(
    comm: Communicator,
    dg: DistGraph,
    needed: np.ndarray,
    tot_owned: np.ndarray,
    size_owned: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Pull current (a_c, |c|) for each community id in ascending
    ``needed``; both come back as ``float64`` rows aligned with it.

    Owners answer from their dense C_info arrays: the owner-routed
    lookup (:func:`~repro.core.coarsen._lookup_sorted`) with a
    two-row answer.  Two alltoalls (request + reply), charged to
    ``community_comm`` — the traffic the paper's §V-A profile
    attributes ~34% of the runtime to.
    """

    def answer(ids: np.ndarray) -> np.ndarray:
        loc = dg.to_local(ids)
        out = np.empty((2, len(ids)))
        out[0], out[1] = tot_owned[loc], size_owned[loc]
        return out

    return tuple(_lookup_sorted(
        comm, dg.offsets, needed, answer,
        category="community_comm", what="community requests",
    ))


def aggregate_deltas(
    old: np.ndarray, new: np.ndarray, deg: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Net (a_c, |c|) delta per community touched by a batch of moves.

    A vertex moving ``old -> new`` contributes ``(-k, -1)`` to its old
    community and ``(+k, +1)`` to its new one; duplicates are summed
    before communicating.  Returns ``(ids, dtot, dsize)`` with ``ids``
    ascending; a touched community whose deltas cancel is still listed.
    """
    ids, dense = np.unique(np.concatenate([old, new]), return_inverse=True)
    return aggregate_dense_deltas(
        ids, dense[:len(old)], dense[len(old):], deg
    )


def aggregate_dense_deltas(
    ids: np.ndarray, old: np.ndarray, new: np.ndarray, deg: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`aggregate_deltas` of moves given as positions in the
    ascending id table ``ids`` (which may hold untouched ids too).

    One scatter per column instead of a sort; ``np.bincount`` adds its
    weights left to right like ``np.add.at``, all departures before all
    arrivals.
    """
    n = len(ids)
    left = np.bincount(old, minlength=n)
    joined = np.bincount(new, minlength=n)
    # (bincount counts in int64 when given nothing to add: cast.)
    dtot = np.bincount(
        np.concatenate([old, new]),
        weights=np.concatenate([-deg, deg]),
        minlength=n,
    ).astype(np.float64, copy=False)
    touched = np.flatnonzero(left + joined)
    return ids[touched], dtot[touched], (joined - left)[touched]


def _apply_community_deltas(
    comm: Communicator,
    dg: DistGraph,
    ids: np.ndarray,
    dtot: np.ndarray,
    dsize: np.ndarray,
    tot_owned: np.ndarray,
    size_owned: np.ndarray,
    labels: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> list[tuple[np.ndarray, ...]]:
    """Route aggregated (a_c, |c|) deltas of this rank's moves
    (:func:`aggregate_deltas`: ``ids`` ascending and duplicate-free) to
    the community owners, who apply them in source-rank order.

    ``labels`` — one tuple of arrays per destination rank, a sweep
    round's :meth:`_CommunityView.publish` — leaves in the same message
    as that rank's delta slice; returns what each rank sent here beside
    its deltas, in rank order.  One exchange, charged to
    ``community_comm``; every rank participates even with zero moves
    (the collective is unconditional in Algorithm 3).
    """
    cuts = dg.cuts(ids)
    if labels is None:
        labels = [()] * comm.size
    received = comm.alltoall(
        [
            (ids[a:b], dtot[a:b], dsize[a:b], *extra)
            for a, b, extra in zip(cuts[:-1], cuts[1:], labels)
        ],
        category="community_comm",
    )
    for rids, rtot, rsize, *_ in received:
        if len(rids):
            loc = dg.to_local(rids)
            np.add.at(tot_owned, loc, rtot)
            np.add.at(size_owned, loc, rsize)
    return [message[3:] for message in received]


def distributed_louvain(
    comm: Communicator,
    dg: DistGraph | None,
    config: LouvainConfig | None = None,
    initial_assignment: np.ndarray | None = None,
    *,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 1,
    checkpoint_every_iterations: int | None = None,
    resume: bool = False,
    snapshots=None,
) -> LouvainResult:
    """Algorithm 2: the full multi-phase distributed Louvain at one rank.

    Returns the (replicated) result; ``assignment`` covers the original
    global vertex set.  ``elapsed``/``trace`` are filled by the driver
    (:func:`run_louvain`) from the executor's clocks.

    ``initial_assignment`` warm-starts phase 0 from an existing
    community per owned vertex (global community ids drawn from the
    vertex-id space) — the incremental/dynamic re-detection mode.

    Resilience (see :mod:`repro.resilience`): with ``checkpoint_dir``
    set, the distributed state is checkpointed at every
    ``checkpoint_every``-th phase boundary (and every
    ``checkpoint_every_iterations`` Louvain iterations inside a phase,
    when set).  With ``resume=True`` the run restarts from the latest
    valid checkpoint instead of the input graph (``dg`` may then be
    ``None``); a resumed run reproduces the uninterrupted run's final
    labels and modularity bit for bit.  ``snapshots`` (a
    :class:`~repro.resilience.snapshots.RunSnapshots`, one object shared
    by every rank) takes ``checkpoint_dir``'s place for a caller that
    will retry in this process: saves and the resume go through it, at
    its own cadence, and nothing is written to disk.
    """
    config = config or LouvainConfig()
    if snapshots is not None and checkpoint_dir is not None:
        raise ValueError("pass checkpoint_dir= or snapshots=, not both")
    manager = snapshots or _checkpoint_manager(
        config, checkpoint_dir, checkpoint_every, checkpoint_every_iterations
    )
    if resume:
        # The restored graph is the post-merge one.
        run, rejoin = _restore_run(comm, manager, config)
    else:
        run, rejoin = _begin_run(comm, dg, config, initial_assignment), None
        # Warm starts (incremental re-detection) skip the merge: the
        # seed already places every vertex.
        if config.vertex_following and initial_assignment is None:
            _premerge_leaves(comm, run)
    _run_phases(
        comm, run, config, manager, rejoin,
        restored_at=run.phase if resume else None,
    )
    return _gather_result(comm, run)


def _run_phases(
    comm: Communicator,
    run: RunState,
    config: LouvainConfig,
    manager=None,
    rejoin: IterationState | None = None,
    restored_at: int | None = None,
    layout_ranks: int | None = None,
) -> None:
    """Algorithm 2's phase loop, from ``run.phase`` until the run
    converges: checkpoint the boundary (``manager``, unless it is the
    one ``restored_at``), then — the graph cheap enough on one rank —
    finish on rank 0 (:func:`_finish_on_one_rank`), or else run the
    phase (rejoining ``rejoin``, a mid-phase state) and close it.

    ``layout_ranks`` is set on a gathered tail's one-rank run: the rank
    count of the world it stands for, whose even-vertex layout its
    phases draw ET and report ``ghost_fraction`` under."""
    cycler = (
        ThresholdCycler(config)
        if config.variant.uses_threshold_cycling
        else None
    )
    hook = None
    if manager is not None and manager.every_iterations:

        def hook(it: IterationState) -> None:
            if manager.should_checkpoint_iteration(it.iteration):
                _save_checkpoint(manager, comm, run, it)

    while run.phase < config.max_phases:
        tau = _phase_tau(run, config, cycler)
        if (
            manager is not None
            and manager.should_checkpoint_phase(run.phase)
            # Don't re-cut the checkpoint we just restored from.
            and run.phase != restored_at
        ):
            _save_checkpoint(manager, comm, run)
        # Replicated inputs only: the machine, the rank count, the new
        # graph's vertex count (the rebuild's allgather) and, bounding
        # its entries, the last phase's (its statistics' allreduce).
        if rejoin is None and run.phases and gather_pays(
            comm.machine,
            comm.size,
            run.dg.num_global_vertices,
            2 * run.phases[-1].num_edges + 1,
        ):
            _finish_on_one_rank(comm, run, config)
            break
        # The first phase a run begins consumes the warm start (a
        # phase rejoined mid-way is already past it).
        seed, run.seed_assignment = run.seed_assignment, None
        out = louvain_phase_distributed(
            comm,
            run.dg,
            tau,
            config,
            run.phase,
            initial_assignment=seed,
            checkpoint_hook=hook,
            resume_state=rejoin,
            layout_ranks=layout_ranks,
        )
        rejoin = None
        if not _finish_phase(
            comm, run, out, tau, config, cycler, layout_ranks
        ):
            break


def _finish_on_one_rank(
    comm: Communicator, run: RunState, config: LouvainConfig
) -> None:
    """The remaining phases on rank 0 alone (:mod:`.tail`): one gather of
    the ranks' CSR slices (with their original-vertex maps when
    assignments are tracked), the same phase loop on ``MPI_COMM_SELF``
    there, and one broadcast of the meta vertex -> community map and
    the phases' statistics, through which every rank maps its original
    vertices.  Atomic: nothing is checkpointed inside."""
    dg = run.dg
    mine = (dg.index, dg.edges, dg.weights)
    if config.track_assignments:
        mine += (run.orig_slice,)
    parts = comm.gather(mine, root=0, category="rebuild")
    found = None
    if comm.rank == 0:
        with comm.solo() as solo:
            found = _run_tail(solo, run, parts, config, comm.size)
    meta_map, run.final_mod, phases, iterations = comm.bcast(
        found, root=0, category="rebuild"
    )
    run.orig_slice = meta_map[run.orig_slice]
    run.phases.extend(phases)
    run.iterations.extend(iterations)


def _run_tail(
    comm: Communicator,
    run: RunState,
    parts: list[tuple[np.ndarray, ...]],
    config: LouvainConfig,
    layout_ranks: int,
) -> tuple[np.ndarray, float, list[PhaseStats], list[IterationStats]]:
    """Rank 0's share of :func:`_finish_on_one_rank`, on the one-rank
    ``comm``: the gathered slices joined into one graph, each meta
    vertex its own original vertex, and the phase loop run over it as
    the ``layout_ranks`` ranks would have.  Returns the meta vertex ->
    community map, the final Q and the phases' statistics."""
    n = run.dg.num_global_vertices
    index, base = [np.zeros(1, dtype=np.int64)], 0
    for part in parts:
        index.append(part[0][1:] + base)
        base += int(part[0][-1])
    tail = RunState(
        dg=DistGraph(
            offsets=np.array([0, n], dtype=np.int64),
            rank=0,
            index=np.concatenate(index),
            edges=np.concatenate([part[1] for part in parts]),
            weights=np.concatenate([part[2] for part in parts]),
            total_weight=run.dg.total_weight,
        ),
        orig_slice=np.arange(n, dtype=np.int64),
        phase=run.phase,
        prev_mod=run.prev_mod,
        final_mod=run.final_mod,
        in_final_pass=run.in_final_pass,
        phase_assignments=[] if config.track_assignments else None,
    )
    _run_phases(comm, tail, config, layout_ranks=layout_ranks)
    if config.track_assignments:
        orig = np.concatenate([part[3] for part in parts])
        run.phase_assignments.extend(m[orig] for m in tail.phase_assignments)
    return tail.orig_slice, tail.final_mod, tail.phases, tail.iterations


def _checkpoint_manager(
    config: LouvainConfig,
    checkpoint_dir: str | None,
    every_phases: int,
    every_iterations: int | None,
):
    """This rank's :class:`~repro.resilience.checkpoint.CheckpointManager`
    (``None`` without a ``checkpoint_dir``)."""
    if checkpoint_dir is None:
        return None
    from ..resilience.checkpoint import CheckpointManager

    return CheckpointManager(
        checkpoint_dir,
        every_phases=every_phases,
        every_iterations=every_iterations,
        label=config.label(),
        config_key=config.cache_key(),
    )


def _begin_run(
    comm: Communicator,
    dg: DistGraph | None,
    config: LouvainConfig,
    initial_assignment: np.ndarray | None,
) -> RunState:
    """A fresh run's state: the input slice, every original vertex this
    rank loaded (its phase-0 interval) its own meta vertex."""
    if dg is None:
        raise ValueError("dg may only be None when resume=True")
    run = RunState(
        dg=dg,
        orig_slice=np.arange(dg.vbegin, dg.vend, dtype=np.int64),
        seed_assignment=initial_assignment,
    )
    if config.track_assignments and comm.rank == 0:
        run.phase_assignments = []
    return run


def _restore_run(
    comm: Communicator, manager, config: LouvainConfig
) -> tuple[RunState, IterationState | None]:
    """The state of the latest valid checkpoint (collective on disk; a
    rank-local read of ``snapshots``): the run state and, for a
    mid-phase checkpoint, the iteration state its phase rejoins at."""
    from ..resilience.louvain_state import unpack_rank_state

    if manager is None:
        raise ValueError("resume=True requires checkpoint_dir= or snapshots=")
    manifest, meta, arrays = manager.load_latest(comm)
    _check_resume_config(manifest, config)
    run, rejoin, clock = unpack_rank_state(comm.rank, meta, arrays, config)
    # Resumed modelled time = time at the checkpoint + restore cost
    # accrued so far on this fresh world.
    comm.clock += clock
    return run, rejoin


def _check_resume_config(manifest, config: LouvainConfig) -> None:
    """Refuse to resume under semantics the checkpoint was not taken with.

    Pre-key manifests (empty ``config_key``) are accepted for backward
    compatibility.  Config and manifest are replicated across ranks, so
    raising here is SPMD-safe (all ranks raise together).
    """
    if manifest.config_key and manifest.config_key != config.cache_key():
        raise ValueError(
            f"checkpoint {manifest.directory} was written by config "
            f"[{manifest.label}] (key {manifest.config_key[:12]}…) but "
            f"the resuming config is [{config.label()}] (key "
            f"{config.cache_key()[:12]}…); resuming across configs "
            "would corrupt the run"
        )


def _premerge_leaves(comm: Communicator, run: RunState) -> None:
    """Grappolo's vertex following: merge single-degree vertices into
    their sole neighbour with one extra coarsening before phase 0.

    The un-merge is exact: the projection folds each leaf through its
    meta vertex, so the final assignment maps it wherever its
    neighbour's community ends up.
    """
    vf_local, vf_ghost = _vertex_following_targets(comm, run.dg)
    vf_dg, vf_new = rebuild_distributed(comm, run.dg, vf_local, vf_ghost)
    _project(comm, run, vf_new)
    run.dg = vf_dg


def _vertex_following_targets(
    comm: Communicator, dg: DistGraph
) -> tuple[np.ndarray, np.ndarray]:
    """Community targets of Grappolo's vertex-following pre-merge.

    Closed form of the serial id-order pass in
    :func:`repro.core.grappolo.vertex_following_seed`: a degree-one
    vertex ``u`` (exactly one stored entry, not a self-loop) with sole
    neighbour ``n`` joins ``n``'s community — unless ``n`` is itself
    degree-one (an isolated edge), in which case both endpoints land on
    ``max(u, n)``, exactly what the serial in-order pass produces.  The
    rule is per-vertex and purely structural, so the result is
    independent of rank count and layout.

    SPMD: one owner-routed degree lookup plus one ghost exchange; every
    rank calls both even with zero local leaves.  Returns
    ``(local_comm, ghost_comm)`` ready for
    :func:`~repro.core.coarsen.rebuild_distributed`.
    """
    entry_counts = np.diff(dg.index)
    own_ids = dg.local_vertex_ids()
    cand = np.flatnonzero(entry_counts == 1)
    cand_targets = (
        dg.edges[dg.index[cand]] if len(cand) else np.empty(0, np.int64)
    )
    leaf_mask = cand_targets != own_ids[cand]
    leaves = cand[leaf_mask]
    leaf_targets = cand_targets[leaf_mask]
    # Stored-entry count of each leaf's neighbour, wherever it lives.
    tgt_deg = remote_lookup(
        comm,
        dg.offsets,
        leaf_targets,
        lambda ids: entry_counts[dg.to_local(ids)],
        category="rebuild",
    )
    local_comm = own_ids.copy()
    if len(leaves):
        leaf_ids = own_ids[leaves]
        local_comm[leaves] = np.where(
            tgt_deg == 1,
            np.maximum(leaf_ids, leaf_targets),
            leaf_targets,
        )
    comm.charge_compute(dg.num_local)
    plan = dg.build_ghost_plan(comm)
    ghost_comm = dg.exchange_ghost_values(
        comm,
        plan,
        local_comm,
        category="ghost_comm",
    )
    return local_comm, ghost_comm


def _phase_tau(
    run: RunState, config: LouvainConfig, cycler: ThresholdCycler | None
) -> float:
    """tau of phase ``run.phase`` (Fig. 2's schedule under threshold
    cycling, its lowest step in the forced final pass)."""
    if cycler is None:
        return config.tau
    if run.in_final_pass:
        return cycler.final_tau
    return cycler.tau_for_phase(run.phase)


def _save_checkpoint(
    manager, comm: Communicator, run: RunState, it: IterationState | None = None
) -> None:
    """Cut one checkpoint (charged to ``checkpoint``; collective when
    ``manager`` writes to disk): at the boundary before phase
    ``run.phase``, or after iteration ``it.iteration`` of it.

    The manager packs the run state only into the first checkpoint it
    writes in a phase; later ones are deltas of that one.
    """
    from ..resilience.louvain_state import (
        pack_iteration_state,
        pack_phase_state,
    )

    manager.save(
        comm,
        kind="phase" if it is None else "iteration",
        phase=run.phase,
        iteration=-1 if it is None else it.iteration,
        phase_state=lambda: pack_phase_state(run),
        iteration_state=pack_iteration_state(comm.clock, it),
    )


def _finish_phase(
    comm: Communicator,
    run: RunState,
    out: _PhaseOutcome,
    tau: float,
    config: LouvainConfig,
    cycler: ThresholdCycler | None,
    layout_ranks: int | None,
) -> bool:
    """Close phase ``run.phase`` — refinement, audits, graph rebuild,
    stats and exact Q, projection, tracking — and advance ``run`` to
    the next one; returns whether there is a next one.
    ``layout_ranks``: see :func:`_run_phases`."""
    state = out.state
    if config.refine == "leiden":
        _refine_phase(comm, run.dg, out)
    if config.validate_invariants:
        _audit_phase(comm, run.dg, out)

    new_dg, local_new = rebuild_distributed(
        comm, run.dg, state.local_comm, out.ghost_comm
    )
    _record_phase(
        comm, run, out, tau, new_dg, config.resolution, layout_ranks
    )
    _project(comm, run, local_new)
    if config.track_assignments:
        gathered = comm.gather(run.orig_slice, root=0, category="other")
        if comm.rank == 0:
            run.phase_assignments.append(np.concatenate(gathered))

    gain = state.q - run.prev_mod
    no_merge = new_dg.num_global_vertices == run.dg.num_global_vertices
    run.dg = new_dg
    if gain <= tau or no_merge:
        if cycler is None or run.in_final_pass or tau <= cycler.final_tau:
            return False
        # Converged above the schedule's lowest tau: one more pass at
        # it before declaring convergence (§V-C(a)).
        run.in_final_pass = True
    run.prev_mod = state.q
    run.phase += 1
    return True


def _record_phase(
    comm: Communicator,
    run: RunState,
    out: _PhaseOutcome,
    tau: float,
    new_dg: DistGraph,
    resolution: float,
    layout_ranks: int | None,
) -> None:
    """Append the finished phase's iterations and its
    :class:`PhaseStats` to the run's history and set ``run.final_mod``
    to the phase's exact Q — one small allreduce for both.  A gathered
    phase (``layout_ranks``) reports the ghost fraction of the layout
    it stands for.

    The per-iteration modularity is computed against the stale ghost
    view (the paper's semantics).  The coarsened graph ``new_dg`` gives
    the *exact* value for free: each meta vertex's self loop carries the
    intra-community weight (in_c) and its degree is the community's
    incident weight (a_c), both fully synchronised after the rebuild.
    """
    dg, stats = run.dg, out.state.stats
    run.iterations.extend(stats)
    # Achieved layout quality of the graph this phase ran on: the
    # cross-rank fraction of stored adjacency entries, beside their
    # total.  Counts sum exactly in float64, so they share the vector.
    partial = np.array(
        [
            float(_cross_entries(dg, layout_ranks)),
            float(dg.num_local_entries),
            float(new_dg.local_self_loops().sum()),
            float(np.square(new_dg.local_degrees()).sum()),
        ]
    )
    cross, entries, in_c, sq_a_c = comm.allreduce(
        partial, category="allreduce"
    )
    w = dg.total_weight
    run.final_mod = (
        float(in_c / w - resolution * sq_a_c / (w * w)) if w > 0 else 0.0
    )
    run.phases.append(
        PhaseStats(
            phase=run.phase,
            tau=tau,
            num_iterations=len(stats),
            modularity=out.state.q,
            num_vertices=dg.num_global_vertices,
            # stored entries ~ 2 per edge
            num_edges=int(entries) // 2,
            exited_by_inactive=out.exited_by_inactive,
            ghost_fraction=float(cross / entries) if entries else 0.0,
        )
    )


def _cross_entries(dg: DistGraph, layout_ranks: int | None) -> int:
    """Stored entries of this slice whose target another rank owns — or,
    on a gathered phase, another rank of the ``layout_ranks``-rank
    even-vertex layout it stands for."""
    if layout_ranks is None:
        return int(np.count_nonzero(~dg.is_owned(dg.edges)))
    cuts = even_vertex(dg.num_global_vertices, layout_ranks)[1:-1]
    rows = dg.from_local(dg.local_rows())
    return int(np.count_nonzero(
        np.searchsorted(cuts, rows, side="right")
        != np.searchsorted(cuts, dg.edges, side="right")
    ))


def _refine_phase(comm: Communicator, dg: DistGraph, out: _PhaseOutcome) -> None:
    """Leiden-style refinement: split every community into its connected
    components before coarsening.

    Zero-edge cuts mean in_c is preserved while the a_c^2 penalty can
    only shrink, so modularity never decreases; connected communities
    are merely renamed to their minimum member (the rebuild renumbers
    canonically either way).
    """
    state = out.state
    ref_local, ref_ghost = refine_communities(
        comm, dg, state.local_comm, out.ghost_comm
    )
    # Keep the owner-side C_info audit-consistent with the refined
    # labels (same delta protocol as a sweep move).
    moved = ref_local != state.local_comm
    _apply_community_deltas(
        comm,
        dg,
        *aggregate_deltas(
            state.local_comm[moved],
            ref_local[moved],
            dg.local_degrees()[moved],
        ),
        tot_owned=state.tot_owned,
        size_owned=state.size_owned,
    )
    state.local_comm = ref_local
    out.ghost_comm = ref_ghost


def _audit_phase(comm: Communicator, dg: DistGraph, out: _PhaseOutcome) -> None:
    """``validate_invariants``: the phase's final labels, owner-side
    C_info and ghost copies must agree across ranks."""
    from .validate import (
        audit_community_info,
        audit_ghost_coherence,
        audit_partition,
    )

    state = out.state
    audit_community_info(
        comm, dg, state.local_comm, state.tot_owned, state.size_owned
    ).raise_if_failed()
    audit_partition(comm, dg, state.local_comm).raise_if_failed()
    audit_ghost_coherence(
        comm, dg, state.local_comm, out.ghost_comm
    ).raise_if_failed()


def _project(comm: Communicator, run: RunState, local_new: np.ndarray) -> None:
    """Fold one coarsening of ``run.dg`` into the original-vertex map:
    the new meta id of original vertex o is ``local_new[to_local(x)]``
    at the owner of o's current meta vertex x."""
    dg = run.dg
    run.orig_slice = remote_lookup(
        comm,
        dg.offsets,
        run.orig_slice,
        lambda ids: local_new[dg.to_local(ids)],
        category="rebuild",
    )


def _gather_result(comm: Communicator, run: RunState) -> LouvainResult:
    """Assemble the replicated original-vertex assignment."""
    pieces = comm.allgather(run.orig_slice, category="other")
    return LouvainResult(
        modularity=run.final_mod,
        assignment=normalize_assignment(np.concatenate(pieces)),
        phases=run.phases,
        iterations=run.iterations,
        phase_assignments=run.phase_assignments,
    )


def run_louvain(
    g: CSRGraph,
    nranks: int,
    config: LouvainConfig | None = None,
    *,
    machine: MachineModel = CORI_HASWELL,
    partition: str = "even_edge",
    timeout: float = 300.0,
    initial_assignment: np.ndarray | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 1,
    checkpoint_every_iterations: int | None = None,
    resume: bool = False,
    snapshots=None,
    fault_plan=None,
    verify_schedule: bool | None = None,
) -> LouvainResult:
    """Driver: distribute ``g`` over ``nranks`` simulated ranks and run.

    The returned result carries the modelled execution time and the
    per-category trace of the whole SPMD run.  ``initial_assignment``
    (community id per *global* vertex; any integer labels) warm-starts
    the run — see :mod:`repro.core.dynamic`.

    Resilience knobs (see :mod:`repro.resilience`): ``checkpoint_dir``
    enables phase-boundary (and, with
    ``checkpoint_every_iterations``, mid-phase) checkpointing;
    ``resume=True`` restarts from the latest valid checkpoint (the
    input graph is not re-distributed — state comes from the shards);
    ``snapshots`` keeps the saves in memory instead, for a caller that
    retries in this process (see :func:`distributed_louvain`);
    ``fault_plan`` injects deterministic failures
    (:class:`repro.resilience.faults.FaultPlan`).  ``verify_schedule``
    enables the debug collective-schedule verifier for this run
    (defaults to the ``REPRO_VERIFY_SCHEDULE`` environment setting).
    """
    seed_global = None
    if initial_assignment is not None:
        seed_global = _labels_to_vertex_space(initial_assignment)
    if snapshots is not None:
        snapshots.begin_attempt(resume=resume)

    def main(comm: Communicator) -> LouvainResult:
        if resume:
            # resume is a driver argument, identical on every rank.
            return distributed_louvain(  # spmdlint: ignore[SPMD002]
                comm,
                None,
                config,
                checkpoint_dir=checkpoint_dir,
                checkpoint_every=checkpoint_every,
                checkpoint_every_iterations=checkpoint_every_iterations,
                resume=True,
                snapshots=snapshots,
            )
        dg = DistGraph.distribute(comm, g, partition=partition)
        seed_local = (
            seed_global[dg.vbegin:dg.vend] if seed_global is not None else None
        )
        return distributed_louvain(
            comm,
            dg,
            config,
            initial_assignment=seed_local,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            checkpoint_every_iterations=checkpoint_every_iterations,
            snapshots=snapshots,
        )

    spmd: SPMDResult = run_spmd(
        nranks,
        main,
        machine=machine,
        timeout=timeout,
        fault_plan=fault_plan,
        verify_schedule=verify_schedule,
    )
    result: LouvainResult = spmd.value
    result.elapsed = spmd.elapsed
    result.trace = spmd.trace
    return result


def _labels_to_vertex_space(labels: np.ndarray) -> np.ndarray:
    """Map arbitrary community labels into the vertex-id space.

    The distributed algorithm requires community ids to be vertex ids
    (the owner of community ``c`` is the owner of vertex ``c``).  Each
    community is renamed to its minimum member vertex id, which is
    always a valid vertex and stable under relabeling.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    if n == 0:
        return labels.copy()
    # Sort by (label, vertex id): the first entry of each label group is
    # that community's minimum member vertex.
    order = np.lexsort((np.arange(n), labels))
    sorted_labels = labels[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    first[1:] = sorted_labels[1:] != sorted_labels[:-1]
    uniq = sorted_labels[first]
    min_member = order[first]
    return min_member[np.searchsorted(uniq, labels)].astype(np.int64)
