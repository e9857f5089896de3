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
      (:func:`_relabel`) or resumed labels, then
      ``ExchangeGhostVertices`` — one-time-per-phase ghost coordinate
      exchange (Algorithm 4; :meth:`DistGraph.build_ghost_plan`) and one
      full exchange of the ghost vertices' starting communities;
    * iteration loop (Algorithm 3, :func:`louvain_phase_distributed`).
      Each :func:`_iterate` is one rendezvous: the rank draws its ET mask
      and consults the fault plan for the iteration's ops, then one
      world function (:func:`_world_iteration`) runs steps ii-v for
      every rank, a step at a time — per colour round
      (:func:`_world_round`; one round without colouring) ii-iv, then
      v — and hands each rank the charges its ops made, which it
      replays (:class:`~repro.runtime.comm.Script`); vi is the rank's:

      i.   the community of every ghost vertex as of the last
           synchronisation point is already in place (lines 4-5; see
           step iv);
      ii.  :func:`_fetch_step`: every rank fetches current ``a_c``/size
           for every community its round's *active* vertices reference
           from the community owners (the lookup's request and reply
           legs; category ``community_comm``);
      iii. :func:`_sweep_step`, snapshot sweep: the best move for every
           active local vertex against the fetched state (lines 6-9; the
           shared kernel from :mod:`repro.core.sweep`) — one kernel call
           over every rank's entries, laid end to end once per phase by
           :func:`_stack_sweep`; each rank is charged its own
           ``compute``;
      iv.  :func:`_push_step`: one personalised exchange (the push)
           carries everything the moves changed, one message per peer:
           the ``a_c``/size deltas of the communities that peer owns,
           which it applies (lines 10-11), and the new community of every
           moved vertex it ghosts (the next sweep's lines 4-5) —
           ``community_comm``;
      v.   :func:`_modularity_step`: one allreduce combines the
           modularity partials with the move, activity and
           inactive-vertex counts (lines 12-13, ``allreduce``);
      vi.  :func:`_exit_tests`: the stats row and ETC's 90% exit on the
           inactive count the same allreduce delivered (§IV-B(b)) — no
           variant adds a collective; then the tau test and, the phase
           going on, an optional checkpoint (:func:`_save_checkpoint`);

    * finish the phase (:func:`_finish_phase`): Leiden refinement
      (:func:`_refine_phase`, relabelled like a warm start), audits,
      distributed graph reconstruction (§IV-A(b); :mod:`~.coarsen`),
      statistics and exact Q (one allreduce), projection of the
      original vertices;

    and gather the assignment (:func:`_gather_result`).

What the two loops carry from one synchronisation point to the next is
one object each (:mod:`repro.core.state`), mutated in place and handed
whole to the checkpoint.  A phase's whole working set — its graph
slice, what it derives once from it, its ``IterationState`` and how it
ended — is one :class:`_Phase`, built once per phase and handed to
every stage.

Community ids live in the vertex-id space, and a community is owned by
the rank owning the same-numbered vertex, so owners keep *dense*
``a_c``/size arrays over their vertex interval — the ``C_info`` vector
of Algorithm 3.  Ownership is contiguous (§IV), so anything routed by
owner — community requests, deltas, ghost updates — is an ascending id
array cut into one slice per rank (:meth:`DistGraph.cuts`), and the
owners' tables laid end to end are indexed by global id, so the owners
answer and apply for the whole world at once.  Whatever is ready
at the same synchronisation point leaves in one message per peer.  The
world halves of those collectives (:mod:`repro.runtime.comm`) price
every rank's legs; the iteration calls them, so no pricing lives here.  What
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
from typing import Sequence

import numpy as np

from ..graph.csr import CSRGraph, sorted_unique
from ..graph.distgraph import DistGraph, GhostPlan
from ..graph.partition import even_vertex, owner_of
from ..runtime.comm import (
    Communicator, Script, World, allreduce_world, lookup_world, push_world,
)
from ..runtime.executor import SPMDResult, run_spmd
from ..runtime.perfmodel import CORI_HASWELL, MachineModel
from .coarsen import owner_request, rebuild_distributed, remote_lookup
from .config import LouvainConfig
from .heuristics import (
    EarlyTermination, LayoutStreams, ThresholdCycler, make_rank_rng,
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
        self._ctargets = dg.compressed_targets()
        self.target = self.slot.take(self._ctargets, out=target, mode="clip")
        #: Local slots of the plan's send list (the owned vertex ids
        #: each rank ghosts, in destination order).
        self.send_loc = np.asarray(dg.to_local(plan.send_ids))

    def publish(
        self, local_comm: np.ndarray, moved: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """This round's labels by destination rank: ``(counts, vertex
        ids, new communities)`` of the ``moved`` owned vertices each rank
        ghosts, in destination order, ``counts[d]`` of them for rank
        ``d``.  The round ships them with its deltas (:func:`_push_step`)
        and hands what came back to :meth:`absorb`.  ``slot`` must
        already hold the moved vertices' own new positions (the kernel
        proposes in positions, so the caller has them for free)."""
        sel = np.flatnonzero(moved[self.send_loc])
        counts = np.diff(np.searchsorted(sel, self.plan.send_cuts))
        return counts, self.plan.send_ids[sel], local_comm[self.send_loc[sel]]

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
    in the world's workspace, as one input of :func:`_sweep_step`."""
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


@dataclass
class _Phase:
    """One phase's working set at this rank (Algorithm 3), built once by
    :func:`_begin_phase` and handed whole to every stage.

    Only :attr:`state` is state (:mod:`repro.core.state`): the rest is
    derived from the graph slice and the starting labels, so a resumed
    phase rebuilds it exactly as a fresh one does.
    """

    #: The rank's slice of the graph the phase runs on, and its index.
    dg: DistGraph
    index: int
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
    state: IterationState
    #: Community of every ghost vertex as of the last exchange: the
    #: view's copies, which the rounds patch in place, until Leiden
    #: refinement replaces them.
    ghost_comm: np.ndarray
    #: ETC's inactive-fraction exit ended the phase.
    exited_by_inactive: bool = False


def louvain_phase_distributed(
    comm: Communicator,
    run: RunState,
    tau: float,
    config: LouvainConfig,
    checkpoint_hook=None,
    rejoin: IterationState | None = None,
) -> _Phase:
    """Algorithm 3: the Louvain iterations of phase ``run.phase`` at this
    rank, on ``run.dg``; returns the phase as it ended.  A pending
    ``run.seed_assignment`` (community id per *owned* vertex, in the
    vertex-id space) seeds it instead of singletons — the incremental
    mode's warm start.

    ``checkpoint_hook`` (resilience subsystem) is called at the end of
    every non-final iteration — at the same iterations on every rank —
    with the live :class:`~repro.core.state.IterationState`; ``rejoin``
    is such a state, and rejoins the loop after its last iteration.
    """
    phase = _begin_phase(comm, run, config, rejoin)
    state = phase.state
    for it in range(state.iteration + 1, config.max_iterations):
        phase.exited_by_inactive = _iterate(comm, phase, it, config)
        if phase.exited_by_inactive or state.q - state.prev_q <= tau:
            break
        state.prev_q = state.q
        if checkpoint_hook is not None:
            # The phase continues past this iteration on every rank
            # (all exit tests are derived from replicated global
            # values), so cutting a checkpoint here is collective-safe.
            checkpoint_hook(state)
    return phase


def _begin_phase(
    comm: Communicator,
    run: RunState,
    config: LouvainConfig,
    rejoin: IterationState | None,
) -> _Phase:
    """The phase's starting state — rejoined, warm-started or singleton —
    and everything derived from it: ghost set-up (Algorithm 4), colour
    classes, and the community view after the phase's one full ghost
    exchange (Algorithm 3, lines 4-5).  A one-rank run standing for a
    wider world (``run.layout_ranks``) draws ET as that world would."""
    dg = run.dg
    plan = dg.build_ghost_plan(comm)
    k = dg.local_degrees()
    sweep = _stack_sweep(comm, SweepSlice(
        dg.index, dg.weights, np.flatnonzero(~dg.self_loop_mask()),
        dg.local_rows(), k,
    ), dg.total_weight, config.resolution)
    # The first phase a run begins consumes the warm start (a phase
    # rejoined mid-way is already past it).
    seed, run.seed_assignment = run.seed_assignment, None
    if rejoin is not None:
        # Rejoin the loop exactly where the checkpoint was cut.
        state = rejoin
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
                make_rank_rng(config.seed, comm.rank, run.phase)
                if run.layout_ranks is None
                else LayoutStreams(
                    config.seed,
                    run.phase,
                    np.diff(even_vertex(dg.num_local, run.layout_ranks)),
                ),
            )
        if seed is not None:
            # Warm start: a copy of the seed (the rounds relabel in
            # place) as one batch of moves.
            if len(seed) != dg.num_local:
                raise ValueError(
                    f"initial_assignment covers {len(seed)} vertices, "
                    f"rank owns {dg.num_local}"
                )
            _relabel(comm, dg, k, state, np.array(seed, dtype=np.int64))
    color_classes = (
        _color_classes(comm, dg, plan, config.seed)
        if config.use_coloring
        else None
    )
    # Later rounds ship only what changed.  The view is derived state:
    # the full exchange of a resumed phase reproduces the ghost values
    # the uninterrupted run holds at this point.
    view = _CommunityView(
        dg, plan, state.local_comm,
        dg.exchange_ghost_values(
            comm, plan, state.local_comm, category="ghost_comm"
        ),
        target=sweep.target,
    )
    return _Phase(
        dg, run.phase, k, sweep, view, color_classes, state, view.values
    )


def _relabel(
    comm: Communicator,
    dg: DistGraph,
    k: np.ndarray,
    state: IterationState,
    labels: np.ndarray,
) -> None:
    """Move the owned vertices to ``labels`` as one batch outside the
    sweep — a warm start's seed or Leiden's split: the owner-side C_info
    follows through the same delta exchange as a round's moves."""
    moved = labels != state.local_comm
    _apply_community_deltas(
        comm, dg,
        *aggregate_deltas(state.local_comm[moved], labels[moved], k[moved]),
        tot_owned=state.tot_owned, size_owned=state.size_owned,
    )
    state.local_comm = labels


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
    comm: Communicator, phase: _Phase, it: int, config: LouvainConfig
) -> bool:
    """Iteration ``it`` of the phase: one rendezvous, in which
    :func:`_world_iteration` runs steps (ii)-(v) for every rank, then
    (vi).  Updates ``phase.state`` in place and returns whether ETC's
    inactive-fraction exit fired; the tau test is the caller's.

    Before the rendezvous the rank draws its ET mask and consults the
    fault plan for the iteration's ops — per colour round the lookup's
    request and reply legs and the push, then the allreduce — so a
    kill raises here, at its op.  After it the rank replays the charges
    and legs those ops made (:class:`~repro.runtime.comm.Script`)."""
    et = phase.state.et
    # ET: vertices mark themselves active/inactive first (§IV-B(b)).
    active = (
        et.draw_active()
        if et is not None
        else np.ones(phase.dg.num_local, dtype=bool)
    )
    # The round count is len(rounds) — 1, or the allreduced colour
    # count — replicated even though each round's active *mask* is
    # rank-local (the mask only gates local move proposals).
    rounds = (
        [active]
        if phase.color_classes is None
        else [active & cls for cls in phase.color_classes]
    )
    ops = [("alltoall", "community_comm")] * (3 * len(rounds))
    ops.append(("allreduce", "allreduce"))
    total = comm.scripted(
        "iteration", ops, _Turn(phase, active, rounds, config.resolution),
        _world_iteration,
    )
    return _exit_tests(phase, it, config, total)


@dataclass(frozen=True)
class _Turn:
    """One rank's deposit in its iteration's rendezvous: the phase, the
    active mask ET drew, each colour round's share of it (the whole of it
    without colouring) and the resolution."""

    phase: _Phase
    active: np.ndarray
    rounds: list[np.ndarray]
    resolution: float


def _world_iteration(
    world: World, scripts: Sequence[Script], turns: list[_Turn]
) -> list[np.ndarray]:
    """Steps (ii)-(v) of one iteration for every rank (Algorithm 3,
    lines 4-13): one :func:`_world_round` per colour round, then
    :func:`_modularity_step`.  Every rank decides against the same
    synchronisation point, so doing the ranks' work one step at a time
    for all of them is what the ranks doing it between collectives
    computes; each ``scripts[r]`` meanwhile records rank ``r``'s
    charges.  Returns every rank's reduced step-(v) vector."""
    moved = [np.zeros(t.phase.dg.num_local, dtype=bool) for t in turns]
    for k in range(len(turns[0].rounds)):
        round_moved = _world_round(world, scripts, turns, k)
        for acc, mask in zip(moved, round_moved):
            acc |= mask
    return _modularity_step(world, scripts, turns, moved)


def _world_round(
    world: World, scripts: Sequence[Script], turns: list[_Turn], k: int
) -> list[np.ndarray]:
    """Steps (i)-(iv) of colour round ``k`` for every rank: the fetch,
    the sweep, each rank's compute charged for its own pairs as if it had
    swept alone, and the push.  Updates the phases' labels, owner-side
    C_info and views in place (``view.values`` is current again on
    return) and returns each rank's moved mask, valid until the next
    sweep.

    (i) The community of every ghost vertex as of the last exchange
    (lines 4-5) is in each view, already numbered densely: the kernel
    works in positions of ``view.ids``."""
    actives = [t.rounds[k] for t in turns]
    infos, scanned = _fetch_step(world, scripts, turns, actives)
    sweeps = _sweep_step([
        (t.phase.sweep, t.phase.view.slot[:t.phase.dg.num_local], active,
         info, t.phase.view.ids)
        for t, active, info in zip(turns, actives, infos)
    ])
    cost = world.machine.compute_cost
    for script, t, sweep, entries in zip(scripts, turns, sweeps, scanned):
        pairs = sweep[2]
        script.charge("compute", cost(pairs + entries + t.phase.dg.num_local))
    _push_step(world, scripts, turns, sweeps)
    return [moved for _, moved, _ in sweeps]


def _fetch_step(
    world: World,
    scripts: Sequence[Script],
    turns: list[_Turn],
    actives: list[np.ndarray],
) -> tuple[list[np.ndarray], list[int]]:
    """Step (ii): every rank fetches a_c and |c| of the communities its
    round evaluates — neighbours of its active vertices and their own —
    in one lookup (request and reply legs, ``community_comm``).  Every
    slot is a local vertex or the target of a local entry, so a full
    active set needs the community of every slot; a partial one flags its
    candidates.  Returns, per rank, the dense table (row 0: a_c, row 1:
    |c|, by position in ``view.ids``) and how many entries its sweep
    scans.  Unfetched communities — among them ids nobody there holds
    any more — stay NaN, which ``array_lookup`` turns into the
    ``KeyError`` a protocol bug deserves."""
    asks, wanted, scanned = [], [], []
    for t, active in zip(turns, actives):
        dg, view, state = t.phase.dg, t.phase.view, t.phase.state
        flags = np.zeros(len(view.ids), dtype=bool)
        if active.all():
            scanned.append(dg.num_local_entries)
            flags[view.slot] = True
        else:
            active_entries = active[dg.local_rows()]
            scanned.append(int(np.count_nonzero(active_entries)))
            flags[view.target[active_entries]] = True
            flags[view.slot[:dg.num_local][active]] = True
        wanted.append(np.flatnonzero(flags))
        asks.append(owner_request(
            dg.offsets, dg.rank, view.ids[wanted[-1]],
            (state.tot_owned, state.size_owned),
        ))
    infos = []
    for t, want, (tot, size) in zip(
        turns, wanted, lookup_world(world, scripts, asks)
    ):
        info = np.full((2, len(t.phase.view.ids)), np.nan)
        info[0, want], info[1, want] = tot, size
        infos.append(info)
    return infos, scanned


def _sweep_step(rounds) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """Step (iii), the local move computation (lines 6-9), for every rank
    at once: the ranks' sweeps are independent, so one
    :func:`propose_moves` runs over the stack (:func:`_stack_sweep`).
    ``rounds[r]`` is rank ``r``'s ``(sweep, current dense communities,
    active flags, dense (a_c, |c|) table, ids)``: the first two go into
    its segment of the stack (its targets are there already); its
    tables, laid end to end, back the lookups, each rank's positions
    shifted by the ids of the ranks before (one rank is one segment,
    with nothing to shift).  Returns, per rank, its proposals, moved
    mask and pair count — the stack's, valid until the next sweep."""
    for sweep, cur, active, _, _ in rounds:
        sweep.cur[:] = cur
        sweep.active[:] = active
    sweep = rounds[0][0]
    stack = sweep.stack
    lengths = [len(r[4]) for r in rounds]
    shift = np.zeros(len(rounds), dtype=np.int64)
    np.cumsum(lengths[:-1], out=shift[1:])
    total = sum(lengths)
    ids = stack.workspace.array("ids", total, np.int64)
    info = stack.workspace.array("info", 2 * total, np.float64)
    info = info.reshape(2, total)
    np.concatenate([r[4] for r in rounds], out=ids)
    np.concatenate([r[3] for r in rounds], axis=1, out=info)
    res = propose_moves(
        index=stack.index,
        target_comm=stack.target,
        weights=None,
        self_mask=None,
        degrees=stack.degrees,
        cur_comm=stack.cur,
        total_weight=sweep.total_weight,
        tot_lookup=array_lookup(ids, info[0], shift),
        size_lookup=array_lookup(ids, info[1], shift),
        active=stack.active,
        resolution=sweep.resolution,
        plan=stack.plan,
        segments=Segments(stack.row_cuts, shift),
    )
    cuts = stack.row_cuts
    return [
        (res.proposal[a:b], res.moved[a:b], int(pairs))
        for a, b, pairs in zip(cuts[:-1], cuts[1:], res.segment_pairs)
    ]


def _push_step(
    world: World,
    scripts: Sequence[Script],
    turns: list[_Turn],
    sweeps: list[tuple[np.ndarray, np.ndarray, int]],
) -> None:
    """Step (iv): everything the moves changed, one message per peer —
    the a_c/|c| deltas of the communities it owns (lines 10-11;
    duplicates pre-aggregated in the view's dense space), which it
    applies, and the new community of every moved vertex it ghosts (the
    next round's lines 4-5): one push for the world, ``community_comm``.
    Each rank relabels its moved vertices (line 9) first and absorbs
    what was carried to it last."""
    deposits = []
    for t, (proposal, moved, _) in zip(turns, sweeps):
        phase = t.phase
        dg, view, state = phase.dg, phase.view, phase.state
        ids, local_dense = view.ids, view.slot[:dg.num_local]
        rows = np.flatnonzero(moved)
        new_dense = proposal[rows]
        delta_ids, dtot, dsize = aggregate_dense_deltas(
            ids, local_dense[rows], new_dense, phase.k[rows]
        )
        state.local_comm[rows] = ids[new_dense]
        local_dense[rows] = new_dense
        deposits.append((
            delta_ids, dg.cuts(delta_ids), (dtot, dsize),
            (state.tot_owned, state.size_owned),
            view.publish(state.local_comm, moved),
        ))
    for t, carried in zip(turns, push_world(world, scripts, deposits)):
        t.phase.view.absorb(*carried)


def _modularity_step(
    world: World,
    scripts: Sequence[Script],
    turns: list[_Turn],
    moved: list[np.ndarray],
) -> list[np.ndarray]:
    """Step (v), global modularity (lines 12-13): every rank's
    modularity partials and move / active / inactive counts (its ET
    state updated on the way), the same 5-vector on every variant,
    folded by the iteration's one allreduce; sets each
    ``phase.state.q`` and returns the reduced vectors.

    The rounds' pushes have delivered every move, so both sides of every
    stored entry evaluate under the *post-move* assignment: the estimate
    is a function of the global assignment alone and cannot depend on
    which endpoints happen to be rank-local under the current layout (a
    requirement for bit-identity across rank counts and input
    partitions).  Each sweep still decided against the synchronisation
    point before it (§III-B)."""
    cost = world.machine.compute_cost
    partials = []
    for script, t, mask in zip(scripts, turns, moved):
        dg, view, state = t.phase.dg, t.phase.view, t.phase.state
        intra = view.slot[dg.local_rows()] == view.target
        local_in = float(dg.weights.compress(intra).sum())
        script.charge("compute", cost(dg.num_local_entries))
        inactive = state.et.update(mask) if state.et is not None else 0
        # a_c^2 is summed *before* dividing by w^2 (like _record_phase's
        # exact Q) so the reduction is exact for integer weights — the
        # per-rank grouping of communities then cannot perturb Q, which
        # keeps every rank count and input partition bit-identical.  The
        # three counts ride along: below 2**53 they sum exactly in
        # float64 in any order.  (Colour classes are disjoint, so no
        # vertex moves twice in one iteration.)
        partials.append(np.array([
            local_in, float(np.square(state.tot_owned).sum()),
            float(np.count_nonzero(mask)), float(t.active.sum()),
            float(inactive),
        ]))
    totals = allreduce_world(world, scripts, partials)
    for t, total in zip(turns, totals):
        w = t.phase.dg.total_weight
        t.phase.state.q = (
            float(total[0] / w - t.resolution * total[1] / (w * w))
            if w > 0
            else 0.0
        )
    return totals


def _exit_tests(
    phase: _Phase, it: int, config: LouvainConfig, total: np.ndarray
) -> bool:
    """Step (vi) on the replicated result of step (v): the iteration's
    stats row, then ETC's exit on the global inactive count the
    allreduce delivered (§IV-B(b)); returns whether it fired."""
    state = phase.state
    n_global = phase.dg.num_global_vertices
    inactive_fraction = float(total[4] / n_global) if n_global else 0.0
    state.stats.append(IterationStats(
        phase=phase.index, iteration=it, modularity=state.q,
        moves=int(total[2]),
        active_fraction=float(total[3] / n_global) if n_global else 1.0,
        inactive_fraction=inactive_fraction,
    ))
    state.iteration = it
    return (
        config.variant.uses_inactive_exit
        and inactive_fraction >= config.etc_exit_fraction
    )


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
    labels: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, ...]:
    """Route aggregated (a_c, |c|) deltas of this rank's moves
    (:func:`aggregate_deltas`: ``ids`` ascending and duplicate-free) to
    the community owners, who apply them in source-rank order
    (:meth:`~repro.runtime.comm.Communicator.push`).

    ``labels`` — a sweep round's :meth:`_CommunityView.publish`,
    ``(counts, ids, values)`` in destination order — leaves in the same
    message as that rank's delta slice; returns the ``(ids, values)``
    every rank sent here, concatenated in source order (``()`` without
    labels).  One exchange, charged to ``community_comm``; every rank
    participates even with zero moves (the collective is unconditional
    in Algorithm 3).
    """
    return comm.push(
        ids, dg.cuts(ids), (dtot, dsize), (tot_owned, size_owned),
        carry=labels, category="community_comm",
    )


def distributed_louvain(
    comm: Communicator,
    dg: DistGraph | None,
    config: LouvainConfig | None = None,
    initial_assignment: np.ndarray | None = None,
    *,
    checkpoints=None,
    resume: bool = False,
) -> LouvainResult:
    """Algorithm 2: the full multi-phase distributed Louvain at one rank.

    Returns the (replicated) result; ``assignment`` covers the original
    global vertex set.  ``elapsed``/``trace`` are filled by the driver
    (:func:`run_louvain`) from the executor's clocks.

    ``initial_assignment`` warm-starts phase 0 from an existing
    community per owned vertex (global community ids drawn from the
    vertex-id space) — the incremental/dynamic re-detection mode.

    Resilience (see :mod:`repro.resilience`): ``checkpoints`` — one
    :class:`~repro.resilience.checkpoint.CheckpointManager` shared by
    every rank, on disk or in memory
    (:class:`~repro.resilience.snapshots.RunSnapshots`) — cuts the
    distributed state at its cadence.  With ``resume=True`` the run
    restarts from its latest valid save point instead of the input graph
    (``dg`` may then be ``None``); a resumed run reproduces the
    uninterrupted run's final labels and modularity bit for bit.
    """
    config = config or LouvainConfig()
    if dg is None and not resume:
        raise ValueError("dg may only be None when resume=True")
    if resume:
        # The restored graph is the post-merge one.
        run, rejoin = _restore_run(comm, checkpoints, config)
    else:
        run, rejoin = _begin_run(comm, dg, config, initial_assignment), None
        # Warm starts (incremental re-detection) skip the merge: the
        # seed already places every vertex.
        if config.vertex_following and initial_assignment is None:
            _premerge_leaves(comm, run)
    _run_phases(
        comm, run, config, checkpoints, rejoin,
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
) -> None:
    """Algorithm 2's phase loop, from ``run.phase`` until the run
    converges: checkpoint the boundary (``manager``, unless it is the
    one ``restored_at``), then — the graph cheap enough on one rank —
    finish on rank 0 (:func:`_finish_on_one_rank`), or else run the
    phase (rejoining ``rejoin``, a mid-phase state) and close it."""
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
            comm.machine, comm.size, run.dg.num_global_vertices,
            2 * run.phases[-1].num_edges + 1,
        ):
            _finish_on_one_rank(comm, run, config)
            break
        phase = louvain_phase_distributed(comm, run, tau, config, hook, rejoin)
        rejoin = None
        if not _finish_phase(comm, run, phase, tau, config, cycler):
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
            found = _run_tail(solo, run, parts, config)
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
) -> tuple[np.ndarray, float, list[PhaseStats], list[IterationStats]]:
    """Rank 0's share of :func:`_finish_on_one_rank`, on the one-rank
    ``comm``: the gathered slices joined into one graph, each meta
    vertex its own original vertex, and the phase loop run over it as
    the ranks it was gathered from would have (``layout_ranks``).
    Returns the meta vertex -> community map, the final Q and the
    phases' statistics."""
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
    tail.layout_ranks = len(parts)
    _run_phases(comm, tail, config)
    if config.track_assignments:
        orig = np.concatenate([part[3] for part in parts])
        run.phase_assignments.extend(m[orig] for m in tail.phase_assignments)
    return tail.orig_slice, tail.final_mod, tail.phases, tail.iterations


def _begin_run(
    comm: Communicator,
    dg: DistGraph,
    config: LouvainConfig,
    initial_assignment: np.ndarray | None,
) -> RunState:
    """A fresh run's state: the input slice, every original vertex this
    rank loaded (its phase-0 interval) its own meta vertex."""
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
    rank-local read in memory): the run state and, for a mid-phase
    checkpoint, the iteration state its phase rejoins at."""
    from ..resilience.louvain_state import unpack_rank_state

    if manager is None:
        raise ValueError("resume=True requires checkpoints=")
    manifest, meta, arrays = manager.load_latest(comm)
    # Refuse to resume under semantics the checkpoint was not taken
    # with.  Config and manifest are replicated, so every rank raises.
    if manifest.config_key != config.cache_key():
        raise ValueError(
            f"checkpoint {manifest.directory} was written by config "
            f"[{manifest.label}] (key {manifest.config_key[:12]}…) but "
            f"the resuming config is [{config.label()}] (key "
            f"{config.cache_key()[:12]}…); resuming across configs "
            "would corrupt the run"
        )
    run, rejoin, clock = unpack_rank_state(comm.rank, meta, arrays, config)
    # Resumed modelled time = time at the checkpoint + restore cost
    # accrued so far on this fresh world.
    comm.clock += clock
    return run, rejoin


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
        comm, dg.offsets, leaf_targets, entry_counts, category="rebuild"
    )
    local_comm = own_ids.copy()
    if len(leaves):
        leaf_ids = own_ids[leaves]
        local_comm[leaves] = np.where(
            tgt_deg == 1, np.maximum(leaf_ids, leaf_targets), leaf_targets
        )
    comm.charge_compute(dg.num_local)
    plan = dg.build_ghost_plan(comm)
    ghost_comm = dg.exchange_ghost_values(
        comm, plan, local_comm, category="ghost_comm"
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
    from ..resilience.louvain_state import pack_iteration_state, pack_phase_state

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
    phase: _Phase,
    tau: float,
    config: LouvainConfig,
    cycler: ThresholdCycler | None,
) -> bool:
    """Close ``phase`` — refinement, audits, graph rebuild, stats and
    exact Q, projection, tracking — and advance ``run`` to the next
    one; returns whether there is a next one."""
    state = phase.state
    if config.refine == "leiden":
        _refine_phase(comm, phase)
    if config.validate_invariants:
        _audit_phase(comm, phase)

    new_dg, local_new = rebuild_distributed(
        comm, run.dg, state.local_comm, phase.ghost_comm
    )
    _record_phase(comm, run, phase, tau, new_dg, config.resolution)
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
    phase: _Phase,
    tau: float,
    new_dg: DistGraph,
    resolution: float,
) -> None:
    """Append the finished phase's iterations and its
    :class:`PhaseStats` to the run's history and set ``run.final_mod``
    to the phase's exact Q — one small allreduce for both.

    The per-iteration modularity is computed against the stale ghost
    view (the paper's semantics).  The coarsened graph ``new_dg`` gives
    the *exact* value for free: each meta vertex's self loop carries the
    intra-community weight (in_c) and its degree is the community's
    incident weight (a_c), both fully synchronised after the rebuild.
    """
    dg, stats = run.dg, phase.state.stats
    run.iterations.extend(stats)
    # Achieved layout quality of the graph this phase ran on: the
    # cross-rank fraction of stored adjacency entries, beside their
    # total.  Counts sum exactly in float64, so they share the vector.
    partial = np.array(
        [
            float(_cross_entries(run)),
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
            modularity=phase.state.q,
            num_vertices=dg.num_global_vertices,
            # stored entries ~ 2 per edge
            num_edges=int(entries) // 2,
            exited_by_inactive=phase.exited_by_inactive,
            ghost_fraction=float(cross / entries) if entries else 0.0,
        )
    )


def _cross_entries(run: RunState) -> int:
    """Stored entries of ``run.dg`` whose target another rank owns — or,
    on a gathered tail, another rank of the ``run.layout_ranks``-rank
    even-vertex layout it stands for."""
    dg = run.dg
    if run.layout_ranks is None:
        return int(np.count_nonzero(~dg.is_owned(dg.edges)))
    layout = even_vertex(dg.num_global_vertices, run.layout_ranks)
    rows = dg.from_local(dg.local_rows())
    return int(np.count_nonzero(
        owner_of(layout, rows) != owner_of(layout, dg.edges)
    ))


def _refine_phase(comm: Communicator, phase: _Phase) -> None:
    """Leiden-style refinement: split every community into its connected
    components before coarsening, the owner-side C_info kept
    audit-consistent with the split (:func:`_relabel`).

    Zero-edge cuts mean in_c is preserved while the a_c^2 penalty can
    only shrink, so modularity never decreases; connected communities
    are merely renamed to their minimum member (the rebuild renumbers
    canonically either way).
    """
    ref_local, phase.ghost_comm = refine_communities(
        comm, phase.dg, phase.state.local_comm, phase.ghost_comm
    )
    _relabel(comm, phase.dg, phase.k, phase.state, ref_local)


def _audit_phase(comm: Communicator, phase: _Phase) -> None:
    """``validate_invariants``: the phase's final labels, owner-side
    C_info and ghost copies must agree across ranks."""
    from .validate import (
        audit_community_info,
        audit_ghost_coherence,
        audit_partition,
    )

    dg, state = phase.dg, phase.state
    audit_community_info(
        comm, dg, state.local_comm, state.tot_owned, state.size_owned
    ).raise_if_failed()
    audit_partition(comm, dg, state.local_comm).raise_if_failed()
    audit_ghost_coherence(
        comm, dg, state.local_comm, phase.ghost_comm
    ).raise_if_failed()


def _project(comm: Communicator, run: RunState, local_new: np.ndarray) -> None:
    """Fold one coarsening of ``run.dg`` into the original-vertex map:
    the new meta id of original vertex o is ``local_new[to_local(x)]``
    at the owner of o's current meta vertex x."""
    dg = run.dg
    run.orig_slice = remote_lookup(
        comm, dg.offsets, run.orig_slice, local_new, category="rebuild"
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
    checkpoints=None,
    resume: bool = False,
    fault_plan=None,
) -> LouvainResult:
    """Driver: distribute ``g`` over ``nranks`` simulated ranks and run.

    The returned result carries the modelled execution time and the
    per-category trace of the whole SPMD run.  ``initial_assignment``
    (community id per *global* vertex; any integer labels) warm-starts
    the run — see :mod:`repro.core.dynamic`.

    Resilience (see :mod:`repro.resilience`): ``checkpoints`` is where
    the run's save points go — a
    :class:`~repro.resilience.checkpoint.CheckpointManager` on disk or
    :class:`~repro.resilience.snapshots.RunSnapshots` in memory, built
    once by the caller and reusable across attempts; ``resume=True``
    restarts from its latest valid save point (the input graph is not
    re-distributed — state comes from the save point);
    ``fault_plan`` injects deterministic failures
    (:class:`repro.resilience.faults.FaultPlan`).
    """
    seed_global = None
    if initial_assignment is not None:
        if len(initial_assignment) != g.num_vertices:
            raise ValueError(
                f"initial_assignment covers {len(initial_assignment)} "
                f"vertices, graph has {g.num_vertices}"
            )
        seed_global = _labels_to_vertex_space(initial_assignment)
    if checkpoints is not None:
        checkpoints.begin_attempt(resume=resume)

    def main(comm: Communicator) -> LouvainResult:
        dg = seed_local = None
        # resume is run_louvain's argument, identical on every rank.
        if not resume:
            dg = DistGraph.distribute(comm, g, partition=partition)
            if seed_global is not None:
                seed_local = seed_global[dg.vbegin:dg.vend]
        return distributed_louvain(
            comm, dg, config, seed_local, checkpoints=checkpoints, resume=resume
        )

    spmd: SPMDResult = run_spmd(
        nranks,
        main,
        machine=machine,
        timeout=timeout,
        fault_plan=fault_plan,
    )
    result: LouvainResult = spmd.value
    result.elapsed = spmd.elapsed
    result.trace = spmd.trace
    return result


def _labels_to_vertex_space(labels: np.ndarray) -> np.ndarray:
    """Map arbitrary community labels into the vertex-id space.

    The distributed algorithm requires community ids to be vertex ids
    (the owner of community ``c`` is the owner of vertex ``c``).  Each
    community is renamed to its minimum member vertex id — the first
    occurrence of its label — which is always a valid vertex and stable
    under relabeling.
    """
    _, first, inverse = np.unique(
        np.asarray(labels, dtype=np.int64),
        return_index=True,
        return_inverse=True,
    )
    return first[inverse].astype(np.int64)
