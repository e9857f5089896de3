"""Distributed-memory parallel Louvain (the paper's Algorithms 2-4).

SPMD structure (executed identically on every rank); every step is a
named stage of this module:

Phase loop (Algorithm 2, :func:`distributed_louvain` → :func:`_run_phases`)
    begin the run (:func:`_begin_run`, then Grappolo's vertex-following
    pre-merge, :func:`_premerge_leaves`) or restore it
    (:func:`_restore_run`); per phase — until, at a boundary after the
    first phase, the rest is cheaper on one rank (:mod:`.tail`) and
    rank 0 finishes it alone (:func:`_finish_on_one_rank`) — Algorithm
    3, :func:`louvain_phase_distributed`.  The rank sets out its starting
    state (:func:`_begin_phase`: singleton, warm-started
    (:func:`_relabel`) or resumed labels, and with a seed or colouring
    the ghost plan first, a rendezvous of its own); then *one* scripted
    rendezvous runs the whole phase for every rank (:func:`_phase_world`),
    charging every op to each rank's own clock and trace, through the
    rank's :class:`~repro.runtime.comm.Communicator`, as it is made:

    * the set-up (:func:`_set_up_world`): ``ExchangeGhostVertices`` —
      the one-time-per-phase ghost coordinate exchange (Algorithm 4) and
      one full exchange of the ghost vertices' starting communities,
      priced from counts — and the stacking, which lays every rank's CSR
      slice, labels, owner tables, ghost maps and ET state end to end in
      world arrays (:class:`_WorldPhase`); the rank's objects hold their
      segments;
    * the iteration loop, to the tau test: per iteration
      (:func:`_iterate`) every rank draws its ET mask, then
      :func:`_world_iteration` runs steps ii-v for every rank, a step at
      a time — per colour round (:func:`_world_round`; one round without
      colouring) ii-iv, then v — each step a fixed number of numpy
      passes over the world arrays whatever the rank count; vi is each
      rank's:

      i.   the community of every ghost vertex as of the last
           synchronisation point is its label in the world's labels
           (lines 4-5; see step iv);
      ii.  :func:`_fetch_step`: every rank fetches current ``a_c``/size
           for every community its round's *active* vertices reference
           from the community owners (the lookup's request and reply
           legs, sized by the distinct communities each rank asks each
           owner for; category ``community_comm``);
      iii. :func:`_sweep_step`, snapshot sweep: the best move for every
           active local vertex against the fetched state (lines 6-9; the
           shared kernel from :mod:`repro.core.sweep`) — one kernel call
           over every rank's entries; each rank is charged its own
           ``compute``;
      iv.  :func:`_push_step`: one personalised exchange (the push)
           carries everything the moves changed, one message per peer:
           the ``a_c``/size deltas of the communities that peer owns,
           which it applies (lines 10-11), and the new community of every
           moved vertex it ghosts (the next sweep's lines 4-5, written
           into the world's labels) — ``community_comm``;
      v.   :func:`_modularity_step`: one allreduce combines the
           modularity partials — each rank's float sums over its own
           segment — with the move, activity and inactive-vertex counts
           (lines 12-13, ``allreduce``);
      vi.  :func:`_exit_tests`: the stats row and ETC's 90% exit on the
           inactive count the same allreduce delivered (§IV-B(b)) — no
           variant adds a collective; then the tau test;

    * the ghosts' communities read off the world's labels, and the end
      (:func:`_end_world`): distributed graph reconstruction (§IV-A(b)'s
      seven world steps, :mod:`~.coarsen`), statistics and exact Q (one
      allreduce), projection of the original vertices.

    The world leaves the rendezvous early only where rank-side code must
    run: after an iteration a checkpoint is due at (the rank cuts it,
    :func:`_save_checkpoint`, and the next rendezvous continues the
    phase), and before the end when Leiden refinement
    (:func:`_refine_phase`, relabelled like a warm start) or the audits
    run — the end is then a rendezvous of its own (:func:`_end_phase`).
    :func:`_finish_phase` records the phase;

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
answer and apply for the whole world at once; inside a phase the
world's tables *are* laid end to end, each rank's a segment.  Whatever
is ready at the same synchronisation point leaves in one message per
peer.  The world halves of those collectives
(:mod:`repro.runtime.comm`) price every rank's legs; the iteration
calls them, so no pricing lives here.

Inside the world the kernel sweeps global community ids: a ghost's
community is the world's label of that vertex, a fetched ``a_c``/size
the owner's table entry.  No rank's partial knowledge is kept as data:
its cost is reproduced from counts, its yield checked against the
per-rank iteration in ``tests/oracles/iteration_reference.py``.

Consistency semantics are the paper's: within an iteration every rank
decides against state from the last synchronisation point, so remote
community updates lag by one exchange (§III-B).  This is why the final
modularity can differ slightly from the serial reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.distgraph import (
    DistGraph, GhostPlan, ghost_exchange_world, ghost_plans_world,
    key_counts,
)
from ..graph.partition import even_vertex, owner_of
from ..runtime.comm import (
    Communicator, World, allgather_world, allreduce_world,
    lookup_world, push_world,
)
from ..runtime.executor import SPMDResult, run_spmd
from ..runtime.perfmodel import CORI_HASWELL, MachineModel
from .coarsen import (
    RebuildSeat, project_world, rebuild_distributed, rebuild_world,
    remote_lookup,
)
from .config import LouvainConfig
from .heuristics import (
    EarlyTermination, LayoutStreams, ThresholdCycler, make_rank_rng,
    update_activity,
)
from .refine import refine_communities
from .result import IterationStats, LouvainResult, PhaseStats, normalize_assignment
from .state import IterationState, RunState
from .sweep import (
    Segments,
    StackedSweep,
    SweepResult,
    SweepSlice,
    SweepWorkspace,
    propose_moves,
)
from .tail import gather_pays

_I8 = np.dtype(np.int64)


@dataclass(eq=False)
class _WorldPhase:
    """Every rank's share of one phase laid end to end in the world's
    workspace (:func:`_stack_world`), which the iteration's world
    function works on.  Ownership is contiguous from 0 and community ids
    are vertex ids, so a per-vertex array is indexed by vertex id (the
    stacked row) and community id alike: ``tot`` / ``size`` hold every
    community's a_c / |c|, ``local_comm`` any vertex's community, a
    ghost's as of the last synchronisation point included."""

    stack: StackedSweep
    workspace: SweepWorkspace
    total_weight: float
    resolution: float
    #: Per vertex: its community (the stack's ``cur``), the owner tables
    #: (``tot`` / ``size``, the paper's C_info), the activity ET drew for
    #: the iteration, whether it moved in the iteration and its colour
    #: (``None`` without colouring).
    local_comm: np.ndarray
    tot: np.ndarray
    size: np.ndarray
    active: np.ndarray
    moved: np.ndarray
    colors: np.ndarray | None
    #: ET's probabilities and inactive flags (``None`` without ET), and
    #: its constants.
    prob: np.ndarray | None
    inactive: np.ndarray | None
    alpha: float
    floor: float
    #: ``n * r`` of the rank ``r`` holding each vertex / each of every
    #: rank's ghosts laid end to end: plus a community id, a key that
    #: ascends by rank, then by id.
    rank_key: np.ndarray
    ghost_ids: np.ndarray
    ghost_key: np.ndarray
    #: Each rank's CSR targets (global ids) and the row of each of its
    #: entries: its ``DistGraph``'s own arrays, not copies.
    edges: list[np.ndarray]
    rows: list[np.ndarray]
    #: The send lists: every (owned vertex, rank ghosting it) pair's
    #: vertex and ``source * p + destination``, in owner order.
    send_ids: np.ndarray
    send_pairs: np.ndarray

    @property
    def offsets(self) -> np.ndarray:
        return self.stack.row_cuts


class _Seat(NamedTuple):
    """One rank's deposit in its phase's set-up (:func:`_set_up_world`):
    its run, the phase's starting state and what it derived from it
    (``colors`` ``None`` without colouring)."""

    run: RunState
    k: np.ndarray
    part: SweepSlice
    state: IterationState
    #: The rank's ghost plan, or — the set-up building it — its deposit
    #: for :func:`~repro.graph.distgraph.ghost_plans_world`.
    plan: GhostPlan | tuple
    colors: np.ndarray | None
    rounds: int


def _set_up_world(
    world: World, comms: Sequence[Communicator], seats: list[_Seat], *,
    resolution: float,
) -> list["_Phase"]:
    """The phase's set-up for every rank: every rank's ghost plan
    (Algorithm 4, :func:`~repro.graph.distgraph.ghost_plans_world`,
    unless the ranks brought theirs), the lines 4-5 exchange priced from
    the plans' counts — its values are the world's labels, so none are
    gathered (:func:`~repro.graph.distgraph.ghost_exchange_world`) — and
    the stacking (:func:`_stack_world`).  Returns every rank's
    :class:`_Phase`; its state (and ET state) hold their segments of the
    world's arrays from here, and each graph memoises its plan."""
    plans = [s.plan for s in seats]
    if not isinstance(plans[0], GhostPlan):
        plans = ghost_plans_world(world, comms, plans)
    ghost_exchange_world(
        world, comms, plans, seats[0].state.local_comm.itemsize
    )
    wp = _stack_world(world.workspace, resolution, seats, plans)
    return [
        _Phase(s.run, s.k, wp, plan, s.rounds, s.state)
        for s, plan in zip(seats, plans)
    ]


def _stack_world(
    workspace: dict, resolution: float, seats: list[_Seat],
    plans: list[GhostPlan],
) -> _WorldPhase:
    """Every seat copied into its segments of the world's arrays, each
    rank's state and ET state pointed at them; a table not as long as its
    rank's interval raises, naming the rank."""
    ws = SweepWorkspace.of(workspace)
    stack = ws.stack([s.part for s in seats])
    p, rows = len(seats), stack.row_cuts
    n = int(rows[-1])
    keys = np.arange(p, dtype=np.int64) * n
    et = seats[0].state.et
    wp = _WorldPhase(
        stack=stack,
        workspace=ws,
        total_weight=seats[0].run.dg.total_weight,
        resolution=resolution,
        local_comm=stack.cur,
        tot=ws.array("tot", n, np.float64),
        size=ws.array("size", n, np.int64),
        active=ws.array("drawn", n, bool),
        moved=ws.array("moved_any", n, bool),
        colors=(
            None if seats[0].colors is None
            else np.concatenate([s.colors for s in seats])
        ),
        prob=None if et is None else ws.array("prob", n, np.float64),
        inactive=None if et is None else ws.array("inactive", n, bool),
        alpha=0.0 if et is None else et.alpha,
        floor=0.0 if et is None else et.floor,
        rank_key=keys.repeat(np.diff(rows)),
        ghost_ids=np.concatenate([plan.ghost_ids for plan in plans]),
        ghost_key=keys.repeat([len(plan.ghost_ids) for plan in plans]),
        edges=[s.run.dg.edges for s in seats],
        rows=[s.part.rows for s in seats],
        send_ids=np.concatenate([plan.send_ids for plan in plans]),
        send_pairs=np.repeat(
            np.arange(p * p),
            np.concatenate([np.diff(plan.send_cuts) for plan in plans]),
        ),
    )
    wp.active[:] = True
    for r, s in enumerate(seats):
        a, b = rows[r], rows[r + 1]
        for name, table, what in (
            ("local_comm", wp.local_comm, "label array"),
            ("tot_owned", wp.tot, "owner table"),
            ("size_owned", wp.size, "owner table"),
        ):
            mine, segment = getattr(s.state, name), table[a:b]
            if len(mine) != b - a:
                raise ValueError(
                    f"rank {r}: {what} of {len(mine)} values "
                    f"for its {b - a} ids"
                )
            segment[:] = mine
            setattr(s.state, name, segment)
        if et is not None:
            wp.prob[a:b] = s.state.et.prob
            wp.inactive[a:b] = s.state.et.permanently_inactive
            s.state.et.prob = wp.prob[a:b]
            s.state.et.permanently_inactive = wp.inactive[a:b]
    _aim(wp)
    return wp


def _aim(wp: _WorldPhase) -> None:
    """The community of every stacked CSR entry's target, the kernel's
    ``target_comm``: the world's labels at each rank's own targets."""
    cuts = wp.stack.entry_cuts
    for r, edges in enumerate(wp.edges):
        wp.local_comm.take(
            edges, out=wp.stack.target[cuts[r]:cuts[r + 1]], mode="clip"
        )


@dataclass
class _Phase:
    """One phase's working set at one rank (Algorithm 3), built once by
    the phase's set-up (:func:`_set_up_world`) and handed whole to every
    stage.

    Only :attr:`state` is state (:mod:`repro.core.state`): the rest is
    derived from the graph slice and the starting labels, so a resumed
    phase rebuilds it exactly as a fresh one does.
    """

    #: The rank's run; the phase runs on its graph slice ``run.dg``.
    run: RunState
    #: Weighted degree of every owned vertex.
    k: np.ndarray
    #: Every rank's share of the phase, laid end to end.
    world: _WorldPhase
    #: The phase's ghost plan (Algorithm 4).
    plan: GhostPlan
    #: Sweep rounds per iteration: 1, or the number of colour classes
    #: (§VI future work: distance-1 colour classes, swept one after
    #: another so concurrently processed vertices are non-adjacent).
    rounds: int
    state: IterationState
    #: Community of every ghost vertex when the iterations ended, until
    #: Leiden refinement replaces them (``None`` before).
    ghost_comm: np.ndarray | None = None
    #: ETC's inactive-fraction exit ended the phase.
    exited_by_inactive: bool = False
    #: The phase's end (:func:`_end_world`) — the coarsened slice, the
    #: reduced :func:`_phase_partials` and the new original-vertex map —
    #: once the world has closed the phase (``None`` before).
    ended: tuple[DistGraph, np.ndarray, np.ndarray] | None = None

    @property
    def dg(self) -> DistGraph:
        return self.run.dg

    @property
    def index(self) -> int:
        return self.run.phase

    @property
    def active(self) -> np.ndarray:
        """This rank's segment of the iteration's drawn activity."""
        return self.world.active[self.dg.vbegin:self.dg.vend]


def louvain_phase_distributed(
    comm: Communicator,
    run: RunState,
    tau: float,
    config: LouvainConfig,
    checkpoints=None,
    rejoin: IterationState | None = None,
) -> _Phase:
    """Algorithm 3: phase ``run.phase`` at this rank, on ``run.dg``; one
    scripted rendezvous (:func:`_phase_world`) runs it for every rank.
    Returns the phase as it ended — closed (:attr:`_Phase.ended`) unless
    Leiden or the audits come first.  A pending ``run.seed_assignment``
    (community id per *owned* vertex, in the vertex-id space) seeds it
    instead of singletons — the incremental mode's warm start.

    ``checkpoints`` (resilience subsystem) is the run's save-point
    object: after every non-final iteration its cadence makes due — at
    the same iterations on every rank — the world leaves, this rank cuts
    the checkpoint of its live :class:`~repro.core.state.IterationState`
    and the next rendezvous continues the phase.  ``rejoin`` is such a
    state, and rejoins the loop after its last iteration.
    """
    seat = _begin_phase(comm, run, config, rejoin)
    due = None if checkpoints is None else checkpoints.should_checkpoint_iteration
    step = partial(_phase_world, tau, config, due)
    phase, paused = comm.scripted("phase", seat, step)
    while paused:
        _save_checkpoint(checkpoints, comm, run, phase.state)
        phase, paused = comm.scripted("phase", phase, step)
    return phase


def _phase_world(
    tau: float,
    config: LouvainConfig,
    due: Callable[[int], bool] | None,
    world: World,
    comms: Sequence[Communicator],
    deposits: list,
) -> list[tuple[_Phase, bool]]:
    """The phase for every rank: the set-up (:func:`_set_up_world`) —
    unless the deposits are phases a checkpoint paused — then the
    iterations (:func:`_iterate`) until the tau test or ETC's exit ends
    the phase, the ghosts' communities read off the world's labels and,
    unless Leiden or the audits must come first (:func:`_ends_in_world`),
    the end (:func:`_end_world`).  The world leaves early after an
    iteration ``due(it)`` names: the phase goes on past it on every rank
    (the exit tests read replicated values), so the ranks cut a
    checkpoint there.  Returns every rank's phase and whether it
    paused."""
    phases = deposits
    if isinstance(deposits[0], _Seat):
        phases = _set_up_world(
            world, comms, deposits, resolution=config.resolution
        )
    state = phases[0].state
    for it in range(state.iteration + 1, config.max_iterations):
        exited = _iterate(world, comms, phases, it, config)
        if exited or state.q - state.prev_q <= tau:
            break
        for phase in phases:
            phase.state.prev_q = phase.state.q
        if due is not None and due(it):
            return [(phase, True) for phase in phases]
    for phase in phases:
        phase.ghost_comm = phase.world.local_comm.take(phase.plan.ghost_ids)
    if _ends_in_world(config):
        ends = _end_world(world, comms, [_closing(ph) for ph in phases])
        for phase, end in zip(phases, ends):
            phase.ended = end
    return [(phase, False) for phase in phases]


def _ends_in_world(config: LouvainConfig) -> bool:
    """Whether the phase's world closes it: Leiden and the audits run on
    the rank side first, and the end is then a rendezvous of its own
    (:func:`_end_phase`)."""
    return config.refine != "leiden" and not config.validate_invariants


def _begin_phase(
    comm: Communicator,
    run: RunState,
    config: LouvainConfig,
    rejoin: IterationState | None,
) -> _Seat:
    """The phase's starting state — rejoined, warm-started or singleton —
    and what the rank derives from it before the set-up: the sweep's
    slice of its graph and, for a warm start's seed or colouring, the
    ghost plan (Algorithm 4, a rendezvous of its own, the seed's push
    and the colouring's rounds coming between it and the set-up's
    exchange).  A one-rank run standing for a wider world
    (``run.layout_ranks``) draws ET as that world would."""
    dg = run.dg
    k = dg.local_degrees()
    # The first phase a run begins consumes the warm start (a phase
    # rejoined mid-way is already past it).
    seed, run.seed_assignment = run.seed_assignment, None
    if rejoin is not None:
        seed = None
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
    colors, rounds = None, 1
    if seed is not None or config.use_coloring:
        plan = dg.build_ghost_plan(comm)
        if seed is not None:
            # Warm start: the seed as one batch of moves.
            if len(seed) != dg.num_local:
                raise ValueError(
                    f"initial_assignment covers {len(seed)} vertices, "
                    f"rank owns {dg.num_local}"
                )
            _relabel(comm, dg, k, state, np.asarray(seed, dtype=np.int64))
        if config.use_coloring:
            colors, rounds = _coloring(comm, dg, plan, config.seed)
    # Lines 4-5 in full, once per phase, come in the set-up, priced as
    # the paper runs them (later rounds ship only what changed).  Inside
    # the world a ghost's community is its label there: the copies are
    # not kept.
    return _Seat(
        run, k,
        SweepSlice(
            dg.index, dg.weights, np.flatnonzero(~dg.self_loop_mask()),
            dg.local_rows(), k,
        ),
        state,
        dg.plan_seat() if dg.ghost_plan is None else dg.ghost_plan,
        colors, rounds,
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
    state.local_comm[:] = labels


def _coloring(
    comm: Communicator, dg: DistGraph, plan: GhostPlan, seed: int
) -> tuple[np.ndarray, int]:
    """The colour of every owned vertex in a distance-1 coloring, and the
    world's colour count: every rank sweeps that many rounds."""
    from .coloring import distributed_coloring

    colors = distributed_coloring(comm, dg, plan, seed=seed)
    num_colors = int(comm.allreduce(
        int(colors.max()) + 1 if dg.num_local else 0, op="max",
        category="other",
    ))
    return colors, num_colors


def _iterate(
    world: World,
    comms: Sequence[Communicator],
    phases: list[_Phase],
    it: int,
    config: LouvainConfig,
) -> bool:
    """Iteration ``it`` of the phase for every rank: each rank draws its
    ET mask, :func:`_world_iteration` runs steps (ii)-(v) — per colour
    round the lookup's two legs and the push, then the allreduce, each
    op charged to every rank's clock and trace as it is made — and each
    rank takes (vi) on the reduced vector; returns whether ETC's
    inactive-fraction exit fired (replicated, so on every rank)."""
    for phase in phases:
        et = phase.state.et
        if et is not None:
            # ET: vertices mark themselves active/inactive first (§IV-B(b)).
            phase.active[:] = et.draw_active()
    # The allreduce hands every rank the same vector.
    total = _world_iteration(world, comms, phases)[0]
    w = phases[0].dg.total_weight
    q = (
        float(total[0] / w - config.resolution * total[1] / (w * w))
        if w > 0
        else 0.0
    )
    for phase in phases:
        phase.state.q = q
    return _exit_tests(phases, it, config, total)


def _world_iteration(
    world: World, comms: Sequence[Communicator], phases: list[_Phase]
) -> list[np.ndarray]:
    """Steps (ii)-(v) of one iteration for every rank (Algorithm 3,
    lines 4-13): one :func:`_world_round` per colour round, then
    :func:`_modularity_step`.  Every rank decides against the same
    synchronisation point, so doing the ranks' work a step at a time for
    all of them computes what the ranks would between collectives; each
    rank's charges go through ``comms[r]``.  Returns every rank's
    reduced step-(v) vector."""
    wp = phases[0].world
    wp.moved[:] = False
    for k in range(phases[0].rounds):
        wp.moved |= _world_round(world, comms, phases, k)
    return _modularity_step(world, comms, phases)


def _world_round(
    world: World, comms: Sequence[Communicator], phases: list[_Phase], k: int
) -> np.ndarray:
    """Steps (i)-(iv) of colour round ``k`` for every rank: the fetch,
    the sweep (in global ids: (i), a ghost's community, is its label in
    the world's), each rank's compute charged for its own pairs as if it
    had swept alone, and the push.  Updates the labels, the owner tables
    and the entries' target communities in place and returns the
    world's moved mask, valid until the next sweep."""
    wp = phases[0].world
    stack = wp.stack
    if wp.colors is None:
        stack.active[:] = wp.active
    else:
        np.logical_and(wp.colors == k, wp.active, out=stack.active)
    scanned = _fetch_step(world, comms, wp)
    res = _sweep_step(stack, wp.tot, wp.size, wp.total_weight, wp.resolution)
    cost = world.machine.compute_cost
    for comm, pairs, entries, nloc in zip(
        comms, res.segment_pairs.tolist(), scanned,
        np.diff(stack.row_cuts).tolist(),
    ):
        comm.charge("compute", cost(pairs + entries + nloc))
    _push_step(world, comms, wp, res)
    return res.moved


def _fetch_step(
    world: World, comms: Sequence[Communicator], wp: _WorldPhase
) -> list[int]:
    """Step (ii): every rank fetches a_c and |c| of the communities its
    round evaluates — its active vertices' and their neighbours' (with a
    full active set, every vertex's it holds) — in one lookup for the
    world, ``community_comm``, sized by the distinct ``(rank,
    community)`` keys; the sweep reads the owners' tables itself.
    Returns how many entries each rank's sweep scans."""
    stack = wp.stack
    active = stack.active
    n, cuts, vcuts = len(wp.local_comm), stack.entry_cuts, wp.offsets
    scratch = stack.plan.scratch
    flags = _key_flags(wp)
    own = np.add(wp.rank_key, wp.local_comm, out=scratch.empty(n, _I8))
    if active.all():
        flags[own] = True
        ghost = scratch.take(wp.local_comm, wp.ghost_ids)
        ghost += wp.ghost_key
        flags[ghost] = True
        scanned = np.diff(cuts).tolist()
    else:
        flags[own[active]] = True
        scanned = []
        for r, (rows, lo, hi) in enumerate(zip(wp.rows, cuts, cuts[1:])):
            mark = scratch.top
            hit = scratch.take(active[vcuts[r]:vcuts[r + 1]], rows)
            scanned.append(int(np.count_nonzero(hit)))
            targets = stack.target[lo:hi].compress(
                hit, out=scratch.empty(scanned[-1], _I8)
            )
            targets += r * n
            flags[targets] = True
            scratch.top = mark
    lookup_world(
        world, comms, None,
        key_counts(wp.offsets, np.flatnonzero(flags), len(wp.edges)),
        (wp.tot, wp.size), category="community_comm",
    )
    return scanned


def _key_flags(wp: _WorldPhase) -> np.ndarray:
    """One cleared flag per ``(rank, community)`` key ``n * rank + c``, in
    the kernel's scratch (free between sweeps; reset here)."""
    scratch = wp.stack.plan.scratch
    scratch.top = 0
    flags = scratch.empty(len(wp.rank_key) * len(wp.edges), np.dtype(bool))
    flags[:] = False
    return flags


def _sweep_step(
    stack: StackedSweep,
    tot: np.ndarray,
    size: np.ndarray,
    total_weight: float,
    resolution: float,
) -> SweepResult:
    """Step (iii), the local move computation (lines 6-9), for every rank
    at once: the ranks' sweeps are independent, so one
    :func:`propose_moves` runs over the stack's global community ids
    against the owners' tables ``tot`` / ``size``.  The result's
    proposals and moved mask are the stack's, valid until the next
    sweep; ``segment_pairs`` counts each rank's pairs."""
    return propose_moves(
        index=stack.index,
        target_comm=stack.target,
        weights=None,
        self_mask=None,
        degrees=stack.degrees,
        cur_comm=stack.cur,
        total_weight=total_weight,
        tot_lookup=tot.take,
        size_lookup=size.take,
        active=stack.active,
        resolution=resolution,
        plan=stack.plan,
        segments=Segments(stack.row_cuts),
    )


def _push_step(
    world: World, comms: Sequence[Communicator], wp: _WorldPhase,
    res: SweepResult,
) -> None:
    """Step (iv): everything the moves changed, one message per peer —
    the a_c/|c| deltas of the communities it owns (lines 10-11; netted
    per rank), which it applies, and the new community of every moved
    vertex it ghosts (the next round's lines 4-5): one push for the
    world, ``community_comm``.  The moved vertices are relabelled (line
    9) in the world's labels, where every ghost reads them, so the
    labels are priced, not delivered; every entry is then re-aimed."""
    p, n = len(comms), len(wp.local_comm)
    rows = np.flatnonzero(res.moved)
    new = res.proposal.take(rows)
    _check_vertex_space(wp, rows, new)
    key = wp.rank_key.take(rows)
    old = wp.local_comm.take(rows)
    old += key
    key += new
    keys, dtot, dsize = _world_deltas(wp, old, key, wp.stack.degrees[rows])
    wp.local_comm[rows] = new
    counts = key_counts(wp.offsets, keys, p)
    # The new labels of the moved vertices other ranks ghost.
    changed = res.moved.take(wp.send_ids)
    sent = wp.send_ids.compress(changed)
    routed = np.bincount(
        wp.send_pairs.compress(changed), minlength=p * p
    ).reshape(p, p)
    push_world(
        world, comms, np.remainder(keys, n, out=keys), counts,
        (dtot, dsize), (wp.tot, wp.size),
        carry=(routed, sent, wp.local_comm.take(sent)),
        category="community_comm",
    )
    _aim(wp)


def _world_deltas(
    wp: _WorldPhase, old: np.ndarray, new: np.ndarray, deg: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Net (a_c, |c|) delta per ``(rank, community)`` key every rank's
    moves touched (the moves given as keys), keys ascending: the touched
    keys are flagged, not sorted, and :func:`aggregate_dense_deltas`
    runs over their positions — a key is one rank's, so each rank's sums
    are its own, added in the order it would add them alone."""
    flags = _key_flags(wp)
    flags[old] = True
    flags[new] = True
    keys = np.flatnonzero(flags)
    at = wp.stack.plan.scratch.empty(len(flags), _I8)
    at[keys] = wp.workspace.positions(len(keys))
    return aggregate_dense_deltas(keys, at.take(old), at.take(new), deg)


def _check_vertex_space(
    wp: _WorldPhase, rows: np.ndarray, ids: np.ndarray
) -> None:
    """A move to an id outside the vertex space has no owner: it raises,
    naming the rank whose vertex moved, rather than land in a
    neighbouring rank's run of keys."""
    n = int(wp.offsets[-1])
    bad = (ids < 0) | (ids >= n)
    if bad.any():
        rank = np.searchsorted(wp.offsets, rows[bad][0], side="right") - 1
        raise ValueError(
            f"rank {rank}: ids outside the vertex space [0, {n}): "
            f"{int(ids[bad].min())} .. {int(ids[bad].max())}"
        )


def _modularity_step(
    world: World, comms: Sequence[Communicator], phases: list[_Phase]
) -> list[np.ndarray]:
    """Step (v), global modularity (lines 12-13): every rank's
    modularity partials and move / active / inactive counts (the world's
    ET state updated on the way), the same 5-vector on every variant,
    folded by the iteration's one allreduce; returns the reduced
    vectors.

    The rounds' pushes have delivered every move, so both sides of every
    stored entry evaluate under the *post-move* assignment: the estimate
    is a function of the global assignment alone and cannot depend on
    which endpoints happen to be rank-local under the current layout (a
    requirement for bit-identity across rank counts and input
    partitions).  Each sweep still decided against the synchronisation
    point before it (§III-B)."""
    wp = phases[0].world
    stack = wp.stack
    cost = world.machine.compute_cost
    scratch = stack.plan.scratch
    if wp.prob is not None:
        update_activity(wp.prob, wp.inactive, wp.moved, wp.alpha, wp.floor)
    squares = np.square(wp.tot)
    partials = []
    ecuts, vcuts = stack.entry_cuts.tolist(), wp.offsets.tolist()
    for r, (comm, phase) in enumerate(zip(comms, phases)):
        e0, e1, v0, v1 = ecuts[r], ecuts[r + 1], vcuts[r], vcuts[r + 1]
        comm.charge("compute", cost(e1 - e0))
        scratch.top = 0
        intra = scratch.take(wp.local_comm[v0:v1], wp.rows[r])
        intra = np.equal(
            intra, stack.target[e0:e1],
            out=scratch.empty(e1 - e0, np.dtype(bool)),
        )
        # a_c^2 is summed *before* dividing by w^2 (like _record_phase's
        # exact Q) so the reduction is exact for integer weights — the
        # per-rank grouping of communities then cannot perturb Q, which
        # keeps every rank count and input partition bit-identical.  The
        # three counts ride along: below 2**53 they sum exactly in
        # float64 in any order.  (Colour classes are disjoint, so no
        # vertex moves twice in one iteration.)  Each rank's float sums
        # are over its own segment, as it would sum them alone (numpy's
        # pairwise order, not left to right).
        partials.append(np.array([
            float(phase.dg.weights.compress(intra).sum()),
            float(squares[v0:v1].sum()),
            float(np.count_nonzero(wp.moved[v0:v1])),
            float(np.count_nonzero(wp.active[v0:v1])),
            float(
                0 if wp.inactive is None
                else np.count_nonzero(wp.inactive[v0:v1])
            ),
        ]))
    return allreduce_world(world, comms, partials, category="allreduce")


def _exit_tests(
    phases: Sequence[_Phase], it: int, config: LouvainConfig,
    total: np.ndarray,
) -> bool:
    """Step (vi) for ``phases`` (ranks of one phase, each with its ``q``
    set) on the replicated result of step (v): the iteration's stats row,
    one immutable row every rank appends, then ETC's exit on the global
    inactive count the allreduce delivered (§IV-B(b)); returns whether it
    fired."""
    first = phases[0]
    n_global = first.dg.num_global_vertices
    inactive_fraction = float(total[4] / n_global) if n_global else 0.0
    row = IterationStats(
        phase=first.index, iteration=it, modularity=first.state.q,
        moves=int(total[2]),
        active_fraction=float(total[3] / n_global) if n_global else 1.0,
        inactive_fraction=inactive_fraction,
    )
    exited = (
        config.variant.uses_inactive_exit
        and inactive_fraction >= config.etc_exit_fraction
    )
    for phase in phases:
        phase.state.stats.append(row)
        phase.state.iteration = it
        phase.exited_by_inactive = exited
    return exited


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
    the community owners, who apply them in source-rank order: one
    :meth:`~repro.runtime.comm.Communicator.push`, ``community_comm``,
    which every rank makes even with zero moves.  ``labels`` —
    ``(counts, ids, values)`` in destination order — leave in the same
    messages; returns the ``(ids, values)`` every rank sent here, in
    source order (``()`` without labels)."""
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
    phase (rejoining ``rejoin``, a mid-phase state; ``manager``'s
    iteration cadence cutting checkpoints inside it) and finish it."""
    cycler = (
        ThresholdCycler(config)
        if config.variant.uses_threshold_cycling
        else None
    )
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
        phase = louvain_phase_distributed(
            comm, run, tau, config, manager, rejoin
        )
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
    """Finish ``phase`` — refinement, audits and the end (graph rebuild,
    stats and exact Q, projection) unless its world closed it — record
    it, track it, and advance ``run`` to the next one; returns whether
    there is a next one."""
    state = phase.state
    if config.refine == "leiden":
        _refine_phase(comm, phase)
    if config.validate_invariants:
        _audit_phase(comm, phase)
    if phase.ended is None:
        phase.ended = _end_phase(comm, run, phase)
    new_dg, total, run.orig_slice = phase.ended
    _record_phase(run, phase, tau, total, config.resolution)
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


def _end_phase(
    comm: Communicator, run: RunState, phase: _Phase
) -> tuple[DistGraph, np.ndarray, np.ndarray]:
    """The phase's end as a rendezvous of its own (:func:`_end_world`),
    after Leiden's or the audits' collectives: the §IV-A(b) rebuild, the
    statistics' allreduce and the projection.  Returns the coarsened
    slice, the reduced :func:`_phase_partials` and the new
    original-vertex map."""
    return comm.scripted("phase_end", _closing(phase), _end_world)


class _Closing(NamedTuple):
    """One rank's deposit in its phase's end (:func:`_end_world`): its
    rebuild seat, original-vertex map and cross-rank entry count."""

    seat: RebuildSeat
    orig_slice: np.ndarray
    cross: int


def _closing(phase: _Phase) -> _Closing:
    """A rank's deposit in its phase's end, made inside the world."""
    run, state = phase.run, phase.state
    return _Closing(
        RebuildSeat(run.dg, state.local_comm, phase.ghost_comm),
        run.orig_slice, _cross_entries(run),
    )


def _end_world(
    world: World, comms: Sequence[Communicator], closing: list[_Closing]
) -> list[tuple[DistGraph, np.ndarray, np.ndarray]]:
    """The phase's end for every rank: the §IV-A(b) rebuild
    (:func:`~repro.core.coarsen.rebuild_world`), the allreduce of every
    rank's :func:`_phase_partials` and the projection of the original
    vertices (:func:`~repro.core.coarsen.project_world`).  Returns each
    rank's coarsened slice, reduced partials and new map."""
    rebuilt = rebuild_world(world, comms, [c.seat for c in closing])
    totals = allreduce_world(world, comms, [
        _phase_partials(c, new_dg) for c, (new_dg, _) in zip(closing, rebuilt)
    ], category="allreduce")
    projected = project_world(
        world, comms, closing[0].seat.dg.offsets,
        [c.orig_slice for c in closing], [new for _, new in rebuilt],
    )
    return [
        (new_dg, total, orig)
        for (new_dg, _), total, orig in zip(rebuilt, totals, projected)
    ]


def _phase_partials(closing: _Closing, new_dg: DistGraph) -> np.ndarray:
    """One rank's share of :func:`_record_phase`'s sums.  Achieved layout
    quality of the graph the phase ran on — the cross-rank fraction of
    stored adjacency entries, beside their total — and the coarsened
    graph's in_c and a_c² for the exact Q.  Counts sum exactly in
    float64, so they share the vector."""
    return np.array([
        float(closing.cross),
        float(closing.seat.dg.num_local_entries),
        float(new_dg.local_self_loops().sum()),
        float(np.square(new_dg.local_degrees()).sum()),
    ])


def _record_phase(
    run: RunState,
    phase: _Phase,
    tau: float,
    total: np.ndarray,
    resolution: float,
) -> None:
    """Append the finished phase's iterations and its
    :class:`PhaseStats` to the run's history and set ``run.final_mod``
    to the phase's exact Q, from ``total``, the phase end's one small
    allreduce of :func:`_phase_partials`.

    The per-iteration modularity is computed against the stale ghost
    view (the paper's semantics).  The coarsened graph gives the *exact*
    value for free: each meta vertex's self loop carries the
    intra-community weight (in_c) and its degree is the community's
    incident weight (a_c), both fully synchronised after the rebuild.
    """
    dg, stats = run.dg, phase.state.stats
    run.iterations.extend(stats)
    cross, entries, in_c, sq_a_c = total
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
        return dg.num_cross_entries()
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
    """Fold one coarsening of ``run.dg`` into the original-vertex map,
    one lookup rendezvous (:func:`~repro.core.coarsen.project_world`)."""
    run.orig_slice = comm.scripted(
        "lookup", (run.dg.offsets, run.orig_slice, local_new),
        _project_ranks,
    )


def _project_ranks(
    world: World, comms: Sequence[Communicator], deposits: list[tuple]
) -> list[np.ndarray]:
    """:func:`~repro.core.coarsen.project_world` over per-rank deposits
    ``(offsets, orig_slice, local_new)``."""
    offsets, origs, tables = zip(*deposits)
    return project_world(world, comms, offsets[0], list(origs), list(tables))


def _gather_result(comm: Communicator, run: RunState) -> LouvainResult:
    """Assemble the replicated original-vertex assignment: one allgather,
    normalised once for the world; every rank gets the same read-only
    array."""
    return LouvainResult(
        modularity=run.final_mod,
        assignment=comm.scripted(
            "allgather", run.orig_slice, _assignment_world
        ),
        phases=run.phases,
        iterations=run.iterations,
        phase_assignments=run.phase_assignments,
    )


def _assignment_world(
    world: World, comms: Sequence[Communicator], pieces: list[np.ndarray]
) -> list[np.ndarray]:
    """The result's allgather for every rank, and the assignment it
    yields normalised once."""
    allgather_world(world, comms, pieces, category="other")
    assignment = normalize_assignment(np.concatenate(pieces))
    assignment.flags.writeable = False
    return [assignment] * len(pieces)


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
    # The ranks shared one read-only assignment; the caller, who keeps
    # rank 0's result alone, may write to it.
    result.assignment.flags.writeable = True
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
