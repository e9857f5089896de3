"""The world's Louvain iterations against the per-rank iteration.

A detection is one rendezvous, and each of its iterations
(``_iterate``) runs Algorithm 3's steps (ii)-(v) for every rank inside
it, charging each rank's ops to its own clock and trace as they are
made.  The formulation it replaced — a ``lookup``, the rank's sweep and
a ``push`` per colour round, then an ``allreduce``, each its own
rendezvous with the rank's work between them — is kept in
``tests/oracles/iteration_reference.py``, which runs it on every rank's
own thread in the world iteration's place.  After every iteration (where
the world closes one, and after each of the oracle's) every rank must
hold what it holds there: owner tables, labels, the community
of every slot (owned vertices, then ghosts) and of every CSR entry's
target, ET state, clock, and the trace's seconds by category, messages,
bytes and collective counts, fault-plan delays included.  The world
reads a ghost's community off its labels; the oracle keeps the rank's
own copies, patched with the labels its pushes deliver.  A rank killed at any op
of an iteration or of a phase boundary fails the world with its own
``InjectedFault`` (the others ``RankAborted``), and a resume from disk
checkpoints ends as the uninterrupted run does — also when the killed
iteration follows the world's exit for a checkpoint.  The
configs include the paths that reassign a rank's labels or ghost copies
outside the rounds (vertex following, Leiden, a warm start): each rank's
state is a segment of the world's arrays, which must never go stale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LouvainConfig, Variant, distlouvain, run_louvain
from repro.graph import CSRGraph
from repro.resilience import FaultPlan
from repro.runtime import CORI_HASWELL, FREE, RankFailedError
from repro.runtime.comm import Communicator
from repro.runtime.errors import InjectedFault

from .conftest import disk_checkpoints, planted_blocks_graph
from .oracles import iteration_reference

CONFIGS = {
    "baseline": LouvainConfig(),
    "et": LouvainConfig(variant=Variant.ET, alpha=0.5, seed=3),
    "etc": LouvainConfig(variant=Variant.ETC, alpha=0.25, seed=1),
    "coloring": LouvainConfig(use_coloring=True, seed=5),
    "resolution": LouvainConfig(variant=Variant.ET, alpha=0.5, resolution=0.7),
    # The paths that reassign a rank's labels or ghost copies outside
    # the rounds (the vertex-following pre-merge, Leiden's relabelling,
    # a warm start's seed), where a stale segment of the world's arrays
    # would show.
    "vertex following": LouvainConfig(vertex_following=True),
    "leiden": LouvainConfig(refine="leiden", seed=2),
    "warm start": LouvainConfig(variant=Variant.ET, alpha=0.5, seed=6),
}
#: Configs run from a seed assignment (``initial_assignment``).
WARM = {"warm start"}


def _graph(fractional: bool) -> CSRGraph:
    g = planted_blocks_graph(blocks=5, per_block=14, inter_edges=45, seed=4)
    if not fractional:
        return g
    rng = np.random.default_rng(9)
    rows = np.repeat(np.arange(g.num_vertices), np.diff(g.index))
    keep = rows <= g.edges  # each undirected edge once, loops once
    u, v = rows[keep], g.edges[keep]
    return CSRGraph.from_edges(
        g.num_vertices, u, v, 0.25 + rng.random(len(u)) * 2.0
    )


def _delays(p: int) -> FaultPlan:
    """Delays on a third of every rank's first 400 ops, a different
    third per rank: lookup request and reply legs, pushes and allreduces
    all get some, on some ranks and not others."""
    return FaultPlan(delays={
        (r, op): 1e-5 * (1 + (op * 7 + r) % 5)
        for r in range(p) for op in range(1, 400) if (op + r) % 3 == 0
    })


def _et_state(et) -> list:
    """ET's probabilities, inactive flags and generator state(s)."""
    if et is None:
        return []
    rngs = getattr(et.rng, "streams", [et.rng])
    return [
        et.prob.copy(), et.permanently_inactive.copy(),
        [rng.bit_generator.state for rng in rngs],
    ]


def _world_ghosts(phase):
    """The ghosts' communities as the world holds them: its labels."""
    return phase.world.local_comm.take(phase.plan.ghost_ids)


def _own_ghosts(phase):
    """The ghosts' communities as the oracle's rank holds them."""
    return phase.ghost_comm


def _after_every_iteration(
    g, p, config, iterations, ghosts, fault_plan, initial_assignment=None
):
    """Per rank, a snapshot after every iteration of the detection, hooked
    in by ``iterations`` (the oracle's ``world_iterations`` or
    ``per_rank_iterations``; ``ghosts(phase)``: the rank's ghosts'
    communities)."""
    seen = {rank: [] for rank in range(p)}

    def snapshot(comm, phase, exited):
        state, t = phase.state, comm.trace
        slots = np.concatenate([state.local_comm, ghosts(phase)])
        seen[comm.rank].append(dict(
            arrays=[a.copy() for a in (
                state.tot_owned, state.size_owned, state.local_comm,
                slots, slots[phase.dg.compressed_targets()],
            )],
            et=_et_state(state.et),
            scalars=(
                exited, state.q, state.iteration, comm.clock, comm._ops,
                t.messages_sent, t.messages_received, t.bytes_sent,
                t.bytes_received,
            ),
            seconds=dict(t.seconds),
            collectives=dict(t.collectives),
        ))

    with pytest.MonkeyPatch.context() as patch:
        iterations(patch, snapshot)
        result = run_louvain(
            g, p, config, machine=CORI_HASWELL, fault_plan=fault_plan,
            initial_assignment=initial_assignment,
        )
    return seen, result


def _assert_equal_snapshots(got, want):
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        for x, y in zip(a["arrays"], b["arrays"]):
            assert x.dtype == y.dtype
            np.testing.assert_array_equal(x, y)
        assert len(a["et"]) == len(b["et"])
        for x, y in zip(a["et"][:2], b["et"][:2]):
            np.testing.assert_array_equal(x, y)
        assert a["et"][2:] == b["et"][2:]
        assert a["scalars"] == b["scalars"]
        assert a["seconds"] == b["seconds"]
        assert a["collectives"] == b["collectives"]


@pytest.mark.parametrize("p", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("fractional", [False, True])
def test_world_iteration_equals_per_rank_iteration(p, config, fractional):
    g, cfg = _graph(fractional), CONFIGS[config]
    # Blocks of seven consecutive vertices, across the planted blocks.
    warm = np.arange(g.num_vertices) // 7 if config in WARM else None
    runs = [
        _after_every_iteration(g, p, cfg, iterations, ghosts, _delays(p), warm)
        for iterations, ghosts in (
            (iteration_reference.world_iterations, _world_ghosts),
            (iteration_reference.per_rank_iterations, _own_ghosts),
        )
    ]
    (got, got_result), (want, want_result) = runs
    for rank in range(p):
        _assert_equal_snapshots(got[rank], want[rank])
    np.testing.assert_array_equal(
        got_result.assignment, want_result.assignment
    )
    assert got_result.modularity == want_result.modularity
    assert got_result.elapsed == want_result.elapsed
    assert (
        got_result.trace.seconds_by_category()
        == want_result.trace.seconds_by_category()
    )


# ----------------------------------------------------------------------
# Kill points
# ----------------------------------------------------------------------
VICTIM = 1
KILL_GRAPH = dict(blocks=6, per_block=16, inter_edges=70, seed=2)


def _iteration_ops(
    g, p, config, d, every
) -> list[list[tuple[int, str, str]]]:
    """The victim's ``(op index, op, category)`` of every iteration of
    the first phase, from an uninterrupted run checkpointing to ``d``
    after every ``every`` iterations (the saves are collectives too)."""
    ops: list = []
    iterations: list = []
    real_hook = Communicator._fault_hook
    real_iterate = distlouvain._iterate

    def hook(self, name, category):
        if self.rank == VICTIM and self.size == p:
            ops.append((self._ops + 1, name, category))
        return real_hook(self, name, category)

    def iterate(world, comms, phases, *args):
        start = len(ops)
        exited = real_iterate(world, comms, phases, *args)
        if len(phases) == p and phases[VICTIM].index == 0:
            iterations.append(ops[start:])
        return exited

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Communicator, "_fault_hook", hook)
        patch.setattr(distlouvain, "_iterate", iterate)
        run_louvain(
            g, p, config, machine=FREE,
            checkpoints=disk_checkpoints(d, config, every_iterations=every),
        )
    return iterations


KILLS = {
    "lookup request": (False, 0),
    "lookup reply": (False, 1),
    "push": (False, 2),
    "allreduce": (False, -1),
    "colour round lookup request": (True, 3),
    "colour round lookup reply": (True, 4),
    "colour round push": (True, 5),
}


@pytest.mark.parametrize("where", list(KILLS))
def test_kill_at_each_op_of_an_iteration(where, tmp_path):
    """The third iteration, under a checkpoint after every iteration: the
    world left for the checkpoint after the second, and the phase's next
    rendezvous opened with the killed iteration."""
    _kill_in_iteration(where, tmp_path, every=1, killed=2)


@pytest.mark.parametrize("where", list(KILLS))
def test_kill_at_each_op_of_a_continued_rendezvous(where, tmp_path):
    """The fourth iteration, under a checkpoint after every other one:
    the world left for the checkpoint after the second, and the killed
    iteration follows the third inside the rendezvous that continued the
    phase."""
    _kill_in_iteration(where, tmp_path, every=2, killed=3)


def _kill_in_iteration(where, tmp_path, every, killed):
    coloring, at = KILLS[where]
    p = 3
    g = planted_blocks_graph(**KILL_GRAPH)
    cfg = LouvainConfig(variant=Variant.ET, alpha=0.5, seed=4,
                        use_coloring=coloring)
    iterations = _iteration_ops(g, p, cfg, str(tmp_path / "probe"), every)
    assert len(iterations) > killed
    # A checkpoint after the second iteration is on disk.
    ops = iterations[killed]
    rounds = (len(ops) - 1) // 3
    assert rounds > 1 if coloring else rounds == 1
    assert [name for _, name, _ in ops] == ["alltoall"] * 3 * rounds + [
        "allreduce"
    ]
    op, name, _ = ops[at]
    ref = run_louvain(g, p, cfg, machine=FREE)

    d = str(tmp_path / "ck")
    with pytest.raises(RankFailedError) as excinfo:
        run_louvain(
            g, p, cfg, machine=FREE,
            checkpoints=disk_checkpoints(d, cfg, every_iterations=every),
            fault_plan=FaultPlan(kills={VICTIM: op}),
        )
    assert excinfo.value.rank == VICTIM
    assert set(excinfo.value.causes) == {VICTIM}
    cause = excinfo.value.causes[VICTIM]
    assert isinstance(cause, InjectedFault)
    assert (cause.rank, cause.op_index, cause.op_name) == (VICTIM, op, name)

    res = run_louvain(
        g, p, cfg, machine=FREE, checkpoints=disk_checkpoints(d, cfg),
        resume=True,
    )
    np.testing.assert_array_equal(res.assignment, ref.assignment)
    assert res.modularity == ref.modularity
    assert res.iterations == ref.iterations
    assert res.phases == ref.phases


#: The victim's ops at the end of a phase, in order: the rebuild's
#: notification, allgather, answer and meta edges, the statistics'
#: allreduce and the projection's request and reply.
END_OPS = [
    "alltoall", "allgather", "alltoall", "alltoall", "allreduce",
    "alltoall", "alltoall",
]


def _boundary_ops(g, p, config, d) -> dict[str, list[tuple[int, str, str]]]:
    """The victim's ``(op index, op, category)`` of the second phase's
    set-up (from the world's ``_begin_phase`` for the victim to its
    ``_set_up_world``) and end (``_end_world``), from an uninterrupted
    run checkpointing to ``d`` after every iteration."""
    ops: list = []
    seen: dict = {}
    ends: list = []
    begun: list = []
    real_hook = Communicator._fault_hook
    real_begin = distlouvain._begin_phase
    real_set_up = distlouvain._set_up_world
    real_end = distlouvain._end_world

    def hook(self, name, category):
        if self.rank == VICTIM and self.size == p:
            ops.append((self._ops + 1, name, category))
        return real_hook(self, name, category)

    def begin(comm, run, *args):
        if comm.rank == VICTIM and comm.size == p and run.phase == 1:
            begun.append(len(ops))
        return real_begin(comm, run, *args)

    def set_up(world, comms, seats, **kwargs):
        out = real_set_up(world, comms, seats, **kwargs)
        if len(seats) == p and seats[VICTIM].run.phase == 1:
            seen["setup"] = ops[begun[-1]:]
        return out

    def end(world, comms, closing):
        start = len(ops)
        out = real_end(world, comms, closing)
        if len(closing) == p:
            ends.append(ops[start:])
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Communicator, "_fault_hook", hook)
        patch.setattr(distlouvain, "_begin_phase", begin)
        patch.setattr(distlouvain, "_set_up_world", set_up)
        patch.setattr(distlouvain, "_end_world", end)
        run_louvain(
            g, p, config, machine=FREE,
            checkpoints=disk_checkpoints(d, config, every_iterations=1),
        )
    # The second distributed phase's end.
    seen["end"] = ends[1]
    return seen


#: Every op of a phase boundary: the set-up's ghost plan and full ghost
#: exchange (with colouring, the colouring's rounds come between them),
#: then the end's ``END_OPS``.
BOUNDARY_KILLS = {
    "set-up ghost plan": ("setup", 0),
    "set-up ghost exchange": ("setup", -1),
    "rebuild notification": ("end", 0),
    "rebuild allgather": ("end", 1),
    "rebuild answer": ("end", 2),
    "rebuild meta edges": ("end", 3),
    "phase statistics allreduce": ("end", 4),
    "projection request": ("end", 5),
    "projection reply": ("end", 6),
}


@pytest.mark.parametrize("coloring", [False, True], ids=["plain", "coloring"])
@pytest.mark.parametrize("where", list(BOUNDARY_KILLS))
def test_kill_at_each_op_of_a_phase_boundary(where, coloring, tmp_path):
    part, at = BOUNDARY_KILLS[where]
    p = 3
    g = planted_blocks_graph(**KILL_GRAPH)
    cfg = LouvainConfig(variant=Variant.ET, alpha=0.5, seed=4,
                        use_coloring=coloring)
    seen = _boundary_ops(g, p, cfg, str(tmp_path / "probe"))
    setup, end = seen["setup"], seen["end"]
    assert [(name, cat) for _, name, cat in (setup[0], setup[-1])] == [
        ("alltoall", "ghost_comm")
    ] * 2
    assert len(setup) > 2 if coloring else len(setup) == 2
    assert [name for _, name, _ in end] == END_OPS
    op, name, _ = seen[part][at]
    ref = run_louvain(g, p, cfg, machine=FREE)

    d = str(tmp_path / "ck")
    with pytest.raises(RankFailedError) as excinfo:
        run_louvain(
            g, p, cfg, machine=FREE,
            checkpoints=disk_checkpoints(d, cfg, every_iterations=1),
            fault_plan=FaultPlan(kills={VICTIM: op}),
        )
    assert excinfo.value.rank == VICTIM
    assert set(excinfo.value.causes) == {VICTIM}
    cause = excinfo.value.causes[VICTIM]
    assert isinstance(cause, InjectedFault)
    assert (cause.rank, cause.op_index, cause.op_name) == (VICTIM, op, name)

    res = run_louvain(
        g, p, cfg, machine=FREE, checkpoints=disk_checkpoints(d, cfg),
        resume=True,
    )
    np.testing.assert_array_equal(res.assignment, ref.assignment)
    assert res.modularity == ref.modularity
    assert res.iterations == ref.iterations
    assert res.phases == ref.phases


# ----------------------------------------------------------------------
# Request and push counts against each rank's own view
# ----------------------------------------------------------------------
def _world_counts(g, p, config):
    """Per colour round, the world's ``(rank, owner)`` request and push
    count matrices, as ``_fetch_step`` / ``_push_step`` hand them to the
    world halves (a batch of moves outside the rounds — Leiden's split —
    pushes through the same world half, and is not counted)."""
    requests, pushes, rounds = [], [], []
    real_lookup, real_push = distlouvain.lookup_world, distlouvain.push_world
    real_round = distlouvain._world_round

    def lookup(world, comms, ids, counts, tables, **kwargs):
        requests.append(counts.copy())
        return real_lookup(world, comms, ids, counts, tables, **kwargs)

    def push(world, comms, ids, counts, *args, **kwargs):
        if rounds:
            pushes.append(counts.copy())
        return real_push(world, comms, ids, counts, *args, **kwargs)

    def world_round(*args):
        rounds.append(True)
        try:
            return real_round(*args)
        finally:
            rounds.pop()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distlouvain, "lookup_world", lookup)
        patch.setattr(distlouvain, "push_world", push)
        patch.setattr(distlouvain, "_world_round", world_round)
        run_louvain(g, p, config, machine=FREE)
    return requests, pushes


def _own_counts(g, p, config):
    """The same matrices from the per-rank reference iteration: per round
    and rank, how many distinct communities it asks each owner for
    (its view's wanted ids) and pushes deltas of to each owner."""
    requests = {rank: [] for rank in range(p)}
    pushes = {rank: [] for rank in range(p)}
    real_lookup = iteration_reference.owner_lookup
    real_push = iteration_reference.apply_community_deltas

    def lookup(comm, offsets, ids, *args, **kwargs):
        assert np.all(np.diff(ids) > 0)
        requests[comm.rank].append(np.diff(np.searchsorted(ids, offsets)))
        return real_lookup(comm, offsets, ids, *args, **kwargs)

    def push(comm, dg, ids, *args, **kwargs):
        assert np.all(np.diff(ids) > 0)
        pushes[comm.rank].append(np.diff(dg.cuts(ids)))
        return real_push(comm, dg, ids, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        iteration_reference.per_rank_iterations(patch)
        patch.setattr(iteration_reference, "owner_lookup", lookup)
        patch.setattr(iteration_reference, "apply_community_deltas", push)
        run_louvain(g, p, config, machine=FREE)
    return [
        [np.array(rows) for rows in zip(*(seen[r] for r in range(p)))]
        for seen in (requests, pushes)
    ]


def _count_graph(kind: str) -> CSRGraph:
    """The fractional-weight blocks graph, or an edge case of the fetch:
    every weight zero (the kernel scores nothing), 400 isolated vertices
    after the blocks' (rows whose only candidate is their own community;
    late rounds sweep few rows against many key flags), or five vertices
    on seven ranks (ranks without rows)."""
    g = _graph(fractional=True)
    if kind == "blocks":
        return g
    rows = np.repeat(np.arange(g.num_vertices), np.diff(g.index))
    keep = rows <= g.edges
    u, v, w = rows[keep], g.edges[keep], g.weights[keep]
    if kind == "zero weight":
        return CSRGraph.from_edges(g.num_vertices, u, v, np.zeros(len(u)))
    if kind == "isolated vertices":
        return CSRGraph.from_edges(g.num_vertices + 400, u, v, w)
    assert kind == "nranks > n"
    return CSRGraph.from_edges(
        5, [0, 0, 1, 2, 3, 3], [1, 2, 2, 3, 4, 3],
        [1.0, 0.5, 2.0, 0.25, 1.5, 1.0],
    )


#: ``(config, p, graph)``: every config on the blocks graph at p ∈ {2, 3,
#: 7}, then the fetch's edge cases under ET's partial rounds.
COUNT_CASES = [
    pytest.param(config, p, "blocks", id=f"{config}-{p}")
    for config in ("baseline", "etc", "coloring", "leiden", "et")
    for p in (2, 3, 7)
] + [
    pytest.param("et", p, graph, id=f"et-{graph}-{p}")
    for graph, p in (
        ("zero weight", 2), ("isolated vertices", 3), ("nranks > n", 7),
    )
]


@pytest.mark.parametrize("config,p,graph", COUNT_CASES)
def test_request_and_push_counts_are_each_ranks_own(config, p, graph):
    """The world keeps no rank's view of the communities, so it sizes
    every message from counts: per colour round, rank ``s`` asks owner
    ``d`` for as many communities as its own view wants of ``d``, and
    pushes as many deltas to ``d`` as its moves touched communities
    ``d`` owns.  Held round by round to the per-rank reference
    iteration, which keeps each rank's view as data."""
    g, cfg = _count_graph(graph), CONFIGS[config]
    got = _world_counts(g, p, cfg)
    want = _own_counts(g, p, cfg)
    for got_rounds, want_rounds in zip(got, want):
        assert len(got_rounds) == len(want_rounds) > 0
        for a, b in zip(got_rounds, want_rounds):
            np.testing.assert_array_equal(a, b)
