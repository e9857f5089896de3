"""A phase begins and ends inside its world: the warm start's seed, the
colouring, Leiden's split and the audits are world steps.

The set-up (``_set_up_world``) makes the ghost plan, a warm start's
delta push (``_relabel_world``), the colouring's rounds and colour count
(``color_world``), then the full ghost exchange; the close
(``_close_world``) makes Leiden's rounds, counts, clash check, ghost
refresh and relabel push (``refine_world``, ``_relabel_world``), then
the audits (``audit_world``), then the end.  So a detection with any of
them enters one rendezvous, ``detect``, as every detection does; the
pinned fingerprints (``tests/data/run_fingerprints.json``: ``coloring``,
``vf+leiden``, ``warm``, ``audited``) hold every op's price to the
per-rank programs these steps replaced.  Here: the rendezvous, each
step's ops, a kill at one of them, and audits that catch a corrupted
owner table, label or ghost copy deposited into a world.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LouvainConfig, Variant, distlouvain, run_louvain
from repro.core.coloring import color_world
from repro.core.refine import refine_world
from repro.core.validate import audit_world
from repro.quality import community_components, disconnected_communities
from repro.resilience import FaultPlan, RunSnapshots
from repro.runtime import CORI_HASWELL, FREE, InjectedFault, RankFailedError
from repro.runtime.comm import Communicator, _Rendezvous

from . import fingerprints
from .conftest import (
    assert_proper_coloring, disk_checkpoints, planted_blocks_graph, world_of,
)

GRAPH = dict(blocks=6, per_block=16, inter_edges=70, seed=2)

#: The stages that made rendezvous of their own before they were world
#: steps, each with the config (and whether warm-started) that runs it.
STAGES = {
    "coloring": (LouvainConfig(use_coloring=True, seed=5), False),
    "leiden": (LouvainConfig(refine="leiden", seed=2), False),
    "audits": (LouvainConfig(validate_invariants=True), False),
    "warm start": (LouvainConfig(), True),
}


#: Detections the one-rendezvous pin covers beside the stages, each with
#: its machine: the variants, assignment tracking (a gather per phase)
#: and a run that gathers its tail to rank 0 (channel on Cori Haswell).
DETECTIONS = {
    "baseline": (LouvainConfig(), FREE),
    "etc": (LouvainConfig(variant=Variant.ETC, alpha=0.25, seed=1), FREE),
    "et+tc": (LouvainConfig(variant=Variant.ET_TC, alpha=0.25, seed=3), FREE),
    "tracked": (LouvainConfig(track_assignments=True), FREE),
    "tail": (LouvainConfig(track_assignments=True), CORI_HASWELL),
}


@pytest.fixture(scope="module")
def graph():
    return planted_blocks_graph(**GRAPH)


def _seed(g):
    return np.arange(g.num_vertices) // 4


def _entered(monkeypatch, p):
    """The names of the rendezvous rank 0 of the ``p``-rank world enters,
    in order."""
    entered: list[str] = []
    real = _Rendezvous.exchange

    def exchange(self, rank, op_name, *args):
        if rank == 0 and self._size == p:
            entered.append(op_name)
        return real(self, rank, op_name, *args)

    monkeypatch.setattr(_Rendezvous, "exchange", exchange)
    return entered


@pytest.mark.parametrize("p", [1, 2, 8])
@pytest.mark.parametrize("stage", list(STAGES) + list(DETECTIONS))
def test_each_stage_runs_inside_the_phase(graph, monkeypatch, stage, p):
    """Rank 0 enters one rendezvous per detection, ``detect``: no
    ``phase``, ``ghost_plan``, ``push``, ``lookup``, ``alltoall``,
    ``allreduce``, ``gather``, ``bcast`` or ``allgather`` of its own —
    the tail's gather and broadcast and the result's allgather
    included."""
    if stage in STAGES:
        (config, warm), machine, g = STAGES[stage], FREE, graph
    else:
        (config, machine), warm = DETECTIONS[stage], False
        g = fingerprints.graph("channel") if stage == "tail" else graph
    entered = _entered(monkeypatch, p)
    r = run_louvain(
        g, p, config, machine=machine,
        initial_assignment=_seed(g) if warm else None,
    )
    assert entered == ["detect"]
    if stage == "tail":
        # The tail's broadcast is the last rank's only one.
        tail = r.trace.ranks[p - 1].collectives.get("bcast", 0) == 1
        assert tail == (p > 1)


@pytest.mark.parametrize("p", [1, 2, 8])
def test_the_premerge_comes_before_the_detection(graph, monkeypatch, p):
    """Vertex following's pre-merge stays on the ranks: its degree
    lookup, ghost plan and exchange, rebuild and projection, then the
    one ``detect``."""
    entered = _entered(monkeypatch, p)
    run_louvain(graph, p, LouvainConfig(vertex_following=True), machine=FREE)
    assert entered == [
        "lookup", "ghost_plan", "alltoall", "rebuild", "lookup", "detect"
    ]


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("medium", ["disk", "memory"])
def test_one_rendezvous_per_save_point_plus_one(
    graph, monkeypatch, tmp_path, medium, p
):
    """Under a checkpoint after every iteration and at every phase
    boundary, the world leaves the rendezvous at each save point after
    the first phase begins, and the rank cuts it before the next
    ``detect``; phase 0's boundary is cut before the first."""
    config = LouvainConfig()
    ref = run_louvain(graph, p, config, machine=FREE)
    events = _entered(monkeypatch, p)
    real = distlouvain._save_checkpoint

    def save(manager, comm, *args):
        if comm.rank == 0:
            events.append("save")
        return real(manager, comm, *args)

    monkeypatch.setattr(distlouvain, "_save_checkpoint", save)
    manager = (
        disk_checkpoints(tmp_path, config, every_iterations=1)
        if medium == "disk"
        else RunSnapshots(every_iterations=1, config_key=config.cache_key())
    )
    r = run_louvain(graph, p, config, machine=FREE, checkpoints=manager)
    assert r.modularity == ref.modularity and r.iterations == ref.iterations
    # One save after every iteration but a phase's last, and one at every
    # phase boundary (a phase's last iteration is followed by the next
    # boundary's).
    later = r.total_iterations - 1
    assert later > 0
    assert [e for e in events if e in ("detect", "save")] == (
        ["save", "detect"] + ["save", "detect"] * later
    )


# ----------------------------------------------------------------------
# Each step's ops, and a kill at one of them
# ----------------------------------------------------------------------
#: The world step each stage runs, by its name in ``distlouvain``.
STEPS = {
    "coloring": "color_world",
    "leiden": "refine_world",
    "audits": "audit_world",
    "warm start": "_relabel_world",
}
VICTIM = 1


def _stage_ops(g, p, stage, phase, checkpoints):
    """The victim's ``(op index, op, category)`` inside the stage's world
    step in phase ``phase`` of an uninterrupted run."""
    config, warm = STAGES[stage]
    ops: list = []
    seen: list = []
    real_hook = Communicator._fault_hook
    name = STEPS[stage]
    real_step = getattr(distlouvain, name)

    def hook(self, op, category):
        if self.rank == VICTIM and self.size == p:
            ops.append((self._ops + 1, op, category))
        return real_hook(self, op, category)

    def step(world, comms, *args, **kwargs):
        start = len(ops)
        out = real_step(world, comms, *args, **kwargs)
        seen.append(ops[start:])
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Communicator, "_fault_hook", hook)
        patch.setattr(distlouvain, name, step)
        run_louvain(
            g, p, config, machine=FREE, checkpoints=checkpoints,
            initial_assignment=_seed(g) if warm else None,
        )
    return seen[phase]


def test_each_steps_ops(graph):
    """What each rank makes in each step, in order."""
    p = 3
    coloring = _stage_ops(graph, p, "coloring", 0, None)
    rounds = (len(coloring) - 1) // 2
    assert rounds > 1
    assert [(op, cat) for _, op, cat in coloring] == (
        [("alltoall", "other"), ("allreduce", "other")] * rounds
        + [("allreduce", "other")]
    )
    leiden = [(op, cat) for _, op, cat in _stage_ops(graph, p, "leiden", 0, None)]
    rounds = (len(leiden) - 6) // 2
    assert leiden == (
        [("alltoall", "other"), ("allreduce", "other")] * rounds
        # The component counts' push and lookup (request, reply), the
        # clash check's alltoall and allreduce, the ghost refresh.
        + [("alltoall", "other")] * 3 + [("alltoall", "other"),
                                         ("allreduce", "other"),
                                         ("alltoall", "other")]
    )
    audits = [(op, cat) for _, op, cat in _stage_ops(graph, p, "audits", 0, None)]
    assert audits == [
        ("alltoall", "other"), ("allgather", "other"),
        ("allreduce", "other"), ("allreduce", "other"), ("allgather", "other"),
        ("allreduce", "other"), ("alltoall", "other"), ("alltoall", "other"),
        ("allgather", "other"),
    ]
    seed = _stage_ops(graph, p, "warm start", 0, None)
    assert [(op, cat) for _, op, cat in seed] == [("alltoall", "community_comm")]


KILLS = {
    "seed push": ("warm start", 0, 0),
    "first colour round": ("coloring", 1, 0),
    "colour count": ("coloring", 1, -1),
    "first Leiden round": ("leiden", 1, 0),
    "Leiden ghost refresh": ("leiden", 1, -1),
    "first audit": ("audits", 1, 0),
    "last audit": ("audits", 1, -1),
}


@pytest.mark.parametrize("where", list(KILLS))
def test_kill_inside_a_step(graph, where, tmp_path):
    """A kill at the victim's op inside a step fails the world with its
    own ``InjectedFault`` (the others ``RankAborted``), and a resume from
    the disk checkpoints ends as the uninterrupted run does."""
    stage, phase, at = KILLS[where]
    config, warm = STAGES[stage]
    p = 3
    seed = _seed(graph) if warm else None
    probe = disk_checkpoints(tmp_path / "probe", config, every_iterations=1)
    op, name, _ = _stage_ops(graph, p, stage, phase, probe)[at]
    ref = run_louvain(graph, p, config, machine=FREE, initial_assignment=seed)

    d = tmp_path / "ck"
    with pytest.raises(RankFailedError) as excinfo:
        run_louvain(
            graph, p, config, machine=FREE, initial_assignment=seed,
            checkpoints=disk_checkpoints(d, config, every_iterations=1),
            fault_plan=FaultPlan(kills={VICTIM: op}),
        )
    assert set(excinfo.value.causes) == {VICTIM}
    cause = excinfo.value.causes[VICTIM]
    assert isinstance(cause, InjectedFault)
    assert (cause.rank, cause.op_index, cause.op_name) == (VICTIM, op, name)

    res = run_louvain(
        graph, p, config, machine=FREE, initial_assignment=seed,
        checkpoints=disk_checkpoints(d, config), resume=True,
    )
    np.testing.assert_array_equal(res.assignment, ref.assignment)
    assert res.modularity == ref.modularity
    assert res.iterations == ref.iterations
    assert res.phases == ref.phases


# ----------------------------------------------------------------------
# The world steps called directly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("p", [1, 2, 8])
def test_colour_classes_are_independent_sets(graph, p):
    colors, rounds = color_world(*world_of(graph, p), seed=3)
    assert_proper_coloring(graph, colors)
    assert rounds == colors.max() + 1
    np.testing.assert_array_equal(np.unique(colors), np.arange(rounds))


@pytest.mark.parametrize("p", [1, 2, 8])
def test_refinement_splits_and_keeps_ids(graph, p):
    """Communities named by a member: a connected one keeps its id, a
    disconnected one becomes its components, each named by its minimum
    member (the serial ``community_components``)."""
    # The planted blocks, a few vertices moved into a foreign block.
    labels = np.arange(graph.num_vertices) // 16 * 16
    movers = np.array([3, 40, 77, 85])
    labels[movers] = (labels[movers] + 48) % graph.num_vertices
    split = np.isin(labels, disconnected_communities(graph, labels))
    assert split.any() and not split.all()
    want = np.where(split, community_components(graph, labels), labels)
    np.testing.assert_array_equal(
        refine_world(*world_of(graph, p), labels), want
    )


def _audit(g, p, corrupt):
    """The audits over a consistent singleton state of ``g`` at ``p``
    ranks, after ``corrupt(labels, tot, size, ghosts)``."""
    world, comms, graphs, plans = world_of(g, p)
    labels = np.arange(g.num_vertices)
    tot = np.concatenate([dg.local_degrees() for dg in graphs])
    size = np.ones(g.num_vertices, dtype=np.int64)
    ghosts = [labels[plan.ghost_ids] for plan in plans]
    corrupt(labels, tot, size, ghosts)
    audit_world(world, comms, graphs, plans, labels, tot, size, ghosts)


@pytest.mark.parametrize("p", [1, 2, 8])
def test_a_consistent_state_passes(graph, p):
    _audit(graph, p, lambda *state: None)


def test_a_corrupted_owner_table_is_named(graph):
    def corrupt(labels, tot, size, ghosts):
        tot[20] += 1.0

    with pytest.raises(AssertionError, match="rank 0: a_c mismatch for community 20"):
        _audit(graph, 2, corrupt)


def test_a_corrupted_label_is_named(graph):
    def corrupt(labels, tot, size, ghosts):
        labels[90] = 91

    with pytest.raises(AssertionError, match="size mismatch for community 91"):
        _audit(graph, 2, corrupt)


def test_a_label_outside_the_vertex_space_is_named(graph):
    def corrupt(labels, tot, size, ghosts):
        labels[90] = -1

    with pytest.raises(AssertionError, match="rank 1: community ids outside"):
        _audit(graph, 2, corrupt)


def test_a_corrupted_ghost_copy_is_named(graph):
    def corrupt(labels, tot, size, ghosts):
        ghosts[1][0] += 1

    ghost = world_of(graph, 2).plans[1].ghost_ids[0]
    with pytest.raises(
        AssertionError, match=f"rank 1: ghost {ghost} holds {ghost + 1}"
    ):
        _audit(graph, 2, corrupt)
