"""Shared fixtures: canonical small graphs and partition validators."""

from __future__ import annotations

import numpy as np
import pytest

from typing import NamedTuple

from repro.core import LouvainConfig
from repro.graph import CSRGraph, DistGraph, EdgeList, GhostPlan
from repro.graph.distgraph import ghost_plans_world
from repro.resilience import CheckpointManager
from repro.runtime import FREE, MachineModel
from repro.runtime.comm import Communicator, World

#: Zachary's karate club (34 vertices, 78 edges) — the classic community
#: detection testbed.  Louvain finds Q ≈ 0.41-0.42 with ~4 communities.
KARATE_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8),
    (0, 10), (0, 11), (0, 12), (0, 13), (0, 17), (0, 19), (0, 21),
    (0, 31), (1, 2), (1, 3), (1, 7), (1, 13), (1, 17), (1, 19), (1, 21),
    (1, 30), (2, 3), (2, 7), (2, 8), (2, 9), (2, 13), (2, 27), (2, 28),
    (2, 32), (3, 7), (3, 12), (3, 13), (4, 6), (4, 10), (5, 6), (5, 10),
    (5, 16), (6, 16), (8, 30), (8, 32), (8, 33), (9, 33), (13, 33),
    (14, 32), (14, 33), (15, 32), (15, 33), (18, 32), (18, 33), (19, 33),
    (20, 32), (20, 33), (22, 32), (22, 33), (23, 25), (23, 27), (23, 29),
    (23, 32), (23, 33), (24, 25), (24, 27), (24, 31), (25, 31), (26, 29),
    (26, 33), (27, 33), (28, 31), (28, 33), (29, 32), (29, 33), (30, 32),
    (30, 33), (31, 32), (31, 33), (32, 33),
]


def two_cliques_graph(clique_size: int = 5) -> CSRGraph:
    """Two ``clique_size``-cliques joined by one edge; the optimal
    partition is obviously one community per clique."""
    edges = []
    for base in (0, clique_size):
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                edges.append((base + i, base + j))
    edges.append((0, clique_size))
    u, v = zip(*edges)
    return EdgeList.from_arrays(
        2 * clique_size, np.array(u), np.array(v)
    ).to_csr()


def planted_blocks_graph(
    blocks: int = 8,
    per_block: int = 25,
    p_in: float = 0.4,
    inter_edges: int = 60,
    seed: int = 1,
) -> CSRGraph:
    """Random planted-partition graph with strong block communities."""
    rng = np.random.default_rng(seed)
    uu, vv = [], []
    for b in range(blocks):
        base = b * per_block
        for i in range(per_block):
            for j in range(i + 1, per_block):
                if rng.random() < p_in:
                    uu.append(base + i)
                    vv.append(base + j)
    added = 0
    while added < inter_edges:
        a, c = rng.integers(0, blocks, 2)
        if a == c:
            continue
        uu.append(int(a) * per_block + int(rng.integers(per_block)))
        vv.append(int(c) * per_block + int(rng.integers(per_block)))
        added += 1
    return EdgeList.from_arrays(
        blocks * per_block, np.array(uu), np.array(vv)
    ).to_csr()


def disk_checkpoints(
    directory, config: LouvainConfig, **cadence
) -> CheckpointManager:
    """A disk manager over ``directory`` for runs of ``config``, labelled
    and keyed as the CLI and the engine build theirs."""
    return CheckpointManager(
        str(directory),
        label=config.label(),
        config_key=config.cache_key(),
        **cadence,
    )


class WorldOf(NamedTuple):
    world: World
    comms: list[Communicator]
    graphs: list[DistGraph]
    plans: list[GhostPlan]


def world_of(
    g: CSRGraph, p: int, partition: str = "even_edge",
    machine: MachineModel = FREE,
) -> WorldOf:
    """A ``p``-rank world over ``g``, built in this thread with every
    rank's slice and ghost plan, for calling a world step directly: with
    no rendezvous around it, each op still begins and finishes on every
    rank's ``Communicator``."""
    world = World(p, machine)
    comms = [world.communicator(r) for r in range(p)]
    graphs = [DistGraph.distribute(comm, g, partition) for comm in comms]
    plans = ghost_plans_world(world, comms, [dg.plan_seat() for dg in graphs])
    return WorldOf(world, comms, graphs, plans)


def assert_proper_coloring(g: CSRGraph, colors: np.ndarray) -> None:
    """Every vertex coloured and no edge between two vertices of one
    colour (self loops aside)."""
    assert len(colors) == g.num_vertices
    assert (colors >= 0).all()
    rows = np.repeat(np.arange(g.num_vertices), np.diff(g.index))
    other = rows != g.edges
    assert (colors[rows[other]] != colors[g.edges[other]]).all()


@pytest.fixture(scope="session")
def karate() -> CSRGraph:
    u, v = zip(*KARATE_EDGES)
    return EdgeList.from_arrays(34, np.array(u), np.array(v)).to_csr()


@pytest.fixture(scope="session")
def two_cliques() -> CSRGraph:
    return two_cliques_graph()


@pytest.fixture(scope="session")
def planted_blocks() -> CSRGraph:
    return planted_blocks_graph()


@pytest.fixture(scope="session")
def path_graph() -> CSRGraph:
    n = 12
    return EdgeList.from_arrays(
        n, np.arange(n - 1), np.arange(1, n)
    ).to_csr()


@pytest.fixture(scope="session")
def star_graph() -> CSRGraph:
    n = 9
    return EdgeList.from_arrays(
        n, np.zeros(n - 1, dtype=np.int64), np.arange(1, n)
    ).to_csr()


def assert_valid_partition(assignment: np.ndarray, num_vertices: int) -> None:
    """Assignment covers every vertex with dense community ids."""
    assert len(assignment) == num_vertices
    assert assignment.min() >= 0
    labels = np.unique(assignment)
    assert labels[0] == 0
    assert labels[-1] == len(labels) - 1, "community ids must be dense"


def random_graph(
    rng: np.random.Generator, n: int, m: int, weighted: bool = False
) -> CSRGraph:
    """Random multigraph (possibly with loops) for property tests."""
    u = rng.integers(0, n, m)
    v = rng.integers(0, n, m)
    w = rng.uniform(0.5, 2.0, m) if weighted else None
    return EdgeList.from_arrays(n, u, v, w).to_csr()
