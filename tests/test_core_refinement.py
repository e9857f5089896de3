"""Tests for the Grappolo heuristics and Leiden-style refinement.

Covers the two quality/speed knobs promoted into the distributed
pipeline — ``vertex_following`` (degree-one pre-coarsening) and
``refine="leiden"`` (post-phase splitting of internally disconnected
communities) — plus the serial connectivity checkers backing the
refinement guarantee and the bit-identity of every heuristic
composition across rank counts and checkpoint/resume.
"""

import numpy as np
import pytest

from repro.core import LouvainConfig, modularity, run_louvain
from repro.core.refine import refine_world
from repro.graph import EdgeList
from repro.quality import (
    community_components,
    count_disconnected_communities,
    disconnected_communities,
)
from repro.resilience import FaultPlan
from repro.runtime import FREE, InjectedFault, RankFailedError

from .conftest import (
    assert_valid_partition, disk_checkpoints, random_graph, world_of,
)


def _disconnected_fixture():
    """A 6-vertex graph whose community 0 is internally disconnected.

    Community 0 = {0, 1, 4, 5} holds only the edges 0-1 and 4-5: its
    two halves are bridged exclusively *through* community 2 = {2, 3}
    (edges 1-2 and 3-4), the exact defect Leiden refinement removes.
    """
    g = EdgeList.from_arrays(6, [0, 4, 2, 1, 3], [1, 5, 3, 2, 4]).to_csr()
    assignment = np.array([0, 0, 2, 2, 0, 0], dtype=np.int64)
    return g, assignment


def run_refine(g, assignment, nranks):
    """Drive :func:`refine_world` over ``nranks`` ranks' slices of ``g``
    and return the refined label of every vertex; the communities it
    was given are left as they were."""
    assignment = np.asarray(assignment, dtype=np.int64)
    given = assignment.copy()
    out = refine_world(*world_of(g, nranks, "even_vertex"), assignment)
    np.testing.assert_array_equal(assignment, given)
    return out


class TestConnectivityCheckers:
    def test_components_split_the_fixture(self):
        g, assignment = _disconnected_fixture()
        labels = community_components(g, assignment)
        # Halves of community 0 get distinct component labels; the
        # connected community 2 stays one component.
        assert labels[0] == labels[1]
        assert labels[4] == labels[5]
        assert labels[0] != labels[4]
        assert labels[2] == labels[3]

    def test_disconnected_list_names_the_culprit(self):
        g, assignment = _disconnected_fixture()
        assert disconnected_communities(g, assignment) == [0]
        assert count_disconnected_communities(g, assignment) == 1

    def test_connected_assignment_is_clean(self, two_cliques):
        assignment = np.array([0] * 5 + [5] * 5)
        assert disconnected_communities(two_cliques, assignment) == []
        assert count_disconnected_communities(two_cliques, assignment) == 0

    def test_every_singleton_is_connected(self, karate):
        assignment = np.arange(34)
        assert count_disconnected_communities(karate, assignment) == 0


class TestRefineUnit:
    @pytest.mark.parametrize("nranks", [1, 2, 3, 4])
    def test_splits_disconnected_community(self, nranks):
        g, assignment = _disconnected_fixture()
        refined = run_refine(g, assignment, nranks)
        # Each half becomes its min-member community; community 2 keeps
        # its id untouched (it was never split).
        np.testing.assert_array_equal(refined, [0, 0, 2, 2, 4, 4])
        assert count_disconnected_communities(g, refined) == 0

    def test_zero_edge_cut_never_lowers_modularity(self):
        g, assignment = _disconnected_fixture()
        refined = run_refine(g, assignment, 2)
        assert modularity(g, refined) >= modularity(g, assignment)

    def test_noop_on_connected_communities(self, two_cliques):
        assignment = np.array([0] * 5 + [5] * 5)
        refined = run_refine(two_cliques, assignment, 2)
        np.testing.assert_array_equal(refined, assignment)

    def test_propagation_respects_community_walls(self, path_graph):
        # A 12-vertex path split into two connected halves: labels must
        # not leak across the 5-6 community boundary.
        assignment = np.array([0] * 6 + [6] * 6, dtype=np.int64)
        refined = run_refine(path_graph, assignment, 2)
        np.testing.assert_array_equal(refined, assignment)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_layout_independent_on_random_inputs(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 40, 60)
        assignment = rng.integers(0, 40, size=40).astype(np.int64)
        outs = [run_refine(g, assignment, p) for p in (1, 2, 4)]
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(outs[0], outs[2])
        assert count_disconnected_communities(g, outs[0]) == 0
        assert modularity(g, outs[0]) >= modularity(g, assignment) - 1e-12


class TestRefineEndToEnd:
    @pytest.mark.parametrize("nranks", [1, 4])
    def test_no_disconnected_communities_survive(
        self, karate, planted_blocks, two_cliques, nranks
    ):
        cfg = LouvainConfig(refine="leiden")
        for g in (karate, planted_blocks, two_cliques):
            r = run_louvain(g, nranks, cfg, machine=FREE)
            assert count_disconnected_communities(g, r.assignment) == 0
            assert_valid_partition(r.assignment, g.num_vertices)

    def test_quality_stays_in_range(self, karate, planted_blocks):
        cfg = LouvainConfig(refine="leiden")
        assert 0.38 <= run_louvain(karate, 4, cfg, machine=FREE).modularity
        assert run_louvain(planted_blocks, 4, cfg, machine=FREE).modularity > 0.8

    def test_random_graphs_end_clean(self):
        cfg = LouvainConfig(refine="leiden")
        for seed in range(3):
            g = random_graph(np.random.default_rng(seed), 50, 80)
            r = run_louvain(g, 3, cfg, machine=FREE)
            assert count_disconnected_communities(g, r.assignment) == 0

    def test_invalid_refine_rejected(self):
        with pytest.raises(ValueError, match="refine"):
            LouvainConfig(refine="louvain-prune")


class TestVertexFollowing:
    def test_star_collapses_to_one_community(self, star_graph):
        cfg = LouvainConfig(vertex_following=True)
        r = run_louvain(star_graph, 2, cfg, machine=FREE)
        assert r.num_communities == 1
        assert_valid_partition(r.assignment, star_graph.num_vertices)

    @pytest.mark.parametrize("graph_fixture", ["karate", "planted_blocks"])
    def test_layout_independent(self, graph_fixture, request):
        g = request.getfixturevalue(graph_fixture)
        cfg = LouvainConfig(vertex_following=True)
        runs = [run_louvain(g, p, cfg, machine=FREE) for p in (1, 2, 4, 8)]
        for r in runs[1:]:
            np.testing.assert_array_equal(runs[0].assignment, r.assignment)
            assert r.modularity == runs[0].modularity

    def test_quality_close_to_baseline(self, planted_blocks):
        base = run_louvain(planted_blocks, 4, machine=FREE)
        vf = run_louvain(
            planted_blocks, 4, LouvainConfig(vertex_following=True),
            machine=FREE,
        )
        assert vf.modularity >= base.modularity - 0.03

    def test_warm_start_skips_pre_coarsening(self, karate):
        # A warm start supplies labels for the *input* vertex ids; VF
        # must quietly stand down rather than invalidate them.
        cfg = LouvainConfig(vertex_following=True)
        warm = np.arange(34) // 2
        r = run_louvain(
            karate, 2, cfg, machine=FREE, initial_assignment=warm
        )
        assert_valid_partition(r.assignment, 34)
        assert 0.38 <= r.modularity <= 0.43


#: Heuristic compositions whose outcomes must be bit-identical across
#: every layout (all are structurally deterministic).
_COMPOSITIONS = [
    {"vertex_following": True},
    {"refine": "leiden"},
    {"vertex_following": True, "refine": "leiden"},
    {"refine": "leiden", "use_coloring": True},
    {"vertex_following": True, "use_coloring": True},
]


class TestCompositionBitIdentity:
    @pytest.mark.parametrize("overrides", _COMPOSITIONS)
    def test_identical_across_rank_counts(self, karate, overrides):
        cfg = LouvainConfig(**overrides)
        runs = [
            run_louvain(karate, p, cfg, machine=FREE)
            for p in (1, 2, 4)
        ]
        for r in runs[1:]:
            np.testing.assert_array_equal(runs[0].assignment, r.assignment)
            assert r.modularity == runs[0].modularity

    def test_checkpointing_does_not_perturb(self, tmp_path, planted_blocks):
        cfg = LouvainConfig(vertex_following=True, refine="leiden")
        ref = run_louvain(planted_blocks, 2, cfg, machine=FREE)
        res = run_louvain(
            planted_blocks,
            2,
            cfg,
            machine=FREE,
            checkpoints=disk_checkpoints(
                tmp_path / "ck", cfg, every_iterations=2
            ),
        )
        np.testing.assert_array_equal(ref.assignment, res.assignment)
        assert res.modularity == ref.modularity

    def test_crash_resume_bit_identical(self, tmp_path, planted_blocks):
        cfg = LouvainConfig(vertex_following=True, refine="leiden")
        ref = run_louvain(planted_blocks, 2, cfg, machine=FREE)
        d = str(tmp_path / "ck")
        with pytest.raises((RankFailedError, InjectedFault)):
            run_louvain(
                planted_blocks,
                2,
                cfg,
                machine=FREE,
                checkpoints=disk_checkpoints(d, cfg, every_iterations=1),
                fault_plan=FaultPlan(kills={1: 25}),
            )
        res = run_louvain(
            planted_blocks,
            2,
            cfg,
            machine=FREE,
            checkpoints=disk_checkpoints(d, cfg),
            resume=True,
        )
        np.testing.assert_array_equal(ref.assignment, res.assignment)
        assert res.modularity == ref.modularity
