"""Unit tests for the Grappolo-style shared-memory implementation."""

import numpy as np
import pytest

from repro.core import (
    LouvainConfig,
    Variant,
    grappolo_louvain,
    greedy_coloring,
    louvain,
    modularity,
    vertex_following_seed,
)
from repro.graph import CSRGraph

from .conftest import assert_valid_partition
from .oracles.grappolo_reference import (
    greedy_coloring_loop,
    vertex_following_loop,
)


class TestGreedyColoring:
    def test_proper_coloring(self, planted_blocks):
        colors = greedy_coloring(planted_blocks)
        rows = np.repeat(
            np.arange(planted_blocks.num_vertices),
            np.diff(planted_blocks.index),
        )
        non_loop = rows != planted_blocks.edges
        assert np.all(
            colors[rows[non_loop]] != colors[planted_blocks.edges[non_loop]]
        )

    def test_color_count_bounded_by_max_degree(self, karate):
        colors = greedy_coloring(karate)
        assert colors.max() <= karate.edge_counts().max()

    def test_path_two_colors(self, path_graph):
        assert greedy_coloring(path_graph).max() <= 1

    def test_empty(self):
        assert len(greedy_coloring(CSRGraph.empty(0))) == 0


class TestVectorisedKernelEquivalence:
    """The numpy segment-op kernels must match the reference scans exactly."""

    def _random_graph(self, seed, n=80):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(0, 4 * n))
        from repro.graph import EdgeList

        return EdgeList.from_arrays(
            n, rng.integers(0, n, m), rng.integers(0, n, m)
        ).to_csr()

    @pytest.mark.parametrize("seed", range(8))
    def test_coloring_matches_reference_loop(self, seed):
        g = self._random_graph(seed)
        np.testing.assert_array_equal(
            greedy_coloring(g), greedy_coloring_loop(g)
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_vertex_following_matches_reference_loop(self, seed):
        g = self._random_graph(seed)
        np.testing.assert_array_equal(
            vertex_following_seed(g), vertex_following_loop(g)
        )

    def test_coloring_sequential_chain(self, path_graph):
        # Worst-case wave depth: every vertex waits on its predecessor.
        np.testing.assert_array_equal(
            greedy_coloring(path_graph), greedy_coloring_loop(path_graph)
        )

    def test_isolated_edges_follow_to_larger_id(self):
        g = CSRGraph.from_edges(
            4, [0, 1, 2, 3], [1, 0, 3, 2], [1.0] * 4
        )
        comm = vertex_following_seed(g)
        np.testing.assert_array_equal(comm, [1, 1, 3, 3])
        np.testing.assert_array_equal(comm, vertex_following_loop(g))


class TestVertexFollowing:
    def test_leaf_follows_neighbor(self, star_graph):
        comm = vertex_following_seed(star_graph)
        # All leaves follow the hub.
        assert np.all(comm[1:] == comm[0])

    def test_non_leaves_untouched(self, two_cliques):
        comm = vertex_following_seed(two_cliques)
        np.testing.assert_array_equal(comm, np.arange(10))

    def test_self_loop_vertex_not_followed(self):
        # Meta-vertex with a self loop and one neighbour: has internal
        # structure, must stay in its own community.
        g = CSRGraph.from_edges(2, [0, 0], [0, 1], [5.0, 1.0])
        comm = vertex_following_seed(g)
        assert comm[0] == 0


class TestGrappoloQuality:
    @pytest.mark.parametrize("coloring", [True, False])
    @pytest.mark.parametrize("vf", [True, False])
    def test_two_cliques_all_modes(self, two_cliques, coloring, vf):
        r = grappolo_louvain(
            two_cliques, coloring=coloring, vertex_following=vf
        )
        assert r.modularity == pytest.approx(0.45238095, abs=1e-6)
        assert r.num_communities == 2

    def test_karate(self, karate):
        r = grappolo_louvain(karate)
        assert 0.38 <= r.modularity <= 0.43
        assert_valid_partition(r.assignment, 34)

    def test_matches_serial_on_planted_blocks(self, planted_blocks):
        serial = louvain(planted_blocks)
        par = grappolo_louvain(planted_blocks)
        assert par.modularity == pytest.approx(serial.modularity, abs=0.02)
        assert par.num_communities == serial.num_communities

    def test_reported_q_matches_assignment(self, planted_blocks):
        r = grappolo_louvain(planted_blocks)
        assert modularity(planted_blocks, r.assignment) == pytest.approx(
            r.modularity, abs=1e-9
        )

    def test_coloring_converges_in_fewer_iterations(self, planted_blocks):
        colored = grappolo_louvain(planted_blocks, coloring=True)
        plain = grappolo_louvain(planted_blocks, coloring=False)
        assert colored.total_iterations <= plain.total_iterations

    def test_deterministic(self, planted_blocks):
        r1 = grappolo_louvain(planted_blocks)
        r2 = grappolo_louvain(planted_blocks)
        np.testing.assert_array_equal(r1.assignment, r2.assignment)
        assert r1.elapsed == r2.elapsed


class TestGrappoloTiming:
    def test_elapsed_positive(self, planted_blocks):
        assert grappolo_louvain(planted_blocks).elapsed > 0

    def test_more_threads_faster(self, planted_blocks):
        t4 = grappolo_louvain(planted_blocks, threads=4).elapsed
        t32 = grappolo_louvain(planted_blocks, threads=32).elapsed
        assert t32 < t4

    def test_table3_shared_scaling_shape(self, planted_blocks):
        # Table III: shared memory scales ~2.2x from 4 to 64 threads.
        t4 = grappolo_louvain(planted_blocks, threads=4).elapsed
        t64 = grappolo_louvain(planted_blocks, threads=64).elapsed
        assert 1.5 < t4 / t64 < 3.5


class TestGrappoloVariants:
    def test_et_runs_and_reports_activity(self, planted_blocks):
        cfg = LouvainConfig(variant=Variant.ET, alpha=0.75)
        r = grappolo_louvain(planted_blocks, cfg)
        assert r.modularity > 0.7
        fracs = [it.active_fraction for it in r.iterations]
        assert min(fracs) < 1.0  # some vertices went inactive

    def test_etc_flags_exit(self, planted_blocks):
        cfg = LouvainConfig(variant=Variant.ETC, alpha=0.9)
        r = grappolo_louvain(planted_blocks, cfg)
        assert r.modularity > 0.7

    def test_higher_alpha_fewer_active(self, planted_blocks):
        lo = grappolo_louvain(
            planted_blocks, LouvainConfig(variant=Variant.ET, alpha=0.25)
        )
        hi = grappolo_louvain(
            planted_blocks, LouvainConfig(variant=Variant.ET, alpha=0.75)
        )
        mean_lo = np.mean([it.active_fraction for it in lo.iterations])
        mean_hi = np.mean([it.active_fraction for it in hi.iterations])
        assert mean_hi < mean_lo
