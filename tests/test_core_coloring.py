"""Unit tests for distributed distance-1 coloring (§VI future work): the
world step ``color_world``, called over every rank's slice at once, and
colouring inside a detection."""

import numpy as np
import pytest

from repro.core import LouvainConfig, run_louvain
from repro.core.coloring import color_world
from repro.graph import EdgeList
from repro.runtime import FREE

from .conftest import assert_proper_coloring, planted_blocks_graph, world_of


def color_spmd(g, nranks, seed=0):
    """The colour of every vertex from ``color_world`` over ``nranks``
    ranks; it must be proper, and the colour count the sweep rounds."""
    colors, rounds = color_world(*world_of(g, nranks), seed=seed)
    assert_proper_coloring(g, colors)
    assert rounds == (colors.max() + 1 if len(colors) else 0)
    return colors


class TestDistributedColoring:
    @pytest.mark.parametrize("nranks", [1, 2, 4, 7])
    def test_valid_on_planted_blocks(self, nranks):
        g = planted_blocks_graph(blocks=4, per_block=12, seed=2)
        colors = color_spmd(g, nranks)
        # Proper distance-1 coloring globally.
        eu, ev, _ = g.edge_array()
        non_loop = eu != ev
        assert np.all(colors[eu[non_loop]] != colors[ev[non_loop]])

    def test_ring(self):
        n = 9  # odd ring needs 3 colors
        g = EdgeList.from_arrays(
            n, np.arange(n), (np.arange(n) + 1) % n
        ).to_csr()
        colors = color_spmd(g, 3)
        assert colors.max() == 2

    def test_color_count_reasonable(self):
        g = planted_blocks_graph(blocks=3, per_block=10, p_in=1.0,
                                 inter_edges=5, seed=1)
        colors = color_spmd(g, 2)
        # Cliques of 10 need >= 10 colors; greedy-JP stays near degree+1.
        assert 9 <= colors.max() <= g.edge_counts().max()

    def test_deterministic_across_rank_counts(self):
        # Priorities depend only on global ids, so the coloring is
        # invariant to the partition.
        g = planted_blocks_graph(blocks=3, per_block=8, seed=5)
        c1 = color_spmd(g, 1, seed=3)
        c4 = color_spmd(g, 4, seed=3)
        np.testing.assert_array_equal(c1, c4)

    def test_self_loops_ignored(self):
        g = EdgeList.from_arrays(3, [0, 0, 1], [0, 1, 2]).to_csr()
        colors = color_spmd(g, 2)
        assert colors[0] != colors[1]
        assert colors[1] != colors[2]

    def test_empty_rank_ok(self):
        g = EdgeList.from_arrays(3, [0, 1], [1, 2]).to_csr()
        colors = color_spmd(g, 5)  # more ranks than vertices
        assert colors[0] != colors[1]


class TestColoringInLouvain:
    def test_same_quality_fewer_iterations(self, planted_blocks):
        base = run_louvain(planted_blocks, 4, machine=FREE)
        col = run_louvain(
            planted_blocks, 4, LouvainConfig(use_coloring=True),
            machine=FREE,
        )
        assert col.modularity >= base.modularity - 0.02
        # §VI: "this may lead to faster convergence".
        assert col.total_iterations <= base.total_iterations

    def test_valid_partition(self, two_cliques):
        r = run_louvain(
            two_cliques, 2, LouvainConfig(use_coloring=True), machine=FREE
        )
        assert r.num_communities == 2
        assert r.modularity == pytest.approx(0.45238095, abs=1e-6)

    def test_combines_with_et(self, planted_blocks):
        from repro.core import Variant

        cfg = LouvainConfig(
            use_coloring=True, variant=Variant.ET, alpha=0.5
        )
        r = run_louvain(planted_blocks, 4, cfg, machine=FREE)
        assert r.modularity > 0.75
