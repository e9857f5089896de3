"""Unit tests for the ghost exchange and resolution extensions."""

import numpy as np
import pytest

from repro.core import LouvainConfig, louvain, modularity, run_louvain
from repro.graph import EdgeList
from repro.runtime import FREE


class TestGhostDeltaUpdates:
    """The changed-values-only ghost exchange is the only protocol; at
    every rank count the reported Q is the Q of the assignment."""

    @pytest.mark.parametrize("nranks", [1, 2, 3, 8])
    def test_all_rank_counts(self, planted_blocks, nranks):
        r = run_louvain(planted_blocks, nranks, machine=FREE)
        assert r.modularity == pytest.approx(
            modularity(planted_blocks, r.assignment), abs=1e-9
        )


class TestResolutionParameter:
    def test_validation(self):
        with pytest.raises(ValueError):
            LouvainConfig(resolution=0.0)
        with pytest.raises(ValueError):
            LouvainConfig(resolution=-1.0)

    def test_modularity_function_gamma(self, two_cliques):
        a = np.array([0] * 5 + [1] * 5)
        q1 = modularity(two_cliques, a, resolution=1.0)
        q2 = modularity(two_cliques, a, resolution=2.0)
        # Higher gamma penalises the degree term more.
        assert q2 < q1

    def test_low_gamma_merges_communities(self, two_cliques):
        # gamma -> 0 makes any merge profitable: one community wins.
        r = run_louvain(
            two_cliques, 2, LouvainConfig(resolution=0.05), machine=FREE
        )
        assert r.num_communities == 1

    def test_high_gamma_splits_communities(self):
        # A clique chain: at gamma=1 Louvain merges pairs of cliques at
        # this scale; a high gamma keeps each clique separate.
        edges = []
        cliques, size = 6, 4
        for c in range(cliques):
            base = c * size
            for i in range(size):
                for j in range(i + 1, size):
                    edges.append((base + i, base + j))
            if c + 1 < cliques:
                edges.append((base, base + size))
        u, v = zip(*edges)
        g = EdgeList.from_arrays(
            cliques * size, np.array(u), np.array(v)
        ).to_csr()
        lo = run_louvain(g, 2, LouvainConfig(resolution=0.4), machine=FREE)
        hi = run_louvain(g, 2, LouvainConfig(resolution=2.5), machine=FREE)
        assert hi.num_communities > lo.num_communities
        assert hi.num_communities == cliques

    def test_serial_matches_distributed_gamma(self, planted_blocks):
        cfg = LouvainConfig(resolution=1.5)
        s = louvain(planted_blocks, cfg)
        d = run_louvain(planted_blocks, 2, cfg, machine=FREE)
        assert d.modularity == pytest.approx(s.modularity, abs=0.05)

    def test_reported_q_uses_gamma(self, planted_blocks):
        cfg = LouvainConfig(resolution=2.0)
        r = run_louvain(planted_blocks, 4, cfg, machine=FREE)
        assert r.modularity == pytest.approx(
            modularity(planted_blocks, r.assignment, resolution=2.0),
            abs=1e-9,
        )
