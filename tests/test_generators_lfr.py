"""Unit tests for the LFR benchmark generator."""

import numpy as np
import pytest

from repro.core import louvain
from repro.generators import generate_lfr
from repro.quality import best_match_scores
from tests.oracles.lfr_reference import generate_lfr_reference


class TestGenerateLFR:
    def test_all_vertices_assigned(self):
        g = generate_lfr(400, seed=0)
        assert len(g.community_of) == 400
        assert g.community_of.min() >= 0

    def test_mixing_parameter_approximated(self):
        for mu in (0.1, 0.3, 0.5):
            g = generate_lfr(800, mu=mu, seed=1)
            assert abs(g.mu_realized - mu) < 0.08, (mu, g.mu_realized)

    def test_community_sizes_bounded(self):
        g = generate_lfr(600, min_community=10, max_community=40, seed=2)
        sizes = np.bincount(g.community_of)
        sizes = sizes[sizes > 0]
        assert sizes.max() <= 40 + 40  # tail absorption may exceed max once
        assert np.median(sizes) >= 10

    def test_degrees_bounded(self):
        g = generate_lfr(500, max_degree=30, seed=3)
        degs = g.edges.to_csr().edge_counts()
        # Configuration-model collisions only remove edges.
        assert degs.max() <= 30

    def test_low_mu_louvain_recovers_ground_truth(self):
        # Larger communities sidestep the resolution limit at this scale.
        g = generate_lfr(600, mu=0.1, min_community=25, max_community=60,
                         seed=4)
        r = louvain(g.edges.to_csr())
        scores = best_match_scores(g.community_of, r.assignment)
        assert scores.fscore > 0.9
        assert scores.recall == 1.0  # the Table VII pattern

    def test_small_communities_merge_but_recall_stays_one(self):
        # At small scale Louvain's resolution limit merges ground-truth
        # communities: recall 1.0, precision < 1 (paper Table VII shape).
        g = generate_lfr(500, mu=0.1, seed=4)
        r = louvain(g.edges.to_csr())
        scores = best_match_scores(g.community_of, r.assignment)
        assert scores.recall == 1.0
        assert 0.6 < scores.precision <= 1.0

    def test_higher_mu_lowers_modularity(self):
        lo = generate_lfr(600, mu=0.1, seed=5)
        hi = generate_lfr(600, mu=0.5, seed=5)
        q_lo = louvain(lo.edges.to_csr()).modularity
        q_hi = louvain(hi.edges.to_csr()).modularity
        assert q_lo > q_hi

    def test_deterministic(self):
        a = generate_lfr(300, seed=9)
        b = generate_lfr(300, seed=9)
        np.testing.assert_array_equal(a.edges.u, b.edges.u)
        np.testing.assert_array_equal(a.community_of, b.community_of)

    def test_num_communities_reported(self):
        g = generate_lfr(400, seed=10)
        assert g.num_communities == len(np.unique(g.community_of))

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_lfr(5, min_community=10)
        with pytest.raises(ValueError):
            generate_lfr(100, mu=1.5)


def _random_draw(i: int) -> dict:
    """The ``i``-th seeded parameter draw; every tenth slot forces one
    of the corners a uniform draw would rarely reach."""
    rng = np.random.default_rng(7000 + i)
    max_degree = int(rng.integers(5, 121))
    mu = float(rng.uniform(0.0, 0.9))
    min_community = int(rng.integers(5, 31))
    max_community = min_community + int(rng.integers(0, 61))
    slot = i % 10
    if slot == 0:
        mu = 0.0
    elif slot == 1:
        mu = 1.0
    elif slot in (2, 3, 4):  # clamp-prone: intra-degrees outgrow the communities
        max_degree = int(rng.integers(60, 121))
        mu = float(rng.uniform(0.0, 0.3))
        min_community = int(rng.integers(5, 16))
        max_community = int(
            rng.integers(min_community, int(max_degree * (1 - mu)))
        )
    num_vertices = int(rng.integers(max(40, min_community), 901))
    if slot == 5:
        num_vertices = min_community
    return dict(
        num_vertices=num_vertices,
        avg_degree=float(rng.uniform(3.0, max(4.0, 0.6 * max_degree))),
        max_degree=max_degree,
        mu=mu,
        tau1=float(rng.uniform(2.0, 3.0)),
        tau2=float(rng.uniform(1.0, 2.0)),
        min_community=min_community,
        max_community=max_community,
        seed=int(rng.integers(0, 2**31)),
    )


RANDOM_DRAWS = [_random_draw(i) for i in range(100)]

#: Corners by construction.  The second one draws 10, 10 and is left with
#: 5 < ``min_community`` vertices, which the last community absorbs.
CORNER_DRAWS = [
    dict(num_vertices=10, min_community=10, max_community=10),
    dict(num_vertices=25, min_community=10, max_community=10, seed=3),
    dict(num_vertices=200, mu=0.0, max_degree=150, max_community=20),
    dict(num_vertices=200, mu=1.0, seed=5),
    dict(num_vertices=64, avg_degree=2.0, max_degree=2),
]


def _clamp_prone(draw: dict) -> bool:
    return draw["max_degree"] * (1 - draw["mu"]) > draw["max_community"]


class TestAgainstReference:
    """``generate_lfr`` against the generator it replaced
    (``tests/oracles/lfr_reference.py``): equal arrays, on any numpy."""

    def test_draws_reach_the_corners(self):
        assert sum(map(_clamp_prone, RANDOM_DRAWS)) >= 30
        assert sum(d["mu"] == 0.0 for d in RANDOM_DRAWS) == 10
        assert sum(d["mu"] == 1.0 for d in RANDOM_DRAWS) == 10
        assert sum(
            d["num_vertices"] == d["min_community"] for d in RANDOM_DRAWS
        ) >= 10
        absorbed = generate_lfr(**CORNER_DRAWS[1])
        assert np.bincount(absorbed.community_of).tolist() == [10, 15]
        # At mu = 0 only a clamped vertex has inter-community stubs.
        assert generate_lfr(**CORNER_DRAWS[2]).mu_realized > 0.0

    @pytest.mark.parametrize(
        "draw", RANDOM_DRAWS + CORNER_DRAWS,
        ids=[f"draw{i}" for i in range(len(RANDOM_DRAWS))]
        + [f"corner{i}" for i in range(len(CORNER_DRAWS))],
    )
    def test_equal_arrays(self, draw):
        got = generate_lfr(**draw)
        want = generate_lfr_reference(**draw)
        assert got.edges.num_vertices == want.edges.num_vertices
        np.testing.assert_array_equal(got.edges.u, want.edges.u)
        np.testing.assert_array_equal(got.edges.v, want.edges.v)
        np.testing.assert_array_equal(got.edges.w, want.edges.w)
        np.testing.assert_array_equal(got.community_of, want.community_of)
        assert got.mu_realized == want.mu_realized
