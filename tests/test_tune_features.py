"""Unit tests for the graph featurizer (repro.tune.features)."""

import math

import pytest

from repro.generators import make_graph
from repro.tune import GraphFeatures, compute_features, feature_distance
from repro.tune.features import DEFAULT_GHOST_PROBES


@pytest.fixture(scope="module")
def channel():
    return make_graph("channel", scale="tiny", seed=0)


class TestComputeFeatures:
    def test_basic_counts(self, channel):
        f = compute_features(channel)
        assert f.num_vertices == channel.num_vertices
        assert f.num_edges == channel.num_edges
        assert f.mean_degree == pytest.approx(
            2 * channel.num_edges / channel.num_vertices
        )

    def test_probes_cover_defaults(self, channel):
        f = compute_features(channel)
        assert set(f.ghost_fraction) == set(DEFAULT_GHOST_PROBES)
        for p, frac in f.ghost_fraction.items():
            assert 0.0 <= frac <= 1.0, (p, frac)

    def test_ghost_fraction_grows_with_ranks(self, channel):
        f = compute_features(channel)
        fracs = [f.ghost_fraction_at(p) for p in DEFAULT_GHOST_PROBES]
        assert fracs == sorted(fracs)

    def test_single_rank_has_no_ghosts(self, channel):
        f = compute_features(channel)
        assert f.ghost_fraction_at(1) == 0.0

    def test_unprobed_rank_count_snaps_to_nearest(self, channel):
        f = compute_features(channel)
        # 6 ranks is between probes 4 and 8; the answer must be one of them.
        assert f.ghost_fraction_at(6) in (
            f.ghost_fraction_at(4), f.ghost_fraction_at(8),
        )

    def test_regular_graph_has_low_cv(self, two_cliques):
        f = compute_features(two_cliques)
        assert f.degree_cv < 0.25

    def test_deterministic(self, channel):
        assert compute_features(channel) == compute_features(channel)


class TestSerialization:
    def test_round_trip(self, channel):
        f = compute_features(channel)
        again = GraphFeatures.from_dict(f.to_dict())
        assert again == f

    def test_json_safe(self, channel):
        import json

        blob = json.dumps(compute_features(channel).to_dict())
        assert "ghost_fraction" in blob

    def test_v4_record_loads_without_achieved_ghost_slot(self, channel):
        f = compute_features(channel)
        v4 = dict(f.to_dict(), version=4, achieved_ghost_fraction={"4": 0.5})
        assert GraphFeatures.from_dict(v4) == f
        assert f.to_dict()["version"] == 5
        assert "achieved_ghost_fraction" not in f.to_dict()
        assert len(f.vector()) == 10


class TestDistance:
    def test_self_distance_zero(self, channel):
        f = compute_features(channel)
        assert feature_distance(f, f) == 0.0

    def test_symmetric(self, channel, two_cliques):
        a = compute_features(channel)
        b = compute_features(two_cliques)
        assert feature_distance(a, b) == pytest.approx(
            feature_distance(b, a)
        )

    def test_similar_graphs_closer_than_different(self):
        a = compute_features(make_graph("channel", scale="tiny", seed=0))
        b = compute_features(make_graph("channel", scale="tiny", seed=3))
        c = compute_features(make_graph("com-orkut", scale="tiny", seed=0))
        assert feature_distance(a, b) < feature_distance(a, c)

    def test_vector_is_finite(self, channel):
        assert all(math.isfinite(x) for x in compute_features(channel).vector())


class TestDegreeOneFraction:
    def test_star_is_mostly_leaves(self, star_graph):
        f = compute_features(star_graph)
        assert f.degree_one_fraction == pytest.approx(8 / 9)

    def test_clique_has_no_leaves(self, two_cliques):
        assert compute_features(two_cliques).degree_one_fraction == 0.0

    def test_round_trips(self, channel):
        f = compute_features(channel)
        restored = GraphFeatures.from_dict(f.to_dict())
        assert restored.degree_one_fraction == f.degree_one_fraction

    def test_v3_records_default_to_zero(self, channel):
        legacy = compute_features(channel).to_dict()
        del legacy["degree_one_fraction"]
        assert GraphFeatures.from_dict(legacy).degree_one_fraction == 0.0

    def test_in_vector_and_format(self, star_graph):
        f = compute_features(star_graph)
        assert any(v == pytest.approx(8 / 9) for v in f.vector())
        assert "leaf=0.89" in f.format()
