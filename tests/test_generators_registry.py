"""Unit tests for the dataset registry of paper-input stand-ins."""

import pytest

from repro.generators import (
    DATASETS,
    SCALES,
    TABLE2_NAMES,
    dataset,
    make_graph,
)
from tests import graph_fingerprints


class TestRegistryContents:
    def test_all_table2_graphs_present(self):
        assert len(TABLE2_NAMES) == 12
        for name in TABLE2_NAMES:
            assert name in DATASETS

    def test_table1_inputs_present(self):
        assert "cnr" in DATASETS
        assert "channel" in DATASETS

    def test_ssca2_present(self):
        assert "ssca2" in DATASETS

    def test_specs_carry_paper_metadata(self):
        spec = dataset("soc-friendster")
        assert spec.paper_edges == "1.8B"
        assert spec.paper_modularity == pytest.approx(0.624)
        assert "flagship" in spec.description

    def test_structure_classes(self):
        assert dataset("channel").structure == "mesh"
        assert dataset("uk-2007").structure == "web"
        assert dataset("twitter-2010").structure == "social"
        assert dataset("cnr").structure == "small-world"


class TestGeneration:
    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            make_graph("nope")
        with pytest.raises(KeyError):
            dataset("nope")

    def test_unknown_scale(self):
        with pytest.raises(KeyError, match="unknown scale"):
            dataset("channel").generate(scale="huge")

    def test_scales_ordered(self):
        assert (
            SCALES["tiny"] < SCALES["small"] < SCALES["medium"]
            < SCALES["large"]
        )
        assert list(SCALES) == ["tiny", "small", "medium", "large"]

    def test_tiny_smaller_than_small(self):
        t = make_graph("channel", scale="tiny")
        s = make_graph("channel", scale="small")
        assert t.num_vertices < s.num_vertices

    def test_deterministic_per_seed(self):
        a = make_graph("com-orkut", seed=3)
        b = make_graph("com-orkut", seed=3)
        assert a.num_edges == b.num_edges
        assert (a.edges == b.edges).all()

    def test_different_seeds_differ(self):
        a = make_graph("com-orkut", seed=0)
        b = make_graph("com-orkut", seed=1)
        assert a.num_edges != b.num_edges or not (a.edges == b.edges).all()

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_every_dataset_generates_valid_graph(self, name):
        g = make_graph(name, scale="tiny")
        assert g.num_vertices > 0
        assert g.num_edges > 0
        assert g.total_weight > 0

    def test_size_ordering_roughly_preserved(self):
        # Table II is edge-ascending; stand-ins keep the ordering loosely
        # (within structure classes at least the endpoints hold).
        first = make_graph(TABLE2_NAMES[0], scale="small")
        last = make_graph(TABLE2_NAMES[-1], scale="small")
        assert last.num_vertices > first.num_vertices


class TestPinnedGraphs:
    """``tests/data/graph_fingerprints.json``: every registry graph at
    the three tier-1 scales, and the LFR ground truth with it (see
    :mod:`tests.graph_fingerprints`)."""

    PINS = graph_fingerprints.load_pins()

    def test_pins_cover_the_registry(self):
        assert sorted(self.PINS["rows"]) == sorted(graph_fingerprints.keys())
        assert len(self.PINS["rows"]) == 14 * 3 * 2 + 5 * 2
        with_truth = {
            key.split("/")[0]
            for key, pin in self.PINS["rows"].items() if "community_of" in pin
        }
        assert with_truth == {
            "com-orkut", "soc-sinaweibo", "twitter-2010", "soc-friendster",
            "lfr-defaults",
        }

    @pytest.mark.parametrize("key", graph_fingerprints.keys())
    def test_graph_fingerprint(self, key):
        row, pin = graph_fingerprints.row(key), self.PINS["rows"][key]
        # Told apart from a generator change by the differential tests
        # against tests/oracles/, which hold on every numpy.
        assert row == pin, (
            f"{key}: this numpy's Generator stream builds a different "
            f"graph than the one pinned on numpy {self.PINS['numpy']} — "
            "not a generator diff, unless a differential test against "
            "the reference generator fails too"
        )
