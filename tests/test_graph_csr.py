"""Unit tests for the CSR graph structure."""

import dataclasses
import hashlib
import pickle

import numpy as np
import pytest

from repro.core.coarsen import coarsen_csr
from repro.graph import CSRGraph, EdgeList
from repro.graph.csr import row_index, sum_duplicate_entries

from .oracles import aggregate_reference
from .oracles.aggregate_reference import sorted_unique


def small_graph():
    # Triangle 0-1-2, pendant 3, self loop at 0.
    return CSRGraph.from_edges(
        4, [0, 1, 0, 2, 0], [1, 2, 2, 3, 0], [1.0, 2.0, 3.0, 4.0, 0.5]
    )


class TestConstruction:
    def test_shape(self):
        g = small_graph()
        assert g.num_vertices == 4
        assert g.num_edges == 5
        # 4 non-loop edges stored twice + 1 loop stored once.
        assert g.nnz == 9

    def test_total_weight_convention(self):
        g = small_graph()
        assert g.total_weight == pytest.approx(2 * (1 + 2 + 3 + 4) + 0.5)

    def test_degrees(self):
        g = small_graph()
        np.testing.assert_allclose(g.degrees(), [4.5, 3.0, 9.0, 4.0])

    def test_self_loops(self):
        g = small_graph()
        np.testing.assert_allclose(g.self_loop_weights(), [0.5, 0, 0, 0])

    def test_unweighted_default(self):
        g = CSRGraph.from_edges(3, [0, 1], [1, 2])
        assert g.total_weight == pytest.approx(4.0)

    def test_duplicate_edges_combine(self):
        g = CSRGraph.from_edges(2, [0, 0, 1], [1, 1, 0], [1.0, 2.0, 3.0])
        assert g.num_edges == 1
        nbrs, w = g.neighbors(0)
        assert list(nbrs) == [1]
        assert w[0] == pytest.approx(6.0)

    def test_empty_graph(self):
        g = CSRGraph.empty(5)
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert g.total_weight == 0.0
        np.testing.assert_array_equal(g.degrees(), np.zeros(5))

    def test_zero_vertices(self):
        g = CSRGraph.empty(0)
        assert g.num_vertices == 0

    def test_out_of_range_endpoint(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, [0], [5])

    def test_negative_vertex(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, [-1], [0])

    def test_mismatched_arrays(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(3, [0, 1], [1])

    def test_invalid_index_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(
                index=np.array([0, 2, 1], dtype=np.int64),
                edges=np.array([0, 1], dtype=np.int64),
                weights=np.ones(2),
            )


class TestAccess:
    def test_neighbors_view(self):
        g = small_graph()
        nbrs, w = g.neighbors(0)
        assert set(map(int, nbrs)) == {0, 1, 2}

    def test_iter_edges_each_once(self):
        g = small_graph()
        edges = sorted(g.iter_edges())
        assert edges == [
            (0, 0, 0.5),
            (0, 1, 1.0),
            (0, 2, 3.0),
            (1, 2, 2.0),
            (2, 3, 4.0),
        ]

    def test_edge_array_matches_iter(self):
        g = small_graph()
        eu, ev, ew = g.edge_array()
        from_iter = sorted(g.iter_edges())
        from_arr = sorted(zip(eu.tolist(), ev.tolist(), ew.tolist()))
        assert from_arr == from_iter

    def test_edge_counts(self):
        g = small_graph()
        np.testing.assert_array_equal(g.edge_counts(), [3, 2, 3, 1])

    def test_validate_good_graph(self):
        small_graph().validate()

    def test_validate_detects_asymmetry(self):
        g = CSRGraph(
            index=np.array([0, 1, 1], dtype=np.int64),
            edges=np.array([1], dtype=np.int64),
            weights=np.array([1.0]),
        )
        with pytest.raises(ValueError, match="asymmetric"):
            g.validate()

    def test_validate_detects_out_of_range_target(self):
        g = CSRGraph(
            index=np.array([0, 1], dtype=np.int64),
            edges=np.array([7], dtype=np.int64),
            weights=np.array([1.0]),
        )
        with pytest.raises(ValueError, match="out of range"):
            g.validate()


class TestRelabel:
    def test_relabel_preserves_structure(self):
        g = small_graph()
        perm = np.array([3, 2, 1, 0])
        h = g.relabel(perm)
        assert h.num_edges == g.num_edges
        assert h.total_weight == pytest.approx(g.total_weight)
        # Degree multiset is preserved.
        assert sorted(h.degrees()) == sorted(g.degrees())

    def test_relabel_identity(self):
        g = small_graph()
        h = g.relabel(np.arange(4))
        np.testing.assert_array_equal(h.edges, g.edges)

    def test_relabel_requires_permutation(self):
        g = small_graph()
        with pytest.raises(ValueError):
            g.relabel(np.array([0, 0, 1, 2]))

    def test_relabel_wrong_length(self):
        g = small_graph()
        with pytest.raises(ValueError):
            g.relabel(np.arange(3))


def _direct_graph():
    # Edge 0-1 of weight 2, built from the caller's own arrays: the
    # graph holds (and freezes) these very objects.
    return CSRGraph(
        index=np.array([0, 1, 2], dtype=np.int64),
        edges=np.array([1, 0], dtype=np.int64),
        weights=np.array([2.0, 2.0]),
    )


FROZEN_BUILDS = {
    "from_edges": small_graph,
    "to_csr": lambda: EdgeList(
        num_vertices=3,
        u=np.array([0, 1], dtype=np.int64),
        v=np.array([1, 2], dtype=np.int64),
        w=np.array([1.0, 3.0]),
    ).to_csr(),
    "coarsen_csr": lambda: coarsen_csr(small_graph(), [0, 0, 1, 1])[0],
    "direct": _direct_graph,
    "pickled": lambda: pickle.loads(pickle.dumps(small_graph())),
    "empty": lambda: CSRGraph.empty(3),
}


class TestFrozen:
    @pytest.mark.parametrize("build", sorted(FROZEN_BUILDS))
    @pytest.mark.parametrize("name", ["index", "edges", "weights"])
    def test_writing_an_array_raises(self, build, name):
        array = getattr(FROZEN_BUILDS[build](), name)
        with pytest.raises(ValueError, match="read-only"):
            array[:1] = 0

    def test_pickle_round_trip_keeps_the_graph(self):
        g = small_graph()
        g.fingerprint()
        h = pickle.loads(pickle.dumps(g))
        for name in ("index", "edges", "weights"):
            np.testing.assert_array_equal(getattr(h, name), getattr(g, name))
        assert h.fingerprint() == g.fingerprint()


class TestKeptValues:
    """The total weight and the even-edge offsets are computed once per
    graph, like the fingerprint, and travel with it through pickle."""

    @staticmethod
    def _spies(monkeypatch, g):
        """Count the weight sums of ``g`` and every ``even_edge`` call."""
        import repro.graph.csr as csr

        calls = {"sum": 0, "even_edge": 0}
        real_sum, real_even = csr._weight_sum, csr.even_edge

        def weight_sum(weights):
            calls["sum"] += weights is g.weights
            return real_sum(weights)

        def even_edge(*args):
            calls["even_edge"] += 1
            return real_even(*args)

        monkeypatch.setattr(csr, "_weight_sum", weight_sum)
        monkeypatch.setattr(csr, "even_edge", even_edge)
        return calls

    def test_once_per_detection(self, monkeypatch):
        """Every rank of a p = 8 detection distributes the graph, the
        rank threads switching as often as the interpreter lets them; its
        weight is summed once and its offsets computed once."""
        import sys

        from repro.core import LouvainConfig, run_louvain

        from .conftest import planted_blocks_graph

        g = planted_blocks_graph()
        calls = self._spies(monkeypatch, g)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_louvain(g, 8, LouvainConfig(), timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert calls == {"sum": 1, "even_edge": 1}

    def test_offsets_are_the_partition_and_read_only(self):
        from repro.graph.partition import even_edge

        g = small_graph()
        offsets = g.even_edge_offsets(3)
        np.testing.assert_array_equal(offsets, even_edge(np.diff(g.index), 3))
        assert g.even_edge_offsets(3) is offsets
        with pytest.raises(ValueError, match="read-only"):
            offsets[:1] = 0
        assert g.total_weight == float(g.weights.sum())

    def test_pickled_values_come_back_frozen(self, monkeypatch):
        g = small_graph()
        weight, offsets = g.total_weight, g.even_edge_offsets(2)
        h = pickle.loads(pickle.dumps(g))
        calls = self._spies(monkeypatch, h)
        assert h.total_weight == weight
        np.testing.assert_array_equal(h.even_edge_offsets(2), offsets)
        assert calls == {"sum": 0, "even_edge": 0}
        with pytest.raises(ValueError, match="read-only"):
            h.even_edge_offsets(2)[:1] = 0


class _Sha256Spy:
    """Stands in for ``hashlib`` in :mod:`repro.graph.csr`; counts the
    hashers made."""

    def __init__(self):
        self.calls = 0

    def sha256(self, *args):
        self.calls += 1
        return hashlib.sha256(*args)


class TestFingerprint:
    def test_deterministic(self):
        assert small_graph().fingerprint() == small_graph().fingerprint()

    def test_hashed_once_per_instance(self, monkeypatch):
        import repro.graph.csr as csr

        spy = _Sha256Spy()
        monkeypatch.setattr(csr, "hashlib", spy)
        g = small_graph()
        first = g.fingerprint()
        assert [g.fingerprint() for _ in range(3)] == [first] * 3
        assert spy.calls == 1
        # An independent rebuild from the same edges hashes equal.
        eu, ev, ew = g.edge_array()
        rebuilt = CSRGraph.from_edges(
            g.num_vertices, eu.copy(), ev.copy(), ew.copy()
        )
        assert rebuilt.fingerprint() == first
        assert spy.calls == 2

    def test_stored_digest_is_no_field(self):
        g = small_graph()
        g.fingerprint()
        assert [f.name for f in dataclasses.fields(g)] == [
            "index", "edges", "weights"
        ]

    def test_hex_sha256(self):
        fp = small_graph().fingerprint()
        assert len(fp) == 64
        int(fp, 16)  # must be hex

    def test_weight_changes_fingerprint(self):
        a = CSRGraph.from_edges(3, [0, 1], [1, 2], [1.0, 1.0])
        b = CSRGraph.from_edges(3, [0, 1], [1, 2], [1.0, 2.0])
        assert a.fingerprint() != b.fingerprint()

    def test_structure_changes_fingerprint(self):
        a = CSRGraph.from_edges(3, [0, 1], [1, 2])
        b = CSRGraph.from_edges(3, [0, 0], [1, 2])
        assert a.fingerprint() != b.fingerprint()

    def test_isolated_vertex_changes_fingerprint(self):
        a = CSRGraph.from_edges(3, [0, 1], [1, 2])
        b = CSRGraph.from_edges(4, [0, 1], [1, 2])
        assert a.fingerprint() != b.fingerprint()


class TestSumDuplicateEntries:
    """The one "sort by (src, dst), sum the duplicates" of the library
    against the stable-argsort formulation it replaced five copies of."""

    #: Id ranges: narrow ones ride the entry position in the key's low
    #: bits; the wide one does not fit and takes the argsort fallback.
    @pytest.mark.parametrize("span", [1, 7, 1000, 2**31])
    @pytest.mark.parametrize("m", [0, 1, 300])
    def test_matches_stable_argsort(self, span, m):
        rng = np.random.default_rng(span % 97 + m)
        src = rng.integers(0, span, m)
        dst = rng.integers(0, span, m)
        if m > 10:
            dup = rng.integers(0, m, m // 2)  # plenty of repeated pairs
            src[: len(dup)], dst[: len(dup)] = src[dup], dst[dup]
        w = rng.random(m) * 3.0
        got = sum_duplicate_entries(src, dst, w)
        want = aggregate_reference.combine_entries(src, dst, w)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_inputs_left_alone(self):
        src, dst = np.array([2, 0, 2]), np.array([1, 5, 1])
        w = np.array([0.25, 1.0, 0.5])
        s, d, ww = sum_duplicate_entries(src, dst, w)
        np.testing.assert_array_equal(src, [2, 0, 2])
        np.testing.assert_array_equal(dst, [1, 5, 1])
        np.testing.assert_array_equal(w, [0.25, 1.0, 0.5])
        np.testing.assert_array_equal(s, [0, 2])
        np.testing.assert_array_equal(d, [5, 1])
        np.testing.assert_array_equal(ww, [1.0, 0.75])

    def test_row_index(self):
        np.testing.assert_array_equal(
            row_index(np.array([0, 0, 2, 5]), 6), [0, 2, 2, 3, 3, 3, 4]
        )
        np.testing.assert_array_equal(row_index(np.empty(0, np.int64), 2), [0, 0, 0])
        np.testing.assert_array_equal(row_index(np.empty(0, np.int64), 0), [0])

    @pytest.mark.parametrize("n", [0, 1, 2, 50])
    def test_sorted_unique_is_np_unique(self, n):
        values = np.random.default_rng(n).integers(0, 12, n)
        got = sorted_unique(values)
        assert got.dtype == values.dtype
        np.testing.assert_array_equal(got, np.unique(values))
