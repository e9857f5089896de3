"""Unit tests for 1-D partitioners."""

import numpy as np
import pytest

from repro.graph import (
    even_edge,
    even_vertex,
    local_counts,
    owner_of,
)


class TestEvenVertex:
    def test_exact_division(self):
        off = even_vertex(12, 4)
        np.testing.assert_array_equal(off, [0, 3, 6, 9, 12])

    def test_remainder_spread_to_front(self):
        off = even_vertex(10, 4)
        np.testing.assert_array_equal(local_counts(off), [3, 3, 2, 2])

    def test_more_ranks_than_vertices(self):
        off = even_vertex(2, 5)
        counts = local_counts(off)
        assert counts.sum() == 2
        assert counts.max() == 1

    def test_single_rank(self):
        np.testing.assert_array_equal(even_vertex(7, 1), [0, 7])

    def test_empty_graph(self):
        off = even_vertex(0, 3)
        np.testing.assert_array_equal(off, [0, 0, 0, 0])

    def test_invalid(self):
        with pytest.raises(ValueError):
            even_vertex(5, 0)
        with pytest.raises(ValueError):
            even_vertex(-1, 2)


class TestEvenEdge:
    def test_balances_edge_counts(self):
        # One heavy vertex at the front.
        rows = np.array([100, 1, 1, 1, 1, 1, 1, 1])
        off = even_edge(rows, 2)
        # Rank 0 should get just the heavy vertex (or close to it).
        counts = [rows[off[i]:off[i + 1]].sum() for i in range(2)]
        assert abs(counts[0] - counts[1]) <= 100  # better than naive split
        assert off[1] <= 2

    def test_uniform_rows_matches_even_vertex(self):
        rows = np.full(12, 3)
        off = even_edge(rows, 4)
        np.testing.assert_array_equal(off, even_vertex(12, 4))

    def test_monotone_and_covering(self):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 50, 100)
        for p in (1, 2, 3, 7, 16):
            off = even_edge(rows, p)
            assert off[0] == 0 and off[-1] == 100
            assert np.all(np.diff(off) >= 0)

    def test_many_empty_rows(self):
        rows = np.zeros(10, dtype=np.int64)
        off = even_edge(rows, 4)
        assert off[0] == 0 and off[-1] == 10
        assert np.all(np.diff(off) >= 0)

    def test_all_empty_rows_spread_like_even_vertex(self):
        """A fully edgeless graph must not collapse onto one rank."""
        rows = np.zeros(10, dtype=np.int64)
        off = even_edge(rows, 4)
        np.testing.assert_array_equal(off, even_vertex(10, 4))
        assert local_counts(off).max() <= 3

    def test_more_ranks_than_vertices(self):
        rows = np.array([2, 3], dtype=np.int64)
        off = even_edge(rows, 5)
        assert off[0] == 0 and off[-1] == 2
        assert np.all(np.diff(off) >= 0)
        assert local_counts(off).sum() == 2

    def test_more_ranks_than_vertices_all_empty(self):
        off = even_edge(np.zeros(3, dtype=np.int64), 7)
        assert off[0] == 0 and off[-1] == 3
        assert local_counts(off).max() <= 1

    def test_monotonicity_with_degenerate_heavy_tail(self):
        """All weight in the last row: every interior cut lands on the
        same boundary; np.maximum.accumulate must keep offsets sorted."""
        rows = np.zeros(8, dtype=np.int64)
        rows[-1] = 1000
        off = even_edge(rows, 4)
        assert np.all(np.diff(off) >= 0)
        assert off[0] == 0 and off[-1] == 8
        # owner_of must stay usable on the degenerate offsets.
        owners = owner_of(off, np.arange(8))
        assert np.all(np.diff(owners) >= 0)

    def test_monotonicity_with_heavy_head(self):
        rows = np.zeros(8, dtype=np.int64)
        rows[0] = 1000
        off = even_edge(rows, 4)
        assert np.all(np.diff(off) >= 0)
        assert off[0] == 0 and off[-1] == 8


def _even_edge_one_search_per_rank(row_lengths, nranks):
    """The per-rank formulation of ``even_edge``: one ``searchsorted`` per
    rank boundary, each against its own float target."""
    row_lengths = np.asarray(row_lengths, dtype=np.int64)
    n = len(row_lengths)
    csum = np.concatenate([[0], np.cumsum(row_lengths)])
    total = csum[-1]
    if total == 0:
        return even_vertex(n, nranks)
    offsets = np.zeros(nranks + 1, dtype=np.int64)
    offsets[nranks] = n
    for r in range(1, nranks):
        cut = int(np.searchsorted(csum, total * r / nranks, side="left"))
        offsets[r] = min(max(cut, offsets[r - 1]), n)
    np.maximum.accumulate(offsets, out=offsets)
    return offsets


@pytest.mark.parametrize("kind", ["random", "all empty", "mostly empty"])
@pytest.mark.parametrize("seed", range(4))
def test_even_edge_equals_one_search_per_rank(kind, seed):
    """All rank boundaries in one search give the offsets of one search
    per boundary, for p in {1, 2, 7, n + 3}."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    if kind == "random":
        rows = rng.integers(0, 9, n)
    elif kind == "all empty":
        rows = np.zeros(n, dtype=np.int64)
    else:
        rows = np.zeros(n, dtype=np.int64)
        hot = rng.choice(n, size=max(1, n // 10), replace=False)
        rows[hot] = rng.integers(1, 50, len(hot))
    for p in (1, 2, 7, n + 3):
        np.testing.assert_array_equal(
            even_edge(rows, p), _even_edge_one_search_per_rank(rows, p)
        )


class TestOwnerOf:
    def test_owner_lookup(self):
        off = np.array([0, 3, 6, 9])
        np.testing.assert_array_equal(
            owner_of(off, np.array([0, 2, 3, 5, 8])), [0, 0, 1, 1, 2]
        )

    def test_scalar(self):
        off = np.array([0, 3, 6])
        assert owner_of(off, 4) == 1

    def test_out_of_range(self):
        off = np.array([0, 3, 6])
        with pytest.raises(ValueError):
            owner_of(off, 6)

    def test_boundaries_are_owned_by_upper_rank(self):
        off = np.array([0, 3, 6])
        assert owner_of(off, 3) == 1
        assert owner_of(off, 0) == 0

    def test_every_partition_boundary(self):
        off = np.array([0, 2, 2, 5, 9])
        # A vertex exactly on a boundary belongs to the first rank whose
        # range starts there; empty ranks (here rank 1) own nothing.
        np.testing.assert_array_equal(
            owner_of(off, np.array([0, 1, 2, 4, 5, 8])),
            [0, 0, 2, 2, 3, 3],
        )

    def test_last_vertex_of_last_rank(self):
        off = np.array([0, 3, 6])
        assert owner_of(off, 5) == 1
        with pytest.raises(ValueError):
            owner_of(off, -1)

