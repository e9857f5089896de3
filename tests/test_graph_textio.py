"""Unit tests for the text graph formats (SNAP, METIS) and conversion."""

import numpy as np
import pytest

from repro.graph import EdgeList, read_edgelist
from repro.graph.textio import (
    TextFormatError,
    convert_to_binary,
    read_metis,
    read_snap_edgelist,
    write_metis,
    write_snap_edgelist,
)


@pytest.fixture
def sample_el():
    return EdgeList.from_arrays(
        5, [0, 1, 2, 0], [1, 2, 3, 4], [1.0, 2.5, 1.0, 3.0]
    )


class TestSnapFormat:
    def test_roundtrip(self, tmp_path, sample_el):
        path = tmp_path / "g.txt"
        write_snap_edgelist(path, sample_el)
        el = read_snap_edgelist(path)
        np.testing.assert_array_equal(el.u, sample_el.u)
        np.testing.assert_allclose(el.w, sample_el.w)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n% alt comment\n0 1\n1 2 2.5\n")
        el = read_snap_edgelist(path)
        assert el.num_edges == 2
        assert el.w[1] == 2.5

    def test_relabel_sparse_ids(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("100 200\n200 999\n")
        el = read_snap_edgelist(path)
        assert el.num_vertices == 3
        assert set(el.u) | set(el.v) == {0, 1, 2}

    def test_no_relabel(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 5\n")
        el = read_snap_edgelist(path, relabel=False)
        assert el.num_vertices == 6

    def test_duplicate_edges_merge(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 1.0\n1 0 2.0\n")
        el = read_snap_edgelist(path)
        assert el.num_edges == 1
        assert el.w[0] == 3.0

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n")
        with pytest.raises(TextFormatError, match="expected"):
            read_snap_edgelist(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b\n")
        with pytest.raises(TextFormatError):
            read_snap_edgelist(path)

    def test_negative_id(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("-1 2\n")
        with pytest.raises(TextFormatError, match="negative"):
            read_snap_edgelist(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        assert read_snap_edgelist(path).num_edges == 0


class TestMetisFormat:
    def test_roundtrip(self, tmp_path, sample_el):
        path = tmp_path / "g.graph"
        write_metis(path, sample_el)
        el = read_metis(path)
        assert el.num_vertices == sample_el.num_vertices
        assert el.num_edges == sample_el.num_edges
        np.testing.assert_allclose(np.sort(el.w), np.sort(sample_el.w))

    def test_unweighted(self, tmp_path):
        path = tmp_path / "g.graph"
        # Triangle, 1-based adjacency.
        path.write_text("3 3\n2 3\n1 3\n1 2\n")
        el = read_metis(path)
        assert el.num_edges == 3
        assert np.all(el.w == 1.0)

    def test_comments(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("% comment\n2 1\n2\n1\n")
        assert read_metis(path).num_edges == 1

    def test_wrong_vertex_count(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("3 1\n2\n1\n")  # only 2 adjacency lines
        with pytest.raises(TextFormatError, match="adjacency lines"):
            read_metis(path)

    def test_wrong_edge_count(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("2 5\n2\n1\n")
        with pytest.raises(TextFormatError, match="edges"):
            read_metis(path)

    def test_neighbor_out_of_range(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("2 1\n5\n1\n")
        with pytest.raises(TextFormatError, match="outside"):
            read_metis(path)

    def test_empty(self, tmp_path):
        path = tmp_path / "empty.graph"
        path.write_text("")
        with pytest.raises(TextFormatError, match="empty"):
            read_metis(path)


class TestConvertToBinary:
    def test_snap_source(self, tmp_path, sample_el):
        src = tmp_path / "g.txt"
        dst = tmp_path / "g.bin"
        write_snap_edgelist(src, sample_el)
        convert_to_binary(src, dst)
        el = read_edgelist(dst)
        assert el.num_edges == sample_el.num_edges
        assert el.total_weight == pytest.approx(sample_el.total_weight)

    def test_metis_source(self, tmp_path, sample_el):
        src = tmp_path / "g.graph"
        dst = tmp_path / "g.bin"
        write_metis(src, sample_el)
        convert_to_binary(src, dst)
        el = read_edgelist(dst)
        assert el.num_edges == sample_el.num_edges

    def test_full_pipeline_same_communities(self, tmp_path, planted_blocks):
        # text -> binary -> distributed Louvain gives the same result as
        # running on the in-memory graph.
        from repro.core import run_louvain
        from repro.core.distlouvain import distributed_louvain
        from repro.graph import DistGraph, EdgeList
        from repro.runtime import FREE, run_spmd

        src = tmp_path / "g.txt"
        dst = str(tmp_path / "g.bin")
        write_snap_edgelist(src, EdgeList.from_csr(planted_blocks))
        convert_to_binary(src, dst)

        def prog(comm):
            dg = DistGraph.load_binary(comm, dst, partition="even_edge")
            return distributed_louvain(comm, dg)

        from_file = run_spmd(4, prog, machine=FREE, timeout=60.0).value
        direct = run_louvain(planted_blocks, 4, machine=FREE)
        np.testing.assert_array_equal(
            from_file.assignment, direct.assignment
        )


class TestMetisBlankLines:
    """In METIS a blank adjacency line is an isolated vertex, so what
    :func:`write_metis` writes for one reads back."""

    @pytest.mark.parametrize(
        "n, u, v",
        [
            (5, [0, 3], [1, 4]),  # vertex 2 isolated, in the middle
            (5, [0, 1], [1, 2]),  # vertices 3 and 4 isolated, at the end
            (3, [], []),  # no edges at all
        ],
    )
    def test_roundtrip_with_isolated_vertices(self, tmp_path, n, u, v):
        el = EdgeList.from_arrays(n, u, v, np.arange(1.0, len(u) + 1))
        path = tmp_path / "g.graph"
        write_metis(path, el)
        back = read_metis(path)
        assert back.num_vertices == n
        np.testing.assert_array_equal(back.u, el.u)
        np.testing.assert_array_equal(back.v, el.v)
        np.testing.assert_array_equal(back.w, el.w)

    def test_trailing_blank_lines_past_n_ignored(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("3 1\n2\n1\n\n\n\n")
        el = read_metis(path)
        assert (el.num_vertices, el.num_edges) == (3, 1)

    def test_dangling_weighted_neighbour(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("3 1 001\n2 1 3\n1 1\n\n")
        with pytest.raises(TextFormatError, match=r"bad\.graph.*weight"):
            read_metis(path)

    def test_non_integer_header(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("x 1\n2\n1\n")
        with pytest.raises(TextFormatError, match=r"bad\.graph.*header"):
            read_metis(path)
