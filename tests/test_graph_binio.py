"""Unit tests for the binary edge-list file format."""

import struct

import numpy as np
import pytest

from repro.graph import (
    BinFormatError,
    EdgeList,
    read_edgelist,
    read_edges_slice,
    read_header,
    write_edgelist,
)
from repro.graph.binio import HEADER_BYTES, RECORD_BYTES, slice_nbytes


@pytest.fixture
def sample(tmp_path):
    el = EdgeList.from_arrays(
        10, [0, 1, 2, 3, 4], [5, 6, 7, 8, 9], [1.0, 2.0, 3.0, 4.0, 5.0]
    )
    path = tmp_path / "g.bin"
    nbytes = write_edgelist(path, el)
    return el, path, nbytes


class TestWriteRead:
    def test_roundtrip(self, sample):
        el, path, _ = sample
        el2 = read_edgelist(path)
        assert el2.num_vertices == el.num_vertices
        np.testing.assert_array_equal(el2.u, el.u)
        np.testing.assert_array_equal(el2.v, el.v)
        np.testing.assert_allclose(el2.w, el.w)

    def test_written_size(self, sample):
        el, path, nbytes = sample
        assert nbytes == HEADER_BYTES + el.num_edges * RECORD_BYTES
        assert path.stat().st_size == nbytes

    def test_header(self, sample):
        _, path, _ = sample
        h = read_header(path)
        assert h.num_vertices == 10
        assert h.num_edges == 5

    def test_empty_edge_list(self, tmp_path):
        el = EdgeList.from_arrays(3, [], [])
        path = tmp_path / "empty.bin"
        write_edgelist(path, el)
        el2 = read_edgelist(path)
        assert el2.num_edges == 0
        assert el2.num_vertices == 3


class TestSliceReads:
    def test_slice_contents(self, sample):
        el, path, _ = sample
        u, v, w = read_edges_slice(path, 1, 4)
        np.testing.assert_array_equal(u, el.u[1:4])
        np.testing.assert_allclose(w, el.w[1:4])

    def test_slices_cover_file(self, sample):
        el, path, _ = sample
        h = read_header(path)
        seen = []
        for rank in range(3):
            lo, hi = h.record_range_for_rank(rank, 3)
            u, v, w = read_edges_slice(path, lo, hi)
            seen.extend(zip(u, v))
        assert seen == list(zip(el.u, el.v))

    def test_rank_ranges_partition_records(self, sample):
        _, path, _ = sample
        h = read_header(path)
        for nranks in (1, 2, 3, 5, 7):
            prev_hi = 0
            for rank in range(nranks):
                lo, hi = h.record_range_for_rank(rank, nranks)
                assert lo == prev_hi
                prev_hi = hi
            assert prev_hi == h.num_edges

    def test_rank_out_of_range(self, sample):
        _, path, _ = sample
        h = read_header(path)
        with pytest.raises(ValueError):
            h.record_range_for_rank(3, 3)

    def test_bad_slice_bounds(self, sample):
        _, path, _ = sample
        with pytest.raises(ValueError):
            read_edges_slice(path, 2, 99)

    def test_slice_nbytes(self):
        assert slice_nbytes(0, 10) == HEADER_BYTES + 10 * RECORD_BYTES


class TestMalformedFiles:
    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 24)
        with pytest.raises(BinFormatError, match="not a DLOUVAIN"):
            read_header(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"DLOUVAIN")
        with pytest.raises(BinFormatError):
            read_header(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "ver.bin"
        path.write_bytes(b"DLOUVAIN" + struct.pack("<qqq", 99, 1, 0))
        with pytest.raises(BinFormatError, match="version"):
            read_header(path)

    def test_negative_counts(self, tmp_path):
        path = tmp_path / "neg.bin"
        path.write_bytes(b"DLOUVAIN" + struct.pack("<qqq", 1, -5, 0))
        with pytest.raises(BinFormatError, match="negative"):
            read_header(path)

    def test_truncated_records(self, tmp_path, sample):
        el, path, _ = sample
        data = path.read_bytes()
        bad = tmp_path / "trunc.bin"
        bad.write_bytes(data[:-8])
        with pytest.raises(BinFormatError, match="truncated"):
            read_edges_slice(bad, 0, el.num_edges)


class TestEndpointRange:
    """Records whose endpoints lie outside the header's ``[0, n)`` are
    refused by the reader every ingest path shares, naming the file and
    the offending id."""

    @pytest.fixture
    def bad(self, tmp_path):
        # 4 vertices in the header, one record aims at vertex 7.
        path = tmp_path / "bad.bin"
        write_edgelist(
            path, EdgeList(4, np.array([0, 1, 2, 2]), np.array([1, 2, 7, 3]),
                           np.ones(4))
        )
        return path

    def test_read_edgelist_refuses(self, bad):
        with pytest.raises(BinFormatError, match=r"bad\.bin.*endpoint 7"):
            read_edgelist(bad)

    def test_negative_endpoint_refused(self, tmp_path):
        path = tmp_path / "neg.bin"
        write_edgelist(
            path, EdgeList(3, np.array([0, -2]), np.array([1, 1]), np.ones(2))
        )
        with pytest.raises(BinFormatError, match="endpoint -2"):
            read_edges_slice(path, 0, 2)

    def test_slice_without_the_bad_record_reads(self, bad):
        u, v, _ = read_edges_slice(bad, 0, 2)
        np.testing.assert_array_equal(v, [1, 2])

    @pytest.mark.parametrize("partition", ["even_vertex", "even_edge"])
    @pytest.mark.parametrize("nranks", [1, 2])
    def test_load_binary_refuses(self, bad, partition, nranks):
        from repro.graph import DistGraph
        from repro.runtime import FREE, RankFailedError, run_spmd

        with pytest.raises((BinFormatError, RankFailedError)) as excinfo:
            run_spmd(
                nranks,
                lambda comm: DistGraph.load_binary(
                    comm, str(bad), partition=partition
                ),
                machine=FREE,
                timeout=15.0,
            )
        err = excinfo.value
        if isinstance(err, RankFailedError):
            err = next(iter(err.causes.values()))
        assert isinstance(err, BinFormatError)
        assert "bad.bin" in str(err) and "endpoint 7" in str(err)
