"""Binary edge-list file format + simulated parallel (MPI-IO style) reads.

The paper converts each test graph "from their various native formats to
an edge list based binary format, and used the binary file as an input"
(§V), reading it with MPI I/O so ingest costs 1-2% of execution time.

Format (little-endian):

=========  =======  ====================================================
offset     type     meaning
=========  =======  ====================================================
0          8 bytes  magic ``b"DLOUVAIN"``
8          int64    format version (1)
16         int64    number of vertices ``n``
24         int64    number of undirected edges ``m``
32         record   ``m`` records of (int64 u, int64 v, float64 w)
=========  =======  ====================================================

:func:`read_edges_slice` reads a contiguous record range, which is how
each simulated rank ingests its share (every rank can compute its byte
offset from the header alone, exactly like the MPI-IO code path).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .edgelist import EdgeList

MAGIC = b"DLOUVAIN"
VERSION = 1
HEADER_BYTES = 32
RECORD_DTYPE = np.dtype([("u", "<i8"), ("v", "<i8"), ("w", "<f8")])
RECORD_BYTES = RECORD_DTYPE.itemsize


class BinFormatError(ValueError):
    """Raised for malformed binary graph files."""


@dataclass(frozen=True)
class BinHeader:
    num_vertices: int
    num_edges: int

    def record_range_for_rank(self, rank: int, nranks: int) -> tuple[int, int]:
        """Record interval [lo, hi) that ``rank`` of ``nranks`` reads."""
        if not 0 <= rank < nranks:
            raise ValueError(f"rank {rank} out of range for {nranks} ranks")
        base, extra = divmod(self.num_edges, nranks)
        lo = rank * base + min(rank, extra)
        hi = lo + base + (1 if rank < extra else 0)
        return lo, hi


def write_edgelist(path: str | os.PathLike, el: EdgeList) -> int:
    """Write ``el`` to ``path``; returns bytes written."""
    path = Path(path)
    records = np.empty(el.num_edges, dtype=RECORD_DTYPE)
    records["u"] = el.u
    records["v"] = el.v
    records["w"] = el.w
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<qqq", VERSION, el.num_vertices, el.num_edges))
        records.tofile(fh)
    return HEADER_BYTES + el.num_edges * RECORD_BYTES


def read_header(path: str | os.PathLike) -> BinHeader:
    with open(path, "rb") as fh:
        head = fh.read(HEADER_BYTES)
    if len(head) != HEADER_BYTES or head[:8] != MAGIC:
        raise BinFormatError(f"{path}: not a DLOUVAIN binary edge list")
    version, n, m = struct.unpack("<qqq", head[8:32])
    if version != VERSION:
        raise BinFormatError(f"{path}: unsupported version {version}")
    if n < 0 or m < 0:
        raise BinFormatError(f"{path}: negative sizes in header")
    return BinHeader(num_vertices=int(n), num_edges=int(m))


def read_edges_slice(
    path: str | os.PathLike, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read records ``[lo, hi)``; returns ``(u, v, w)`` arrays.  An
    endpoint outside the header's ``[0, n)`` raises."""
    header = read_header(path)
    if not 0 <= lo <= hi <= header.num_edges:
        raise ValueError(
            f"record slice [{lo}, {hi}) out of range for m={header.num_edges}"
        )
    count = hi - lo
    with open(path, "rb") as fh:
        fh.seek(HEADER_BYTES + lo * RECORD_BYTES)
        records = np.fromfile(fh, dtype=RECORD_DTYPE, count=count)
    if len(records) != count:
        raise BinFormatError(f"{path}: truncated file")
    u, v = (records[f].astype(np.int64) for f in "uv")
    n = header.num_vertices
    bad = np.flatnonzero((np.minimum(u, v) < 0) | (np.maximum(u, v) >= n))
    if len(bad):
        i = bad[0]
        raise BinFormatError(
            f"{path}: record {lo + i} has endpoint "
            f"{u[i] if not 0 <= u[i] < n else v[i]} outside [0, {n})"
        )
    return u, v, records["w"].astype(np.float64)


def read_edgelist(path: str | os.PathLike) -> EdgeList:
    """Read the whole file back as an :class:`EdgeList`."""
    header = read_header(path)
    u, v, w = read_edges_slice(path, 0, header.num_edges)
    return EdgeList(num_vertices=header.num_vertices, u=u, v=v, w=w)


def slice_nbytes(lo: int, hi: int) -> int:
    """Bytes a rank reads for records [lo, hi) (for I/O cost charging)."""
    return HEADER_BYTES + (hi - lo) * RECORD_BYTES
