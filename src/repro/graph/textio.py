"""Text graph formats: SNAP/TSV edge lists and METIS files.

The paper collects graphs "in their native formats from four sources"
(UFL, Network Repository, SNAP, LAW) and converts them to the binary
edge-list format (§V).  These readers cover the two text formats those
sources actually serve, so the conversion pipeline is reproducible:

* **SNAP / TSV edge list** — one ``u v [w]`` pair per line, ``#`` or
  ``%`` comments, arbitrary (possibly sparse) vertex ids;
* **METIS** — header ``n m [fmt]``, then one line per vertex listing
  its (1-based) neighbours, optionally with weights (fmt 1/001 = edge
  weights); ``%`` lines are comments, and a blank line is a vertex
  without neighbours.

Both produce an :class:`~repro.graph.edgelist.EdgeList`;
:func:`convert_to_binary` completes the paper's ingest pipeline.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .binio import write_edgelist
from .edgelist import EdgeList


class TextFormatError(ValueError):
    """Raised for malformed text graph files."""


def read_snap_edgelist(
    path: str | os.PathLike,
    *,
    relabel: bool = True,
) -> EdgeList:
    """Read a SNAP-style whitespace edge list.

    ``relabel=True`` (default) densifies arbitrary vertex ids to
    ``0..n-1`` in sorted order — SNAP dumps routinely skip ids.  With
    ``relabel=False`` ids are used verbatim and ``num_vertices`` is
    ``max_id + 1``.
    """
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line[0] in "#%":
                continue
            parts = line.split()
            if len(parts) < 2:
                raise TextFormatError(
                    f"{path}:{lineno}: expected 'u v [w]', got {line!r}"
                )
            try:
                us.append(int(parts[0]))
                vs.append(int(parts[1]))
                ws.append(float(parts[2]) if len(parts) > 2 else 1.0)
            except ValueError as exc:
                raise TextFormatError(
                    f"{path}:{lineno}: {exc}"
                ) from None
    u = np.asarray(us, dtype=np.int64)
    v = np.asarray(vs, dtype=np.int64)
    w = np.asarray(ws, dtype=np.float64)
    if len(u) == 0:
        return EdgeList.from_arrays(0, u, v, w)
    if u.min() < 0 or v.min() < 0:
        raise TextFormatError(f"{path}: negative vertex id")
    if relabel:
        ids = np.unique(np.concatenate([u, v]))
        u = np.searchsorted(ids, u)
        v = np.searchsorted(ids, v)
        n = len(ids)
    else:
        n = int(max(u.max(), v.max())) + 1
    return EdgeList.from_arrays(n, u, v, w)


def read_metis(path: str | os.PathLike) -> EdgeList:
    """Read a METIS graph file (1-based adjacency lists).  Only ``%``
    lines are comments: after the header a blank line is an isolated
    vertex (blank lines past the ``n``-th are ignored)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if not ln.lstrip().startswith("%")]
    start = next((i for i, ln in enumerate(lines) if ln), len(lines))
    if start == len(lines):
        raise TextFormatError(f"{path}: empty METIS file")
    header = lines[start].split()
    try:
        n, m = int(header[0]), int(header[1])
    except (IndexError, ValueError):
        raise TextFormatError(
            f"{path}: METIS header needs 'n m [fmt]', got {lines[start]!r}"
        ) from None
    fmt = header[2] if len(header) > 2 else "0"
    has_edge_weights = fmt.endswith("1")
    has_vertex_weights = len(fmt) >= 2 and fmt[-2] == "1"
    rows = lines[start + 1:]
    while len(rows) > n and not rows[-1]:
        rows.pop()
    if len(rows) != n:
        raise TextFormatError(
            f"{path}: header says {n} vertices, file has {len(rows)} "
            "adjacency lines"
        )

    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []
    step = 2 if has_edge_weights else 1
    for u, line in enumerate(rows):
        tokens = line.split()[1 if has_vertex_weights else 0:]
        if len(tokens) % step:
            raise TextFormatError(
                f"{path}: vertex {u + 1} lists neighbour {tokens[-1]} "
                "without a weight"
            )
        for i in range(0, len(tokens), step):
            v = int(tokens[i]) - 1  # METIS is 1-based
            if not 0 <= v < n:
                raise TextFormatError(
                    f"{path}: vertex {u + 1} lists neighbour "
                    f"{tokens[i]} outside 1..{n}"
                )
            w = float(tokens[i + 1]) if has_edge_weights else 1.0
            if u <= v:  # each undirected edge appears in both lists
                us.append(u)
                vs.append(v)
                ws.append(w)
    el = EdgeList.from_arrays(
        n,
        np.asarray(us, dtype=np.int64),
        np.asarray(vs, dtype=np.int64),
        np.asarray(ws, dtype=np.float64),
    )
    if el.num_edges != m:
        raise TextFormatError(
            f"{path}: header says {m} edges, adjacency lists give "
            f"{el.num_edges}"
        )
    return el


def write_snap_edgelist(path: str | os.PathLike, el: EdgeList) -> None:
    """Write an EdgeList as a SNAP-style text file (with weights)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# vertices {el.num_vertices} edges {el.num_edges}\n")
        for u, v, w in zip(el.u, el.v, el.w):
            fh.write(f"{u}\t{v}\t{w:g}\n")


def write_metis(path: str | os.PathLike, el: EdgeList) -> None:
    """Write an EdgeList as a METIS file with edge weights (fmt 001)."""
    n = el.num_vertices
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, w in zip(el.u, el.v, el.w):
        adj[u].append((int(v), float(w)))
        if u != v:
            adj[v].append((int(u), float(w)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {el.num_edges} 001\n")
        for row in adj:
            fh.write(
                " ".join(f"{v + 1} {w:g}" for v, w in sorted(row)) + "\n"
            )


def convert_to_binary(
    src: str | os.PathLike, dst: str | os.PathLike
) -> EdgeList:
    """The paper's conversion step: native text format -> binary.

    The source format is chosen by suffix: ``.graph``/``.metis`` parse
    as METIS, anything else as a SNAP edge list.  Returns the parsed
    edge list (already written to ``dst``).
    """
    suffix = Path(src).suffix.lower()
    if suffix in (".graph", ".metis"):
        el = read_metis(src)
    else:
        el = read_snap_edgelist(src)
    write_edgelist(dst, el)
    return el
