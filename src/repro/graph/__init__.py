"""Graph substrate: CSR storage, edge lists, binary I/O, 1-D partitioning,
and the distributed (ghost-aware) graph structure from the paper's §IV."""

from .binio import (
    BinFormatError,
    BinHeader,
    read_edgelist,
    read_edges_slice,
    read_header,
    write_edgelist,
)
from .csr import CSRGraph
from .distgraph import DistGraph, GhostPlan
from .edgelist import EdgeList
from .metrics import GraphStats, connected_components, graph_stats, is_connected
from .partition import (
    even_edge,
    even_vertex,
    local_counts,
    owner_of,
)
from .textio import (
    TextFormatError,
    convert_to_binary,
    read_metis,
    read_snap_edgelist,
    write_metis,
    write_snap_edgelist,
)

__all__ = [
    "BinFormatError",
    "BinHeader",
    "CSRGraph",
    "DistGraph",
    "EdgeList",
    "GhostPlan",
    "GraphStats",
    "connected_components",
    "even_edge",
    "even_vertex",
    "graph_stats",
    "is_connected",
    "local_counts",
    "owner_of",
    "TextFormatError",
    "convert_to_binary",
    "read_edgelist",
    "read_edges_slice",
    "read_header",
    "read_metis",
    "read_snap_edgelist",
    "write_edgelist",
    "write_metis",
    "write_snap_edgelist",
]
