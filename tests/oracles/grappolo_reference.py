"""Reference per-vertex scans for the two vectorised Grappolo seeds.

These are the loops ``repro.core.grappolo`` shipped next to
``greedy_coloring`` and ``vertex_following_seed``, moved here verbatim
(tests only, never imported by ``src/``).  ``tests/test_core_grappolo.py``
requires the vectorised kernels to reproduce them exactly.
"""

from __future__ import annotations

import numpy as np

from repro.graph import CSRGraph


def greedy_coloring_loop(g: CSRGraph) -> np.ndarray:
    """Distance-1 greedy coloring: smallest free color, in id order."""
    n = g.num_vertices
    colors = np.full(n, -1, dtype=np.int64)
    for u in range(n):
        nbrs, _ = g.neighbors(u)
        taken = set(int(colors[v]) for v in nbrs if colors[v] >= 0)
        c = 0
        while c in taken:
            c += 1
        colors[u] = c
    return colors


def vertex_following_loop(g: CSRGraph) -> np.ndarray:
    """Single id-order pass: a leaf adopts its sole neighbour's label."""
    n = g.num_vertices
    comm = np.arange(n, dtype=np.int64)
    for u in range(n):
        nbrs, _ = g.neighbors(u)
        if len(nbrs) == 1 and nbrs[0] != u:
            comm[u] = comm[nbrs[0]]
    return comm
