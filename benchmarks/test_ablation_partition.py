"""Ablation: even-edge vs even-vertex *input* distribution.

The paper loads "such that each process receives roughly the same
number of edges" (§IV); this quantifies why: on skewed (social) inputs,
even-vertex ranges concentrate the heavy rows on a few ranks and the
stragglers dominate the synchronizing collectives.
"""

from __future__ import annotations

import numpy as np

from repro.bench import format_table
from repro.core import run_louvain
from repro.graph import even_edge, even_vertex

from _cache import graph, machine


def imbalance(g, offsets) -> float:
    """Max/mean stored-entry count across ranks under ``offsets``."""
    row_len = np.diff(g.index)
    loads = [
        row_len[offsets[r]:offsets[r + 1]].sum()
        for r in range(len(offsets) - 1)
    ]
    mean = np.mean(loads)
    return float(max(loads) / mean) if mean else 1.0


def collect():
    rows = []
    for name in ("soc-friendster", "channel"):
        g = graph(name)
        mach = machine(name)
        for p in (4, 8):
            bal_v = imbalance(g, even_vertex(g.num_vertices, p))
            bal_e = imbalance(g, even_edge(np.diff(g.index), p))
            t_v = run_louvain(
                g, p, machine=mach, partition="even_vertex"
            ).elapsed
            t_e = run_louvain(
                g, p, machine=mach, partition="even_edge"
            ).elapsed
            rows.append([name, p, round(bal_v, 2), round(bal_e, 2),
                         t_v, t_e])
    return rows


def test_ablation_partition(benchmark, record_result):
    rows = benchmark.pedantic(
        collect, rounds=1, iterations=1, warmup_rounds=0
    )
    record_result(
        "ablation_partition",
        format_table(
            ["Graph", "p", "imbalance (vertex)", "imbalance (edge)",
             "time vertex (s)", "time edge (s)"],
            rows,
            title="Ablation — even-vertex vs even-edge distribution",
        ),
    )
    # Even-edge always balances the stored entries at least as well.
    for _, _, bal_v, bal_e, _, _ in rows:
        assert bal_e <= bal_v + 0.01
    # On the skewed social input it must not be slower overall.
    social = [r for r in rows if r[0] == "soc-friendster"]
    assert min(r[5] for r in social) <= min(r[4] for r in social) * 1.1
