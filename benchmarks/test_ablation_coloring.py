"""Ablation: distance-1 coloring (§VI).

An implemented extension the paper proposes but does not evaluate:
coloring trades extra synchronisation per iteration (one sweep round,
with its own ghost and community exchanges, per colour class) for fewer
iterations to converge.
"""

from __future__ import annotations

from repro.bench import format_table
from repro.core import LouvainConfig, run_louvain

from _cache import graph, machine


def collect():
    rows = []
    for name in ("channel", "com-orkut"):
        g = graph(name)
        mach = machine(name)
        base = run_louvain(g, 4, LouvainConfig(), machine=mach)
        col = run_louvain(
            g, 4, LouvainConfig(use_coloring=True), machine=mach
        )
        rows.append(
            [
                name,
                base.total_iterations,
                col.total_iterations,
                round(base.modularity, 4),
                round(col.modularity, 4),
                base.trace.total_bytes,
                col.trace.total_bytes,
            ]
        )
    return rows


def test_ablation_coloring(benchmark, record_result):
    rows = benchmark.pedantic(
        collect, rounds=1, iterations=1, warmup_rounds=0
    )
    record_result(
        "ablation_coloring",
        format_table(
            [
                "Graph",
                "iters (baseline)",
                "iters (coloring)",
                "Q (baseline)",
                "Q (coloring)",
                "bytes (baseline)",
                "bytes (coloring)",
            ],
            rows,
            title="Ablation — §VI coloring",
        ),
    )
    for _, it_b, it_c, q_b, q_c, _, _ in rows:
        # Coloring: fewer or equal iterations, comparable quality.
        assert it_c <= it_b + 2
        assert q_c >= q_b - 0.03
