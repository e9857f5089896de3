"""Two EXPERIMENTS.md caveats re-tested at ``large`` (ROADMAP 3(d)).

EXPERIMENTS.md excused two compressed magnitudes with the stand-ins'
size: Table I's Channel 58 x ("cannot appear at 2,000 vertices") and
Table IV's best speed-up of 12 x against the paper's 46 x.  With a
``large`` size class (x 10: channel 96 k edges, soc-friendster 363 k)
both are measured instead: the six paper variants at p in {1, 4, 8, 16}
on the flagship social graph and on Channel, at ``tiny`` (the scale the
tables were recorded at) and at ``large``, both clocks per run.  One
record per graph x scale is appended to ``BENCH_scaling_large.json``;
the text tables land in ``results/scaling_large_<graph>.txt``.

What is reported per graph x scale: ET(0.75)'s modelled speed-up over
Baseline at equal p with both iteration counts (the Table I claim), and
the Table IV metric — Baseline at the smallest p over the fastest
(variant, p) — with p capped at 8 (the tables' range) and at 16.
"""

from __future__ import annotations

import time

import pytest

from repro.bench import SweepResultSet, format_table
from repro.core import PAPER_VARIANTS, run_louvain

from _cache import graph, machine

GRAPHS = ("soc-friendster", "channel")
SCALES = ("tiny", "large")
PROCESS_COUNTS = (1, 4, 8, 16)


def _sweep(name: str, scale: str):
    g, m = graph(name, scale), machine(name, scale)
    sweep, wall = SweepResultSet(graph_name=name), {}
    for config in PAPER_VARIANTS:
        for p in PROCESS_COUNTS:
            t0 = time.perf_counter()
            sweep.add(config.label(), p, run_louvain(g, p, config, machine=m))
            wall[config.label(), p] = time.perf_counter() - t0
    return g, sweep, wall


def _capped(sweep: SweepResultSet, max_p: int) -> SweepResultSet:
    return SweepResultSet(sweep.graph_name, {
        label: {p: r for p, r in by_p.items() if p <= max_p}
        for label, by_p in sweep.results.items()
    })


@pytest.mark.parametrize("name", GRAPHS)
def test_scaling_large(name, record_result, record_bench):
    blocks = []
    summary = {}
    for scale in SCALES:
        g, sweep, wall = _sweep(name, scale)
        runs = [
            {
                "variant": label, "ranks": p,
                "modelled_s": round(r.elapsed, 6),
                "wall_s": round(wall[label, p], 3),
                "modularity": round(r.modularity, 6),
                "iterations": len(r.iterations), "phases": len(r.phases),
            }
            for label, by_p in sweep.results.items()
            for p, r in by_p.items()
        ]
        base, et = sweep.results["Baseline"], sweep.results["ET(0.75)"]
        et_over_baseline = {
            p: {
                "speedup": round(base[p].elapsed / et[p].elapsed, 3),
                "baseline_iterations": len(base[p].iterations),
                "et_iterations": len(et[p].iterations),
            }
            for p in PROCESS_COUNTS
        }
        best = {
            max_p: _capped(sweep, max_p).best_speedup_over_baseline()
            for max_p in (8, 16)
        }
        summary[scale] = (et_over_baseline, best)
        record_bench("scaling_large", {
            "graph": name, "scale": scale,
            "num_vertices": g.num_vertices, "num_edges": g.num_edges,
            "runs": runs,
            "et075_over_baseline": {
                str(p): v for p, v in et_over_baseline.items()
            },
            "best_speedup": {
                f"p<={max_p}": {
                    "speedup": round(s, 3), "variant": label, "ranks": p,
                }
                for max_p, (s, label, p) in best.items()
            },
        })
        blocks.append(format_table(
            ["Variant", "p", "modelled s", "wall s", "Q", "iterations",
             "phases"],
            [
                [r["variant"], r["ranks"], f"{r['modelled_s']:.4g}",
                 f"{r['wall_s']:.2f}", f"{r['modularity']:.4f}",
                 r["iterations"], r["phases"]]
                for r in runs
            ],
            title=f"{name}, scale={scale}: {g.num_vertices} vertices, "
                  f"{g.num_edges} edges",
        ))
        blocks.append(
            "ET(0.75) over Baseline at equal p (iterations B / ET): "
            + ", ".join(
                f"p={p} {v['speedup']:.2f}x "
                f"({v['baseline_iterations']} / {v['et_iterations']})"
                for p, v in et_over_baseline.items()
            )
            + "\nbest over Baseline at p=1: "
            + ", ".join(
                f"p<={max_p} {s:.2f}x ({label} at p={p})"
                for max_p, (s, label, p) in best.items()
            )
        )
    record_result(f"scaling_large_{name}", "\n\n".join(blocks))

    # The structural claims hold at either size: ET(0.75) beats Baseline
    # at equal p, and some heuristic at some p beats Baseline at p = 1.
    for scale, (et_over_baseline, best) in summary.items():
        assert et_over_baseline[4]["speedup"] > 1.0, scale
        assert best[16][0] >= best[8][0] > 2.0, scale
