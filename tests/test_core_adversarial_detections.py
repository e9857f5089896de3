"""Whole detections on the adversarial generator.

``tests/test_core_sweep_differential.py`` aims its seeded generator —
self loops, parallel edges, zero and fractional weights, isolated
vertices — at the sweep kernel alone.  Here the same edge lists become
graphs and run end to end at p ∈ {1, 2, 3, 4, 7} (more ranks than some
graphs have vertices) under the baseline, ETC and coloring, every one under the runtime's
collective-schedule check.  What must hold:

* the reported Q is the Q of the returned assignment, recomputed from
  scratch;
* on integer weights every float of a run is an exact sum, so the
  baseline and coloring runs are the *same run* at every p —
  assignment and per-iteration Q (ETC draws its active sets from a
  per-rank stream, so it is only held to itself);
* a run is a function of its input: repeating it reproduces the
  modelled clock, the message count and the byte count exactly.
"""

from __future__ import annotations

import pytest

from repro.core import LouvainConfig, Variant, modularity, run_louvain
from repro.graph import CSRGraph

from .test_core_sweep_differential import adversarial_edges

RANKS = (1, 2, 3, 4, 7)
CONFIGS = {
    "baseline": LouvainConfig(),
    "etc": LouvainConfig(variant=Variant.ETC, alpha=0.25, seed=3),
    "coloring": LouvainConfig(use_coloring=True),
}
#: Same run at every rank count when the weights are integers.
RANK_INVARIANT = ("baseline", "coloring")


def outcome(r) -> tuple:
    return (
        r.assignment.tolist(),
        r.modularity,
        [(it.phase, it.iteration, it.modularity, it.moves) for it in r.iterations],
    )


def cost(r) -> tuple:
    return r.elapsed, r.trace.total_messages, r.trace.total_bytes


@pytest.mark.parametrize("seed", range(6))
def test_adversarial_graph_every_rank_count(seed):
    _, n, u, v, w = adversarial_edges(seed)
    g = CSRGraph.from_edges(n, u, v, w)
    integer_weights = seed % 3 != 2
    first: dict[str, tuple] = {}
    for p in RANKS:
        runs = {
            name: run_louvain(g, p, cfg)
            for name, cfg in CONFIGS.items()
        }
        for name, r in runs.items():
            where = (seed, p, name)
            assert len(r.assignment) == n
            assert modularity(g, r.assignment) == pytest.approx(
                r.modularity, abs=1e-12
            ), where
            if integer_weights and name in RANK_INVARIANT:
                assert first.setdefault(name, outcome(r)) == outcome(r), where
        if p == 4:
            for name, r in runs.items():
                again = run_louvain(g, p, CONFIGS[name])
                assert outcome(again) == outcome(r), (seed, name)
                assert cost(again) == cost(r), (seed, name)
