"""Whole-run fingerprints: one SHA-256 per ``run_louvain`` call.

A digest covers everything a refactor of ``core/``, ``graph/`` or
``runtime/`` must leave alone: the assignment, every iteration's Q, the
final Q, the modelled clock, and the messages, bytes and collective
counts of the run.  Two uses:

* ``tests/test_core_fingerprints.py`` checks :func:`pinned_rows` against
  ``tests/data/run_fingerprints.json``.  Those rows keep the generators'
  integer weights and leave out ET's random draws, so the algorithm side
  is exact and RNG-free and a digest does not depend on the numpy build;
  each row also pins its input's ``CSRGraph.fingerprint()``, so a numpy
  whose ``Generator`` stream builds a different *graph* is told apart
  from an algorithm change.
* ``PYTHONPATH=src python -m tests.fingerprints`` prints the full table
  (:func:`full_rows`: ET / ETC, fractional weights, p ∈ {3, 7} and one
  killed-then-resumed run per graph on top) for diffing a change against
  a clone of its parent — drop a copy of this file into the clone.
  ``--write-pins`` regenerates the JSON file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from functools import lru_cache
from typing import Iterator

import numpy as np

from repro.core import LouvainConfig, Variant, run_louvain
from repro.core.result import LouvainResult
from repro.generators import make_graph
from repro.graph import CSRGraph
from repro.resilience import FaultPlan
from repro.runtime import InjectedFault, RankFailedError

PINS = os.path.join(os.path.dirname(__file__), "data", "run_fingerprints.json")

#: Tiny stand-ins of the three benchmark graphs: 2 080 / 800 / 1 280
#: vertices, 0.05-0.19 s a run.
GRAPHS = ("soc-friendster", "channel", "web-wiki-en-2013")

PINNED_CONFIGS = {
    "baseline": LouvainConfig(),
    "threshold-cycling": LouvainConfig(variant=Variant.THRESHOLD_CYCLING),
    "coloring": LouvainConfig(use_coloring=True),
    "vf+leiden": LouvainConfig(vertex_following=True, refine="leiden"),
}
FULL_CONFIGS = {
    **PINNED_CONFIGS,
    "et": LouvainConfig(variant=Variant.ET, alpha=0.25, seed=3),
    "etc": LouvainConfig(variant=Variant.ETC, alpha=0.25, seed=3),
}
#: The killed-then-resumed rows: ET + threshold cycling at p = 4, one
#: checkpoint per iteration, the last rank killed at this operation.
RESUME_CONFIG = LouvainConfig(variant=Variant.ET_TC, alpha=0.25, seed=3)
KILL_AT_OP = 150


@lru_cache(maxsize=None)
def graph(name: str, weights: str = "integer") -> CSRGraph:
    g = make_graph(name, scale="tiny", seed=1)
    if weights == "integer":
        return g
    # Symmetric by construction: an edge's weight depends on its
    # unordered endpoint pair only.
    rows = np.repeat(np.arange(g.num_vertices), np.diff(g.index))
    lo, hi = np.minimum(rows, g.edges), np.maximum(rows, g.edges)
    frac = ((lo * 2654435761 + hi * 40503) % 1009 + 1) / 1009.0
    return CSRGraph(index=g.index, edges=g.edges, weights=g.weights * frac)


def run_digest(result: LouvainResult) -> str:
    """SHA-256 over what a bit-identical run must reproduce."""
    trace = result.trace
    parts = [
        np.ascontiguousarray(result.assignment, dtype=np.int64).tobytes(),
        repr([repr(it.modularity) for it in result.iterations]).encode(),
        repr(result.modularity).encode(),
        repr(result.elapsed).encode(),
        repr((trace.total_messages, trace.total_bytes)).encode(),
        repr(sorted(trace.collective_counts().items())).encode(),
    ]
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _row(name: str, weights: str, p: int, label: str, config: LouvainConfig):
    g = graph(name, weights)
    key = f"{name}/{weights}/p{p}/{label}"
    return key, g.fingerprint(), run_digest(run_louvain(g, p, config))


def _resumed_row(name: str):
    """Kill a checkpointing run mid-way, resume it, fingerprint the
    resumed run (its clock and counts are as deterministic as the
    uninterrupted run's)."""
    g, p = graph(name), 4
    with tempfile.TemporaryDirectory() as d:
        try:
            run_louvain(
                g, p, RESUME_CONFIG, checkpoint_dir=d,
                checkpoint_every_iterations=1,
                fault_plan=FaultPlan(kills={p - 1: KILL_AT_OP}),
            )
        except RankFailedError as exc:
            if not any(isinstance(c, InjectedFault) for c in exc.causes.values()):
                raise
        else:
            raise AssertionError(f"{name}: finished before op {KILL_AT_OP}")
        resumed = run_louvain(
            g, p, RESUME_CONFIG, checkpoint_dir=d, resume=True,
            checkpoint_every_iterations=1,
        )
    key = f"{name}/integer/p{p}/et+tc killed at op {KILL_AT_OP}, resumed"
    return key, g.fingerprint(), run_digest(resumed)


def pinned_keys() -> list[tuple[str, int, str]]:
    return [
        (name, p, label)
        for name in GRAPHS for p in (1, 2, 4) for label in PINNED_CONFIGS
    ]


def pinned_row(name: str, p: int, label: str) -> tuple[str, str, str]:
    """``(key, graph fingerprint, run digest)`` of one pinned run."""
    return _row(name, "integer", p, label, PINNED_CONFIGS[label])


def pinned_rows() -> Iterator[tuple[str, str, str]]:
    for key in pinned_keys():
        yield pinned_row(*key)


def full_rows() -> Iterator[tuple[str, str, str]]:
    for name in GRAPHS:
        for weights in ("integer", "fractional"):
            for p in (1, 2, 3, 4, 7):
                for label, config in FULL_CONFIGS.items():
                    yield _row(name, weights, p, label, config)
        yield _resumed_row(name)


def load_pins() -> dict[str, dict[str, str]]:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)["rows"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--write-pins", action="store_true",
        help=f"regenerate {os.path.relpath(PINS)} from the pinned rows",
    )
    args = parser.parse_args(argv)
    if args.write_pins:
        rows = {k: {"graph": g, "run": r} for k, g, r in pinned_rows()}
        with open(PINS, "w", encoding="utf-8") as fh:
            json.dump({"numpy": np.__version__, "rows": rows}, fh, indent=1)
            fh.write("\n")
        print(f"wrote {len(rows)} rows to {PINS}")
        return 0
    count = 0
    for key, graph_fp, digest in full_rows():
        print(f"{digest}  graph={graph_fp[:12]}  {key}", flush=True)
        count += 1
    print(f"{count} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
