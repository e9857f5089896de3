"""Whole-run fingerprints: two SHA-256 digests per ``run_louvain`` call.

* the **outcome** digest (:func:`outcome_digest`) covers what no
  refactor or re-scheduling of ``core/``, ``graph/`` or ``runtime/`` may
  move: the assignment, every iteration's Q and move count, the final Q,
  and every phase's ``num_edges`` / ``ghost_fraction``;
* the **cost** digest (:func:`cost_digest`) covers what a change of the
  communication schedule moves on purpose: the modelled clock, and the
  messages, bytes and collective counts of the run.

Floats are hashed by value (``float.hex``), so a digest depends neither
on numpy's ``repr`` nor on whether a number is an ``np.float64`` or a
``float`` (one unpacked from a checkpoint).  Two uses:

* ``tests/test_core_fingerprints.py`` checks :func:`pinned_rows` against
  ``tests/data/run_fingerprints.json``.  Those rows keep the generators'
  integer weights and leave out ET's random draws, so the algorithm side
  is exact and RNG-free and a digest does not depend on the numpy build;
  each row also pins its input's ``CSRGraph.fingerprint()``, so a numpy
  whose ``Generator`` stream builds a different *graph* is told apart
  from an algorithm change.
* ``PYTHONPATH=src python -m tests.fingerprints`` prints the full table
  (:func:`full_rows`: ET / ETC, fractional weights, p ∈ {3, 7} and one
  killed-then-resumed run per graph on top — each resumed run's outcome
  digest must equal its uninterrupted run's) for diffing a change
  against a clone of its parent — drop a copy of this file into the
  clone; each row also prints its modelled seconds.  ``--against FILE``
  does the diff: one count per digest, and how many rows' modelled
  seconds are lower, equal and higher.  ``--write-pins`` regenerates
  the JSON file, ``--write-pins cost`` only its cost digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from functools import lru_cache
from typing import Iterator, NamedTuple

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
#: checkpoint per iteration, the last rank killed at this operation —
#: before the run gathers its tail to rank 0, where nothing is
#: checkpointed (:func:`_resumed_row` checks).
RESUME_CONFIG = LouvainConfig(variant=Variant.ET_TC, alpha=0.25, seed=3)
KILL_AT_OP = 100


class Row(NamedTuple):
    key: str
    graph: str
    outcome: str
    cost: str
    #: The run's modelled seconds (``LouvainResult.elapsed``).
    modelled: float


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


def _sha256(parts: list[bytes]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _hex(x) -> str:
    return float(x).hex()


def outcome_digest(result: LouvainResult) -> str:
    """SHA-256 over what every schedule of the same algorithm must
    reproduce."""
    return _sha256([
        np.ascontiguousarray(result.assignment, dtype=np.int64).tobytes(),
        repr([_hex(it.modularity) for it in result.iterations]).encode(),
        repr([int(it.moves) for it in result.iterations]).encode(),
        _hex(result.modularity).encode(),
        repr([
            (int(ph.num_edges), _hex(ph.ghost_fraction))
            for ph in result.phases
        ]).encode(),
    ])


def cost_digest(result: LouvainResult) -> str:
    """SHA-256 over what the run cost on the modelled machine."""
    trace = result.trace
    return _sha256([
        _hex(result.elapsed).encode(),
        repr((int(trace.total_messages), int(trace.total_bytes))).encode(),
        repr(sorted(
            (name, int(n)) for name, n in trace.collective_counts().items()
        )).encode(),
    ])


def _row(name: str, weights: str, p: int, label: str, config: LouvainConfig):
    g = graph(name, weights)
    result = run_louvain(g, p, config)
    return Row(
        f"{name}/{weights}/p{p}/{label}", g.fingerprint(),
        outcome_digest(result), cost_digest(result), result.elapsed,
    )


class OpLog:
    """A fault plan that kills nothing and lists one rank's operations."""

    def __init__(self, rank: int):
        self.rank = rank
        self.ops: list[str] = []

    def on_op(self, rank: int, op_index: int, op_name: str) -> None:
        if rank == self.rank:
            self.ops.append(op_name)


def _gather_op(g: CSRGraph, p: int) -> int | None:
    """Op index of the tail's gather at the last rank of the checkpointing
    run, ``None`` when the run does not gather.  A gathered tail ends the
    rank's schedule with gather, bcast and the result's allgather."""
    log = OpLog(p - 1)
    with tempfile.TemporaryDirectory() as d:
        run_louvain(
            g, p, RESUME_CONFIG, checkpoint_dir=d,
            checkpoint_every_iterations=1, fault_plan=log,
        )
    if log.ops[-3:] != ["gather", "bcast", "allgather"]:
        return None
    return len(log.ops) - 2


def _resumed_row(name: str) -> Row:
    """Kill a checkpointing run mid-way, resume it, fingerprint the
    resumed run (its clock and counts are as deterministic as the
    uninterrupted run's; its outcome *is* the uninterrupted run's)."""
    g, p = graph(name), 4
    gather = _gather_op(g, p)
    if gather is not None and KILL_AT_OP >= gather:
        raise AssertionError(
            f"{name}: op {KILL_AT_OP} is not before the gather (op {gather})"
        )
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
    outcome = outcome_digest(resumed)
    if outcome != outcome_digest(run_louvain(g, p, RESUME_CONFIG)):
        raise AssertionError(f"{key}: outcome differs from the uninterrupted run")
    return Row(
        key, g.fingerprint(), outcome, cost_digest(resumed), resumed.elapsed
    )


def pinned_keys() -> list[tuple[str, int, str]]:
    return [
        (name, p, label)
        for name in GRAPHS for p in (1, 2, 4) for label in PINNED_CONFIGS
    ]


def pinned_row(name: str, p: int, label: str) -> Row:
    return _row(name, "integer", p, label, PINNED_CONFIGS[label])


def pinned_rows() -> Iterator[Row]:
    for key in pinned_keys():
        yield pinned_row(*key)


def full_rows() -> Iterator[Row]:
    for name in GRAPHS:
        for weights in ("integer", "fractional"):
            for p in (1, 2, 3, 4, 7):
                for label, config in FULL_CONFIGS.items():
                    yield _row(name, weights, p, label, config)
        yield _resumed_row(name)


def load_pins() -> dict[str, dict[str, str]]:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)["rows"]


def _format(row: Row) -> str:
    return (
        f"{row.outcome}  {row.cost}  graph={row.graph[:12]}  "
        f"modelled={row.modelled!r}s  {row.key}"
    )


def _parse_table(path: str) -> dict[str, tuple[str, str, float]]:
    """``{key: (outcome, cost, modelled seconds)}`` of a table this tool
    printed."""
    table = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.rstrip("\n").split("  ", 4)
            if len(fields) == 5 and fields[3].startswith("modelled="):
                modelled = float(fields[3][len("modelled="):-1])
                table[fields[4]] = (fields[0], fields[1], modelled)
    return table


def _write_pins(only_cost: bool) -> None:
    old = load_pins() if only_cost else {}
    rows = {}
    for row in pinned_rows():
        if only_cost and (old[row.key]["graph"], old[row.key]["outcome"]) != (
            row.graph, row.outcome
        ):
            raise AssertionError(f"{row.key}: the pinned outcome moved")
        rows[row.key] = {
            "graph": row.graph, "outcome": row.outcome, "cost": row.cost,
        }
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump({"numpy": np.__version__, "rows": rows}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(rows)} rows to {PINS}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--write-pins", nargs="?", const="all", choices=("all", "cost"),
        help=f"regenerate {os.path.relpath(PINS)} from the pinned rows "
        "('cost': the cost digests only, refusing a moved outcome)",
    )
    parser.add_argument(
        "--against", metavar="FILE",
        help="a table printed by this tool on another commit: count the "
        "rows whose outcome / cost digests are equal, list the others",
    )
    args = parser.parse_args(argv)
    if args.write_pins:
        _write_pins(only_cost=args.write_pins == "cost")
        return 0
    theirs = _parse_table(args.against) if args.against else None
    rows = []
    for row in full_rows():
        print(_format(row), flush=True)
        rows.append(row)
    print(f"{len(rows)} rows")
    if theirs is None:
        return 0
    differing = {"outcome": [], "cost": []}
    clock = {"lower": 0, "equal": 0, "higher": 0}
    for row in rows:
        other = theirs.get(row.key, ("missing", "missing", float("nan")))
        for name, mine, their in zip(differing, (row.outcome, row.cost), other):
            if mine != their:
                differing[name].append(row.key)
        if row.modelled < other[2]:
            clock["lower"] += 1
        elif row.modelled == other[2]:
            clock["equal"] += 1
        elif row.modelled > other[2]:
            clock["higher"] += 1
            print(f"modelled higher: {row.key}")
    n = len(rows)
    print(
        f"outcome equal {n - len(differing['outcome'])}/{n}, "
        f"cost equal {n - len(differing['cost'])}/{n}"
    )
    print(
        "modelled seconds lower {lower} / equal {equal} / higher "
        "{higher}".format(**clock)
    )
    for name, keys in differing.items():
        for key in keys:
            print(f"{name} differs: {key}")
    return 1 if differing["outcome"] else 0


if __name__ == "__main__":
    sys.exit(main())
