"""Pinned generated graphs: what a generator change may not move.

``tests/data/graph_fingerprints.json`` holds ``CSRGraph.fingerprint()``
of every registry dataset × {tiny, small, medium} × seeds {0, 1}, and —
for the four LFR stand-ins and for ``generate_lfr``'s defaults at
Table VII's sizes — a SHA-256 of the ground truth ``community_of`` and
``mu_realized.hex()`` as well (Table VII scores against that ground
truth, so it is pinned with the graph).  The pins are numpy
``Generator`` streams: the file records the numpy that wrote it, like
``tests/data/run_fingerprints.json``.

``tests/test_generators_registry.py`` checks :func:`row` against the
file.  ``PYTHONPATH=src python -m tests.graph_fingerprints`` prints the
table; ``--write-pins`` regenerates the file — in a clone of the
*parent* of a generator change, before any source edit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Iterator
from unittest import mock

import numpy as np

from repro.generators import DATASETS, generate_lfr, registry
from repro.generators.lfr import LFRGraph

PINS = os.path.join(
    os.path.dirname(__file__), "data", "graph_fingerprints.json"
)

PIN_SCALES = ("tiny", "small", "medium")
PIN_SEEDS = (0, 1)
#: ``benchmarks/test_table7_lfr_quality.py``'s vertex counts.
TABLE7_SIZES = (400, 700, 1000, 1500, 2000)


def _lfr_fields(lfr: LFRGraph) -> dict[str, str]:
    community_of = np.ascontiguousarray(lfr.community_of, dtype=np.int64)
    return {
        "community_of": hashlib.sha256(community_of.tobytes()).hexdigest(),
        "mu_realized": float(lfr.mu_realized).hex(),
    }


def keys() -> list[str]:
    return [
        f"{name}/{scale}/seed{seed}"
        for name in sorted(DATASETS)
        for scale in PIN_SCALES
        for seed in PIN_SEEDS
    ] + [
        f"lfr-defaults/n{n}/seed{seed}"
        for n in TABLE7_SIZES
        for seed in PIN_SEEDS
    ]


def row(key: str) -> dict[str, str]:
    """``{"graph": ...}``, plus the ground-truth fields when an LFR
    graph is behind ``key``."""
    name, size, seed = key.split("/")
    seed_no = int(seed.removeprefix("seed"))
    if name == "lfr-defaults":
        lfr = generate_lfr(int(size.removeprefix("n")), seed=seed_no)
        return {"graph": lfr.edges.to_csr().fingerprint(), **_lfr_fields(lfr)}
    # The registry's LFR factories return the edge list only; watch the
    # call to see the ground truth that went with it.
    made: list[LFRGraph] = []

    def watched(*args, **kwargs) -> LFRGraph:
        made.append(generate_lfr(*args, **kwargs))
        return made[-1]

    with mock.patch.object(registry, "generate_lfr", watched):
        g = DATASETS[name].generate_csr(scale=size, seed=seed_no)
    out = {"graph": g.fingerprint()}
    for lfr in made:
        out.update(_lfr_fields(lfr))
    return out


def rows() -> Iterator[tuple[str, dict[str, str]]]:
    for key in keys():
        yield key, row(key)


def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--write-pins", action="store_true",
        help=f"regenerate {os.path.relpath(PINS)}",
    )
    args = parser.parse_args(argv)
    table = {}
    for key, fields in rows():
        print(key, *(f"{k}={v[:16]}" for k, v in fields.items()), flush=True)
        table[key] = fields
    print(f"{len(table)} rows")
    if args.write_pins:
        with open(PINS, "w", encoding="utf-8") as fh:
            json.dump({"numpy": np.__version__, "rows": table}, fh, indent=1)
            fh.write("\n")
        print(f"wrote {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
