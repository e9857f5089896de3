#!/usr/bin/env python
"""Checkpoint/restore: survive a rank failure and resume bit-identically.

Runs distributed Louvain with checkpointing enabled, kills one rank
mid-run with a deterministic fault plan, then resumes from the last
valid checkpoint and verifies the final communities match an
uninterrupted run exactly.  One ``CheckpointManager`` — where the save
points go and how often — serves both attempts.

Run:  python examples/checkpoint_resume.py [CHECKPOINT_DIR]

With a directory argument the checkpoints are left there for
``repro-louvain ckpt validate`` (CI does this); without, they live in a
temporary directory.
"""

import contextlib
import sys
import tempfile

import numpy as np

from repro import LouvainConfig, Variant, make_graph, run_louvain
from repro.resilience import CheckpointManager, FaultPlan
from repro.runtime import InjectedFault, RankFailedError

NRANKS = 4

graph = make_graph("soc-friendster", scale="tiny")
config = LouvainConfig(variant=Variant.ETC, alpha=0.25, seed=7)
print(f"input: {graph}")

# Reference: the uninterrupted run we must reproduce.
reference = run_louvain(graph, nranks=NRANKS, config=config)
print(f"uninterrupted run: {reference.summary()}")

with (
    contextlib.nullcontext(sys.argv[1])
    if len(sys.argv) > 1
    else tempfile.TemporaryDirectory()
) as ckpt_dir:
    # A checkpoint at every phase boundary and after every iteration,
    # keyed to the config so no other config can resume from it.
    checkpoints = CheckpointManager(
        ckpt_dir,
        every_iterations=1,
        label=config.label(),
        config_key=config.cache_key(),
    )
    # Deterministic fault plan: rank 2 dies at its 40th communication
    # operation.  Same plan => same failure point, every run.
    plan = FaultPlan(kills={2: 40})
    try:
        run_louvain(
            graph,
            nranks=NRANKS,
            config=config,
            checkpoints=checkpoints,
            fault_plan=plan,
        )
        raise SystemExit("fault plan did not fire?!")
    except (RankFailedError, InjectedFault) as exc:
        print(f"injected failure: {exc}")

    print(f"last valid checkpoint: {checkpoints.latest(NRANKS).describe()}")

    # Resume with the same manager: the graph ingest is skipped and the
    # run continues from the last consistent snapshot — here a delta
    # checkpoint (the iteration state) laid over the full one that
    # opened its phase (the graph slice).  The resumed run keeps cutting
    # checkpoints at the same cadence, starting with a full one.
    resumed = run_louvain(
        graph,
        nranks=NRANKS,
        config=config,
        checkpoints=checkpoints,
        resume=True,
    )
    print(f"resumed run:       {resumed.summary()}")

    identical = bool(
        np.array_equal(reference.assignment, resumed.assignment)
        and reference.modularity == resumed.modularity
    )
    print(f"bit-identical to uninterrupted run: {identical}")
    ck = resumed.trace.seconds_by_category().get("checkpoint", 0.0)
    print(f"modelled checkpoint overhead: {ck:.6f}s")
    if not identical:
        raise SystemExit(1)
