#!/usr/bin/env python
"""Detection service demo: one engine, ~20 concurrent mixed-variant jobs.

Exercises the serving tier end to end:

* 20 mixed jobs (two graphs x the paper's variant sweep x 2/4 ranks)
  multiplexed over a 4-worker engine — all complete, none lost;
* one job killed mid-run by a deterministic injected fault — the engine
  retries it, *resuming* from the job's last in-memory snapshot (no
  file is written for it), and the recovered result is bit-identical to
  an uninterrupted reference run;
* a repeated (graph, config) submission — served from the
  content-addressed result cache (hit counted in the metrics) with a
  bit-identical result;
* the metrics summary, whose modelled-time table aggregates the trace of
  every fresh job of the workload (the engine forgets each job once its
  response is collected, so the metrics are where the workload's trace
  lives).

Run:  python examples/service_demo.py
"""

import os
import tempfile

import numpy as np

from repro import (
    DetectionRequest,
    Engine,
    JobState,
    LouvainConfig,
    ResultStore,
    make_graph,
)
from repro.core import PAPER_VARIANTS
from repro.core.distlouvain import run_louvain as reference_run
from repro.resilience import FaultPlan

graphs = {
    "soc-friendster": make_graph("soc-friendster", scale="tiny"),
    "channel": make_graph("channel", scale="tiny"),
}

# 20 mixed jobs: every paper variant on both graphs at 2 and 4 ranks,
# minus the slowest few to land exactly on 20.
requests = [
    DetectionRequest(graph=g, nranks=p, config=cfg, tag=f"{name}/{cfg.label()}/p{p}")
    for name, g in graphs.items()
    for cfg in PAPER_VARIANTS
    for p in (2, 4)
][:20]

# One more job that *will* be killed: rank 1 dies at its 60th
# communication op.  max_retries lets the engine retry it.  A retryable
# job that names no checkpoint_dir keeps its save points in memory (a
# RunSnapshots the engine builds once per job, cutting at every phase
# boundary and every second iteration here), so the retry resumes
# mid-run.
faulty = DetectionRequest(
    graph=graphs["soc-friendster"],
    nranks=4,
    config=LouvainConfig(seed=3),
    fault_plan=FaultPlan(kills={1: 60}),
    max_retries=2,
    tag="chaos-drill",
)

with tempfile.TemporaryDirectory() as tmp:
    # Where engines used to put per-job checkpoints; still accepted,
    # and checked below to stay empty.
    jobs_dir = f"{tmp}/jobs"
    os.makedirs(jobs_dir)
    engine = Engine(
        workers=4,
        queue_depth=64,
        store=ResultStore(capacity=64, directory=f"{tmp}/cache"),
        workdir=jobs_dir,
        checkpoint_every_iterations=2,
    )
    with engine:
        ids = [engine.submit(r) for r in requests]
        fault_id = engine.submit(faulty)

        responses = [engine.wait(i, timeout=300) for i in ids]
        fault_resp = engine.wait(fault_id, timeout=300)

        # Repeat the first request verbatim: must be a cache hit.
        repeat = engine.detect(requests[0], timeout=300)

    done = sum(r.state is JobState.DONE for r in responses)
    print(f"concurrent jobs: {done}/{len(responses)} done, 0 lost")
    assert done == len(responses) == 20, [r.summary() for r in responses]

    print(f"chaos drill:     {fault_resp.summary()}")
    assert fault_resp.state is JobState.DONE
    assert fault_resp.retries >= 1, "injected fault did not trigger a retry"
    assert fault_resp.resumed_from_checkpoint, "retry restarted from scratch"
    assert not os.listdir(jobs_dir), "an engine job wrote to disk"
    print("engine workdir after 21 jobs and one resumed retry: empty")
    reference = reference_run(
        graphs["soc-friendster"], 4, LouvainConfig(seed=3)
    )
    recovered_identical = bool(
        np.array_equal(fault_resp.result.assignment, reference.assignment)
        and fault_resp.result.modularity == reference.modularity
    )
    print(f"recovered result bit-identical to uninterrupted run: "
          f"{recovered_identical}")
    assert recovered_identical

    print(f"repeat:          {repeat.summary()}")
    assert repeat.cache_hit, "repeated submission was recomputed"
    first = next(r for r in responses if r.job_id == ids[0])
    repeat_identical = bool(
        np.array_equal(repeat.result.assignment, first.result.assignment)
        and repeat.result.modularity == first.result.modularity
        and repeat.result.elapsed == first.result.elapsed
    )
    print(f"cached result bit-identical to original: {repeat_identical}")
    assert repeat_identical

    snapshot = engine.metrics.snapshot()
    assert snapshot["counters"]["cache_hits"] >= 1
    assert snapshot["counters"].get("failed", 0) == 0
    assert snapshot["counters"].get("cancelled", 0) == 0
    assert not engine.jobs(), "a collected job stayed in the engine"
    print()
    print(engine.metrics.format())
