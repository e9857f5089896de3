#!/usr/bin/env python
"""Observability demo: the drift monitor closes the online tuning loop.

Walks the whole ``repro.obs`` surface on one small workload:

1. a tuning database is seeded with a deliberately mis-calibrated
   machine model (8x too optimistic), so every served detection
   simulates far above its cost-model prediction;
2. an engine runs with full observability attached — labeled metrics
   registry, structured JSON-lines event log, and the drift monitor —
   and serves a stream of detection jobs;
3. the per-config-family EWMA of log(simulated/predicted) crosses the
   drift threshold, the machine model is recalibrated from the
   observed ratio, and a *forced* background re-tune fires against the
   calibrated model (the existing low-priority ``tune`` job path);
4. the recalibrated model's prediction error is shown to shrink;
5. the same jobs run again on an engine with observability off, and
   the detection outputs are asserted bit-identical — the whole
   subsystem is passive.

Artifacts: Prometheus text exposition (PROM_OUT) and the event log
(EVENTS_OUT) — CI uploads both.

Run:  python examples/observability_demo.py
"""

import math
import os
import tempfile
import time

import numpy as np

from repro import make_graph
from repro.obs import DriftMonitor, EventLog, read_events, write_prometheus
from repro.runtime.perfmodel import CORI_HASWELL
from repro.service import DetectionRequest, Engine
from repro.tune import TuningDB
from repro.tune.costmodel import predict_cost
from repro.tune.features import compute_features
from repro.tune.search import TunerSettings, tune_graph
from repro.tune.space import Candidate


def main() -> None:
    graph = make_graph("soc-friendster", scale="tiny", seed=3)
    workdir = tempfile.mkdtemp(prefix="obs-demo-")
    events_path = os.environ.get(
        "EVENTS_OUT", os.path.join(workdir, "events.jsonl")
    )
    prom_path = os.environ.get(
        "PROM_OUT", os.path.join(workdir, "metrics.prom")
    )

    # ----------------------------------------------------------------
    # 1. Seed the tuning DB with a model that is 8x too optimistic
    # ----------------------------------------------------------------
    wrong = CORI_HASWELL.calibrated(1 / 8)
    settings = TunerSettings(trials=2, rung_phase_caps=(1,), machine=wrong)
    db = TuningDB(os.path.join(workdir, "tuning.json"))
    tune_graph(graph, db, settings=settings)
    record = db.get(graph.fingerprint())
    print(f"seeded plan: {record.config.label()} on {record.ranks} "
          f"rank(s) (machine {wrong.name})")

    # ----------------------------------------------------------------
    # 2. Serve a stream of jobs with full observability attached
    # ----------------------------------------------------------------
    log = EventLog(events_path, origin="demo")
    drift = DriftMonitor(machine=wrong)
    request = DetectionRequest(graph=graph, nranks=2, machine=CORI_HASWELL)
    observed_results = []
    with Engine(
        workers=1,
        tuning_db=db,
        tune_settings=settings,
        event_log=log,
        drift=drift,
    ) as engine:
        for _ in range(10):
            response = engine.detect(request, timeout=300)
            assert response.result is not None, response.error
            observed_results.append(response.result)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            counters = engine.metrics.snapshot()["counters"]
            if counters.get("background_tunes", 0) >= 1:
                break
            time.sleep(0.05)
        write_prometheus(prom_path, engine.metrics.registry)
        counters = engine.metrics.snapshot()["counters"]
    log.close()

    # ----------------------------------------------------------------
    # 3. The loop closed: drift crossed, forced re-tune ran
    # ----------------------------------------------------------------
    assert counters["drift_observations"] >= 1
    assert counters["drift_retunes"] >= 1, "drift never crossed threshold"
    retune = read_events(events_path, event="drift_retune")[0]
    print(
        f"drift crossed after {counters['drift_observations']} "
        f"observation(s): calibration x{retune['calibration']:.2f} "
        f"-> machine {retune['machine']}"
    )
    forced = read_events(events_path, event="tune_spawned", forced=True)
    assert forced, "forced re-tune was not spawned"
    assert counters.get("background_tunes", 0) >= 1, "re-tune never ran"
    print(f"forced background re-tune ran (job {forced[0]['job_id']})")

    # ----------------------------------------------------------------
    # 4. Prediction error shrinks under the calibrated model
    # ----------------------------------------------------------------
    simulated = read_events(events_path, event="drift_observed")[-1][
        "simulated"
    ]
    features = compute_features(graph)
    cand = Candidate(config=request.config, ranks=request.nranks)

    def log_error(machine):
        predicted = predict_cost(features, cand, machine).seconds
        return abs(math.log(max(simulated, 1e-12) / max(predicted, 1e-12)))

    err_before = log_error(wrong)
    err_after = log_error(drift.machine)
    assert err_after < err_before
    print(
        f"prediction |log error|: {err_before:.3f} (mis-calibrated) -> "
        f"{err_after:.3f} ({drift.machine.name})"
    )

    # ----------------------------------------------------------------
    # 5. Passivity: identical detection outputs with obs off
    # ----------------------------------------------------------------
    with Engine(workers=1) as plain:
        for result in observed_results:
            bare = plain.detect(request, timeout=300).result
            assert np.array_equal(bare.assignment, result.assignment)
            assert bare.modularity == result.modularity
    print("passivity: detection outputs bit-identical with obs on/off")

    print(f"event log written to {events_path}")
    print(f"Prometheus snapshot written to {prom_path}")
    print("observability demo OK")


if __name__ == "__main__":
    main()
