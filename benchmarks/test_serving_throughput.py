"""Serving-tier throughput under a mixed read/update multi-tenant load.

Not a paper figure — the sharded serving tier is an extension beyond
the paper (see docs/PAPER_MAPPING.md and docs/SERVING.md).  This bench
keeps the tier honest under the workload it was built for:

* **engine**: 16 distinct (graph, config) jobs through one 4-worker
  in-process engine, then the same jobs resubmitted against its
  populated result store (all cache hits) — the single-process
  baseline the sharded numbers below sit on;
* **cold**: first detection of every tenant through a 2-shard fleet —
  process-spawn + scheduling + SPMD simulation end to end;
* **warm**: repeated detections against the shared disk result store —
  throughput when reads are cache hits;
* **mixed**: reads interleaved with streamed edge updates; the churned
  tenant recomputes (its fingerprint moved) while the untouched
  tenants keep hitting the cache — the sustained-throughput number and
  the submit→done p50/p95 come from this phase;
* **fairness**: a saturated single-worker fair-share scheduler serving
  a heavy (24-job) and a starved (6-job) tenant — the ISSUE's
  acceptance bound, starved p95 queue wait within 2x of the heavy
  tenant's, is asserted here;
* **retry medium**: cold jobs/s and modelled seconds per job of a
  retryable job that checkpoints to a named directory (what every
  retryable job did before PR 24), one that keeps in-memory snapshots
  (the default since) and one that allows no retry;
* **observability overhead**: fresh-compute jobs/s through one engine
  with the full observability stack on (event log + drift monitor +
  periodic Prometheus exporter) vs off — asserted under 5%.

Wall-clock times are real (the shards multiplex actual simulator
runs), unlike the modelled times of the paper-reproduction benches.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import PAPER_VARIANTS
from repro.generators import make_graph
from repro.service import DetectionRequest, Engine, ResultStore
from repro.serving import ChurnPolicy, DeficitRoundRobinScheduler, ServingTier

WAIT = 300.0


def test_service_throughput(record_result):
    requests = [
        DetectionRequest(graph=g, nranks=p, config=cfg)
        for g in (
            make_graph("soc-friendster", scale="tiny"),
            make_graph("channel", scale="tiny"),
        )
        for cfg in PAPER_VARIANTS
        for p in (2, 4)
    ][:16]
    store = ResultStore(capacity=64)

    with Engine(workers=4, store=store) as engine:
        t0 = time.perf_counter()
        engine.wait_all([engine.submit(r) for r in requests], timeout=600)
        cold = time.perf_counter() - t0

        t0 = time.perf_counter()
        warm_ids = [engine.submit(r) for r in requests]
        responses = engine.wait_all(warm_ids, timeout=600)
        warm = time.perf_counter() - t0

        snapshot = engine.metrics.snapshot()

    hits = sum(r.cache_hit for r in responses)
    assert hits == len(requests), "warm pass should be all cache hits"
    assert snapshot["counters"]["cache_hits"] >= len(requests)

    lines = [
        "service throughput (4 workers, tiny graphs, "
        f"{len(requests)} mixed-variant jobs)",
        f"  cold: {cold:8.3f}s  {len(requests) / cold:8.1f} jobs/s",
        f"  warm: {warm:8.3f}s  {len(requests) / warm:8.1f} jobs/s "
        "(all cache hits)",
        f"  cache hit-rate over both passes: "
        f"{snapshot['cache_hit_rate']:.1%}",
    ]
    record_result("service_throughput", "\n".join(lines))


def test_serving_throughput(record_result, record_bench, tmp_path):
    graphs = {
        "alpha": make_graph("channel", scale="tiny", seed=0),
        "beta": make_graph("com-orkut", scale="tiny", seed=1),
        "gamma": make_graph("soc-friendster", scale="tiny", seed=2),
    }
    tier = ServingTier(
        shards=2,
        workers_per_shard=2,
        cache_dir=str(tmp_path / "cache"),
    )
    try:
        for name, graph in graphs.items():
            tier.create_tenant(
                name, nranks=2, churn=ChurnPolicy(absolute=4)
            )
            tier.load_graph(name, graph)

        # Cold: first detection of each tenant (all misses).
        t0 = time.perf_counter()
        cold_handles = [tier.detect(name) for name in graphs]
        cold_responses = [tier.wait(h, timeout=WAIT) for h in cold_handles]
        cold_seconds = time.perf_counter() - t0
        assert all(r.state.value == "done" for r in cold_responses)

        # Warm: repeated batch reads served from the shared result
        # store (the cold pass populated it; batch keys are stable,
        # unlike incremental keys which mix in the warm-start labels).
        warm_jobs = 9
        t0 = time.perf_counter()
        warm_handles = [
            tier.detect(name, incremental=False)
            for name in graphs
            for _ in range(3)
        ]
        warm_responses = [tier.wait(h, timeout=WAIT) for h in warm_handles]
        warm_seconds = time.perf_counter() - t0
        warm_hits = sum(r.cache_hit for r in warm_responses)
        assert warm_hits == warm_jobs, "warm pass should be all cache hits"

        # Mixed read/update: stream churn into alpha (each batch of 4
        # distinct edges fires its threshold -> incremental recompute)
        # while beta/gamma keep reading.
        mixed_responses = []
        t0 = time.perf_counter()
        for round_idx in range(3):
            base = 790 - 8 * round_idx
            handle = None
            for k in range(4):
                handle = tier.add_edges(
                    "alpha", [k], [base - k]
                ) or handle
            assert handle is not None, "churn threshold should have fired"
            reads = [
                tier.detect("beta", incremental=False),
                tier.detect("gamma", incremental=False),
            ]
            mixed_responses.append(tier.wait(handle, timeout=WAIT))
            mixed_responses.extend(
                tier.wait(h, timeout=WAIT) for h in reads
            )
        mixed_seconds = time.perf_counter() - t0
        assert all(r.state.value == "done" for r in mixed_responses)
        mixed_hits = sum(r.cache_hit for r in mixed_responses)
        hit_rate_under_churn = mixed_hits / len(mixed_responses)
        done = [
            r.finished_at - r.submitted_at
            for r in mixed_responses
            if r.finished_at is not None
        ]
        p50 = float(np.percentile(done, 50))
        p95 = float(np.percentile(done, 95))
    finally:
        tier.shutdown()

    # Fairness under saturation: one worker, DRR fair share, a heavy
    # tenant's 24-job backlog vs a starved tenant's 6 jobs submitted
    # after it.  The acceptance bound: starved p95 queue wait within
    # 2x of the heavy tenant's.
    heavy_req = DetectionRequest(
        graph=graphs["alpha"], nranks=2, tenant="heavy"
    )
    starved_req = DetectionRequest(
        graph=graphs["beta"], nranks=2, tenant="starved"
    )
    with Engine(
        workers=1,
        scheduler=DeficitRoundRobinScheduler(max_pending=64),
        store=None,
    ) as engine:
        heavy_ids = [engine.submit(heavy_req) for _ in range(24)]
        starved_ids = [engine.submit(starved_req) for _ in range(6)]
        heavy_waits = [
            engine.wait(j, timeout=WAIT).queue_seconds for j in heavy_ids
        ]
        starved_waits = [
            engine.wait(j, timeout=WAIT).queue_seconds for j in starved_ids
        ]
    heavy_p95 = float(np.percentile(heavy_waits, 95))
    starved_p95 = float(np.percentile(starved_waits, 95))
    assert starved_p95 <= 2.0 * heavy_p95, (
        f"fair share failed: starved p95 {starved_p95:.4f}s vs heavy "
        f"p95 {heavy_p95:.4f}s"
    )

    cold_rate = len(cold_responses) / cold_seconds
    warm_rate = warm_jobs / warm_seconds
    mixed_rate = len(mixed_responses) / mixed_seconds
    lines = [
        "serving throughput (2 shards x 2 workers, 3 tenants, tiny graphs)",
        f"  cold:  {cold_seconds:8.3f}s  {cold_rate:8.1f} jobs/s "
        f"({len(cold_responses)} first detections)",
        f"  warm:  {warm_seconds:8.3f}s  {warm_rate:8.1f} jobs/s "
        f"({warm_jobs} repeat reads, all cache hits)",
        f"  mixed: {mixed_seconds:8.3f}s  {mixed_rate:8.1f} jobs/s "
        f"({len(mixed_responses)} jobs: 3 churn-triggered incremental "
        "re-detections + 6 reads)",
        f"  submit→done under churn: p50 {p50:.4f}s  p95 {p95:.4f}s",
        f"  cache hit-rate under churn: {hit_rate_under_churn:.1%}",
        "  fair share (1 worker saturated, 24 heavy vs 6 starved jobs):",
        f"    heavy p95 queue wait:   {heavy_p95:.4f}s",
        f"    starved p95 queue wait: {starved_p95:.4f}s "
        f"(bound: <= 2x heavy)",
    ]
    record_result("serving_throughput", "\n".join(lines))
    record_bench(
        "serving_throughput",
        {
            "shards": 2,
            "workers_per_shard": 2,
            "tenants": len(graphs),
            "jobs_per_s_cold": round(cold_rate, 2),
            "jobs_per_s_warm": round(warm_rate, 2),
            "jobs_per_s_mixed": round(mixed_rate, 2),
            "p50_submit_done_s": round(p50, 5),
            "p95_submit_done_s": round(p95, 5),
            "hit_rate_under_churn": round(hit_rate_under_churn, 3),
            "heavy_p95_queue_s": round(heavy_p95, 5),
            "starved_p95_queue_s": round(starved_p95, 5),
        },
    )


def test_retry_medium_cold_jobs(record_result, record_bench, tmp_path):
    """What a cold, retryable job pays to be resumable, per medium.

    Four web-wiki ``small`` graphs (the ``service_mix`` inputs) at p = 2
    through a one-worker engine with no store, three ways: ``disk`` —
    the request names a ``checkpoint_dir``, which is what every
    retryable job did before retries resumed from memory; ``snapshots``
    — the default; ``none`` — ``max_retries=0``, the floor.  The order
    of the three rotates from repetition to repetition (the host's
    clock flips between levels that hold for tens of seconds), medians
    are reported on both clocks, and the outcomes must agree.
    """
    graphs = [
        make_graph("web-wiki-en-2013", scale="small", seed=s) for s in range(4)
    ]
    media = ("disk", "snapshots", "none")
    repeats = 5
    wall = {m: [] for m in media}
    modelled = {}
    outcome = {}

    def requests(medium, rep):
        for i, g in enumerate(graphs):
            extra = {}
            if medium == "disk":
                extra["checkpoint_dir"] = str(tmp_path / f"{rep}-{i}")
            elif medium == "none":
                extra["max_retries"] = 0
            yield DetectionRequest(graph=g, nranks=2, **extra)

    for rep in range(repeats):
        for medium in media[rep % 3:] + media[:rep % 3]:
            with Engine(workers=1, store=None) as engine:
                t0 = time.perf_counter()
                responses = [
                    engine.detect(r, timeout=WAIT)
                    for r in requests(medium, rep)
                ]
                wall[medium].append(time.perf_counter() - t0)
            assert all(r.state.value == "done" for r in responses)
            modelled[medium] = float(
                np.mean([r.result.elapsed for r in responses])
            )
            outcome[medium] = [r.result.modularity for r in responses]
    assert outcome["disk"] == outcome["snapshots"] == outcome["none"]
    rate = {m: len(graphs) / float(np.median(wall[m])) for m in media}
    # The modelled clock is exact; the wall rates are reported, not
    # asserted (a noisy host can reorder them).
    assert modelled["none"] < modelled["snapshots"] < modelled["disk"]

    lines = [
        "retry medium (1 worker, no store, 4 web-wiki small graphs, p=2, "
        f"median of {repeats} rotated repetitions)",
    ] + [
        f"  {m:<10} {rate[m]:8.1f} cold jobs/s   "
        f"{modelled[m] * 1e3:8.4f} modelled ms/job"
        for m in media
    ]
    record_result("retry_medium", "\n".join(lines))
    record_bench(
        "serving_throughput",
        {
            "retry_medium_graph": "web-wiki-en-2013 small, p=2",
            **{f"jobs_per_s_cold_{m}": round(rate[m], 2) for m in media},
            **{f"modelled_ms_per_job_{m}": round(modelled[m] * 1e3, 5)
               for m in media},
        },
    )


def _fresh_compute_seconds(tmp_path, tag, jobs, observed):
    """Seconds for ``jobs`` fresh (uncached) detections on one worker."""
    graph = make_graph("soc-friendster", scale="tiny", seed=5)
    request = DetectionRequest(graph=graph, nranks=2)
    event_log = None
    drift = None
    if observed:
        from repro.obs import DriftMonitor, EventLog

        event_log = EventLog(tmp_path / f"{tag}.jsonl", origin="bench")
        drift = DriftMonitor()
    with Engine(
        workers=1, store=None, event_log=event_log, drift=drift
    ) as engine:
        exporter = None
        if observed:
            from repro.obs import PeriodicExporter

            exporter = PeriodicExporter(
                lambda: engine.metrics.registry.snapshot(),
                prometheus_path=tmp_path / f"{tag}.prom",
                interval=0.05,
            )
        try:
            t0 = time.perf_counter()
            ids = [engine.submit(request) for _ in range(jobs)]
            responses = engine.wait_all(ids, timeout=WAIT)
            elapsed = time.perf_counter() - t0
        finally:
            if exporter is not None:
                exporter.close()
    if event_log is not None:
        event_log.close()
    assert all(r.state.value == "done" for r in responses)
    return elapsed


def test_observability_overhead(record_result, record_bench, tmp_path):
    """The obs stack must stay passive in cost, not just in results.

    The host's clock flips between two levels ~17% apart and holds one
    for 10-60 s, so all bare repetitions followed by all observed ones
    can sit on different levels and read as a 17% "overhead" either
    way.  Bare and observed repetitions alternate instead — which of
    the two goes first alternates too — and the bound is on the median
    of the ratios within pairs: a flip spoils at most the pair it lands
    in.
    """
    repeats, jobs = 7, 8
    seconds = {False: [], True: []}
    for rep in range(repeats):
        for observed in ((False, True) if rep % 2 == 0 else (True, False)):
            seconds[observed].append(
                _fresh_compute_seconds(
                    tmp_path, f"{'on' if observed else 'off'}-{rep}",
                    jobs, observed,
                )
            )
    ratio = float(
        np.median(np.array(seconds[True]) / np.array(seconds[False]))
    )
    rate_off = jobs / float(np.median(seconds[False]))
    rate_on = jobs / float(np.median(seconds[True]))
    overhead = max(0.0, ratio - 1.0)
    assert overhead < 0.05, (
        f"observability overhead {overhead:.1%} (median of {repeats} "
        f"paired ratios): {rate_off:.1f} jobs/s bare vs {rate_on:.1f} "
        "jobs/s observed"
    )
    lines = [
        "observability overhead (1 worker, fresh computes, median of "
        f"{repeats} interleaved pairs x {jobs} jobs)",
        f"  obs off: {rate_off:8.1f} jobs/s",
        f"  obs on:  {rate_on:8.1f} jobs/s  (event log + drift monitor "
        "+ 20Hz Prometheus exporter)",
        f"  overhead: {overhead:.1%} (bound: < 5%)",
    ]
    record_result("observability_overhead", "\n".join(lines))
    record_bench(
        "serving_throughput",
        {
            "jobs_per_s_obs_off": round(rate_off, 2),
            "jobs_per_s_obs_on": round(rate_on, 2),
            "obs_overhead_fraction": round(overhead, 4),
        },
    )
