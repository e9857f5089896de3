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
* **observability overhead**: the full observability stack (event log
  + drift monitor + periodic Prometheus exporter) on fresh computes
  through one engine — the CPU the stack's own calls take, as a share
  of the observed run's CPU, asserted under 5%; the jobs/s ratio
  against a bare engine is recorded beside it;
* **engine memory**: 300 mixed cold / hit / incremental jobs through
  one long-lived engine — VmRSS per job once warm, and no job left
  behind once every response is collected;
* **cache-hit latency**: ``Engine.detect`` of a request whose result
  is stored, for an in-memory graph and for a graph file — median
  latency, and the share of it spent hashing the input.

Wall-clock times are real (the shards multiplex actual simulator
runs), unlike the modelled times of the paper-reproduction benches.
"""

from __future__ import annotations

import functools
import os
import threading
import time

import numpy as np
import pytest

from repro.core import PAPER_VARIANTS, LouvainConfig
from repro.core.dynamic import EdgeChurn, apply_churn
from repro.generators import make_graph
from repro.obs import DriftMonitor, EventLog, PeriodicExporter
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


class _ObsClock:
    """Thread CPU (``time.thread_time_ns``) spent inside the wrapped
    calls, summed over threads.  Only the outermost wrapped call on a
    thread is timed, so an event emitted inside a timed drift step is
    not counted twice."""

    def __init__(self) -> None:
        self.ns = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if getattr(self._local, "inside", False):
                return fn(*args, **kwargs)
            self._local.inside = True
            start = time.thread_time_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.thread_time_ns() - start
                self._local.inside = False
                with self._lock:
                    self.ns += spent

        return timed


def _fresh_compute(tmp_path, tag, jobs, clock=None):
    """``jobs`` fresh (uncached) detections on one worker, observed when
    a ``clock`` is given: ``(wall seconds, process CPU ns, obs CPU ns)``.
    """
    graph = make_graph("soc-friendster", scale="tiny", seed=5)
    request = DetectionRequest(graph=graph, nranks=2)
    observed = clock is not None
    event_log = (
        EventLog(tmp_path / f"{tag}.jsonl", origin="bench")
        if observed else None
    )
    with Engine(
        workers=1,
        store=None,
        event_log=event_log,
        drift=DriftMonitor() if observed else None,
    ) as engine:
        if observed:
            clock.ns = 0
        cpu0 = time.process_time_ns()
        exporter = None
        if observed:
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
        cpu = time.process_time_ns() - cpu0
    if event_log is not None:
        event_log.close()
    assert all(r.state.value == "done" for r in responses)
    return elapsed, cpu, clock.ns if observed else 0


def test_observability_overhead(
    record_result, record_bench, tmp_path, monkeypatch
):
    """The obs stack must stay passive in cost, not just in results.

    What is bounded is the stack's own work: the thread CPU of every
    event-log append (``EventLog.emit``), of the engine's per-run
    event records and drift step (``DriftMonitor.observe`` with the
    cost prediction it is fed) and of every exporter write, as a share
    of the CPU the whole observed run takes.  Both sides of the share
    are measured in the same run, so the host's clock level cancels.

    The jobs/s ratio against a bare engine is recorded too but not
    bounded: its true value (3-4 %) sits within the run-to-run spread
    of two noisy totals, and a 5 % bound on it failed about 8 runs in
    20.  Bare and observed repetitions alternate, which of the two goes
    first alternating too, and the ratio is the median within pairs.
    """
    clock = _ObsClock()
    for owner, name in (
        (EventLog, "emit"),
        (Engine, "_emit_run_events"),
        (Engine, "_observe_drift"),
        (PeriodicExporter, "_write_once"),
    ):
        monkeypatch.setattr(owner, name, clock.wrap(getattr(owner, name)))
    repeats, jobs = 7, 8
    seconds = {False: [], True: []}
    shares = []
    for rep in range(repeats):
        for observed in ((False, True) if rep % 2 == 0 else (True, False)):
            elapsed, cpu, obs = _fresh_compute(
                tmp_path, f"{'on' if observed else 'off'}-{rep}", jobs,
                clock if observed else None,
            )
            seconds[observed].append(elapsed)
            if observed:
                shares.append(obs / cpu)
    share = float(np.median(shares))
    ratio = float(
        np.median(np.array(seconds[True]) / np.array(seconds[False]))
    )
    rate_off = jobs / float(np.median(seconds[False]))
    rate_on = jobs / float(np.median(seconds[True]))
    overhead = max(0.0, ratio - 1.0)
    assert share < 0.05, (
        f"observability work is {share:.1%} of the observed run's CPU "
        f"(median of {repeats} runs of {jobs} jobs)"
    )
    lines = [
        "observability overhead (1 worker, fresh computes, median of "
        f"{repeats} interleaved pairs x {jobs} jobs)",
        f"  obs off: {rate_off:8.1f} jobs/s",
        f"  obs on:  {rate_on:8.1f} jobs/s  (event log + drift monitor "
        "+ 20Hz Prometheus exporter)",
        f"  paired wall ratio - 1: {overhead:.1%} (recorded, not bounded)",
        f"  obs CPU share of the observed run: {share:.2%} (bound: < 5%; "
        f"runs {min(shares):.2%} .. {max(shares):.2%})",
    ]
    record_result("observability_overhead", "\n".join(lines))
    record_bench(
        "serving_throughput",
        {
            "jobs_per_s_obs_off": round(rate_off, 2),
            "jobs_per_s_obs_on": round(rate_on, 2),
            "obs_overhead_fraction": round(overhead, 4),
            "obs_cpu_share": round(share, 5),
            "obs_cpu_share_runs": [round(x, 5) for x in shares],
        },
    )


def _vm_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError("no VmRSS line in /proc/self/status")


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="reads Linux VmRSS"
)
def test_engine_memory_is_bounded(record_result, record_bench):
    """A long-lived engine holds only the jobs nobody has collected.

    300 ``detect`` calls on one ``Engine(workers=1)`` with a 4-entry
    store, cycling three kinds on soc-friendster tiny at p = 2: a cold
    job (a new seed, so a store miss), a cache hit of the last cold job
    (``ResultStore.get`` hands out a copy) and an incremental
    re-detection of a freshly churned graph (a new CSR per job).  VmRSS
    is read after the first 30 jobs and at the end; what is held per
    job after warm-up is their difference over the remaining 270.  The
    record is appended before the engine is checked, so a tree whose
    engine keeps every job still leaves its number.
    """
    graph = make_graph("soc-friendster", scale="tiny", seed=3)
    jobs, warm_up = 300, 30
    kinds = ("cold", "hit", "incr")
    with Engine(workers=1, store=ResultStore(capacity=4)) as engine:
        cold = cold_request = None
        for i in range(jobs):
            kind = kinds[i % 3]
            if kind == "cold":
                request = cold_request = DetectionRequest(
                    graph=graph, nranks=2, config=LouvainConfig(seed=i)
                )
            elif kind == "hit":
                request = cold_request
            else:
                churn = EdgeChurn.random(graph, 0.002, 0.002, seed=i)
                request = DetectionRequest(
                    graph=apply_churn(graph, churn), nranks=2,
                    config=cold_request.config, mode="incremental",
                    previous_assignment=cold.result.assignment,
                    reset_touched=churn.touched_vertices(),
                )
            response = engine.detect(request, timeout=WAIT)
            assert response.state.value == "done", response.error
            assert response.cache_hit == (kind == "hit")
            if kind == "cold":
                cold = response
            del request, response
            if i + 1 == warm_up:
                rss_warm = _vm_rss_kib()
        rss_end = _vm_rss_kib()
        held = len(engine._jobs)
    per_job = (rss_end - rss_warm) / (jobs - warm_up)
    lines = [
        f"engine memory (1 worker, 4-entry store, {jobs} jobs: cold / "
        "hit / incremental in turn, soc-friendster tiny, p=2)",
        f"  VmRSS after {warm_up:>3} jobs:   {rss_warm / 1024:8.1f} MiB",
        f"  VmRSS after {jobs:>3} jobs:   {rss_end / 1024:8.1f} MiB",
        f"  held per job after warm-up: {per_job:8.1f} KiB",
        f"  jobs still in the engine:   {held:8d}",
    ]
    record_result("engine_memory", "\n".join(lines))
    record_bench(
        "serving_throughput",
        {
            "engine_memory_workload": (
                f"{jobs} jobs, cold/hit/incremental in turn, "
                "soc-friendster tiny, p=2, Engine(workers=1), "
                "ResultStore(capacity=4)"
            ),
            "vm_rss_kib_warm": rss_warm,
            "vm_rss_kib_end": rss_end,
            "kib_per_job": round(per_job, 2),
            "jobs_held_at_end": held,
        },
    )
    assert not held, f"{held} collected jobs are still in the engine"


def test_cache_hit_latency(record_result, record_bench, tmp_path, monkeypatch):
    """Median latency of a cache hit, and the share of it spent hashing.

    web-wiki-en-2013 small at p = 2 through ``Engine(workers=1)`` with a
    warm 4-entry store: one cold detection, then ``HITS`` fresh requests
    for the same graph, first as ``graph=`` (one CSR instance, as a
    caller holding its graph submits it) and then as ``graph_path=``.
    Hashing is the time inside ``CSRGraph.fingerprint`` plus, where the
    request module keys files by their bytes, its file digest.
    """
    import repro.service.request as request_module
    from repro.graph import CSRGraph, EdgeList
    from repro.graph.binio import write_edgelist

    hits = 200
    graph = make_graph("web-wiki-en-2013", scale="small")
    path = str(tmp_path / "g.bin")
    write_edgelist(path, EdgeList.from_csr(graph))
    hashing = [0.0]

    def timed(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                hashing[0] += time.perf_counter() - t0

        return wrapper

    monkeypatch.setattr(CSRGraph, "fingerprint", timed(CSRGraph.fingerprint))
    if hasattr(request_module, "_file_digest"):
        monkeypatch.setattr(
            request_module, "_file_digest", timed(request_module._file_digest)
        )
    rows = {}
    with Engine(workers=1, store=ResultStore(capacity=4)) as engine:
        cold = engine.detect(
            DetectionRequest(graph=graph, nranks=2), timeout=WAIT
        )
        assert cold.state.value == "done", cold.error
        for source in ({"graph": graph}, {"graph_path": path}):
            # The first path request loads the file once.
            engine.detect(DetectionRequest(nranks=2, **source), timeout=WAIT)
            hashing[0] = 0.0
            walls = []
            for _ in range(hits):
                t0 = time.perf_counter()
                response = engine.detect(
                    DetectionRequest(nranks=2, **source), timeout=WAIT
                )
                walls.append(time.perf_counter() - t0)
                assert response.cache_hit
            rows[next(iter(source))] = (
                float(np.median(walls)), hashing[0] / sum(walls)
            )

    lines = [
        f"cache-hit latency (web-wiki-en-2013 small, p=2, 1 worker, warm "
        f"store, {hits} hits each)",
    ] + [
        f"  {name + '=':<12} median {p50 * 1e6:8.0f} us   hashing "
        f"{share:6.1%} of the hit"
        for name, (p50, share) in rows.items()
    ]
    record_result("cache_hit_latency", "\n".join(lines))
    record_bench(
        "serving_throughput",
        {
            "cache_hit_workload": (
                f"web-wiki-en-2013 small, p=2, Engine(workers=1), warm "
                f"ResultStore(capacity=4), {hits} hits per input kind"
            ),
            "hit_graph_us_p50": round(rows["graph"][0] * 1e6, 1),
            "hit_graph_hash_share": round(rows["graph"][1], 4),
            "hit_path_us_p50": round(rows["graph_path"][0] * 1e6, 1),
            "hit_path_hash_share": round(rows["graph_path"][1], 4),
        },
    )
