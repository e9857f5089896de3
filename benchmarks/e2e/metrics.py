"""The benchmark's metric tables: names, units, directions, bounds.

``BENCHMARK.json`` at the repo root is the contract the CI driver reads;
this module is the same contract for the benchmark's own tools (the
runner prints from it, ``compare.py`` judges with it, the README tables
are written from it).  ``test_e2e_bench.py`` asserts the two agree.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: End-to-end only: share of the baseline median by which the metric
    #: may worsen before a change counts as a regression.
    bound: float | None = None
    #: Workloads that report it; ``None`` = every workload.
    workloads: tuple[str, ...] | None = None
    #: Identical on every repeat of the same seed (compared exactly).
    exact: bool = False
    #: Listed in BENCHMARK.json, i.e. gated by the CI driver.
    driver: bool = True
    #: Per-layer only: the end-to-end metric (and workload) it should move.
    moves: str = ""
    definition: str = ""


SERVICE = ("service_mix",)

#: ``*_cal_s`` are wall seconds divided by the host slowdown measured
#: beside them (workloads.HostSpeed).  Raw wall clocks spread up to 13%
#: between runs of one commit on the sizing box, the calibrated ones up
#: to 7%; every bound is at least three times the spread seen over ten
#: seeds (README "Steadiness").  The CI driver wants every workload to
#: report every metric it gates, so ``driver`` is off for the raw wall
#: and for the two latencies only service_mix has.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25,
           definition="median calibrated wall (the driver fixes the name) to "
                      "prepare one input: generate the edge list from the "
                      "seed, build the CSR (service_mix: also write every "
                      "fifth input as a binary file)"),
    Metric("detect_wall_s", "s", "lower", 0.25, driver=False,
           definition="mean raw wall of one cold detection over the run's "
                      "inputs (run_louvain call; service_mix: Engine.detect "
                      "submit -> response of a cold batch job)"),
    Metric("detect_cal_s", "s", "lower", 0.25,
           definition="the same, each wall divided by the host slowdown"),
    Metric("edges_per_cal_s", "1/s", "higher", 0.25,
           definition="undirected input edges of the cold detections / "
                      "their summed calibrated wall"),
    Metric("jobs_per_cal_s", "1/s", "higher", 0.25,
           definition="all timed operations / their summed calibrated wall "
                      "(direct workloads: cold detections only; service_mix: "
                      "cold + cache-hit + incremental jobs)"),
    Metric("modelled_s", "s", "lower", 0.20, exact=True,
           definition="mean LouvainResult.elapsed (LogGP simulated seconds) "
                      "over cold detections"),
    Metric("modularity", "Q", "higher", 0.02, exact=True,
           definition="mean modularity over cold detections, recomputed "
                      "from the assignment by core.modularity.modularity"),
    Metric("peak_rss_mb", "MiB", "lower", 0.15,
           definition="ru_maxrss of the workload process"),
    Metric("hit_cal_s", "s", "lower", 0.25, workloads=SERVICE, driver=False,
           definition="median calibrated submit -> response of cache-hit "
                      "reads"),
    Metric("incr_cal_s", "s", "lower", 0.25, workloads=SERVICE, driver=False,
           definition="median calibrated wall of apply_churn + incremental "
                      "re-detect submit -> response"),
)

_SETUP = "setup_s, all"
_P_GT_1 = "detect_cal_s on mesh_p8, social_p4_etc; ~0 on social_p1"
_MODELLED = "modelled_s on the p>1 workloads; host-only speed-ups leave it"
_COLLECTIVE = ("detect_cal_s on mesh_p8 (primary), social_p4_etc; "
               "none on social_p1")
_WORK = "modelled_s and detect_cal_s, all"
_SWEEP = ("detect_cal_s / edges_per_cal_s on social_p1 (primary), "
          "social_p4_etc (masked); <= its share on mesh_p8")
_ALL_WALL = "detect_cal_s, all"
_CKPT = ("detect_cal_s, jobs_per_cal_s on service_mix; calls are 0 on the "
         "direct workloads")
_HIT = "hit_cal_s on service_mix"
_COLD_SVC = "detect_cal_s, jobs_per_cal_s on service_mix"


def _m(name: str, unit: str, better: str, moves: str) -> Metric:
    return Metric(name, unit, better, moves=moves)


#: ``*_s`` are thread seconds per traced operation (rank threads summed
#: over ranks, so they include lock/GIL waits); counts are per operation
#: too and repeat exactly for a given seed.
PER_LAYER: tuple[Metric, ...] = (
    _m("setup.import_s", "s", "lower", "process start-up (not in setup_s)"),
    _m("generators.make_graph_s", "s", "lower", _SETUP),
    _m("graph.csr_build_s", "s", "lower", _SETUP),
    _m("graph.distribute_s", "s", "lower", _P_GT_1),
    _m("graph.ghost_plan_s", "s", "lower", _P_GT_1),
    _m("graph.ghost_plan_calls", "count", "lower", _P_GT_1),
    _m("graph.ghost_exchange_s", "s", "lower", _P_GT_1),
    _m("graph.ghost_exchange_calls", "count", "lower", _P_GT_1),
    _m("graph.fingerprint_s", "s", "lower", _HIT),
    _m("graph.binio_read_s", "s", "lower", _COLD_SVC),
    _m("graph.binio_read_bytes", "bytes", "lower", _COLD_SVC),
    _m("runtime.collective_calls", "count", "lower", _MODELLED),
    _m("runtime.messages", "count", "lower", _MODELLED),
    _m("runtime.bytes", "bytes", "lower", _MODELLED),
    _m("runtime.modelled_comm_fraction", "ratio", "lower", _MODELLED),
    _m("runtime.collective_s", "s", "lower", _COLLECTIVE),
    _m("runtime.collective_us_per_call", "us", "lower", _COLLECTIVE),
    _m("runtime.alltoall_s", "s", "lower", _COLLECTIVE),
    _m("runtime.allreduce_s", "s", "lower", _COLLECTIVE),
    _m("runtime.collective_share", "ratio", "lower", _COLLECTIVE),
    _m("runtime.spmd_overhead_s", "s", "lower", _COLLECTIVE),
    _m("runtime.alltoall_probe_us", "us", "lower", "detect_cal_s on mesh_p8"),
    _m("runtime.allreduce_probe_us", "us", "lower", "detect_cal_s on mesh_p8"),
    _m("core.phases", "count", "lower", _WORK),
    _m("core.iterations", "count", "lower", _WORK),
    _m("core.sweep_calls", "count", "lower", _WORK),
    _m("core.sweep_pairs", "count", "lower", _WORK),
    _m("core.sweep_active_vertices", "count", "lower", _WORK),
    _m("core.sweep_moves", "count", "lower", _WORK),
    _m("core.sweep_move_ratio", "ratio", "higher", _WORK),
    _m("core.sweep_s", "s", "lower", _SWEEP),
    _m("core.sweep_ns_per_pair", "ns", "lower", _SWEEP),
    _m("core.sweep_share", "ratio", "lower", _SWEEP),
    _m("core.sweep_probe_ms", "ms", "lower", _SWEEP),
    _m("core.coarsen_s", "s", "lower", _ALL_WALL),
    _m("core.coarsen_calls", "count", "lower", _ALL_WALL),
    _m("core.coarsen_probe_ms", "ms", "lower", _ALL_WALL),
    _m("core.glue_s", "s", "lower", _ALL_WALL),
    _m("core.glue_share", "ratio", "lower", _ALL_WALL),
    _m("core.dynamic_s", "s", "lower", "incr_cal_s on service_mix"),
    _m("resilience.checkpoint_s", "s", "lower", _CKPT),
    _m("resilience.checkpoint_calls", "count", "lower", _CKPT),
    _m("resilience.checkpoint_bytes", "bytes", "lower", _CKPT),
    _m("service.submit_s", "s", "lower", _HIT),
    _m("service.cache_key_s", "s", "lower", _HIT),
    _m("service.store_get_s", "s", "lower", _HIT),
    _m("service.store_put_s", "s", "lower", _COLD_SVC),
    _m("service.store_mem_hits", "count", "higher", _HIT),
    _m("service.store_disk_hits", "count", "lower", _HIT),
    _m("service.store_misses", "count", "lower", _HIT),
    _m("service.store_evictions", "count", "lower", _HIT),
    _m("service.queue_wait_s", "s", "lower", _COLD_SVC),
    _m("service.execute_s", "s", "lower", _COLD_SVC),
    _m("service.overhead_s", "s", "lower", _COLD_SVC),
    _m("service.hit_wall_s", "s", "lower", _HIT + " (traced, raw)"),
    _m("service.incr_wall_s", "s", "lower",
       "incr_cal_s on service_mix (traced, raw)"),
    _m("service.jobs_attempted", "count", "higher", "failed / attempted"),
    _m("service.jobs_failed", "count", "lower", "failed / attempted"),
    _m("service.jobs_retried", "count", "lower", "failed / attempted"),
    _m("trace.span_count", "count", "lower", "the cost of looking"),
    _m("trace.overhead_fraction", "ratio", "lower", "the cost of looking"),
    _m("trace.attributed_fraction", "ratio", "higher",
       "share of thread time inside named spans"),
    _m("host.slowdown", "ratio", "lower",
       "median host slowdown of the pass: explains raw walls, not a layer"),
)


def end_to_end_for(workload: str) -> list[Metric]:
    return [
        m for m in END_TO_END
        if m.workloads is None or workload in m.workloads
    ]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with >= 10 samples beyond it, and its value."""
    n = len(values)
    if n < 20:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]
