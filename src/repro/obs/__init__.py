"""Unified observability: metrics registry, exporters, events, drift.

The subsystem gives every layer of the reproduction one telemetry
surface (the paper's §V evaluation is built on exactly this kind of
per-category timing breakdown):

* :mod:`repro.obs.registry` — labeled counters / gauges / histograms
  behind a single :class:`MetricsRegistry`; `ServiceMetrics`, the
  serving tier, and SPMD :class:`~repro.runtime.tracing.TraceReport`
  aggregation are all backed by it.
* :mod:`repro.obs.export` — Prometheus text exposition and JSON
  snapshots, periodic file export, and a tiny ``/metrics`` HTTP server.
* :mod:`repro.obs.events` — structured JSON-lines event log with
  correlated run / job / phase / tenant ids across the engine, shard
  processes, and SPMD runs.
* :mod:`repro.obs.drift` — per-config-family EWMA of simulated vs
  cost-model-predicted seconds; crossing the threshold triggers a
  background re-tune and a cheap machine-model calibration rescale
  (ROADMAP item 3's online half).

Observability is strictly passive: enabling any of it never changes a
detection result.
"""

from .drift import DriftConfig, DriftDecision, DriftMonitor
from .events import EventLog, emit_current, read_events, scoped
from .export import (
    MetricsServer,
    PeriodicExporter,
    merge_snapshots,
    to_prometheus,
    trace_to_registry,
    write_json,
    write_prometheus,
)
from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    CounterFamily,
    Gauge,
    GaugeFamily,
    Histogram,
    HistogramFamily,
    MetricsRegistry,
)

__all__ = [
    "Counter",
    "CounterFamily",
    "DEFAULT_BUCKETS",
    "DriftConfig",
    "DriftDecision",
    "DriftMonitor",
    "EventLog",
    "Gauge",
    "GaugeFamily",
    "Histogram",
    "HistogramFamily",
    "MetricsRegistry",
    "MetricsServer",
    "PeriodicExporter",
    "emit_current",
    "merge_snapshots",
    "read_events",
    "scoped",
    "to_prometheus",
    "trace_to_registry",
    "write_json",
    "write_prometheus",
]
