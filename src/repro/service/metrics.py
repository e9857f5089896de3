"""Service observability: counters, gauges, and latency histograms.

Everything the engine does is counted here — submissions, completions
by terminal state, rejections by reason, cache hits/misses, retries —
plus two latency histograms (submit->start and start->done wall-clock
seconds) and live gauges (queue depth, running jobs).  A
:meth:`ServiceMetrics.snapshot` is a plain JSON-able dict, so the CLI
can dump it and tests can assert on it.

The per-job :class:`~repro.runtime.tracing.TraceReport`\\ s also merge
in (:meth:`ServiceMetrics.observe_trace`), extending the paper's §V-A
breakdown across the whole served workload: the snapshot carries the
aggregate modelled seconds per category (compute, ghost_comm, …,
checkpoint) summed over every completed job; the registry also counts
the messages and bytes those jobs sent and received
(:func:`~repro.obs.export.trace_to_registry`).

The backing store is a :class:`~repro.obs.registry.MetricsRegistry`
(exposed as :attr:`ServiceMetrics.registry`), so the same numbers are
available as labeled Prometheus families.  :meth:`snapshot` — with the
``counters`` / ``gauges`` views and the ``queue_latency`` /
``run_latency`` histograms (:class:`~repro.obs.registry.Histogram`) it
is built from — is what the CLI's ``--metrics``, the shard RPC and the
tests read; its keys and number formatting are a contract.
"""

from __future__ import annotations

from collections import Counter

from ..obs.export import trace_to_registry
from ..obs.registry import DEFAULT_BUCKETS, MetricsRegistry
from ..runtime.tracing import TraceReport

__all__ = ["DEFAULT_BUCKETS", "ServiceMetrics"]


class ServiceMetrics:
    """Thread-safe metric registry for one :class:`~repro.service.Engine`."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._events = self.registry.counter(
            "repro_service_events_total",
            "Engine lifecycle events (submitted, completed, cache_hits, ...).",
            labelnames=("event",),
        )
        self._gauges = self.registry.gauge(
            "repro_service_gauge",
            "Engine live gauges (queue_depth, running, ...).",
            labelnames=("name",),
        )
        latency = self.registry.histogram(
            "repro_service_latency_seconds",
            "Job latency by stage: queue (submit->start), run (start->done).",
            labelnames=("stage",),
            buckets=DEFAULT_BUCKETS,
        )
        self.queue_latency = latency.labels(stage="queue")
        self.run_latency = latency.labels(stage="run")
        self._trace_seconds = self.registry.counter(
            "repro_trace_seconds_total",
            "Modelled virtual seconds by category over every completed job.",
            labelnames=("category",),
        )
        self._trace_collectives = self.registry.counter(
            "repro_trace_collectives_total",
            "Collective invocations by op over every completed job.",
            labelnames=("op",),
        )
        self._modelled = self.registry.counter(
            "repro_modelled_seconds_total",
            "Total modelled seconds over every completed job.",
        )
        # The two load gauges exist (at zero) before anything happens.
        self._gauges.labels(name="queue_depth").set(0)
        self._gauges.labels(name="running").set(0)

    # -- read views -----------------------------------------------------
    @property
    def counters(self) -> Counter[str]:
        """Event counters by name (a :class:`collections.Counter`: an
        event that never fired reads 0)."""
        return Counter(
            {
                labels["event"]: int(child.value)
                for labels, child in self._events.samples()
            }
        )

    @property
    def gauges(self) -> dict[str, int | float]:
        return {
            labels["name"]: _as_number(child.value)
            for labels, child in self._gauges.samples()
        }

    # -- counters / gauges ----------------------------------------------
    def inc(self, name: str, by: int = 1) -> None:
        self._events.labels(event=name).inc(by)

    def set_gauge(self, name: str, value: int | float) -> None:
        self._gauges.labels(name=name).set(value)

    def adjust_gauge(self, name: str, by: int) -> None:
        self._gauges.labels(name=name).adjust(by)

    # -- latencies ------------------------------------------------------
    def observe_queue_latency(self, seconds: float) -> None:
        self.queue_latency.observe(seconds)

    def observe_run_latency(self, seconds: float) -> None:
        self.run_latency.observe(seconds)

    # -- trace merge ----------------------------------------------------
    def observe_trace(self, trace: TraceReport | None, elapsed: float) -> None:
        """Fold one completed job's trace into the workload aggregate."""
        self._modelled.inc(elapsed)
        if trace is not None:
            trace_to_registry(trace, self.registry, prefix="repro_trace")

    # -- export ---------------------------------------------------------
    def snapshot(self) -> dict:
        """One consistent JSON-able view of everything."""
        counters = self.counters
        return {
            "counters": dict(counters),
            "gauges": self.gauges,
            "cache_hit_rate": (
                counters["cache_hits"]
                / max(counters["cache_hits"] + counters["cache_misses"], 1)
            ),
            "latency": {
                "queue_seconds": self.queue_latency.snapshot(),
                "run_seconds": self.run_latency.snapshot(),
            },
            "modelled": {
                "total_seconds": self._modelled.value,
                "seconds_by_category": {
                    labels["category"]: child.value
                    for labels, child in self._trace_seconds.samples()
                },
                "collective_counts": {
                    labels["op"]: int(child.value)
                    for labels, child in self._trace_collectives.samples()
                },
            },
        }

    def format(self) -> str:
        """Human-readable one-screen summary."""
        snap = self.snapshot()
        lines = ["service metrics:"]
        for name in sorted(snap["counters"]):
            lines.append(f"  {name:<22} {snap['counters'][name]}")
        lines.append(f"  {'cache_hit_rate':<22} {snap['cache_hit_rate']:.1%}")
        for name, value in sorted(snap["gauges"].items()):
            lines.append(f"  {name:<22} {value} (gauge)")
        for label, key in (
            ("queue wait", "queue_seconds"),
            ("run time", "run_seconds"),
        ):
            h = snap["latency"][key]
            lines.append(
                f"  {label:<11} n={h['count']} mean={h['mean']:.3f}s "
                f"p50<={h['p50']:.3f}s p99<={h['p99']:.3f}s "
                f"max={h['max']:.3f}s"
            )
        cats = snap["modelled"]["seconds_by_category"]
        if cats:
            total = sum(cats.values()) or 1.0
            lines.append("  modelled seconds by category (all jobs):")
            for cat, sec in sorted(cats.items(), key=lambda kv: -kv[1]):
                lines.append(f"    {cat:<16} {sec:>12.6f}s  {sec/total:6.1%}")
            sent = {
                name: self.registry.counter(
                    f"repro_trace_{name}_total", labelnames=("direction",)
                ).labels(direction="sent").value
                for name in ("messages", "bytes")
            }
            lines.append(
                f"    messages={sent['messages']:.0f}  bytes={sent['bytes']:.0f}"
            )
        return "\n".join(lines)


def _as_number(value: float) -> int | float:
    """Integral floats render as ints in :meth:`ServiceMetrics.snapshot`."""
    return int(value) if float(value).is_integer() else value
