"""Labeled metrics registry: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` holds every metric *family*; a family has a
name, a kind, a help string, and a tuple of label names, and hands out
per-label-value children via :meth:`labels`.  The shape deliberately
mirrors the Prometheus client-library data model so the exporters in
:mod:`repro.obs.export` can render standard text exposition, while
:meth:`MetricsRegistry.snapshot` produces a plain JSON-able dict that
survives the shard-process RPC boundary (exporters accept either a live
registry or such a snapshot).

Everything is thread-safe; families are get-or-create, so independent
subsystems can attach to the same registry without coordination.
"""

from __future__ import annotations

import bisect
import re
import threading
from typing import Any, Iterable, Mapping

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "CounterFamily",
    "Gauge",
    "GaugeFamily",
    "Histogram",
    "HistogramFamily",
    "MetricsRegistry",
]

#: Default latency bucket upper bounds, seconds (log-ish spacing wide
#: enough for both sub-second simulated jobs and multi-minute real ones).
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    30.0, 60.0, 300.0,
)

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Counter:
    """One labeled child of a counter family: a monotone float."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, by: float = 1.0) -> None:
        if by < 0:
            raise ValueError(f"counters only go up, got inc({by})")
        with self._lock:
            self._value += by

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """One labeled child of a gauge family: a settable float."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def adjust(self, by: float) -> None:
        with self._lock:
            self._value += by

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram of seconds (cumulative, Prometheus-style).

    The snapshot dict format (``count`` / ``sum`` / ``mean`` / ``max``
    / ``p50`` / ``p99`` / per-bound ``buckets``) is part of the engine's
    public metrics JSON (``ServiceMetrics.snapshot()``) and must not
    change.
    """

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError("buckets must be strictly increasing")
        self._lock = threading.Lock()
        self.bounds = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.bounds) + 1)  # last = +inf overflow
        self.total = 0.0
        self.count = 0
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"negative latency {seconds}")
        with self._lock:
            self.counts[bisect.bisect_left(self.bounds, seconds)] += 1
            self.total += seconds
            self.count += 1
            self.max = max(self.max, seconds)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the bucket holding it."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for bound, n in zip(self.bounds, self.counts):
            seen += n
            if seen >= rank:
                return bound
        return self.max

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "count": self.count,
                "sum": self.total,
                "mean": self.mean,
                "max": self.max,
                "p50": self.quantile(0.50),
                "p99": self.quantile(0.99),
                "buckets": {
                    str(b): c for b, c in zip(self.bounds, self.counts)
                }
                | {"+inf": self.counts[-1]},
            }


class _Family:
    """Shared get-or-create child bookkeeping for one metric family."""

    kind = "abstract"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...]):
        if not _METRIC_NAME.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for ln in labelnames:
            if not _LABEL_NAME.match(ln):
                raise ValueError(f"invalid label name {ln!r} for {name}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], Any] = {}

    def _make_child(self) -> Any:
        raise NotImplementedError

    def _child(self, labels: Mapping[str, object]) -> Any:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[ln]) for ln in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make_child()
            return child

    def samples(self) -> list[tuple[dict[str, str], Any]]:
        """``(labels_dict, child)`` pairs in insertion order."""
        with self._lock:
            items = list(self._children.items())
        return [
            (dict(zip(self.labelnames, key)), child) for key, child in items
        ]

    def _describe(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
        }

    def snapshot(self) -> dict:
        raise NotImplementedError


class CounterFamily(_Family):
    kind = "counter"

    def _make_child(self) -> Counter:
        return Counter()

    def labels(self, **labels: object) -> Counter:
        child: Counter = self._child(labels)
        return child

    def inc(self, by: float = 1.0) -> None:
        """Convenience for label-less families."""
        self.labels().inc(by)

    @property
    def value(self) -> float:
        return self.labels().value

    def snapshot(self) -> dict:
        return self._describe() | {
            "samples": [
                {"labels": labels, "value": child.value}
                for labels, child in self.samples()
            ]
        }


class GaugeFamily(_Family):
    kind = "gauge"

    def _make_child(self) -> Gauge:
        return Gauge()

    def labels(self, **labels: object) -> Gauge:
        child: Gauge = self._child(labels)
        return child

    def set(self, value: float) -> None:
        self.labels().set(value)

    def adjust(self, by: float) -> None:
        self.labels().adjust(by)

    @property
    def value(self) -> float:
        return self.labels().value

    def snapshot(self) -> dict:
        return self._describe() | {
            "samples": [
                {"labels": labels, "value": child.value}
                for labels, child in self.samples()
            ]
        }


class HistogramFamily(_Family):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        # Validate once here; children reuse the same bounds.
        self.buckets = Histogram(buckets).bounds

    def _make_child(self) -> Histogram:
        return Histogram(self.buckets)

    def labels(self, **labels: object) -> Histogram:
        child: Histogram = self._child(labels)
        return child

    def observe(self, seconds: float) -> None:
        self.labels().observe(seconds)

    def snapshot(self) -> dict:
        return self._describe() | {
            "buckets": list(self.buckets),
            "samples": [
                {
                    "labels": labels,
                    "count": child.count,
                    "sum": child.total,
                    "max": child.max,
                    "counts": list(child.counts),
                }
                for labels, child in self.samples()
            ],
        }


class MetricsRegistry:
    """Get-or-create registry of metric families.

    Re-requesting an existing name returns the existing family when the
    kind, label names, and (for histograms) buckets match, and raises
    otherwise — two subsystems can therefore share a metric by name
    without sharing code.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _get_or_create(self, name: str, factory: Any, kind: str) -> _Family:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {kind}"
                    )
                return existing
            family: _Family = factory()
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> CounterFamily:
        names = tuple(labelnames)
        family = self._get_or_create(
            name, lambda: CounterFamily(name, help, names), "counter"
        )
        self._check_labels(family, names)
        assert isinstance(family, CounterFamily)
        return family

    def gauge(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> GaugeFamily:
        names = tuple(labelnames)
        family = self._get_or_create(
            name, lambda: GaugeFamily(name, help, names), "gauge"
        )
        self._check_labels(family, names)
        assert isinstance(family, GaugeFamily)
        return family

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> HistogramFamily:
        names = tuple(labelnames)
        family = self._get_or_create(
            name,
            lambda: HistogramFamily(name, help, names, buckets),
            "histogram",
        )
        self._check_labels(family, names)
        assert isinstance(family, HistogramFamily)
        if family.buckets != tuple(float(b) for b in buckets):
            raise ValueError(
                f"metric {name!r} already registered with buckets "
                f"{family.buckets}"
            )
        return family

    @staticmethod
    def _check_labels(family: _Family, labelnames: tuple[str, ...]) -> None:
        if family.labelnames != labelnames:
            raise ValueError(
                f"metric {family.name!r} already registered with labels "
                f"{family.labelnames}, not {labelnames}"
            )

    def families(self) -> list[_Family]:
        with self._lock:
            return sorted(self._families.values(), key=lambda f: f.name)

    def snapshot(self) -> dict:
        """JSON-able view of every family (exporter input; RPC-safe)."""
        return {"metrics": [f.snapshot() for f in self.families()]}
