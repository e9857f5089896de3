"""Exporters: Prometheus text exposition, JSON snapshots, HTTP endpoint.

Every exporter accepts either a live :class:`MetricsRegistry` or the
plain dict its :meth:`~MetricsRegistry.snapshot` produces — the latter
is what crosses the shard-process RPC boundary, so a serving tier can
render one fleet-wide exposition from snapshots it never owned live
(:func:`merge_snapshots`).
"""

from __future__ import annotations

import contextvars
import http.server
import json
import os
import threading
from typing import Any, Callable, Mapping

from ..runtime.tracing import TraceReport
from .events import emit_current
from .registry import MetricsRegistry

__all__ = [
    "MetricsServer",
    "PeriodicExporter",
    "merge_snapshots",
    "to_prometheus",
    "trace_to_registry",
    "write_json",
    "write_prometheus",
]

Source = MetricsRegistry | Mapping[str, Any] | Callable[[], Any]


def _resolve(source: Source) -> Mapping[str, Any]:
    if callable(source) and not isinstance(source, (MetricsRegistry, Mapping)):
        source = source()
    if isinstance(source, MetricsRegistry):
        return source.snapshot()
    if isinstance(source, Mapping):
        return source
    raise TypeError(f"cannot export metrics from {type(source).__name__}")


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _fmt(value: float) -> str:
    f = float(value)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _labelstr(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape(str(v))}"' for k, v in labels.items()
    )
    return "{" + inner + "}"


def to_prometheus(
    source: Source, *, extra_labels: Mapping[str, str] | None = None
) -> str:
    """Render Prometheus text exposition (version 0.0.4).

    ``extra_labels`` are appended to every sample — the serving tier
    uses this to tag each shard's metrics with ``shard="..."``.
    """
    snap = _resolve(source)
    extra = dict(extra_labels or {})
    lines: list[str] = []
    for metric in snap.get("metrics", []):
        name = metric["name"]
        if metric.get("help"):
            lines.append(f"# HELP {name} {_escape(metric['help'])}")
        lines.append(f"# TYPE {name} {metric['kind']}")
        for sample in metric.get("samples", []):
            labels = dict(sample.get("labels", {})) | extra
            if metric["kind"] == "histogram":
                cumulative = 0
                bounds = [str(b) for b in metric["buckets"]] + ["+inf"]
                for bound, count in zip(bounds, sample["counts"]):
                    cumulative += count
                    lines.append(
                        f"{name}_bucket"
                        f"{_labelstr(labels | {'le': bound})} {cumulative}"
                    )
                lines.append(
                    f"{name}_sum{_labelstr(labels)} {_fmt(sample['sum'])}"
                )
                lines.append(
                    f"{name}_count{_labelstr(labels)} {sample['count']}"
                )
            else:
                lines.append(
                    f"{name}{_labelstr(labels)} {_fmt(sample['value'])}"
                )
    return "\n".join(lines) + "\n"


def _atomic_write(path: str | os.PathLike, text: str) -> None:
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_prometheus(
    path: str | os.PathLike,
    source: Source,
    *,
    extra_labels: Mapping[str, str] | None = None,
) -> None:
    """Atomically write the text exposition to ``path``."""
    _atomic_write(path, to_prometheus(source, extra_labels=extra_labels))


def write_json(path: str | os.PathLike, source: Source) -> None:
    """Atomically write the JSON snapshot to ``path``."""
    _atomic_write(
        path, json.dumps(_resolve(source), indent=2, sort_keys=True) + "\n"
    )


def merge_snapshots(
    snapshots: Mapping[str, Mapping[str, Any]], labelname: str = "shard"
) -> dict:
    """Merge per-source registry snapshots into one fleet snapshot.

    Each source's samples gain a ``labelname="<source key>"`` label;
    same-named families merge (first source's metadata wins).  The
    result is itself a valid exporter input.
    """
    merged: dict[str, dict] = {}
    for key, snap in snapshots.items():
        for metric in snap.get("metrics", []):
            out = merged.get(metric["name"])
            if out is None:
                out = merged[metric["name"]] = {
                    k: v for k, v in metric.items() if k != "samples"
                }
                out["labelnames"] = list(metric.get("labelnames", [])) + [
                    labelname
                ]
                out["samples"] = []
            for sample in metric.get("samples", []):
                tagged = dict(sample)
                tagged["labels"] = dict(sample.get("labels", {})) | {
                    labelname: str(key)
                }
                out["samples"].append(tagged)
    return {"metrics": [merged[name] for name in sorted(merged)]}


def trace_to_registry(
    report: TraceReport,
    registry: MetricsRegistry | None = None,
    *,
    prefix: str = "repro_spmd",
) -> MetricsRegistry:
    """Fold one SPMD :class:`TraceReport` into registry counters.

    This is the paper's §V-A per-category breakdown as standard metric
    families: modelled seconds per category, collective invocations per
    op, and message/byte totals per direction.
    """
    registry = registry or MetricsRegistry()
    seconds = registry.counter(
        f"{prefix}_seconds_total",
        "Modelled virtual seconds by trace category, summed over ranks.",
        labelnames=("category",),
    )
    for category, secs in sorted(report.seconds_by_category().items()):
        seconds.labels(category=category).inc(secs)
    collectives = registry.counter(
        f"{prefix}_collectives_total",
        "Collective invocations by operation, summed over ranks.",
        labelnames=("op",),
    )
    for op, count in sorted(report.collective_counts().items()):
        collectives.labels(op=op).inc(count)
    messages = registry.counter(
        f"{prefix}_messages_total",
        "Point-to-point messages by direction.",
        labelnames=("direction",),
    )
    nbytes = registry.counter(
        f"{prefix}_bytes_total",
        "Point-to-point payload bytes by direction.",
        labelnames=("direction",),
    )
    messages.labels(direction="sent").inc(report.total_messages)
    nbytes.labels(direction="sent").inc(report.total_bytes)
    messages.labels(direction="received").inc(
        sum(t.messages_received for t in report.ranks)
    )
    nbytes.labels(direction="received").inc(
        sum(t.bytes_received for t in report.ranks)
    )
    registry.gauge(
        f"{prefix}_ranks", "Rank count of the most recent trace."
    ).set(report.size)
    return registry


class PeriodicExporter:
    """Background thread writing metric files on a fixed cadence.

    ``collect`` is called each tick (and once more on :meth:`close`)
    and may return a registry or a snapshot dict.
    """

    def __init__(
        self,
        collect: Callable[[], Any],
        *,
        prometheus_path: str | os.PathLike | None = None,
        json_path: str | os.PathLike | None = None,
        interval: float = 5.0,
        extra_labels: Mapping[str, str] | None = None,
    ) -> None:
        if prometheus_path is None and json_path is None:
            raise ValueError("need at least one output path")
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._collect = collect
        self._prometheus_path = prometheus_path
        self._json_path = json_path
        self._interval = interval
        self._extra_labels = extra_labels
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="obs-exporter", daemon=True
        )
        self._thread.start()

    def _write_once(self) -> None:
        snap = _resolve(self._collect)
        if self._prometheus_path is not None:
            write_prometheus(
                self._prometheus_path, snap, extra_labels=self._extra_labels
            )
        if self._json_path is not None:
            write_json(self._json_path, snap)

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            self._write_once()

    def close(self) -> None:
        """Stop the thread and write one final consistent snapshot."""
        self._stop.set()
        self._thread.join()
        self._write_once()

    def __enter__(self) -> "PeriodicExporter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class MetricsServer:
    """Minimal stdlib HTTP endpoint: ``/metrics`` (Prometheus text) and
    ``/metrics.json`` (JSON snapshot), for ``repro-louvain serve
    --metrics-port``.

    A collection that raises is answered with HTTP 500 and surfaced: it
    counts in :attr:`collect_failures` and emits a
    ``metrics_collect_failed`` event, naming the path, to the event sink
    that was ambient where the server was built
    (:func:`~repro.obs.events.emit_current`)."""

    def __init__(
        self,
        collect: Callable[[], Any],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        collect_fn = collect
        #: Requests whose collection raised.
        self.collect_failures = 0
        lock = threading.Lock()
        # Handlers run on the server's threads: they emit into a copy of
        # the builder's context, where its ambient sink is installed.
        context = contextvars.copy_context()
        server = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib API name)
                path = self.path.split("?")[0]
                try:
                    if path == "/metrics":
                        body = to_prometheus(_resolve(collect_fn))
                        ctype = "text/plain; version=0.0.4; charset=utf-8"
                    elif path == "/metrics.json":
                        body = json.dumps(
                            _resolve(collect_fn), indent=2, sort_keys=True
                        )
                        ctype = "application/json"
                    else:
                        self.send_error(404)
                        return
                except Exception as exc:  # collection failed; report, don't die
                    with lock:
                        server.collect_failures += 1
                    context.copy().run(
                        emit_current, "metrics_collect_failed",
                        path=path, error=repr(exc),
                    )
                    self.send_error(500, repr(exc))
                    return
                data = body.encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, format: str, *args: object) -> None:
                pass  # keep the serving CLI's stdout clean

        self._server = http.server.ThreadingHTTPServer((host, port), Handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="obs-metrics-server",
            daemon=True,
        )
        self._thread.start()

    @property
    def port(self) -> int:
        return int(self._server.server_address[1])

    def close(self) -> None:
        self._server.shutdown()
        self._thread.join()
        self._server.server_close()

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
