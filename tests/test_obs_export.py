"""Exporter tests: Prometheus text exposition, fleet merge, HTTP endpoint."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import (
    EventLog,
    MetricsRegistry,
    MetricsServer,
    PeriodicExporter,
    merge_snapshots,
    read_events,
    scoped,
    to_prometheus,
    trace_to_registry,
    write_json,
    write_prometheus,
)
from repro.runtime import FREE, run_spmd


def _sample_registry():
    reg = MetricsRegistry()
    c = reg.counter(
        "repro_jobs_total", "Jobs by outcome.", labelnames=("outcome",)
    )
    c.labels(outcome="done").inc(3)
    c.labels(outcome="failed").inc()
    reg.gauge("repro_queue_depth", "Pending jobs.").set(2)
    h = reg.histogram("repro_run_seconds", "Run latency.", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    h.observe(5.0)
    return reg


GOLDEN = """\
# HELP repro_jobs_total Jobs by outcome.
# TYPE repro_jobs_total counter
repro_jobs_total{outcome="done"} 3
repro_jobs_total{outcome="failed"} 1
# HELP repro_queue_depth Pending jobs.
# TYPE repro_queue_depth gauge
repro_queue_depth 2
# HELP repro_run_seconds Run latency.
# TYPE repro_run_seconds histogram
repro_run_seconds_bucket{le="0.1"} 1
repro_run_seconds_bucket{le="1.0"} 2
repro_run_seconds_bucket{le="+inf"} 3
repro_run_seconds_sum 5.55
repro_run_seconds_count 3
"""


class TestPrometheusFormat:
    def test_golden_exposition(self):
        # Byte-for-byte 0.0.4 text format: HELP/TYPE headers, label
        # rendering, cumulative le buckets, _sum/_count.
        assert to_prometheus(_sample_registry()) == GOLDEN

    def test_snapshot_dict_renders_identically(self):
        reg = _sample_registry()
        assert to_prometheus(reg.snapshot()) == to_prometheus(reg)

    def test_extra_labels_on_every_sample(self):
        text = to_prometheus(_sample_registry(), extra_labels={"shard": "0"})
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            assert 'shard="0"' in line

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        fam = reg.counter("x_total", "x", labelnames=("tag",))
        fam.labels(tag='a"b\\c\nd').inc()
        text = to_prometheus(reg)
        assert 'tag="a\\"b\\\\c\\nd"' in text

    def test_help_newline_escaped(self):
        reg = MetricsRegistry()
        reg.counter("y_total", "line one\nline two").inc()
        line = to_prometheus(reg).splitlines()[0]
        assert line == "# HELP y_total line one\\nline two"


class TestFileExporters:
    def test_write_prometheus_atomic(self, tmp_path):
        path = tmp_path / "metrics.prom"
        write_prometheus(path, _sample_registry())
        assert path.read_text() == GOLDEN
        assert not list(tmp_path.glob("*.tmp*"))

    def test_write_json_round_trips(self, tmp_path):
        path = tmp_path / "metrics.json"
        reg = _sample_registry()
        write_json(path, reg)
        assert json.loads(path.read_text()) == reg.snapshot()

    def test_periodic_exporter_final_write(self, tmp_path):
        path = tmp_path / "metrics.prom"
        reg = _sample_registry()
        with PeriodicExporter(reg, prometheus_path=path, interval=60.0):
            pass  # close() must flush even if no tick elapsed
        assert path.read_text() == GOLDEN

    def test_periodic_exporter_needs_an_output(self):
        with pytest.raises(ValueError):
            PeriodicExporter(_sample_registry())


class TestMergeSnapshots:
    def test_shard_label_added_and_families_merged(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n_total", "n").inc(1)
        b.counter("n_total", "n").inc(2)
        merged = merge_snapshots(
            {"0": a.snapshot(), "1": b.snapshot()}, labelname="shard"
        )
        (family,) = merged["metrics"]
        assert family["labelnames"] == ["shard"]
        values = {
            s["labels"]["shard"]: s["value"] for s in family["samples"]
        }
        assert values == {"0": 1.0, "1": 2.0}

    def test_merged_snapshot_is_valid_exporter_input(self):
        a = MetricsRegistry()
        a.counter("n_total", "n").inc()
        merged = merge_snapshots({"s0": a.snapshot()})
        assert 'n_total{shard="s0"} 1' in to_prometheus(merged)


class TestTraceToRegistry:
    def test_spmd_trace_becomes_labeled_counters(self):
        def prog(comm):
            return comm.allreduce(comm.rank)

        r = run_spmd(3, prog, machine=FREE)
        text = to_prometheus(trace_to_registry(r.trace))
        assert 'repro_spmd_collectives_total{op="allreduce"} 3' in text
        assert "repro_spmd_ranks 3" in text
        assert 'repro_spmd_seconds_total{category=' in text


class TestMetricsServer:
    def test_serves_text_and_json(self):
        reg = _sample_registry()
        with MetricsServer(reg, port=0) as server:
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(f"{base}/metrics") as resp:
                assert resp.headers["Content-Type"].startswith("text/plain")
                assert resp.read().decode() == GOLDEN
            with urllib.request.urlopen(f"{base}/metrics.json") as resp:
                assert json.load(resp) == reg.snapshot()

    def test_failed_collection_is_counted_and_logged(self, tmp_path):
        # The endpoint stays up and answers 500, and the failure is not
        # swallowed: it counts, and the sink ambient where the server was
        # built gets one event naming the path.
        def collect():
            raise RuntimeError("registry unavailable")

        log_path = tmp_path / "events.jsonl"
        with EventLog(log_path, origin="metrics") as log:
            with scoped(log, shard=3), MetricsServer(collect, port=0) as server:
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(
                        f"http://127.0.0.1:{server.port}/metrics.json?x=1"
                    )
                assert err.value.code == 500
                assert server.collect_failures == 1
        (event,) = read_events(log_path, event="metrics_collect_failed")
        assert event["path"] == "/metrics.json"
        assert event["shard"] == 3
        assert "registry unavailable" in event["error"]

    def test_unknown_path_404(self):
        with MetricsServer(_sample_registry(), port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/nope"
                )
            assert err.value.code == 404
