"""Unit tests for the benchmark harness and table formatting."""

import pytest

from repro.bench import (
    SweepResultSet,
    format_series,
    format_table,
    measure_checkpoint_overhead,
    run_variant_sweep,
    speedup_table,
    strong_scaling_curve,
)
from repro.core import PAPER_VARIANTS, LouvainConfig, Variant
from repro.runtime import CORI_HASWELL


class TestFormatTable:
    def test_alignment_and_content(self):
        text = format_table(
            ["name", "Q"], [["channel", 0.943], ["orkut", 0.4721]],
            title="Table II",
        )
        lines = text.splitlines()
        assert lines[0] == "Table II"
        assert "channel" in text
        assert "0.943" in text
        # Header separator present.
        assert set(lines[2]) <= {"-", "+"}

    def test_row_length_checked(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_float_rendering(self):
        text = format_table(["x"], [[1e-9], [12345.6], [0.25]])
        assert "1.000e-09" in text
        assert "1.235e+04" in text
        assert "0.25" in text


class TestFormatSeries:
    def test_points_listed(self):
        text = format_series("Baseline", [(16, 10.0), (32, 6.0)], unit="s")
        assert "Baseline" in text
        assert "[s]" in text
        assert "16" in text and "10" in text


class TestSweepResultSet:
    def _sweep(self, planted):
        configs = [
            LouvainConfig(),
            LouvainConfig(variant=Variant.ET, alpha=0.75),
        ]
        return run_variant_sweep(
            planted, "planted", configs, [1, 2], machine=CORI_HASWELL
        )

    def test_all_cells_present(self, planted_blocks):
        s = self._sweep(planted_blocks)
        assert set(s.labels()) == {"Baseline", "ET(0.75)"}
        assert s.process_counts("Baseline") == [1, 2]

    def test_elapsed_series_positive(self, planted_blocks):
        s = self._sweep(planted_blocks)
        for _, t in s.elapsed_series("Baseline"):
            assert t > 0

    def test_best_speedup(self, planted_blocks):
        s = self._sweep(planted_blocks)
        speedup, label, p = s.best_speedup_over_baseline()
        assert speedup >= 1.0 or label == "Baseline"
        assert label in s.labels()
        assert p in (1, 2)

    def test_best_speedup_requires_baseline(self):
        s = SweepResultSet(graph_name="g")
        with pytest.raises(KeyError):
            s.best_speedup_over_baseline()

    def test_modularity_spread(self, planted_blocks):
        s = self._sweep(planted_blocks)
        lo, hi = s.modularity_spread()
        assert 0.7 < lo <= hi < 1.0


class TestScalingHelpers:
    def test_strong_scaling_curve(self, planted_blocks):
        curve = strong_scaling_curve(
            planted_blocks, LouvainConfig(), [1, 2, 4], machine=CORI_HASWELL
        )
        assert [p for p, _ in curve] == [1, 2, 4]
        assert all(t > 0 for _, t in curve)

    def test_speedup_table(self):
        rows = speedup_table([(1, 10.0), (2, 5.0), (4, 2.5)])
        assert rows[0][2] == pytest.approx(1.0)
        assert rows[1][2] == pytest.approx(2.0)
        assert rows[2][2] == pytest.approx(4.0)

    def test_speedup_table_empty(self):
        assert speedup_table([]) == []

    def test_paper_variants_all_runnable(self, two_cliques):
        s = run_variant_sweep(
            two_cliques, "cliques", list(PAPER_VARIANTS), [2],
            machine=CORI_HASWELL,
        )
        assert len(s.labels()) == len(PAPER_VARIANTS)


class TestCheckpointOverhead:
    def test_reports_both_clocks_and_bytes(self, planted_blocks, tmp_path):
        from repro.resilience import scan_checkpoints
        from tests.conftest import disk_checkpoints

        d = str(tmp_path / "ck")
        cfg = LouvainConfig()
        o = measure_checkpoint_overhead(
            planted_blocks, 2, cfg,
            disk_checkpoints(d, cfg, every_iterations=1),
        )
        assert o.num_checkpoints > 2
        assert o.checkpoint_seconds > 0.0
        assert 0.0 < o.overhead_fraction < 1.0
        assert o.checkpointed.elapsed > o.plain.elapsed
        assert o.plain_wall_s > 0.0 and o.checkpointed_wall_s > 0.0
        # Every shard written counts, the pruned checkpoints' too.
        on_disk = sum(
            s.nbytes for _, m, _ in scan_checkpoints(d) for s in m.shards
        )
        assert o.bytes_written > on_disk > 0
        text = o.format()
        assert f"{o.bytes_written} bytes" in text
        assert "s modelled, " in text and text.endswith("s wall")
