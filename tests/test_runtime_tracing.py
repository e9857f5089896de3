"""Unit tests for tracing: counters, category charges, reports."""

import pytest

from repro.runtime.tracing import RankTrace, TraceReport


class TestRankTrace:
    def test_charge_accumulates(self):
        t = RankTrace(rank=0)
        t.charge("compute", 1.0)
        t.charge("compute", 0.5)
        t.charge("allreduce", 2.0)
        assert t.seconds["compute"] == pytest.approx(1.5)
        assert t.total_seconds == pytest.approx(3.5)

    def test_negative_charge_rejected(self):
        t = RankTrace(rank=0)
        with pytest.raises(ValueError):
            t.charge("compute", -0.1)

    def test_message_counters(self):
        t = RankTrace(rank=1)
        t.record_send(100)
        t.record_send(50)
        t.record_recv(100)
        assert t.messages_sent == 2
        assert t.bytes_sent == 150
        assert t.messages_received == 1

    def test_collective_counter(self):
        t = RankTrace(rank=0)
        t.record_collective("allreduce")
        t.record_collective("allreduce")
        t.record_collective("barrier")
        assert t.collectives["allreduce"] == 2


class TestTraceReport:
    def _make(self):
        t0, t1 = RankTrace(rank=0), RankTrace(rank=1)
        t0.charge("compute", 3.0)
        t0.charge("allreduce", 1.0)
        t1.charge("compute", 1.0)
        t1.charge("ghost_comm", 1.0)
        t0.record_send(100)
        t1.record_send(200)
        t0.record_collective("allreduce")
        return TraceReport.merge([t1, t0])

    def test_merge_sorts_by_rank(self):
        rep = self._make()
        assert [t.rank for t in rep.ranks] == [0, 1]

    def test_seconds_by_category(self):
        rep = self._make()
        s = rep.seconds_by_category()
        assert s["compute"] == pytest.approx(4.0)
        assert s["allreduce"] == pytest.approx(1.0)

    def test_fractions_sum_to_one(self):
        rep = self._make()
        assert sum(rep.fraction_by_category().values()) == pytest.approx(1.0)

    def test_fractions_empty_trace(self):
        rep = TraceReport.merge([RankTrace(rank=0)])
        assert rep.fraction_by_category() == {}

    def test_total_messages_and_bytes(self):
        rep = self._make()
        assert rep.total_messages == 2
        assert rep.total_bytes == 300

    def test_format_contains_categories(self):
        text = self._make().format()
        assert "compute" in text
        assert "ghost_comm" in text
        assert "messages=2" in text


class TestCategories:
    def test_checkpoint_category_registered(self):
        from repro.runtime.tracing import CATEGORIES

        assert "checkpoint" in CATEGORIES

    def test_checkpointed_run_report_includes_checkpoint(self, tmp_path):
        from tests.conftest import disk_checkpoints, planted_blocks_graph
        from repro.core import LouvainConfig, run_louvain

        g = planted_blocks_graph(
            blocks=3, per_block=8, p_in=0.8, inter_edges=6, seed=1
        )
        cfg = LouvainConfig(seed=0)
        res = run_louvain(
            g, 2, cfg, checkpoints=disk_checkpoints(tmp_path / "ck", cfg)
        )
        assert res.trace.seconds_by_category().get("checkpoint", 0.0) > 0.0
        assert "checkpoint" in res.trace.format()
