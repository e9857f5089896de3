"""Structured event-log tests: round-trip, ordering, id correlation.

The correlation test is the tentpole scenario: one detection traced
from admission through the SPMD collectives to the cache write, all
records sharing the engine-assigned job id.
"""

import json

import pytest

from repro.obs import EventLog, emit_current, read_events, scoped
from repro.obs.events import EVENT_FORMAT_VERSION


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path, origin="test") as log:
            log.emit("alpha", x=1)
            log.emit("beta", x=2, tag="t")
        events = read_events(path)
        assert [e["event"] for e in events] == ["alpha", "beta"]
        assert events[0]["origin"] == "test"
        assert events[0]["v"] == EVENT_FORMAT_VERSION
        assert events[1]["tag"] == "t"

    def test_lines_are_single_line_json(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("note", text="line one\nline two")
        (line,) = path.read_text().splitlines()
        assert json.loads(line)["text"] == "line one\nline two"

    def test_filtering_by_field(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("job_started", job_id="a")
            log.emit("job_started", job_id="b")
            log.emit("job_finished", job_id="a")
        assert len(read_events(path, job_id="a")) == 2
        assert len(read_events(path, event="job_started", job_id="b")) == 1

    def test_emit_after_close_is_noop(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.emit("one")
        log.close()
        log.emit("two")
        assert len(read_events(path)) == 1

    def test_read_sorted_by_time_then_seq(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            for i in range(20):
                log.emit("tick", i=i)
        events = read_events(path)
        assert [e["i"] for e in events] == list(range(20))


class TestScopedEmission:
    def test_scope_ids_attached(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            with scoped(log, job_id="j1", tenant="acme"):
                emit_current("inner", step=1)
        (event,) = read_events(path)
        assert event["job_id"] == "j1"
        assert event["tenant"] == "acme"
        assert event["step"] == 1

    def test_emit_current_without_scope_is_noop(self):
        emit_current("orphan")  # must not raise

    def test_none_log_scope_is_noop(self):
        with scoped(None, job_id="x"):
            emit_current("dropped")

    @pytest.mark.parametrize("p", [1, 2])
    def test_failed_spmd_run_is_closed_by_a_failure_event(self, tmp_path, p):
        """One rank re-raises natively, several wrap the failure: both
        bracket the run with ``spmd_run_failed``."""
        from repro.runtime import RankFailedError, run_spmd

        def prog(comm):
            if comm.rank == 0:
                raise ValueError("boom")

        path = tmp_path / "events.jsonl"
        with EventLog(path) as log, scoped(log, job_id="j"):
            with pytest.raises(ValueError if p == 1 else RankFailedError):
                run_spmd(p, prog)
        events = read_events(path)
        assert [e["event"] for e in events] == [
            "spmd_run_started", "spmd_run_failed",
        ]
        assert events[1]["failed_ranks"] == [0]


class TestEndToEndCorrelation:
    """Engine + SPMD + cache records correlate on one job id."""

    def test_detection_traced_end_to_end(self, tmp_path):
        from repro.generators import make_graph
        from repro.service import DetectionRequest, Engine, ResultStore

        path = tmp_path / "events.jsonl"
        g = make_graph("soc-friendster", scale="tiny")
        log = EventLog(path, origin="engine")
        store = ResultStore(directory=str(tmp_path / "cache"))
        with Engine(workers=1, store=store, event_log=log) as engine:
            job_id = engine.submit(DetectionRequest(graph=g, nranks=2))
            engine.wait(job_id, timeout=300)
        log.close()

        mine = read_events(path, job_id=job_id)
        kinds = [e["event"] for e in mine]
        # Admission -> run -> SPMD world -> phases -> cache -> done,
        # every record carrying the same job id.
        assert kinds[0] == "job_submitted"
        assert "job_started" in kinds
        assert "spmd_run_started" in kinds
        assert "spmd_run_finished" in kinds
        assert "spmd_phase" in kinds
        assert "cache_write" in kinds
        assert kinds[-1] == "job_finished"
        run = next(e for e in mine if e["event"] == "spmd_run_started")
        assert run["size"] == 2
        done = mine[-1]
        assert done["state"] == "done"
        assert done["cache_hit"] is False

    def test_cache_hit_recorded(self, tmp_path):
        from repro.generators import make_graph
        from repro.service import DetectionRequest, Engine, ResultStore

        path = tmp_path / "events.jsonl"
        g = make_graph("soc-friendster", scale="tiny")
        with EventLog(path) as log:
            store = ResultStore(directory=str(tmp_path / "cache"))
            with Engine(workers=1, store=store, event_log=log) as engine:
                first = engine.submit(DetectionRequest(graph=g, nranks=2))
                engine.wait(first, timeout=300)
                second = engine.submit(DetectionRequest(graph=g, nranks=2))
                engine.wait(second, timeout=300)
        hits = read_events(path, event="cache_hit")
        assert len(hits) == 1
        assert hits[0]["job_id"] == second

    @pytest.mark.slow
    def test_shard_records_tagged_by_origin(self, tmp_path):
        from repro.generators import make_graph
        from repro.serving import ServingTier

        path = tmp_path / "events.jsonl"
        g = make_graph("soc-friendster", scale="tiny")
        tier = ServingTier(
            shards=2, workers_per_shard=1, event_log_path=str(path)
        )
        try:
            tier.create_tenant("acme")
            tier.load_graph("acme", g)
            handle = tier.detect("acme")
            tier.wait(handle)
        finally:
            tier.shutdown()
        origins = {e["origin"] for e in read_events(path)}
        assert "serving" in origins
        assert any(o.startswith("shard-") for o in origins)
        # The tier's submit record and the shard's engine records agree
        # on the job id.
        tier_submits = read_events(path, event="tier_submit")
        assert tier_submits
        job_id = tier_submits[0]["job_id"]
        shard_side = [
            e
            for e in read_events(path, job_id=job_id)
            if e["origin"].startswith("shard-")
        ]
        assert any(e["event"] == "job_finished" for e in shard_side)
