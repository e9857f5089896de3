"""End-to-end tests for the multi-process serving tier.

These spawn real shard processes, so they share one module-scoped tier
where possible and keep graphs tiny.  The destructive drills (shard
death, drain cancellation) build their own fleets.
"""

import json
import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro import make_graph
from repro.service import (
    AdmissionError,
    DetectionRequest,
    Engine,
    execute_request,
)
from repro.serving import (
    ChurnPolicy,
    NoLiveShards,
    ServingTier,
    ShardConfig,
    ShardDeadError,
    ShardProcess,
    ShardRouter,
    TenantQuota,
)
from repro.serving.shard import _shard_main

WAIT = 180.0


@pytest.fixture(scope="module")
def graphs():
    return {
        "channel": make_graph("channel", scale="tiny", seed=0),
        "orkut": make_graph("com-orkut", scale="tiny", seed=1),
        "friendster": make_graph("soc-friendster", scale="tiny", seed=2),
    }


@pytest.fixture(scope="module")
def tier(graphs):
    t = ServingTier(shards=2, workers_per_shard=2)
    t.create_tenant("alpha", nranks=2, churn=ChurnPolicy(absolute=3))
    t.create_tenant("beta", nranks=2)
    t.create_tenant("gamma", nranks=2)
    t.load_graph("alpha", graphs["channel"])
    t.load_graph("beta", graphs["orkut"])
    t.load_graph("gamma", graphs["friendster"])
    yield t
    t.shutdown()


class TestShardedDetection:
    def test_bit_identical_to_single_process(self, tier, graphs):
        """Unchanged tenants get bit-identical results from the 2-shard
        tier vs an inline single-process batch detection."""
        handles = {name: tier.detect(name) for name in ("beta", "gamma")}
        for name, handle in handles.items():
            response = tier.wait(handle, timeout=WAIT)
            assert response.state.value == "done"
            reference = execute_request(
                tier.registry.get(name).build_request(incremental=False)
            )
            np.testing.assert_array_equal(
                response.result.assignment, reference.assignment
            )
            assert response.result.modularity == reference.modularity

    def test_routing_is_sticky(self, tier):
        """Repeated submissions of one tenant's graph land on the same
        shard (fingerprint routing)."""
        first = tier.detect("beta")
        second = tier.detect("beta")
        assert first.shard_id == second.shard_id
        tier.wait(first, timeout=WAIT)
        tier.wait(second, timeout=WAIT)

    def test_streaming_triggers_incremental_exactly(self, tier):
        """Net churn of 3 (the policy's absolute threshold) fires the
        re-detection; 2 does not."""
        base = tier.detect("alpha")
        tier.wait(base, timeout=WAIT)
        assert tier.add_edges("alpha", [0, 1], [400, 401]) is None
        # Re-adding a pending edge changes raw churn, not net churn.
        assert tier.add_edges("alpha", [0], [400]) is None
        handle = tier.add_edges("alpha", [2], [402])
        assert handle is not None
        assert handle.kind == "churn"
        assert handle.net_churn == 3
        response = tier.wait(handle, timeout=WAIT)
        assert response.state.value == "done"
        assert response.request.mode == "incremental"
        # The window was consumed.
        assert tier.registry.get("alpha").accumulator.net_size == 0

    def test_flush_below_threshold(self, tier):
        assert tier.flush("beta") is None  # empty window
        assert tier.add_edges("beta", [0], [50]) is None
        handle = tier.flush("beta")
        assert handle is not None and handle.net_churn == 1
        response = tier.wait(handle, timeout=WAIT)
        assert response.state.value == "done"

    def test_zero_quota_tenant_rejected(self, tier, graphs):
        tier.create_tenant(
            "banned", quota=TenantQuota(max_queued=0), nranks=2
        )
        tier.load_graph("banned", graphs["channel"])
        with pytest.raises(AdmissionError) as exc:
            tier.detect("banned")
        assert exc.value.reason == "tenant-queue-full"

    def test_metrics_shape(self, tier):
        m = tier.metrics()
        assert set(m) == {"shards", "tenants", "serving_seconds"}
        assert m["tenants"]["alpha"]["counters"]["jobs_submitted"] >= 1
        assert any(s.get("alive") for s in m["shards"].values())


@pytest.mark.slow
class TestShardDeath:
    def test_reroute_after_kill(self, graphs):
        tier = ServingTier(shards=2, workers_per_shard=1)
        try:
            tier.create_tenant("t", nranks=2)
            tier.load_graph("t", graphs["channel"])
            first = tier.detect("t")
            tier.wait(first, timeout=WAIT)
            tier.kill_shard(first.shard_id)
            health = tier.health_check()
            assert health[first.shard_id] is False
            survivor = next(sid for sid, ok in health.items() if ok)
            # Resubmission re-homes onto the survivor and still works.
            second = tier.detect("t")
            assert second.shard_id == survivor
            response = tier.wait(second, timeout=WAIT)
            assert response.state.value == "done"
        finally:
            tier.shutdown()

    def test_all_dead_raises(self, graphs):
        tier = ServingTier(shards=1, workers_per_shard=1)
        try:
            tier.create_tenant("t", nranks=2)
            tier.load_graph("t", graphs["channel"])
            tier.kill_shard(0)
            with pytest.raises(NoLiveShards):
                tier.detect("t")
        finally:
            tier.shutdown()


@pytest.mark.slow
class TestDrain:
    def test_drain_cancels_queued_jobs(self, graphs):
        """A saturated shard drained with ``cancel_pending=True`` ends
        every job terminal: the running one done, queued ones
        cancelled."""
        tier = ServingTier(shards=1, workers_per_shard=1)
        try:
            tier.create_tenant("t", nranks=2, quota=TenantQuota(max_queued=8))
            tier.load_graph("t", graphs["orkut"])
            for _ in range(5):
                tier.detect("t")
            report = tier.drain(cancel_pending=True)
            states = [state for _, state in report[0]]
            assert all(s in ("done", "cancelled") for s in states)
            assert "cancelled" in states
        finally:
            tier.shutdown()

    def test_drain_without_cancel_completes_everything(self, graphs):
        tier = ServingTier(shards=1, workers_per_shard=1)
        try:
            tier.create_tenant("t", nranks=2)
            tier.load_graph("t", graphs["channel"])
            handles = [tier.detect("t") for _ in range(3)]
            report = tier.drain(cancel_pending=False)
            assert [state for _, state in report[0]] == ["done"] * 3
            for handle in handles:
                assert tier.poll(handle) == ("done", True)
        finally:
            tier.shutdown()

    def test_drain_leaves_out_collected_jobs(self, graphs):
        """``wait`` fetches the response and the shard forgets the job;
        the drain report lists only what nobody collected."""
        tier = ServingTier(shards=1, workers_per_shard=1)
        try:
            tier.create_tenant("t", nranks=2)
            tier.load_graph("t", graphs["channel"])
            collected = tier.detect("t")
            assert tier.wait(collected, timeout=WAIT).state.value == "done"
            left = tier.detect("t", incremental=False)
            report = tier.drain(cancel_pending=False)
            assert [job for job, _ in report[0]] == [left.job_id]
        finally:
            tier.shutdown()

    def test_fetch_after_terminal_poll_waits_for_the_finish(
        self, graphs, monkeypatch
    ):
        """``poll`` sees a terminal state while ``Engine._finish`` is
        still recording the job; a fetch in that window collects it."""
        emit = Engine._emit_run_events

        def slow_emit(self, job, result):
            time.sleep(0.5)
            emit(self, job, result)

        monkeypatch.setattr(Engine, "_emit_run_events", slow_emit)
        # The shard's RPC loop on a thread of this process, so the
        # patch applies; the pipe is the one a ShardProcess would use.
        parent, child = multiprocessing.Pipe()
        loop = threading.Thread(
            target=_shard_main, args=(child, ShardConfig(shard_id=0, workers=1))
        )
        loop.start()

        def call(cmd, payload=None):
            parent.send((cmd, payload))
            status, value = parent.recv()
            assert status == "ok", value
            return value

        try:
            job = call(
                "submit", DetectionRequest(graph=graphs["channel"], nranks=2)
            )
            deadline = time.monotonic() + WAIT
            while not call("poll", job)[1]:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert call("fetch", job).state.value == "done"
            assert call("drain", False) == []
        finally:
            call("shutdown", False)
            loop.join()

    def test_failed_rpc_is_counted_and_logged(self, tmp_path):
        """A command that raises keeps its error reply, and the shard's
        engine counts it (``rpc_errors``) and logs one ``rpc_error``
        event naming the command."""
        events = tmp_path / "events.jsonl"
        reply = repr(KeyError("unknown job id 'no-such-job'"))
        parent, child = multiprocessing.Pipe()
        loop = threading.Thread(target=_shard_main, args=(
            child,
            ShardConfig(shard_id=0, workers=1, event_log_path=str(events)),
        ))
        loop.start()
        try:
            parent.send(("poll", "no-such-job"))
            assert parent.recv() == ("error", reply)
            parent.send(("metrics", None))
            status, metrics = parent.recv()
            assert status == "ok"
            assert metrics["counters"]["rpc_errors"] == 1
        finally:
            parent.send(("shutdown", False))
            assert parent.recv() == ("ok", None)
            loop.join()
        records = map(json.loads, events.read_text().splitlines())
        logged = [r for r in records if r["event"] == "rpc_error"]
        assert len(logged) == 1
        assert logged[0]["command"] == "poll"
        assert logged[0]["error"] == reply


@pytest.mark.slow
class TestShardProcessUnit:
    def test_ping_and_dead_detection(self):
        shard = ShardProcess(ShardConfig(shard_id=0, workers=1))
        assert shard.ping()
        shard.kill()
        assert not shard.ping()
        with pytest.raises(ShardDeadError):
            shard.call("ping")

    def test_router_validation(self):
        with pytest.raises(ValueError):
            ShardRouter([])
        with pytest.raises(ValueError):
            ShardRouter(
                [ShardConfig(shard_id=0), ShardConfig(shard_id=0)]
            )

    def test_rendezvous_moves_only_dead_keys(self):
        tier = ServingTier(shards=3, workers_per_shard=1)
        try:
            keys = [f"key-{i}" for i in range(30)]
            before = tier.router.placement(keys)
            victim = tier.router.shards[1]
            victim.kill()
            tier.health_check()
            after = tier.router.placement(keys)
            for key in keys:
                if before[key] != 1:
                    assert after[key] == before[key]
                else:
                    assert after[key] != 1
        finally:
            tier.shutdown()
