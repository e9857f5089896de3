"""Integration tests for the async detection engine.

Covers the tentpole behaviours end-to-end on tiny graphs: concurrent
job completion, cache hits with bit-identical results, backpressure,
cancellation, timeout, and retry-with-resume after an injected rank
failure.
"""

import numpy as np
import pytest

from repro.core import LouvainConfig
from repro.core.distlouvain import run_louvain
from repro.generators import make_graph
from repro.resilience import FaultPlan
from repro.service import (
    AdmissionError,
    DetectionRequest,
    Engine,
    JobState,
    ResultStore,
    detect,
)


@pytest.fixture(scope="module")
def tiny():
    return make_graph("soc-friendster", scale="tiny")


class TestInlineDetect:
    def test_detect_matches_core(self, tiny):
        cfg = LouvainConfig(seed=7)
        response = detect(DetectionRequest(graph=tiny, nranks=2, config=cfg))
        assert response.state is JobState.DONE
        reference = run_louvain(tiny, 2, cfg)
        assert np.array_equal(response.result.assignment, reference.assignment)
        assert response.result.modularity == reference.modularity

    def test_detect_failure_raises(self, tiny):
        request = DetectionRequest(
            graph=tiny,
            nranks=2,
            config=LouvainConfig(),
            fault_plan=FaultPlan(kills={0: 5}),
            max_retries=0,
        )
        with pytest.raises(Exception):
            detect(request)


class TestConcurrentJobs:
    def test_all_jobs_complete(self, tiny):
        with Engine(workers=3) as engine:
            ids = [
                engine.submit(
                    DetectionRequest(
                        graph=tiny, nranks=2, config=LouvainConfig(seed=s)
                    )
                )
                for s in range(8)
            ]
            responses = engine.wait_all(ids, timeout=300)
        assert all(r.state is JobState.DONE for r in responses)
        assert engine.metrics.snapshot()["counters"]["completed"] == 8

    def test_responses_in_requested_order(self, tiny):
        with Engine(workers=2) as engine:
            ids = [
                engine.submit(
                    DetectionRequest(graph=tiny, nranks=2, tag=f"t{i}")
                )
                for i in range(4)
            ]
            responses = engine.wait_all(list(reversed(ids)), timeout=300)
        assert [r.job_id for r in responses] == list(reversed(ids))


class TestCache:
    def test_repeat_is_hit_and_bit_identical(self, tiny):
        request = DetectionRequest(graph=tiny, nranks=2, config=LouvainConfig())
        with Engine(workers=2, store=ResultStore(capacity=8)) as engine:
            first = engine.wait(engine.submit(request), timeout=300)
            second = engine.wait(engine.submit(request), timeout=300)
            counters = engine.metrics.snapshot()["counters"]
        assert not first.cache_hit
        assert second.cache_hit
        assert counters["cache_hits"] == 1
        assert np.array_equal(
            first.result.assignment, second.result.assignment
        )
        assert first.result.modularity == second.result.modularity
        assert first.result.elapsed == second.result.elapsed

    def test_different_config_is_miss(self, tiny):
        with Engine(workers=1, store=ResultStore(capacity=8)) as engine:
            engine.wait(
                engine.submit(
                    DetectionRequest(
                        graph=tiny, nranks=2, config=LouvainConfig(seed=0)
                    )
                ),
                timeout=300,
            )
            second = engine.wait(
                engine.submit(
                    DetectionRequest(
                        graph=tiny, nranks=2, config=LouvainConfig(seed=1)
                    )
                ),
                timeout=300,
            )
        assert not second.cache_hit

    def test_uncacheable_requests_bypass_store(self, tiny):
        request = DetectionRequest(
            graph=tiny, nranks=2, config=LouvainConfig(), use_cache=False
        )
        with Engine(workers=1, store=ResultStore(capacity=8)) as engine:
            engine.wait(engine.submit(request), timeout=300)
            second = engine.wait(engine.submit(request), timeout=300)
        assert not second.cache_hit


class TestBackpressure:
    def test_queue_full_rejects_with_reason(self, tiny):
        # One slow-ish job occupies the single worker; one fits in the
        # queue; the third must be rejected, not silently dropped.
        with Engine(workers=1, queue_depth=1) as engine:
            req = DetectionRequest(graph=tiny, nranks=2)
            first = engine.submit(req)
            accepted = 1
            rejected = 0
            for _ in range(8):
                try:
                    engine.submit(req)
                    accepted += 1
                except AdmissionError as exc:
                    assert exc.reason == "queue-full"
                    rejected += 1
            assert rejected >= 1
            engine.wait(first, timeout=300)
            counters = engine.metrics.snapshot()["counters"]
            assert counters["rejected"] == rejected
            assert counters["rejected_queue-full"] == rejected


class TestCancellation:
    def test_cancel_pending_job(self, tiny):
        with Engine(workers=1, queue_depth=8) as engine:
            req = DetectionRequest(graph=tiny, nranks=2)
            blocker = engine.submit(req)
            victim = engine.submit(req)
            assert engine.cancel(victim)
            response = engine.wait(victim, timeout=300)
            assert response.state is JobState.CANCELLED
            assert response.result is None
            # The blocker is unaffected.
            assert engine.wait(blocker, timeout=300).state is JobState.DONE
        assert engine.metrics.snapshot()["counters"]["cancelled"] == 1

    def test_cancel_done_job_is_false(self, tiny):
        with Engine(workers=1) as engine:
            job = engine.submit(DetectionRequest(graph=tiny, nranks=2))
            engine.wait(job, timeout=300)
            assert not engine.cancel(job)


class TestRetryWithResume:
    def test_fault_retried_and_resumed(self, tiny, tmp_path, monkeypatch):
        from repro.resilience import latest_valid_manifest

        # What the retry will restore, looked up when it decides to.
        resumed_from = []
        can_resume = Engine._can_resume

        def spy(self, job):
            resumed_from.append(
                latest_valid_manifest(job.checkpoint_dir, expect_size=4)
            )
            return can_resume(self, job)

        monkeypatch.setattr(Engine, "_can_resume", spy)
        cfg = LouvainConfig(seed=3)
        request = DetectionRequest(
            graph=tiny,
            nranks=4,
            config=cfg,
            fault_plan=FaultPlan(kills={1: 60}),
            max_retries=2,
        )
        with Engine(
            workers=1,
            workdir=str(tmp_path),
            checkpoint_every_iterations=2,
        ) as engine:
            response = engine.wait(engine.submit(request), timeout=300)
        assert response.state is JobState.DONE
        assert response.retries >= 1
        assert response.resumed_from_checkpoint
        # The kill lands mid-phase: the newest checkpoint is a delta.
        assert resumed_from[0].kind == "iteration"
        assert resumed_from[0].base is not None
        reference = run_louvain(tiny, 4, cfg)
        assert np.array_equal(response.result.assignment, reference.assignment)
        assert response.result.modularity == reference.modularity

    def test_exhausted_retries_fail(self, tiny, tmp_path):
        request = DetectionRequest(
            graph=tiny,
            nranks=2,
            config=LouvainConfig(),
            # Rank 0 dies on every attempt: op 5 of attempt 1, and the
            # plan is dropped after the first failure — so kill attempt
            # 2 too by allowing zero retries.
            fault_plan=FaultPlan(kills={0: 5}),
            max_retries=0,
        )
        with Engine(workers=1, workdir=str(tmp_path)) as engine:
            response = engine.wait(engine.submit(request), timeout=300)
        assert response.state is JobState.FAILED
        assert response.error
        assert engine.metrics.snapshot()["counters"]["failed"] == 1


class TestObservability:
    def test_trace_report_merges_jobs(self, tiny):
        with Engine(workers=2) as engine:
            ids = [
                engine.submit(DetectionRequest(graph=tiny, nranks=2))
                for _ in range(3)
            ]
            engine.wait_all(ids, timeout=300)
            report = engine.trace_report()
        assert report.size == 6  # 3 jobs x 2 ranks
        snapshot = engine.metrics.snapshot()
        assert snapshot["latency"]["run_seconds"]["count"] == 3
        assert "compute" in snapshot["modelled"]["seconds_by_category"]

    def test_metrics_format_renders(self, tiny):
        with Engine(workers=1) as engine:
            engine.wait(
                engine.submit(DetectionRequest(graph=tiny, nranks=2)),
                timeout=300,
            )
            text = engine.metrics.format()
        assert "completed" in text
        assert "queue wait" in text
