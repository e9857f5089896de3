"""Integration tests for the async detection engine.

Covers the tentpole behaviours end-to-end on tiny graphs: concurrent
job completion, cache hits with bit-identical results, backpressure,
cancellation, timeout, and retry-with-resume after an injected rank
failure.
"""

import dataclasses
import gc
import os
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import LouvainConfig, Variant
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


def _spy_on_retries(monkeypatch):
    """Record, at each retry decision, the job, the snapshot generation
    it is about to resume from (``None``: it restarts) and a weak
    reference to its snapshots."""
    seen = []
    can_resume = Engine._can_resume

    def spy(self, job):
        snaps = job.snapshots
        seen.append(SimpleNamespace(
            job=job,
            resumed_from=snaps and snaps.latest,
            snapshots=snaps and weakref.ref(snaps),
        ))
        return can_resume(self, job)

    monkeypatch.setattr(Engine, "_can_resume", spy)
    return seen


def _assert_same_run(response, reference):
    assert response.state is JobState.DONE, response.error
    result = response.result
    assert np.array_equal(result.assignment, reference.assignment)
    assert result.modularity == reference.modularity
    assert result.iterations == reference.iterations
    assert result.phases == reference.phases


class TestRetryWithResume:
    def test_fault_retried_and_resumed(self, tiny, tmp_path, monkeypatch):
        seen = _spy_on_retries(monkeypatch)
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
        assert response.retries == 1
        assert response.resumed_from_checkpoint
        # The kill lands mid-phase: it resumes from an iteration snapshot.
        resumed_from = seen[0].resumed_from
        assert len(seen) == 1
        assert (resumed_from.kind, resumed_from.phase) == ("iteration", 0)
        assert resumed_from.size == 4 and resumed_from.directory == "<memory>"
        assert [s.rank for s in resumed_from.shards] == [0, 1, 2, 3]
        _assert_same_run(response, run_louvain(tiny, 4, cfg))
        assert not os.listdir(tmp_path)

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

    @pytest.mark.parametrize(
        "cadence",
        [{"checkpoint_every": -1}, {"checkpoint_every_iterations": -1}],
    )
    def test_refused_cadence_fails_the_job_not_the_worker(self, tiny, cadence):
        """The snapshots refuse a negative cadence as a manager does;
        the job ends FAILED and the worker lives to run the next one."""
        with Engine(workers=1) as engine:
            bad = engine.detect(
                DetectionRequest(graph=tiny, nranks=2, **cadence), timeout=60
            )
            assert bad.state is JobState.FAILED
            assert "must be >= 0" in bad.error
            good = engine.detect(
                DetectionRequest(graph=tiny, nranks=2), timeout=300
            )
            assert good.state is JobState.DONE
            assert all(j.snapshots is None for j in engine._jobs.values())

    def test_named_checkpoint_dir_still_goes_to_disk(self, tiny, tmp_path):
        """A request that names a directory gets format-v2 steps there —
        what ``run_louvain`` writes at the engine's cadence — and a
        retry resumes from them, not from snapshots."""
        from repro.resilience import load_shard, scan_checkpoints

        cfg = LouvainConfig(seed=3)
        direct, served = str(tmp_path / "direct"), str(tmp_path / "served")
        reference = run_louvain(
            tiny, 2, cfg, checkpoint_dir=direct, checkpoint_every_iterations=4
        )
        request = DetectionRequest(
            graph=tiny,
            nranks=2,
            config=cfg,
            checkpoint_dir=served,
            fault_plan=FaultPlan(kills={1: 10**6}),
        )
        with Engine(workers=1) as engine:
            job_id = engine.submit(request)
            _assert_same_run(engine.wait(job_id, timeout=300), reference)
        steps = scan_checkpoints(direct)
        assert [name for name, _, _ in steps] == os.listdir(served) != []
        for (_, want, _), (_, got, _) in zip(steps, scan_checkpoints(served)):
            assert got.version == 2
            assert dataclasses.replace(
                got, directory=want.directory, shards=want.shards
            ) == want
            for rank in range(2):
                assert [s.nbytes for s in got.shards] == [
                    s.nbytes for s in want.shards
                ]
                want_meta, want_arrays = load_shard(want, rank)
                got_meta, got_arrays = load_shard(got, rank)
                assert got_meta == want_meta
                assert got_arrays.keys() == want_arrays.keys()
                for name, value in want_arrays.items():
                    assert np.array_equal(got_arrays[name], value)

    def test_named_checkpoint_dir_retry_resumes_from_disk(
        self, tiny, tmp_path, monkeypatch
    ):
        seen = _spy_on_retries(monkeypatch)
        cfg = LouvainConfig(seed=3)
        request = DetectionRequest(
            graph=tiny,
            nranks=2,
            config=cfg,
            checkpoint_dir=str(tmp_path),
            fault_plan=FaultPlan(kills={1: 60}),
        )
        with Engine(workers=1) as engine:
            response = engine.wait(engine.submit(request), timeout=300)
        assert [r.snapshots for r in seen] == [None]
        assert response.resumed_from_checkpoint and os.listdir(tmp_path)
        _assert_same_run(response, run_louvain(tiny, 2, cfg))


VARIANTS = {
    "baseline": LouvainConfig(seed=3),
    "et": LouvainConfig(variant=Variant.ET, alpha=0.25, seed=3),
    "etc": LouvainConfig(variant=Variant.ETC, alpha=0.25, seed=3),
}


class TestFaultMatrix:
    """A killed and retried job reproduces the uninterrupted run bit for
    bit, from a snapshot wherever one is complete."""

    @pytest.fixture(scope="class")
    def references(self, tiny):
        return {
            (name, p): run_louvain(tiny, p, cfg)
            for name, cfg in VARIANTS.items()
            for p in (1, 2, 4)
        }

    @pytest.mark.parametrize("variant", list(VARIANTS))
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("where", ["phase 0", "last phase", "no save yet"])
    def test_kill_then_retry_matches(
        self, tiny, references, monkeypatch, where, p, variant
    ):
        seen = _spy_on_retries(monkeypatch)
        reference = references[variant, p]
        victim = p - 1
        ops = sum(reference.trace.ranks[victim].collectives.values())
        request = DetectionRequest(
            graph=tiny,
            nranks=p,
            config=VARIANTS[variant],
            fault_plan=FaultPlan(
                kills={victim: ops - 12 if where == "last phase" else 14}
            ),
            # No boundary snapshots: the first save is four iterations in.
            checkpoint_every=0 if where == "no save yet" else 1,
        )
        with Engine(workers=1) as engine:
            response = engine.wait(engine.submit(request), timeout=300)
        _assert_same_run(response, reference)
        assert response.retries == 1
        resumed_from = seen[0].resumed_from
        assert len(seen) == 1
        if where == "no save yet":
            assert resumed_from is None
            assert not response.resumed_from_checkpoint
        else:
            assert response.resumed_from_checkpoint
            # The last phase every rank ran — one allgather each, and one
            # for the result; a tail gathered to rank 0 saves nothing.
            last = reference.trace.ranks[victim].collectives["allgather"] - 2
            assert resumed_from.phase == (0 if where == "phase 0" else last)
            assert last > 0


class TestSnapshotsAreReleased:
    """``Engine._jobs`` keeps every job; a finished one must not keep
    its run state, and nothing may reach the disk."""

    def test_done_job_drops_its_snapshots(self, tiny, tmp_path, monkeypatch):
        seen = _spy_on_retries(monkeypatch)
        plans = [None, FaultPlan(kills={1: 60}), None]
        with Engine(workers=1, workdir=str(tmp_path)) as engine:
            responses = [
                engine.detect(
                    DetectionRequest(
                        graph=tiny, nranks=2, config=LouvainConfig(seed=s),
                        fault_plan=plan,
                    ),
                    timeout=300,
                )
                for s, plan in enumerate(plans)
            ]
            assert [r.resumed_from_checkpoint for r in responses] == [
                False, True, False,
            ]
            gc.collect()
            assert [r.snapshots() for r in seen] == [None]
            assert all(j.snapshots is None for j in engine._jobs.values())
        assert not os.listdir(tmp_path)

    def test_failed_and_cancelled_jobs_drop_theirs(self, tiny, monkeypatch):
        seen = _spy_on_retries(monkeypatch)
        dying = DetectionRequest(
            graph=tiny, nranks=2, fault_plan=FaultPlan(kills={1: 60})
        )
        with Engine(workers=1) as engine:
            # Cancelled while its retry runs: the result is discarded.
            monkeypatch.setattr(
                Engine, "_emit",
                lambda self, event, **fields: event == "job_retry"
                and engine.cancel(fields["job_id"]),
            )
            cancelled = engine.detect(dying, timeout=300)
            # The deadline passes while the first attempt runs.
            failed = engine.detect(
                dataclasses.replace(dying, timeout=1e-9), timeout=300
            )
            assert cancelled.state is JobState.CANCELLED
            assert failed.state is JobState.FAILED
            assert "deadline exceeded" in failed.error
            assert [r.resumed_from is None for r in seen] == [False]
            assert all(j.snapshots is None for j in engine._jobs.values())


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
