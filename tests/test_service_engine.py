"""Integration tests for the async detection engine.

Covers the tentpole behaviours end-to-end on tiny graphs: concurrent
job completion, cache hits with bit-identical results, backpressure,
cancellation, timeout, and retry-with-resume after an injected rank
failure.
"""

import dataclasses
import gc
import os
import threading
import time
import weakref
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import LouvainConfig, Variant
from repro.core.distlouvain import run_louvain
from repro.generators import make_graph
from repro.resilience import FaultPlan, RunSnapshots
from repro.service import (
    AdmissionError,
    DetectionRequest,
    Engine,
    JobState,
    ResultStore,
    detect,
)
from tests.conftest import disk_checkpoints


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
            # Polled, not waited on: ``wait`` would collect the job.
            _poll_until_terminal(engine, job)
            assert not engine.cancel(job)


def _poll_until_terminal(engine, job_id, timeout=300.0):
    deadline = time.monotonic() + timeout
    while not engine.status(job_id).terminal:
        assert time.monotonic() < deadline, f"{job_id} not terminal"
        time.sleep(0.01)


def _spy_on_retries(monkeypatch):
    """Record, at each retry decision, the job, the save point it is
    about to resume from (``None``: it restarts) and a weak reference to
    its checkpoint manager."""
    seen = []
    can_resume = Engine._can_resume

    def spy(self, job):
        manager = job.checkpoints
        seen.append(SimpleNamespace(
            job=job,
            resumed_from=manager and manager.latest(job.request.nranks),
            checkpoints=manager and weakref.ref(manager),
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
            assert not engine._jobs

    def test_named_checkpoint_dir_still_goes_to_disk(self, tiny, tmp_path):
        """A request that names a directory gets format-v2 steps there —
        what ``run_louvain`` writes at the engine's cadence — and a
        retry resumes from them, not from snapshots."""
        from repro.resilience import load_shard, scan_checkpoints

        cfg = LouvainConfig(seed=3)
        direct, served = str(tmp_path / "direct"), str(tmp_path / "served")
        reference = run_louvain(
            tiny, 2, cfg,
            checkpoints=disk_checkpoints(direct, cfg, every_iterations=4),
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
        (retry,) = seen
        assert retry.resumed_from.directory.startswith(str(tmp_path))
        assert not isinstance(retry.checkpoints(), RunSnapshots)
        assert response.resumed_from_checkpoint and os.listdir(tmp_path)
        _assert_same_run(response, run_louvain(tiny, 2, cfg))

    def test_resumed_incremental_retry_computes_no_seed(
        self, tiny, monkeypatch
    ):
        """An incremental job's pending seed rides its save points, so a
        retry that resumes derives none, and still ends where the
        uninterrupted job does."""
        from repro.service import engine as engine_module

        seeds = []
        warm_start = engine_module.warm_start_assignment

        def spy(*args, **kwargs):
            seeds.append(args)
            return warm_start(*args, **kwargs)

        monkeypatch.setattr(engine_module, "warm_start_assignment", spy)
        cfg = LouvainConfig(seed=3)
        previous = run_louvain(tiny, 2, LouvainConfig(seed=1)).assignment
        request = DetectionRequest(
            graph=tiny,
            nranks=2,
            config=cfg,
            mode="incremental",
            previous_assignment=previous,
            reset_touched=np.arange(0, tiny.num_vertices, 3),
        )
        reference = detect(request).result
        assert len(seeds) == 1
        with Engine(workers=1) as engine:
            response = engine.detect(
                dataclasses.replace(
                    request, fault_plan=FaultPlan(kills={1: 60})
                ),
                timeout=300,
            )
        assert response.retries == 1 and response.resumed_from_checkpoint
        assert len(seeds) == 2  # the first attempt's
        _assert_same_run(response, reference)


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
    """A finished job must not keep its run state, the collected job
    must leave ``Engine._jobs``, and nothing may reach the disk."""

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
            assert [r.checkpoints() for r in seen] == [None]
            assert not engine._jobs
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
            assert not engine._jobs


class TestJobsAreCollected:
    """``wait`` collects a terminal job: the engine forgets it, request
    (graph) and result (trace) included, so a long-lived engine holds
    only the jobs nobody has collected yet."""

    def test_detect_and_cache_hit_leave_nothing(self, tiny):
        request = DetectionRequest(graph=tiny, nranks=2)
        with Engine(workers=1, store=ResultStore(capacity=4)) as engine:
            assert not engine.detect(request, timeout=300).cache_hit
            assert not engine._jobs
            assert engine.detect(request, timeout=300).cache_hit
            assert not engine._jobs
            assert engine.jobs() == []

    def test_wait_all_collects_every_id(self, tiny):
        with Engine(workers=2) as engine:
            ids = [
                engine.submit(
                    DetectionRequest(
                        graph=tiny, nranks=2, config=LouvainConfig(seed=s)
                    )
                )
                for s in range(3)
            ]
            engine.wait_all(ids, timeout=300)
            assert not engine._jobs

    def test_detect_at_resolutions_collects_every_level(self, tiny):
        with Engine(workers=2, store=ResultStore(capacity=8)) as engine:
            responses = engine.detect_at_resolutions(
                DetectionRequest(graph=tiny, nranks=2), [0.5, 1.0, 2.0],
                timeout=300,
            )
            assert [r.state for r in responses] == [JobState.DONE] * 3
            assert not engine._jobs

    def test_finished_tune_job_is_dropped(self):
        from repro.tune import TunerSettings, TuningDB

        channel = make_graph("channel", scale="tiny", seed=0)
        db = TuningDB()
        engine = Engine(
            workers=1, tuning_db=db, tune_on_miss=True,
            tune_settings=TunerSettings(trials=3, rung_phase_caps=(1,)),
        )
        with engine:
            engine.detect(
                DetectionRequest(graph=channel, nranks=2, tune="auto"),
                timeout=300,
            )
            assert all(j.kind == "tune" for j in engine._jobs.values())
        # Leaving the block drains the queue: the tune job has run.
        assert engine.metrics.snapshot()["counters"]["background_tunes"] == 1
        assert db.get(channel.fingerprint()) is not None
        assert not engine._jobs

    def test_default_wait_all_leaves_tune_jobs_alone(self, monkeypatch):
        """``wait_all()`` collects every detect job and does not wait on
        (or look up again) a background tune job still in flight."""
        from repro.tune import TunerSettings, TuningDB
        from repro.tune import search

        release = threading.Event()
        real = search.tune_graph

        def held(*args, **kwargs):
            release.wait(60)
            return real(*args, **kwargs)

        monkeypatch.setattr(search, "tune_graph", held)
        channel = make_graph("channel", scale="tiny", seed=0)
        engine = Engine(
            workers=2, tuning_db=TuningDB(), tune_on_miss=True,
            tune_settings=TunerSettings(trials=3, rung_phase_caps=(1,)),
        )
        with engine:
            job = engine.submit(
                DetectionRequest(graph=channel, nranks=2, tune="auto")
            )
            responses = engine.wait_all(timeout=60)
            assert [r.job_id for r in responses] == [job]
            assert [j.kind for j in engine._jobs.values()] == ["tune"]
            release.set()
        assert engine.metrics.snapshot()["counters"]["background_tunes"] == 1
        assert not engine._jobs

    def test_collected_job_frees_its_graph_and_hit_copy(self):
        graph = make_graph("soc-friendster", scale="tiny", seed=11)
        graph_ref = weakref.ref(graph)
        request = DetectionRequest(graph=graph, nranks=2)
        with Engine(workers=1, store=ResultStore(capacity=4)) as engine:
            cold = engine.detect(request, timeout=300)
            hit = engine.detect(request, timeout=300)
            assert hit.cache_hit and hit.result is not cold.result
            hit_ref = weakref.ref(hit.result)
            del graph, request, cold, hit
            gc.collect()
            assert graph_ref() is None
            assert hit_ref() is None

    def test_collected_id_is_unknown(self, tiny):
        with Engine(workers=1) as engine:
            job = engine.submit(DetectionRequest(graph=tiny, nranks=2))
            assert engine.wait(job, timeout=300).state is JobState.DONE
            for call in (engine.status, engine.wait, engine.cancel):
                with pytest.raises(KeyError, match=job):
                    call(job)

    @pytest.mark.parametrize("call", ["detect", "detect_at_resolutions"])
    def test_timed_out_wait_cancels_and_drops_its_jobs(
        self, tiny, monkeypatch, call
    ):
        """Nobody holds the ids of a timed-out ``detect`` (or
        ``detect_at_resolutions``): its jobs are cancelled and leave the
        engine when they finish."""
        import repro.service.engine as engine_module

        release = threading.Event()
        execute = engine_module.execute_request

        def held(*args, **kwargs):
            release.wait(60)
            return execute(*args, **kwargs)

        monkeypatch.setattr(engine_module, "execute_request", held)
        request = DetectionRequest(graph=tiny, nranks=2)
        engine = Engine(workers=1)
        with engine:
            with pytest.raises(TimeoutError, match=r"cancelled job-0001"):
                if call == "detect":
                    engine.detect(request, timeout=0.2)
                else:
                    engine.detect_at_resolutions(
                        request, [0.5, 1.0], timeout=0.2
                    )
            release.set()
        # Leaving the block joins the idle worker.
        assert not engine._jobs
        counters = engine.metrics.snapshot()["counters"]
        assert counters["cancelled"] == (1 if call == "detect" else 2)

    def test_failed_tune_job_is_counted_and_logged(self, tmp_path, monkeypatch):
        """A tune job is dropped at finish, so its failure must show as
        a counter and an event."""
        from repro.obs import EventLog, read_events
        from repro.tune import TuningDB

        def broken(*args, **kwargs):
            raise RuntimeError("search blew up")

        monkeypatch.setattr("repro.tune.search.tune_graph", broken)
        channel = make_graph("channel", scale="tiny", seed=0)
        log = EventLog(tmp_path / "events.jsonl")
        engine = Engine(
            workers=1, tuning_db=TuningDB(), tune_on_miss=True,
            event_log=log,
        )
        with engine:
            engine.detect(
                DetectionRequest(graph=channel, nranks=2, tune="auto"),
                timeout=300,
            )
        log.close()
        counters = engine.metrics.snapshot()["counters"]
        assert counters["tune_failed"] == 1
        assert counters["failed"] == 1
        assert not engine._jobs
        failed = read_events(tmp_path / "events.jsonl", event="tune_failed")
        assert len(failed) == 1
        assert failed[0]["fingerprint"] == channel.fingerprint()
        assert failed[0]["error"] == repr(RuntimeError("search blew up"))


class TestObservability:
    def test_metrics_merge_job_traces(self, tiny):
        with Engine(workers=2) as engine:
            ids = [
                engine.submit(
                    DetectionRequest(
                        graph=tiny, nranks=2, config=LouvainConfig(seed=s)
                    )
                )
                for s in range(3)
            ]
            traces = [
                r.result.trace for r in engine.wait_all(ids, timeout=300)
            ]
        assert [t.size for t in traces] == [2, 2, 2]
        snapshot = engine.metrics.snapshot()
        assert snapshot["latency"]["run_seconds"]["count"] == 3
        merged = snapshot["modelled"]["seconds_by_category"]
        want = Counter()
        for t in traces:
            want.update(t.seconds_by_category())
        assert merged.keys() == want.keys()
        assert merged["compute"] > 0
        for category, seconds in want.items():
            assert merged[category] == pytest.approx(seconds, rel=1e-12)
        families = {f.name: f for f in engine.metrics.registry.families()}
        messages = sum(t.total_messages for t in traces)
        nbytes = sum(t.total_bytes for t in traces)
        assert messages > 0 and nbytes > 0
        sent = {
            name: families[f"repro_trace_{name}_total"]
            .labels(direction="sent")
            .value
            for name in ("messages", "bytes")
        }
        assert sent == {"messages": messages, "bytes": nbytes}
        assert f"messages={messages}  bytes={nbytes}" in (
            engine.metrics.format()
        )

    def test_metrics_format_renders(self, tiny):
        with Engine(workers=1) as engine:
            engine.wait(
                engine.submit(DetectionRequest(graph=tiny, nranks=2)),
                timeout=300,
            )
            text = engine.metrics.format()
        assert "completed" in text
        assert "queue wait" in text
