"""Unit tests for the SPMD executor: results, failures, determinism."""

import os
import threading

import numpy as np
import pytest

from repro.obs.events import EventLog, read_events, scoped
from repro.resilience.faults import FaultPlan
from repro.runtime import (
    FREE,
    CommTimeoutError,
    InjectedFault,
    RankAborted,
    RankFailedError,
    run_spmd,
)


class TestRunSPMD:
    def test_returns_per_rank_values(self):
        r = run_spmd(4, lambda comm: comm.rank ** 2, machine=FREE)
        assert r.values == [0, 1, 4, 9]
        assert r.size == 4

    def test_single_rank_fast_path(self):
        r = run_spmd(1, lambda comm: "solo", machine=FREE)
        assert r.value == "solo"
        assert r.trace.size == 1

    def test_single_rank_exception_propagates_natively(self):
        with pytest.raises(ZeroDivisionError):
            run_spmd(1, lambda comm: 1 // 0, machine=FREE)

    def test_extra_args_passed_through(self):
        def prog(comm, data, offset=0):
            return data[comm.rank] + offset

        r = run_spmd(3, prog, [10, 20, 30], machine=FREE, offset=5)
        assert r.values == [15, 25, 35]

    def test_invalid_world_size(self):
        with pytest.raises(Exception):
            run_spmd(0, lambda comm: None, machine=FREE)

    def test_elapsed_is_max_clock(self):
        from repro.runtime import CORI_HASWELL

        def prog(comm):
            comm.charge_compute(1e6 * (comm.rank + 1))
            return comm.clock

        r = run_spmd(3, prog, machine=CORI_HASWELL, timeout=10.0)
        assert r.elapsed == pytest.approx(max(r.values))


class TestFailurePropagation:
    def test_single_failing_rank_reported(self):
        def prog(comm):
            # Fault injection: rank 2 dies, the rest must unblock.
            if comm.rank == 2:
                raise ValueError("boom")
            comm.barrier()

        with pytest.raises(RankFailedError) as ei:
            run_spmd(4, prog, machine=FREE, timeout=5.0)
        err = ei.value
        assert err.rank == 2
        assert isinstance(err.causes[2], ValueError)

    def test_victim_ranks_not_blamed(self):
        def prog(comm):
            if comm.rank == 0:
                raise RuntimeError("primary")
            comm.recv(0)  # victims block here and get aborted

        with pytest.raises(RankFailedError) as ei:
            run_spmd(3, prog, machine=FREE, timeout=5.0)
        # Only the primary failure is reported, not the RankAborted victims.
        assert set(ei.value.causes) == {0}

    def test_multiple_primary_failures_all_reported(self):
        def prog(comm):
            raise KeyError(f"rank-{comm.rank}")

        with pytest.raises(RankFailedError) as ei:
            run_spmd(3, prog, machine=FREE, timeout=5.0)
        assert set(ei.value.causes) == {0, 1, 2}

    def test_failure_inside_collective_unblocks_everyone(self):
        def prog(comm):
            # Fault injection: a mid-collective death under test.
            if comm.rank == 1:
                raise ValueError("late")
            for _ in range(3):
                comm.allreduce(1)

        with pytest.raises(RankFailedError):
            run_spmd(4, prog, machine=FREE, timeout=5.0)

    def test_rank_aborted_is_catchable_in_program(self):
        # A program can observe the abort but must not swallow it into a
        # normal return (the executor still reports the primary cause).
        def prog(comm):
            # Fault injection: primary failure vs caught RankAborted.
            if comm.rank == 0:
                raise ValueError("primary")
            try:
                comm.barrier()
            except RankAborted:
                raise

        with pytest.raises(RankFailedError) as ei:
            run_spmd(2, prog, machine=FREE, timeout=5.0)
        assert isinstance(ei.value.causes[0], ValueError)

    def test_unfinished_rank_is_a_failure_not_a_none_value(self, tmp_path):
        # Rank 0 never communicates, so it never observes the abort the
        # executor raises once the join deadline passes; its empty slot
        # used to come back as ``values == [None, 'ok']`` with no error.
        stop = threading.Event()

        def prog(comm):
            if comm.rank == 0:
                while not stop.is_set():
                    pass
            return "ok"

        try:
            with EventLog(tmp_path / "events.jsonl") as log, scoped(log), \
                    pytest.raises(RankFailedError) as ei:
                run_spmd(2, prog, machine=FREE, timeout=0.2)
        finally:
            stop.set()
        assert set(ei.value.causes) == {0}
        cause = ei.value.causes[0]
        assert isinstance(cause, CommTimeoutError)
        assert "rank 0" in str(cause)
        assert "deadlock audit" in str(cause)
        failed = read_events(log.path, event="spmd_run_failed")
        assert [e["failed_ranks"] for e in failed] == [[0]]


needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs os.sched_setaffinity and more than one allowed CPU",
)


def _mask(comm):
    comm.barrier()
    return frozenset(os.sched_getaffinity(0))


@needs_affinity
class TestOneCpuPerWorld:
    """A multi-rank world confines its rank threads — and nothing else —
    to one CPU (see the executor module docstring for why)."""

    def test_every_rank_reports_the_same_single_cpu(self):
        masks = run_spmd(4, _mask, machine=FREE).values
        assert len(set(masks)) == 1
        assert len(masks[0]) == 1
        assert masks[0] <= os.sched_getaffinity(0)

    def test_callers_mask_survives_success_failure_and_injected_fault(self):
        before = os.sched_getaffinity(0)
        run_spmd(4, _mask, machine=FREE)
        assert os.sched_getaffinity(0) == before

        def boom(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            comm.barrier()

        with pytest.raises(RankFailedError):
            run_spmd(4, boom, machine=FREE, timeout=5.0)
        assert os.sched_getaffinity(0) == before

        with pytest.raises(RankFailedError) as ei:
            run_spmd(
                4, _mask, machine=FREE, timeout=5.0,
                fault_plan=FaultPlan(kills={2: 1}),
            )
        assert isinstance(ei.value.causes[2], InjectedFault)
        assert os.sched_getaffinity(0) == before

    def test_consecutive_worlds_take_different_cpus(self):
        first = run_spmd(2, _mask, machine=FREE).value
        second = run_spmd(2, _mask, machine=FREE).value
        assert first != second

    def test_single_rank_world_sets_no_mask(self):
        before = os.sched_getaffinity(0)
        r = run_spmd(1, lambda comm: os.sched_getaffinity(0), machine=FREE)
        assert r.value == before
        assert os.sched_getaffinity(0) == before

    def test_refused_confinement_costs_nothing_but_placement(self, monkeypatch):
        def refuse(pid, mask):
            raise PermissionError("sched_setaffinity refused")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        before = frozenset(os.sched_getaffinity(0))
        assert run_spmd(3, _mask, machine=FREE).values == [before] * 3

    def test_restricted_caller_only_yields_cpus_of_its_subset(self):
        # Restrict a scratch thread, not the test runner's own thread.
        subset = set(sorted(os.sched_getaffinity(0))[1:])
        seen: list[frozenset] = []

        def caller():
            os.sched_setaffinity(0, subset)
            for _ in range(2 * len(subset) + 1):
                seen.extend(run_spmd(3, _mask, machine=FREE).values)

        t = threading.Thread(target=caller)
        t.start()
        t.join(timeout=60.0)
        assert not t.is_alive()
        assert seen and all(mask <= subset for mask in seen)
        if len(subset) > 1:  # every CPU of the subset gets its turn
            assert set().union(*seen) == subset

    def test_concurrent_worlds_each_keep_to_one_cpu(self):
        # Engine workers run worlds side by side: the per-process world
        # counter is the only state they share.
        per_caller: list[list[list[frozenset]]] = [[] for _ in range(4)]

        def caller(slot):
            for _ in range(5):
                slot.append(run_spmd(3, _mask, machine=FREE, timeout=30.0).values)

        callers = [
            threading.Thread(target=caller, args=(slot,)) for slot in per_caller
        ]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60.0)
            assert not t.is_alive()
        worlds = [w for slot in per_caller for w in slot]
        assert len(worlds) == 20
        assert all(len(set(w)) == 1 and len(w[0]) == 1 for w in worlds)
        # Twenty consecutive counter values: no CPU is handed out twice
        # before every allowed one had its turn.
        used = set().union(*(w[0] for w in worlds))
        assert len(used) == min(20, len(os.sched_getaffinity(0)))


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        def prog(comm):
            rng = np.random.default_rng(comm.rank)
            x = rng.random(10)
            total = comm.allreduce(x)
            return float(total.sum())

        r1 = run_spmd(4, prog, machine=FREE)
        r2 = run_spmd(4, prog, machine=FREE)
        assert r1.values == r2.values

    def test_model_time_deterministic(self):
        from repro.runtime import CORI_HASWELL

        def prog(comm):
            comm.send(np.arange(100), (comm.rank + 1) % comm.size)
            comm.recv((comm.rank - 1) % comm.size)
            comm.allreduce(1.0)
            return None

        e1 = run_spmd(4, prog, machine=CORI_HASWELL, timeout=10.0).elapsed
        e2 = run_spmd(4, prog, machine=CORI_HASWELL, timeout=10.0).elapsed
        assert e1 == e2
