"""Stress and adversarial-schedule tests for the SPMD runtime.

The communicator underpins everything; these tests hammer it with
irregular communication patterns, interleavings and failure timings the
algorithm code never produces, to pin the semantics down.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime import FREE, RankFailedError, run_spmd


def spmd(size, fn, **kw):
    kw.setdefault("machine", FREE)
    kw.setdefault("timeout", 30.0)
    return run_spmd(size, fn, **kw)


class TestMessageStorm:
    def test_many_small_messages(self):
        N = 200

        def prog(comm):
            nxt = (comm.rank + 1) % comm.size
            prv = (comm.rank - 1) % comm.size
            for i in range(N):
                comm.send(i, nxt)
            got = [comm.recv(prv) for _ in range(N)]
            return got == list(range(N))

        assert all(spmd(4, prog).values)

    def test_all_to_all_via_p2p(self):
        def prog(comm):
            for d in range(comm.size):
                if d != comm.rank:
                    comm.send((comm.rank, d), d)
            got = {}
            for s in range(comm.size):
                if s != comm.rank:
                    got[s] = comm.recv(s)
            return all(v == (s, comm.rank) for s, v in sorted(got.items()))

        assert all(spmd(6, prog).values)

    def test_interleaved_p2p_and_collectives(self):
        def prog(comm):
            total = 0
            nxt = (comm.rank + 1) % comm.size
            prv = (comm.rank - 1) % comm.size
            for round_ in range(20):
                comm.send(round_ * comm.rank, nxt)
                total += comm.allreduce(1)
                got = comm.recv(prv)
                assert got == round_ * prv
                comm.barrier()
            return total

        r = spmd(4, prog)
        assert r.values == [80] * 4

    def test_large_payloads(self):
        def prog(comm):
            payload = np.arange(50_000, dtype=np.int64) + comm.rank
            other = (comm.rank + 1) % comm.size
            comm.send(payload, other)
            got = comm.recv((comm.rank - 1) % comm.size)
            return int(got[0])

        r = spmd(3, prog)
        assert r.values == [2, 0, 1]

    def test_deep_collective_sequences(self):
        def prog(comm):
            acc = 0
            for i in range(150):
                if i % 3 == 0:
                    acc += comm.allreduce(i)
                elif i % 3 == 1:
                    acc += sum(comm.allgather(i))
                else:
                    acc += comm.scan(i)
            return acc

        r = spmd(3, prog)
        assert len(set(v is not None for v in r.values)) == 1


class TestSkewedSchedules:
    def test_one_slow_rank_charges_wait_to_others(self):
        from repro.runtime import CORI_HASWELL

        def prog(comm):
            if comm.rank == 0:
                comm.charge_compute(1e9)  # very slow rank 0
            comm.allreduce(1)
            return comm.clock

        r = run_spmd(4, prog, machine=CORI_HASWELL, timeout=30.0)
        # Everyone's clock reaches at least rank 0's compute time.
        floor = CORI_HASWELL.compute_cost(1e9)
        assert all(c >= floor for c in r.values)

    def test_sender_far_ahead_of_receiver(self):
        def prog(comm):
            # Asymmetric by design: both ranks still meet one barrier
            # and the p2p traffic is fully matched.
            if comm.rank == 0:  # spmdlint: ignore[SPMD001]
                for i in range(50):
                    comm.send(i, 1)
                comm.barrier()
                return None  # spmdlint: ignore[SPMD002]
            got = []
            comm.barrier()  # receive only after everything is queued
            for _ in range(50):
                got.append(comm.recv(0))
            return got == list(range(50))

        assert spmd(2, prog).values[1]


class TestFailureTiming:
    @pytest.mark.parametrize("fail_at", [0, 5, 19])
    def test_failure_at_any_iteration(self, fail_at):
        def prog(comm):
            for i in range(20):
                # Fault injection: rank 1 dies at a chosen iteration.
                if comm.rank == 1 and i == fail_at:  # spmdlint: ignore[SPMD001]
                    raise RuntimeError(f"die-{i}")
                comm.allreduce(i)
            return True

        with pytest.raises(RankFailedError) as ei:
            spmd(3, prog, timeout=5.0)
        assert ei.value.rank == 1

    def test_failure_during_p2p_wait(self):
        def prog(comm):
            if comm.rank == 0:
                comm.recv(1)  # rank 1 never sends
            else:
                raise ValueError("no message for you")

        with pytest.raises(RankFailedError) as ei:
            spmd(2, prog, timeout=5.0)
        assert isinstance(ei.value.causes[1], ValueError)

    def test_world_reusable_after_failure(self):
        # A failed run must not poison subsequent runs (fresh worlds).
        def bad(comm):
            raise KeyError("x")

        def good(comm):
            return comm.allreduce(1)

        with pytest.raises(RankFailedError):
            spmd(3, bad, timeout=5.0)
        assert spmd(3, good).values == [3, 3, 3]


@given(
    size=st.integers(2, 5),
    schedule=st.lists(st.sampled_from(["ar", "ag", "bar", "p2p"]),
                      min_size=1, max_size=12),
)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_operation_schedules(size, schedule):
    """Any uniform schedule of operations completes with consistent
    results on every rank."""

    def prog(comm):
        out = []
        for op in schedule:
            if op == "ar":
                out.append(comm.allreduce(comm.rank))
            elif op == "ag":
                out.append(tuple(comm.allgather(comm.rank)))
            elif op == "bar":
                comm.barrier()
                out.append("b")
            else:
                comm.send(comm.rank, (comm.rank + 1) % comm.size)
                out.append(comm.recv((comm.rank - 1) % comm.size))
        return out

    r = run_spmd(size, prog, machine=FREE, timeout=20.0)
    expected_ar = sum(range(size))
    for rank, out in enumerate(r.values):
        for op, val in zip(schedule, out):
            if op == "ar":
                assert val == expected_ar
            elif op == "ag":
                assert val == tuple(range(size))
            elif op == "p2p":
                assert val == (rank - 1) % size
