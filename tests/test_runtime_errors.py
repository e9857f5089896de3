"""Error-path coverage for the simulated runtime.

Exercises the messages and secondary-failure handling that the dynamic
analysis layer (docs/ANALYSIS.md) relies on: collective-mismatch
localization, payload-kind divergence, deadlock audits on timeout, and
RankAborted suppression in RankFailedError.causes.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.runtime import run_spmd
from repro.runtime.errors import (
    CollectiveMismatchError,
    CommTimeoutError,
    RankAborted,
    RankFailedError,
)


def first_cause(excinfo) -> BaseException:
    err = excinfo.value
    return err.causes[err.rank]


class TestCollectiveMismatch:
    def test_op_name_mismatch_names_both_ops_and_the_rank(self):
        def prog(comm):
            if comm.rank == 0:
                comm.allreduce(1.0)
            else:
                comm.barrier()

        with pytest.raises(RankFailedError) as excinfo:
            run_spmd(2, prog)
        cause = first_cause(excinfo)
        assert isinstance(cause, CollectiveMismatchError)
        msg = str(cause)
        assert "'allreduce'" in msg and "'barrier'" in msg
        assert "collective op #0" in msg
        assert "rank" in msg

    def test_schedule_verifier_pinpoints_dtype_divergence(self):
        # Same op name on every rank, but rank 1 deposits an int where
        # the others deposit a float64 array: the always-on schedule
        # check must localize it to op index and rank.
        def prog(comm):
            comm.barrier()  # op #0, identical everywhere
            if comm.rank == 1:
                return comm.allreduce(3)
            return comm.allreduce(np.ones(4, dtype=np.float64))

        with pytest.raises(RankFailedError) as excinfo:
            run_spmd(2, prog)
        cause = first_cause(excinfo)
        assert isinstance(cause, CollectiveMismatchError)
        msg = str(cause)
        assert "divergence at op #1" in msg
        assert "ndarray[float64]" in msg
        assert "allreduce|int" in msg
        assert "rank 0" in msg and "rank 1" in msg

    def test_verifier_silent_on_matching_schedules(self):
        def prog(comm):
            comm.barrier()
            total = comm.allreduce(float(comm.rank))
            return comm.allgather([comm.rank] * comm.rank)  # ragged: ok

        out = run_spmd(3, prog)
        assert out.values[0] == [[], [1], [2, 2]]

    def test_python_and_numpy_scalars_share_a_kind(self):
        """Kinds are cached by type; a Python scalar and its numpy
        counterpart must still meet as one kind, whichever rank holds
        which and whichever arrives first.  The non-roots of a ``bcast``
        deposit ``None`` against the root's array: compared by name."""
        pairs = [(3, np.int64(3)), (2.5, np.float64(2.5)),
                 (True, np.bool_(True))]

        def prog(comm):
            out = [
                comm.allgather(a if comm.rank == 0 else b)
                for a, b in pairs + [(b, a) for a, b in pairs]
            ]
            root = np.arange(3.0) if comm.rank == 1 else None
            return out, comm.bcast(root, root=1)

        out = run_spmd(3, prog)
        gathered, got = out.values[2]
        assert gathered == [[a, b, b] for a, b in pairs] + [
            [b, a, a] for a, b in pairs
        ]
        np.testing.assert_array_equal(got, np.arange(3.0))

    @pytest.mark.parametrize("path", ["allreduce", "push"])
    def test_kind_divergence_fails_with_no_setting(self, path):
        """float64 against float32 arrays in a plain collective, and an
        int against a tuple deposit in ``push``'s one-rendezvous legs."""
        def prog(comm):
            if path == "allreduce":
                dtype = np.float32 if comm.rank == 1 else np.float64
                return comm.allreduce(np.ones(2, dtype=dtype))
            deposit = 3 if comm.rank == 1 else (np.zeros(0, np.int64),)
            return comm.scripted("push", deposit, None)

        with pytest.raises(RankFailedError) as excinfo:
            run_spmd(2, prog)
        msg = str(first_cause(excinfo))
        assert "collective schedule divergence at op #0" in msg
        if path == "allreduce":
            assert "'allreduce|ndarray[float64]'" in msg
            assert "'allreduce|ndarray[float32]'" in msg
        else:
            assert "'push|int'" in msg and "'push|tuple'" in msg


class TestDeadlockAudit:
    def test_recv_cycle_is_reported(self):
        # 0 waits on 1 and 1 waits on 0: a true wait cycle.  Past the
        # barrier both ranks run; rank 1 enters its receive a third of
        # the timeout after rank 0, so rank 0's timer is the first to
        # run out and the cycle has been closed long before it does (a
        # rank whose own timer ran out first leaves the wait before the
        # other reports it).
        def prog(comm):
            peer = 1 - comm.rank
            comm.barrier()
            if comm.rank == 1:
                time.sleep(0.1)
            return comm.recv(source=peer, tag=0)

        with pytest.raises(RankFailedError) as excinfo:
            run_spmd(2, prog, timeout=0.3)
        cause = first_cause(excinfo)
        assert isinstance(cause, CommTimeoutError)
        msg = str(cause)
        assert "deadlock audit (wait-for graph):" in msg
        assert "wait cycle: 0 -> 1 -> 0" in msg

    def test_collective_straggler_names_missing_ranks(self):
        def prog(comm):
            if comm.rank == 0:
                comm.barrier()  # rank 1 never arrives
            return None

        with pytest.raises(RankFailedError) as excinfo:
            run_spmd(2, prog, timeout=0.3)
        msg = str(first_cause(excinfo))
        assert "blocked in collective 'barrier'" in msg
        assert "waiting for ranks [1]" in msg
        assert "rank 1: running (not blocked in communication)" in msg
        assert "no wait cycle detected" in msg


class TestRankAbortedSuppression:
    def test_causes_contain_only_the_primary_failure(self):
        # Rank 0 raises; ranks 1 and 2 are parked in a collective and
        # observe RankAborted, which must not appear as a cause.
        def prog(comm):
            if comm.rank == 0:
                raise ValueError("primary failure")
            comm.barrier()

        with pytest.raises(RankFailedError) as excinfo:
            run_spmd(3, prog)
        err = excinfo.value
        assert set(err.causes) == {0}
        assert isinstance(err.causes[0], ValueError)
        assert err.rank == 0
        assert "first failure on rank 0" in str(err)
        assert "ValueError" in str(err)

    def test_multiple_primary_failures_all_reported(self):
        def prog(comm):
            raise RuntimeError(f"rank {comm.rank} failed")

        with pytest.raises(RankFailedError) as excinfo:
            run_spmd(2, prog)
        err = excinfo.value
        assert set(err.causes) == {0, 1}
        assert not any(
            isinstance(c, RankAborted) for c in err.causes.values()
        )
