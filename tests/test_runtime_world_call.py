"""A world call: a scripted rendezvous whose world function makes no op,
one computation over every rank's deposit.

It is a rendezvous but not a message: no clock advance, no trace record,
no fault-plan op index — and, like a collective, it shows up in the
schedule check and the deadlock audit, and a failure inside it fails
the run loudly.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core import LouvainConfig, Variant, run_louvain
from repro.runtime import CORI_HASWELL, FREE, run_spmd
from repro.runtime.errors import (
    CollectiveMismatchError,
    InjectedFault,
    RankAborted,
    RankFailedError,
)

from .conftest import planted_blocks_graph


def _world_call(comm, deposit, run):
    """``run(deposits)`` once over every rank's deposit, in a scripted
    rendezvous that makes no op; this rank's item of what it returns."""
    return comm.scripted(
        "world_call", deposit, lambda world, comms, deposits: run(deposits)
    )


def _everyone_gets_the_list(deposits):
    return [list(deposits)] * len(deposits)


class TestSemantics:
    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_run_once_in_rank_order_each_rank_its_item(self, p):
        runs = []

        def square_all(deposits):
            runs.append(threading.current_thread().name)
            return [d * d for d in deposits]

        def prog(comm):
            return _world_call(comm, comm.rank + 1, square_all)

        out = run_spmd(p, prog, machine=FREE)
        assert out.values == [(r + 1) ** 2 for r in range(p)]
        assert len(runs) == 1

    def test_no_clock_no_trace_no_fault_op(self):
        seen: dict[int, list[int]] = {}

        class Recorder:
            def on_op(self, rank, op_index, op_name):
                seen.setdefault(rank, []).append(op_index)

        def prog(comm):
            comm.barrier()
            before = (comm.clock, dict(comm.trace.collectives))
            _world_call(comm, comm.rank, _everyone_gets_the_list)
            after = (comm.clock, dict(comm.trace.collectives))
            comm.barrier()
            return before == after

        out = run_spmd(3, prog, machine=CORI_HASWELL, fault_plan=Recorder())
        assert out.values == [True] * 3
        # Two barriers, and nothing for the world call between them.
        assert seen == {r: [1, 2] for r in range(3)}

    def test_seeded_kill_lands_on_the_same_collective(self):
        def prog(comm):
            comm.barrier()
            _world_call(comm, None, _everyone_gets_the_list)
            comm.allreduce(1)

        with pytest.raises(RankFailedError) as excinfo:
            run_spmd(2, prog, machine=FREE, fault_plan=_kill(1, 2))
        cause = excinfo.value.causes[1]
        assert isinstance(cause, InjectedFault)
        assert cause.op_name == "allreduce"

    def test_schedule_verifier_sees_the_world_call(self):
        def prog(comm):
            if comm.rank == 0:
                return _world_call(comm, 1, _everyone_gets_the_list)
            return comm.allreduce(1)

        with pytest.raises(RankFailedError) as excinfo:
            run_spmd(2, prog, machine=FREE)
        cause = excinfo.value.causes[excinfo.value.rank]
        assert isinstance(cause, CollectiveMismatchError)
        assert "'world_call'" in str(cause) and "'allreduce'" in str(cause)


def _kill(rank: int, op: int):
    from repro.resilience import FaultPlan

    return FaultPlan(kills={rank: op})


class TestFailures:
    def test_rank_dying_before_its_deposit_is_named_by_the_audit(self):
        """The peers wait in the world call for the rank that never
        comes; the audit taken while they wait says so."""
        audits: list[str] = []

        def prog(comm):
            if comm.rank == 1:
                deadline = time.monotonic() + 10.0
                audit = comm.world.deadlock_audit()
                while audit.count("blocked in collective 'world_call'") < 2:
                    assert time.monotonic() < deadline, audit
                    time.sleep(0.005)
                    audit = comm.world.deadlock_audit()
                audits.append(audit)
                raise ValueError("rank 1 dies before its deposit")
            return _world_call(comm, comm.rank, _everyone_gets_the_list)

        with pytest.raises(RankFailedError) as excinfo:
            run_spmd(3, prog, machine=FREE, timeout=30.0)
        assert set(excinfo.value.causes) == {1}
        assert isinstance(excinfo.value.causes[1], ValueError)
        (audit,) = audits
        for peer in (0, 2):
            assert (
                f"rank {peer}: blocked in collective 'world_call'" in audit
            )
        assert audit.count("waiting for ranks [1]") == 2
        assert "rank 1: running (not blocked in communication)" in audit

    def test_exception_inside_the_call_fails_the_run(self):
        """The rank that ran the call fails with its exception; every
        other rank is released with RankAborted."""
        seen: dict[int, BaseException] = {}

        def lookup_fails(deposits):
            raise KeyError("community totals missing for ids [7]")

        def prog(comm):
            try:
                return _world_call(comm, comm.rank, lookup_fails)
            except BaseException as exc:
                seen[comm.rank] = exc
                raise

        with pytest.raises(RankFailedError) as excinfo:
            run_spmd(4, prog, machine=FREE, timeout=30.0)
        (runner,) = excinfo.value.causes
        assert isinstance(excinfo.value.causes[runner], KeyError)
        assert sorted(seen) == [0, 1, 2, 3]
        for rank, exc in seen.items():
            if rank != runner:
                assert isinstance(exc, RankAborted), (rank, exc)

    def test_kernel_key_error_fails_a_detection(self, monkeypatch):
        """A lookup's protocol check, raised inside the phase's world
        function: the kernel handed a totals table in which the community of
        vertex 0, which every round scores, has no entry."""
        from repro.core import distlouvain
        from repro.core.sweep import array_lookup

        def sweep_with_a_hole(**kwargs):
            cur = kwargs["cur_comm"]
            tot = kwargs["tot_lookup"](np.arange(len(cur))).astype(float)
            tot[cur[0]] = np.nan
            kwargs["tot_lookup"] = array_lookup(None, tot)
            return real(**kwargs)

        real = distlouvain.propose_moves
        monkeypatch.setattr(distlouvain, "propose_moves", sweep_with_a_hole)
        g = planted_blocks_graph(blocks=4, per_block=12, inter_edges=30, seed=1)
        with pytest.raises(RankFailedError) as excinfo:
            run_louvain(g, 3, LouvainConfig(), machine=FREE, timeout=30.0)
        (runner,) = excinfo.value.causes
        cause = excinfo.value.causes[runner]
        assert isinstance(cause, KeyError)
        assert "community totals missing for ids" in str(cause)


@pytest.mark.parametrize("p", [1, 2, 4])
def test_fault_plan_counts_only_collectives_in_a_detection(p):
    """A detection's scripted rendezvous take a fault-plan op index per
    op their world functions make and none for themselves: each rank's
    last op index is its count of collectives."""
    last: dict[int, int] = {}

    class Recorder:
        def on_op(self, rank, op_index, op_name):
            last[rank] = op_index

    g = planted_blocks_graph(blocks=5, per_block=14, inter_edges=40, seed=3)
    r = run_louvain(
        g, p, LouvainConfig(variant=Variant.ETC, alpha=0.5, seed=2),
        machine=FREE, fault_plan=Recorder(),
    )
    assert r.total_iterations > 0
    for rank, trace in enumerate(r.trace.ranks):
        assert "world_call" not in trace.collectives
        assert last[rank] == sum(trace.collectives.values())
