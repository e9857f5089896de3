"""Scripted rendezvous: a world function makes every rank's ops.

The world function runs once, on whichever rank thread arrives last, and
makes each rank's ops on the rank's own
:class:`~repro.runtime.comm.Communicator`.  Each op consults the fault
plan as it begins and is charged to the rank's own clock and trace there,
so an observer patching ``Communicator._fault_hook`` sees every op with
its category, and the world function reads each rank's clock current.  A
kill raised as an op begins stops the world function: the victim
raises its ``InjectedFault`` and every other rank ``RankAborted``,
whichever thread ran the world; of several kills in one rendezvous only
the first the world function reaches fires.  A world function that runs
longer than the timeout is no deadlock: every rank arrived.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.resilience import FaultPlan
from repro.runtime import CORI_HASWELL, run_spmd
from repro.runtime.comm import (
    Communicator, allreduce_world, alltoall_counts_world,
)
from repro.runtime.errors import InjectedFault, RankAborted, RankFailedError

P = 3

#: The ops :func:`_three_ops` makes for every rank, in order.
OPS = [
    ("alltoall", "ghost_comm"), ("allreduce", "allreduce"),
    ("alltoall", "rebuild"),
]


def _three_ops(world, comms, deposits):
    """A world function of three ops — a leg, an allreduce, a leg — that
    records every rank's clock between them."""
    p = len(comms)
    counts = np.ones((p, p), dtype=np.int64)
    clocks = [[c.clock for c in comms]]
    alltoall_counts_world(world, comms, counts, 8, category="ghost_comm")
    clocks.append([c.clock for c in comms])
    total = allreduce_world(world, comms, deposits, category="allreduce")
    clocks.append([c.clock for c in comms])
    alltoall_counts_world(world, comms, counts * 2, 8, category="rebuild")
    clocks.append([c.clock for c in comms])
    return [(t, clocks) for t in total]


def _program(seen):
    """Two barriers around one three-op scripted rendezvous; each rank's
    exception, if any, lands in ``seen``."""
    def prog(comm):
        try:
            comm.barrier()
            out = comm.scripted("three_ops", comm.rank + 1.0, _three_ops)
            comm.barrier()
            return out
        except BaseException as exc:
            seen[comm.rank] = exc
            raise
    return prog


def test_ops_are_charged_to_each_rank_as_they_are_made(monkeypatch):
    """Between the world function's ops every rank's clock has moved
    already (nothing is replayed afterwards), and a ``_fault_hook``
    observer sees each op with its category, rank by rank."""
    hooked = []
    real = Communicator._fault_hook

    def hook(self, name, category):
        hooked.append((self.rank, self._ops + 1, name, category))
        return real(self, name, category)

    monkeypatch.setattr(Communicator, "_fault_hook", hook)
    out = run_spmd(P, _program({}), machine=CORI_HASWELL)
    total, clocks = out.values[0]
    assert total == 6.0
    for before, after in zip(clocks, clocks[1:]):
        assert all(b < a for b, a in zip(before, after))
    # Barrier 1, the three ops (every rank's op k before any rank's
    # op k + 1), barrier 2.
    inside = [h for h in hooked if h[1] in (2, 3, 4)]
    assert inside == [
        (rank, index, *OPS[index - 2])
        for index in (2, 3, 4) for rank in range(P)
    ]
    for trace in out.trace.ranks:
        assert dict(trace.collectives) == {
            "barrier": 2, "alltoall": 2, "allreduce": 1
        }


@pytest.mark.parametrize("victim", range(P))
@pytest.mark.parametrize("at", range(len(OPS)))
def test_kill_inside_a_world_function(victim, at):
    """Each rank in turn killed at each op of a multi-op world function:
    its ``InjectedFault`` at ``(rank, op_index, op_name)`` is the only
    primary cause, every other rank raises ``RankAborted`` — whichever
    thread ran the world."""
    seen: dict[int, BaseException] = {}
    op = at + 2  # after the first barrier
    with pytest.raises(RankFailedError) as excinfo:
        run_spmd(
            P, _program(seen), machine=CORI_HASWELL,
            fault_plan=FaultPlan(kills={victim: op}), timeout=30.0,
        )
    assert set(excinfo.value.causes) == {victim}
    cause = excinfo.value.causes[victim]
    assert isinstance(cause, InjectedFault)
    assert (cause.rank, cause.op_index, cause.op_name) == (
        victim, op, OPS[at][0]
    )
    assert sorted(seen) == list(range(P))
    for rank, exc in seen.items():
        if rank != victim:
            assert isinstance(exc, RankAborted), (rank, exc)


@pytest.mark.parametrize(
    "kills,victim",
    [
        # Rank 0's kill is at the third op, rank 2's at the second: the
        # world reaches rank 2's first, and rank 0's never runs.
        ({0: 4, 2: 3}, 2),
        # Both at the same op: its ranks begin in rank order.
        ({2: 3, 1: 3}, 1),
        # A kill in the world function and one in the barrier after it:
        # the run stops in the world.
        ({1: 5, 0: 3}, 0),
        # Two kills in one collective: the first in rank order fires.
        ({2: 1, 1: 1}, 1),
    ],
    ids=["earlier op", "same op", "later rendezvous", "same barrier"],
)
def test_several_kills_in_one_rendezvous(kills, victim):
    """When several ranks' kills fall in one rendezvous, only the first
    the world function reaches fires — ops in the order it makes them,
    an op's ranks in rank order; every other rank, killed later or not
    at all, raises ``RankAborted``."""
    seen: dict[int, BaseException] = {}
    with pytest.raises(RankFailedError) as excinfo:
        run_spmd(
            P, _program(seen), machine=CORI_HASWELL,
            fault_plan=FaultPlan(kills=kills), timeout=30.0,
        )
    assert set(excinfo.value.causes) == {victim}
    cause = excinfo.value.causes[victim]
    assert isinstance(cause, InjectedFault)
    assert cause.op_index == kills[victim]
    for rank, exc in seen.items():
        if rank != victim:
            assert isinstance(exc, RankAborted), (rank, exc)


def test_one_rank_kill_raises_natively():
    """On one rank the executor's fast path lets the kill out as it is."""
    with pytest.raises(InjectedFault) as excinfo:
        run_spmd(
            1, _program({}), machine=CORI_HASWELL,
            fault_plan=FaultPlan(kills={0: 3}),
        )
    assert (excinfo.value.op_index, excinfo.value.op_name) == (3, "allreduce")


def test_a_world_function_longer_than_the_timeout_is_no_deadlock():
    """Every rank arrived, so the ranks waiting while one thread runs a
    long world function (a whole phase, on a large graph) are not stuck:
    the timeout is for ranks that never come."""
    def slow(world, comms, deposits):
        time.sleep(1.5)
        return list(deposits)

    def prog(comm):
        return comm.scripted("slow", comm.rank, slow)

    # The executor still bounds the run at twice the timeout.
    out = run_spmd(P, prog, machine=CORI_HASWELL, timeout=1.0)
    assert out.values == list(range(P))
