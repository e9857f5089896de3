"""``Communicator.lookup`` and ``Communicator.push`` against the list
protocol they replaced (``tests/oracles/exchange_reference.py``).

Both collectives do the owners' work once per world, inside the
rendezvous.  On any input every rank must end with what the request /
reply ``alltoall``s and the per-source ``np.add.at`` left it: equal
answers, owner tables equal bit for bit, equal carried arrays — and the
modelled machine must not tell them apart: equal clock, message and byte
counts and collective counts, fault-plan delays included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.distgraph import owner_cuts
from repro.resilience import FaultPlan
from repro.runtime import CORI_HASWELL, FREE, RankFailedError, run_spmd
from repro.runtime.comm import World

from .oracles import exchange_reference

RANKS = [1, 2, 3, 4, 7, 8]


def _world(seed: int, p: int, n: int):
    """Offsets (some ranks own nothing) and per-rank inputs: ascending
    ids to look up, deltas (fractional, ids repeated across sources)
    and carried arrays; one rank asks for nothing and pushes nothing."""
    rng = np.random.default_rng(seed)
    offsets = np.concatenate(
        [[0], np.sort(rng.integers(0, n + 1, p - 1)), [n]]
    ).astype(np.int64)
    # Few ids shared by many sources: repeats across sources are the rule.
    hot = rng.choice(n, min(n, 3), replace=False) if n else np.empty(0, int)
    idle = int(rng.integers(0, p))
    ranks = []
    for r in range(p):
        if r == idle or n == 0:
            ids = np.empty(0, np.int64)
        else:
            ids = np.unique(np.concatenate([
                rng.choice(n, int(rng.integers(0, n + 1))), hot,
            ])).astype(np.int64)
        counts = rng.integers(0, 4, p)
        counts[r] = 0  # nothing to carry to itself, like a ghost plan
        ranks.append(dict(
            ids=ids,
            dtot=(rng.random(len(ids)) - 0.5) * 3.0,
            dsize=rng.integers(-2, 3, len(ids)),
            counts=counts,
            carried=(
                rng.integers(0, 10**6, int(counts.sum())),
                rng.integers(0, 10**6, int(counts.sum())),
            ),
        ))
    return offsets, ranks


def _tables(offsets, rank, seed):
    rng = np.random.default_rng((seed, rank))
    n = int(offsets[rank + 1] - offsets[rank])
    return rng.random(n) * 7.0, rng.integers(0, 5, n)


def _program(comm, offsets, ranks, seed, reference):
    """Two lookups around a push with carried arrays, then a push
    without; returns every answer, the tables, the carried arrays and
    the rank's counters."""
    me = ranks[comm.rank]
    ids = me["ids"]
    tot, size = _tables(offsets, comm.rank, seed)
    out = []
    if reference:
        lookup = lambda: exchange_reference.lookup(  # noqa: E731
            comm, offsets, ids, (tot, size), "community_comm"
        )
        push = lambda carry: exchange_reference.push(  # noqa: E731
            comm, offsets, ids, (me["dtot"], me["dsize"]), (tot, size),
            carry=carry, category="community_comm",
        )
    else:
        cuts = owner_cuts(offsets, ids)
        lookup = lambda: comm.lookup(  # noqa: E731
            ids, cuts, (tot, size), category="community_comm"
        )
        push = lambda carry: comm.push(  # noqa: E731
            ids, cuts, (me["dtot"], me["dsize"]), (tot, size),
            carry=carry, category="community_comm",
        )
    out.append(lookup())
    out.append(push((me["counts"], *me["carried"])))
    out.append(lookup())
    out.append(push(None))
    out.append((tot, size))
    t = comm.trace
    counters = (
        comm.clock, t.messages_sent, t.messages_received, t.bytes_sent,
        t.bytes_received, dict(t.collectives), dict(t.seconds),
    )
    return out, counters


def _assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert len(g) == len(w)
        for a, b in zip(g, w):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


def _run_both(p, seed, n, fault_plan=None):
    offsets, ranks = _world(seed, p, n)
    runs = [
        run_spmd(
            p, _program, offsets, ranks, seed, reference,
            machine=CORI_HASWELL, timeout=30.0, fault_plan=fault_plan,
        )
        for reference in (False, True)
    ]
    for (got, got_counters), (want, want_counters) in zip(
        runs[0].values, runs[1].values
    ):
        _assert_same(got, want)
        assert got_counters == want_counters
    return runs[0]


@pytest.mark.parametrize("p", RANKS)
@given(seed=st.integers(0, 2**16), n=st.integers(0, 40))
@settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_equal_to_the_list_protocol(p, seed, n):
    _run_both(p, seed, n)


@pytest.mark.parametrize("p", [2, 4])
@pytest.mark.parametrize("op", [1, 2, 3, 5, 6])
def test_delay_before_a_rendezvous_lands_as_on_the_list_protocol(p, op):
    """Ops 1 and 4 are the lookups' request legs, 2 and 5 their reply
    legs, 3 and 6 the pushes: a delay on every rank's op lands on the
    clock and in the trace exactly as on the list protocol."""
    plan = FaultPlan(delays={(r, op): 1e-3 * (r + 1) for r in range(p)})
    run = _run_both(p, 5, 30, fault_plan=plan)
    assert run.clocks[0] > 1e-3


@pytest.mark.parametrize("reference", [False, True])
def test_reply_leg_delay_of_an_early_rank_starts_the_reply_leg(reference):
    """Rank 1 arrives 1 s late; rank 0's 0.5 s delay on its reply leg
    (op 2) is charged after the request leg, so the reply leg starts
    at 1.5 s on both protocols — it is not absorbed by the wait."""
    offsets = np.array([0, 2, 4], dtype=np.int64)
    ids = np.arange(4, dtype=np.int64)

    def prog(comm):
        if comm.rank == 1:
            comm.charge("compute", 1.0)
        tables = (np.arange(2.0) + offsets[comm.rank],)
        if reference:
            got = exchange_reference.lookup(comm, offsets, ids, tables)
        else:
            got = comm.lookup(ids, owner_cuts(offsets, ids), tables)
        np.testing.assert_array_equal(got[0], np.arange(4.0))

    run = run_spmd(
        2, prog, machine=FREE, fault_plan=FaultPlan(delays={(0, 2): 0.5})
    )
    assert run.clocks == [1.5, 1.5]


def test_every_leg_is_an_alltoall_op_for_the_fault_plan():
    ops = []

    class Log:
        def on_op(self, rank, index, name):
            if rank == 0:
                ops.append((index, name))

    _run_both(3, 2, 20, fault_plan=Log())
    assert ops == [(i, "alltoall") for i in range(1, 7)] * 2


def test_mismatched_with_alltoall_raises():
    """``lookup`` is one rendezvous of its own: a rank in a plain
    ``alltoall`` meanwhile is a schedule divergence."""
    from repro.runtime.errors import CollectiveMismatchError

    def prog(comm):
        ids = np.arange(2, dtype=np.int64)
        # A deliberate divergence, to exercise the mismatch error.
        if comm.rank == 0:
            return comm.lookup(
                ids, np.array([0, 2, 2]), (np.zeros(2),)
            )
        return comm.alltoall([None, None])

    with pytest.raises(RankFailedError) as excinfo:
        run_spmd(2, prog, timeout=10.0)
    assert any(
        isinstance(c, CollectiveMismatchError)
        for c in excinfo.value.causes.values()
    )


@pytest.mark.parametrize("machine", [CORI_HASWELL, FREE])
@pytest.mark.parametrize("p", RANKS)
def test_leg_costs_are_the_models_alltoallv_costs(machine, p):
    """Every leg is priced from latencies a world computes once; that
    must be :meth:`MachineModel.alltoallv_cost` bit for bit."""
    world = World(p, machine)
    sizes = [(37 * r + 5, 11 * r) for r in range(p)]
    assert world.leg_costs(sizes) == [
        machine.alltoallv_cost(s, r, p, rank=k)
        for k, (s, r) in enumerate(sizes)
    ]
