"""The world's view of the communities and the dense-space delta
aggregation.

Inside a phase a community id is a global vertex id, and the community
of any vertex — a ghost's as of the last synchronisation point included
— is its label in the world's labels (``_WorldPhase.local_comm``).  The
one view derived from them that the rounds patch instead of rebuilding
is the community of every CSR entry's target, the kernel's
``target_comm``: these tests hold it to the labels after every round of
real runs (where the iteration's world function patches it) and after a
resume, hold the rounds' one message per peer to the per-rank reference
iteration's two exchanges, and hold ``aggregate_dense_deltas`` to the
sort-based reference it replaced.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import LouvainConfig, Variant, aggregate_deltas, run_louvain
from repro.core import distlouvain
from repro.core.distlouvain import aggregate_dense_deltas
from repro.graph import CSRGraph
from repro.resilience import FaultPlan
from repro.runtime import FREE, RankFailedError

from .conftest import disk_checkpoints, planted_blocks_graph
from .oracles import (
    aggregate_reference, exchange_reference, iteration_reference,
)
from .test_core_sweep_differential import adversarial_edges

COMMON = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_view_consistent(world, dg, rank) -> None:
    """Every entry of rank ``rank``'s segment of the stack aims at its
    target's community in the world's labels, and the kernel's current
    communities are those labels."""
    e0, e1 = world.stack.entry_cuts[rank:rank + 2]
    np.testing.assert_array_equal(
        world.stack.target[e0:e1], world.local_comm[dg.edges]
    )
    assert world.stack.cur is world.local_comm


# ----------------------------------------------------------------------
# Every round of real runs
# ----------------------------------------------------------------------
@pytest.fixture
def checked_rounds(monkeypatch):
    """Assert every rank's view invariant after every round the
    iteration's world function runs (``_world_round``); yields the
    per-rank count of rounds checked."""
    real = distlouvain._world_round
    checked: dict[int, int] = {}

    def world_round(world, comms, phases, k):
        out = real(world, comms, phases, k)
        for rank, phase in enumerate(phases):
            assert_view_consistent(phase.world, phase.dg, rank)
            checked[rank] = checked.get(rank, 0) + 1
        return out

    monkeypatch.setattr(distlouvain, "_world_round", world_round)
    return checked


ETC = LouvainConfig(variant=Variant.ETC, alpha=0.25, seed=1)


def test_view_consistent_after_every_round(checked_rounds):
    g = planted_blocks_graph(blocks=6, per_block=16, inter_edges=70, seed=2)
    r = run_louvain(g, 4, ETC, machine=FREE)
    assert checked_rounds == {rank: r.total_iterations for rank in range(4)}


def test_view_consistent_after_resume(checked_rounds, tmp_path):
    """A resumed phase re-aims the targets at the restored labels (no
    shard stores them) and carries on bit-identically."""
    g = planted_blocks_graph(blocks=6, per_block=16, inter_edges=70, seed=2)
    ref = run_louvain(g, 4, ETC, machine=FREE)
    full_run = dict(checked_rounds)
    checked_rounds.clear()
    d = str(tmp_path / "ck")
    with pytest.raises(RankFailedError):
        run_louvain(
            g, 4, ETC, machine=FREE,
            checkpoints=disk_checkpoints(d, ETC, every_iterations=1),
            fault_plan=FaultPlan(kills={3: 60}),
        )
    before_kill = checked_rounds.get(0, 0)
    assert 0 < before_kill < full_run[0]
    res = run_louvain(
        g, 4, ETC, machine=FREE, checkpoints=disk_checkpoints(d, ETC),
        resume=True,
    )
    assert checked_rounds[0] > before_kill
    np.testing.assert_array_equal(res.assignment, ref.assignment)
    assert res.modularity == ref.modularity
    assert res.iterations == ref.iterations


# ----------------------------------------------------------------------
# One message per peer against the two-exchange oracle
# ----------------------------------------------------------------------
def _state_after_every_iteration(g, p, config, two_exchanges: bool):
    """Run a detection; per rank, copies of the owner-side tables and
    the raw community of every slot (owned vertices, then ghosts) and of
    every entry's target after each iteration (one round each: no
    colouring) — the shipped one, whose ghosts read the world's labels,
    or the per-rank reference iteration, whose ghost copies its pushes
    patch, with the oracle's two exchanges in place of its one push
    (which also logs what each peer's message held)."""
    states = {rank: [] for rank in range(p)}
    received: list[tuple[bool, bool]] = []
    iterations = (
        iteration_reference.per_rank_iterations if two_exchanges
        else iteration_reference.world_iterations
    )

    def snapshot(comm, phase, exited):
        state = phase.state
        ghosts = (
            phase.ghost_comm if two_exchanges
            else phase.world.local_comm.take(phase.plan.ghost_ids)
        )
        slots = np.concatenate([state.local_comm, ghosts])
        states[comm.rank].append([
            a.copy() for a in (
                state.tot_owned, state.size_owned,
                slots, slots[phase.dg.compressed_targets()],
            )
        ])

    with pytest.MonkeyPatch.context() as patch:
        iterations(patch, snapshot)
        if two_exchanges:
            patch.setattr(
                iteration_reference, "apply_community_deltas",
                partial(
                    exchange_reference.apply_community_deltas,
                    received_log=received,
                ),
            )
        run_louvain(g, p, config, machine=FREE)
    return states, set(received)


@pytest.mark.parametrize("p", [2, 3, 4, 7])
def test_fused_exchange_matches_two_exchanges(p):
    """Deltas and labels in one message per peer leave every rank
    holding, after every iteration, exactly what the two exchanges of
    the per-rank reference iteration left:
    owner-side ``tot`` / ``size``, the community of every slot and of
    every entry's target — on rounds where a peer's message carries
    deltas and labels, only one of them, or nothing."""
    message_kinds = set()
    for seed in range(8):
        _, n, u, v, w = adversarial_edges(seed)
        g = CSRGraph.from_edges(n, u, v, w)
        for config in (LouvainConfig(), ETC):
            got, _ = _state_after_every_iteration(g, p, config, False)
            want, kinds = _state_after_every_iteration(g, p, config, True)
            message_kinds |= kinds
            for rank in range(p):
                assert len(got[rank]) == len(want[rank]) > 0
                for got_round, want_round in zip(got[rank], want[rank]):
                    for a, b in zip(got_round, want_round):
                        assert a.dtype == b.dtype
                        np.testing.assert_array_equal(a, b)
    # (deltas, labels) of one peer's message in one round.  With two
    # ranks a vertex joining a community the peer owns nearly always
    # has a neighbour there, so "deltas, no labels" needs p > 2.
    expected = {(True, True), (False, True), (False, False)}
    if p > 2:
        expected.add((True, False))
    assert message_kinds >= expected


# ----------------------------------------------------------------------
# Dense-space delta aggregation against the sort-based reference
# ----------------------------------------------------------------------
@given(
    moves=st.integers(0, 60), communities=st.integers(1, 12),
    spare=st.integers(0, 5), seed=st.integers(0, 2**16),
)
@settings(**COMMON)
def test_dense_aggregation_matches_reference(moves, communities, spare, seed):
    """Array for array — ids, float deltas bit for bit, size deltas —
    on fractional degrees, with net-zero communities (a swap, a move
    onto itself) and table rows no move touches."""
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(10_000, communities + spare, replace=False))
    live = rng.choice(len(ids), communities, replace=False)
    old = rng.choice(live, moves)
    new = rng.choice(live, moves)
    deg = rng.random(moves) * 7.0
    if moves >= 2:
        # A swap of equal degrees nets to zero on both communities.
        new[0], new[1] = old[1], old[0]
        deg[1] = deg[0]
    want = aggregate_reference.aggregate_deltas(ids[old], ids[new], deg)
    for got in (
        aggregate_dense_deltas(ids, old, new, deg),
        aggregate_deltas(ids[old], ids[new], deg),
    ):
        assert len(got) == 3
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)


class TestAggregateDeltas:
    def test_nets_out_per_community(self):
        # propose_moves only reports movers, but a mover may land in a
        # community another mover left.
        old = np.array([5, 9, 2])
        new = np.array([9, 5, 5])
        deg = np.array([2.0, 3.0, 1.0])
        uniq, dtot, dsize = aggregate_deltas(old, new, deg)
        np.testing.assert_array_equal(uniq, [2, 5, 9])
        np.testing.assert_allclose(dtot, [-1.0, -2.0 + 3.0 + 1.0, 2.0 - 3.0])
        np.testing.assert_array_equal(dsize, [-1, 1, 0])

    def test_net_zero_ids_are_kept(self):
        # A touched community whose deltas cancel is still listed.
        uniq, dtot, dsize = aggregate_deltas(
            np.array([4]), np.array([4]), np.array([2.0])
        )
        np.testing.assert_array_equal(uniq, [4])
        np.testing.assert_array_equal(dtot, [0.0])
        np.testing.assert_array_equal(dsize, [0])
