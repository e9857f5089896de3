"""Unit tests for the distributed state auditors (and via them, the
internal consistency of the Louvain iteration machinery).

The audits are one world step (``audit_world``) over every rank's
labels, owner tables and ghost copies.  Here each rank deposits its own
— as a per-rank program holds them — in one rendezvous (:func:`audit`),
whose world lays them end to end and audits them: a corrupted owner
table, label or ghost copy must raise ``AssertionError`` naming it.
"""

import numpy as np
import pytest

from repro.core.distlouvain import _begin_phase, _phase_world, _set_up_world
from repro.core import LouvainConfig, RunState
from repro.core.validate import AuditReport, audit_world
from repro.graph import DistGraph
from repro.runtime import FREE, run_spmd

from .conftest import planted_blocks_graph
from .oracles.aggregate_reference import aggregate_deltas
from .oracles.iteration_reference import apply_community_deltas, publish


def audit(comm, dg, local_comm, tot, size, ghost=None):
    """The audits over every rank's deposit: ``None`` when they pass,
    else the ``AssertionError``'s message, on every rank.  ``ghost`` is
    the rank's copy of its ghosts' communities (by default, what their
    owners hold)."""
    plan = dg.ghost_plan or dg.build_ghost_plan(comm)
    return comm.scripted(
        "audit", (dg, plan, local_comm, tot, size, ghost), _audit_deposits
    )


def _audit_deposits(world, comms, deposits):
    graphs, plans, labels, tot, size, ghosts = zip(*deposits)
    labels, tot, size = map(np.concatenate, (labels, tot, size))
    ghosts = [
        labels[plan.ghost_ids] if g is None else g
        for plan, g in zip(plans, ghosts)
    ]
    try:
        audit_world(world, comms, graphs, plans, labels, tot, size, ghosts)
    except AssertionError as exc:
        return [str(exc)] * len(comms)
    return [None] * len(comms)


class TestAuditReport:
    def test_record_failure(self):
        r = AuditReport()
        r.record(True, "fine")
        assert r.ok
        r.record(False, "broken")
        assert not r.ok
        assert r.failures == ["broken"]

    def test_raise_if_failed(self):
        r = AuditReport()
        r.record(False, "oops")
        with pytest.raises(AssertionError, match="oops"):
            r.raise_if_failed()
        AuditReport().raise_if_failed()  # no-op when clean


def _one_phase(world, comms, runs):
    """Phase 0 for every rank, as the detection's world runs it: the
    starting states, the set-up, the iterations and the close."""
    config = LouvainConfig()
    seats = [
        _begin_phase(comm, run, config, None) for comm, run in zip(comms, runs)
    ]
    phases = _set_up_world(world, comms, seats, config=config)
    _phase_world(world, comms, phases, 1e-6, config)
    return phases


class TestAuditsOnLiveState:
    """Run a real phase, then audit the final state."""

    def _audit_after_phase(self, g, nranks):
        def prog(comm):
            dg = DistGraph.distribute(comm, g)
            run = RunState(dg=dg, orig_slice=dg.local_vertex_ids())
            out = comm.scripted("phase", run, _one_phase)
            labels = out.state.local_comm
            # Recompute owned C_info the same way the phase did, from
            # scratch, for the audit comparison.
            k = dg.local_degrees()
            tot = k.copy()
            size = np.ones(dg.num_local, dtype=np.int64)
            # Replay the moves as one batch of deltas (ground truth is
            # recomputed inside the audit anyway).
            start = np.arange(dg.vbegin, dg.vend, dtype=np.int64)
            moved = labels != start
            apply_community_deltas(
                comm, dg,
                *aggregate_deltas(start[moved], labels[moved], k[moved]),
                tot_owned=tot, size_owned=size,
            )
            return audit(comm, dg, labels, tot, size, out.ghost_comm)

        r = run_spmd(nranks, prog, machine=FREE, timeout=60.0)
        return r.values

    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_phase_leaves_consistent_state(self, nranks):
        g = planted_blocks_graph(blocks=4, per_block=12, seed=4)
        for failure in self._audit_after_phase(g, nranks):
            assert failure is None, failure


class TestAuditsCatchCorruption:
    def test_community_info_mismatch_detected(self, planted_blocks):
        def prog(comm):
            dg = DistGraph.distribute(comm, planted_blocks)
            local_comm = np.arange(dg.vbegin, dg.vend, dtype=np.int64)
            tot = dg.local_degrees()
            size = np.ones(dg.num_local, dtype=np.int64)
            if comm.rank == 0 and dg.num_local:
                tot[0] += 99.0  # corrupt one owner entry
            return audit(comm, dg, local_comm, tot, size)

        r = run_spmd(3, prog, machine=FREE, timeout=30.0)
        for failure in r.values:
            assert "rank 0: a_c mismatch for community 0" in failure

    def test_size_mismatch_detected(self, planted_blocks):
        def prog(comm):
            dg = DistGraph.distribute(comm, planted_blocks)
            local_comm = np.arange(dg.vbegin, dg.vend, dtype=np.int64)
            tot = dg.local_degrees()
            size = np.ones(dg.num_local, dtype=np.int64)
            if comm.rank == comm.size - 1 and dg.num_local:
                size[-1] = 7
            return audit(comm, dg, local_comm, tot, size)

        r = run_spmd(2, prog, machine=FREE, timeout=30.0)
        last = planted_blocks.num_vertices - 1
        for failure in r.values:
            assert f"rank 1: size mismatch for community {last}" in failure

    def test_ghost_staleness_detected(self, planted_blocks):
        def prog(comm):
            dg = DistGraph.distribute(comm, planted_blocks)
            plan = dg.build_ghost_plan(comm)
            local_comm = np.arange(dg.vbegin, dg.vend, dtype=np.int64)
            ghost = dg.exchange_ghost_values(comm, plan, local_comm)
            tot = dg.local_degrees()
            size = np.ones(dg.num_local, dtype=np.int64)
            # Now move a vertex into its rank's last vertex's community,
            # the owner's C_info kept right, without telling the ranks
            # that ghost it.
            if dg.num_local:
                local_comm = local_comm.copy()
                local_comm[0] = int(local_comm[-1])
                tot[-1] += tot[0]
                tot[0] = 0.0
                size[-1], size[0] = 2, 0
            return audit(comm, dg, local_comm, tot, size, ghost)

        r = run_spmd(4, prog, machine=FREE, timeout=30.0)
        # At least one rank ghosts a moved vertex, so the global audit
        # fails everywhere (the findings are merged).
        for failure in r.values:
            assert "ghost" in failure and "owner says" in failure

    def test_weight_drift_detected(self, planted_blocks):
        def prog(comm):
            dg = DistGraph.distribute(comm, planted_blocks)
            corrupted = DistGraph(
                offsets=dg.offsets,
                rank=dg.rank,
                index=dg.index,
                edges=dg.edges,
                weights=dg.weights,
                total_weight=dg.total_weight + 100.0,
            )
            local_comm = np.arange(dg.vbegin, dg.vend, dtype=np.int64)
            return audit(
                comm, corrupted, local_comm, dg.local_degrees(),
                np.ones(dg.num_local, dtype=np.int64),
            )

        r = run_spmd(2, prog, machine=FREE, timeout=30.0)
        for failure in r.values:
            assert "weight drift" in failure


class TestGhostChannelDeltaCoherence:
    """One full exchange, then rounds of one message per peer — the
    deltas it owns and the changed labels it ghosts — must keep the
    ghost copies *and* the owner-side C_info coherent across many
    rounds."""

    @staticmethod
    def _churn_rounds(graph, scrambled_start):
        def prog(comm):
            dg = DistGraph.distribute(comm, graph)
            plan = dg.build_ghost_plan(comm)
            rng = np.random.default_rng(comm.rank)
            k = dg.local_degrees()
            tot = k.copy()
            size = np.ones(dg.num_local, dtype=np.int64)
            local_comm = np.arange(dg.vbegin, dg.vend, dtype=np.int64)

            def move_to(new_comm, ghosts=None):
                """One round's exchange for the moves ``local_comm`` ->
                ``new_comm``; with ghost copies, the labels ride along
                and land there."""
                moved = new_comm != local_comm
                labels = apply_community_deltas(
                    comm, dg,
                    *aggregate_deltas(
                        local_comm[moved], new_comm[moved], k[moved]
                    ),
                    tot_owned=tot, size_owned=size,
                    labels=(
                        None if ghosts is None
                        else publish(dg, plan, new_comm, moved)
                    ),
                )
                if ghosts is not None:
                    ids, values = labels
                    ghosts[np.searchsorted(plan.ghost_ids, ids)] = values
                local_comm[:] = new_comm

            if scrambled_start:
                move_to(rng.integers(0, dg.num_global_vertices, dg.num_local))
            ghosts = dg.exchange_ghost_values(comm, plan, local_comm)

            def coherent():
                return audit(comm, dg, local_comm, tot, size, ghosts) is None

            oks = [coherent()]
            for _ in range(5):
                # Random churn of local assignments.
                new_comm = local_comm.copy()
                if dg.num_local:
                    idx = rng.integers(0, dg.num_local, 3)
                    new_comm[idx] = rng.integers(
                        0, dg.num_global_vertices, 3
                    )
                move_to(new_comm, ghosts)
                oks.append(coherent())
            return oks

        r = run_spmd(4, prog, machine=FREE, timeout=60.0)
        assert all(len(oks) == 6 and all(oks) for oks in r.values)

    def test_delta_stays_coherent(self, planted_blocks):
        self._churn_rounds(planted_blocks, scrambled_start=False)

    def test_resume_shaped_start_stays_coherent(self, planted_blocks):
        # A resumed (or warm-started) phase starts its ghost copies from
        # an arbitrary assignment, not the singleton one.
        self._churn_rounds(planted_blocks, scrambled_start=True)


class TestMisalignedGhostAudit:
    """Regression: a ghost array misaligned on ONE rank used to make that
    rank return early from the ghost audit, skipping the owners' lookup
    the healthy ranks were entering (schedule divergence -> deadlock on
    real MPI).  The decision is collective; the audit must complete for
    every rank and fail everywhere."""

    def test_single_rank_misalignment_fails_collectively(
        self, planted_blocks
    ):
        def prog(comm):
            dg = DistGraph.distribute(comm, planted_blocks)
            plan = dg.build_ghost_plan(comm)
            local_comm = np.arange(dg.vbegin, dg.vend, dtype=np.int64)
            ghost = dg.exchange_ghost_values(comm, plan, local_comm)
            if comm.rank == 1:
                ghost = ghost[:-1]  # drop one entry on this rank only
            return audit(
                comm, dg, local_comm, dg.local_degrees(),
                np.ones(dg.num_local, dtype=np.int64), ghost,
            )

        # The schedule check makes any residual collective divergence
        # fail fast with a localized error instead of a timeout.
        r = run_spmd(2, prog, machine=FREE, timeout=30.0)
        for failure in r.values:  # the findings are merged
            assert "rank 1: ghost array misaligned" in failure
