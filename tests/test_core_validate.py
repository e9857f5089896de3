"""Unit tests for the distributed state auditors (and via them, the
internal consistency of the Louvain iteration machinery)."""

import numpy as np
import pytest

from repro.core.distlouvain import louvain_phase_distributed
from repro.core import LouvainConfig, RunState
from repro.core.validate import (
    AuditReport,
    audit_community_info,
    audit_ghost_coherence,
    audit_partition,
)
from repro.graph import DistGraph
from repro.runtime import FREE, run_spmd

from .conftest import planted_blocks_graph
from .oracles.iteration_reference import publish


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


class TestAuditsOnLiveState:
    """Run a real phase, then audit the final state."""

    def _audit_after_phase(self, g, nranks):
        def prog(comm):
            dg = DistGraph.distribute(comm, g)
            config = LouvainConfig()
            run = RunState(dg=dg, orig_slice=dg.local_vertex_ids())
            out = louvain_phase_distributed(comm, run, 1e-6, config)
            labels = out.state.local_comm
            # Recompute owned C_info the same way the phase did, from
            # scratch, for the audit comparison.
            k = dg.local_degrees()
            tot = k.copy()
            size = np.ones(dg.num_local, dtype=np.int64)
            # Replay the moves as one batch of deltas (ground truth is
            # recomputed inside the audit anyway).
            from repro.core import aggregate_deltas
            from repro.core.distlouvain import _apply_community_deltas

            start = np.arange(dg.vbegin, dg.vend, dtype=np.int64)
            moved = labels != start
            _apply_community_deltas(
                comm, dg,
                *aggregate_deltas(start[moved], labels[moved], k[moved]),
                tot_owned=tot, size_owned=size,
            )
            r1 = audit_community_info(comm, dg, labels, tot, size)
            r2 = audit_partition(comm, dg, labels)
            r3 = audit_ghost_coherence(comm, dg, labels, out.ghost_comm)
            return r1.ok, r2.ok, r3.ok, r1.failures + r2.failures + r3.failures

        r = run_spmd(nranks, prog, machine=FREE, timeout=60.0)
        return r.values

    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_phase_leaves_consistent_state(self, nranks):
        g = planted_blocks_graph(blocks=4, per_block=12, seed=4)
        for ok1, ok2, ok3, failures in self._audit_after_phase(g, nranks):
            assert ok1 and ok2 and ok3, failures


class TestAuditsCatchCorruption:
    def test_community_info_mismatch_detected(self, planted_blocks):
        def prog(comm):
            dg = DistGraph.distribute(comm, planted_blocks)
            local_comm = np.arange(dg.vbegin, dg.vend, dtype=np.int64)
            tot = dg.local_degrees()
            size = np.ones(dg.num_local, dtype=np.int64)
            if comm.rank == 0 and dg.num_local:
                tot[0] += 99.0  # corrupt one owner entry
            return audit_community_info(
                comm, dg, local_comm, tot, size
            )

        r = run_spmd(3, prog, machine=FREE, timeout=30.0)
        for report in r.values:
            assert not report.ok
            assert any("a_c mismatch" in f for f in report.failures)

    def test_size_mismatch_detected(self, planted_blocks):
        def prog(comm):
            dg = DistGraph.distribute(comm, planted_blocks)
            local_comm = np.arange(dg.vbegin, dg.vend, dtype=np.int64)
            tot = dg.local_degrees()
            size = np.ones(dg.num_local, dtype=np.int64)
            if comm.rank == comm.size - 1 and dg.num_local:
                size[-1] = 7
            return audit_community_info(comm, dg, local_comm, tot, size)

        r = run_spmd(2, prog, machine=FREE, timeout=30.0)
        assert all(not rep.ok for rep in r.values)

    def test_ghost_staleness_detected(self, planted_blocks):
        def prog(comm):
            dg = DistGraph.distribute(comm, planted_blocks)
            plan = dg.build_ghost_plan(comm)
            local_comm = np.arange(dg.vbegin, dg.vend, dtype=np.int64)
            ghost = dg.exchange_ghost_values(comm, plan, local_comm)
            # Now move a vertex without telling anyone.
            if dg.num_local:
                local_comm = local_comm.copy()
                local_comm[0] = int(local_comm[-1])
            return audit_ghost_coherence(comm, dg, local_comm, ghost)

        r = run_spmd(4, prog, machine=FREE, timeout=30.0)
        # At least one rank ghosts the moved vertex, so the global audit
        # fails everywhere (reports are replicated).
        assert all(not rep.ok for rep in r.values)

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
            return audit_partition(comm, corrupted, local_comm)

        r = run_spmd(2, prog, machine=FREE, timeout=30.0)
        assert all(not rep.ok for rep in r.values)
        assert any(
            "weight drift" in f for f in r.values[0].failures
        )


class TestGhostChannelDeltaCoherence:
    """One full exchange, then rounds of one message per peer — the
    deltas it owns and the changed labels it ghosts — must keep the
    ghost copies *and* the owner-side C_info coherent across many
    rounds."""

    @staticmethod
    def _churn_rounds(graph, scrambled_start):
        from repro.core import aggregate_deltas
        from repro.core.distlouvain import _apply_community_deltas

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
                labels = _apply_community_deltas(
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
                return (
                    audit_ghost_coherence(comm, dg, local_comm, ghosts).ok
                    and audit_community_info(
                        comm, dg, local_comm, tot, size
                    ).ok
                )

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
    rank return early from audit_ghost_coherence, skipping the
    remote_lookup collectives the healthy ranks were entering (schedule
    divergence -> deadlock on real MPI).  The decision is now collective;
    the audit must complete on every rank and fail everywhere."""

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
            return audit_ghost_coherence(comm, dg, local_comm, ghost)

        # The schedule check makes any residual collective divergence
        # fail fast with a localized error instead of a timeout.
        r = run_spmd(2, prog, machine=FREE, timeout=30.0)
        assert all(not rep.ok for rep in r.values)
        for rep in r.values:  # merge_global replicates the failure list
            assert any("misaligned" in f for f in rep.failures)
