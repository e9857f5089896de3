"""Unit tests for the distributed Louvain algorithm (Algorithms 2-4)."""

import numpy as np
import pytest

from repro.core import LouvainConfig, Variant, louvain, modularity, run_louvain
from repro.graph import EdgeList
from repro.runtime import CORI_HASWELL, FREE

from .conftest import assert_valid_partition, planted_blocks_graph


class TestCorrectness:
    @pytest.mark.parametrize("nranks", [1, 2, 3, 4, 8])
    def test_planted_blocks_all_p(self, planted_blocks, nranks):
        r = run_louvain(planted_blocks, nranks, machine=FREE)
        assert r.num_communities == 8
        assert r.modularity > 0.8
        assert_valid_partition(r.assignment, 200)

    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_two_cliques(self, two_cliques, nranks):
        r = run_louvain(two_cliques, nranks, machine=FREE)
        assert r.modularity == pytest.approx(0.45238095, abs=1e-6)
        assert r.num_communities == 2

    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_karate(self, karate, nranks):
        r = run_louvain(karate, nranks, machine=FREE)
        assert 0.38 <= r.modularity <= 0.43

    def test_reported_q_matches_assignment(self, planted_blocks):
        r = run_louvain(planted_blocks, 4, machine=FREE)
        assert modularity(planted_blocks, r.assignment) == pytest.approx(
            r.modularity, abs=1e-9
        )

    def test_quality_close_to_serial(self, planted_blocks):
        serial = louvain(planted_blocks)
        for p in (2, 4, 8):
            dist = run_louvain(planted_blocks, p, machine=FREE)
            assert dist.modularity >= serial.modularity - 0.03

    @pytest.mark.parametrize("partition", ["even_vertex", "even_edge"])
    def test_partition_strategies(self, planted_blocks, partition):
        r = run_louvain(
            planted_blocks, 4, machine=FREE, partition=partition
        )
        assert r.modularity > 0.8

    def test_more_ranks_than_vertices(self):
        g = planted_blocks_graph(
            blocks=2, per_block=4, p_in=1.0, inter_edges=1, seed=0
        )
        r = run_louvain(g, 12, machine=FREE)
        assert_valid_partition(r.assignment, 8)
        assert r.modularity > 0.3
        assert r.num_communities == 2

    def test_disconnected_graph(self):
        g = EdgeList.from_arrays(
            8, [0, 1, 2, 4, 5, 6], [1, 2, 3, 5, 6, 7]
        ).to_csr()
        r = run_louvain(g, 3, machine=FREE)
        assert r.num_communities >= 2
        assert r.modularity > 0.3

    @pytest.mark.parametrize("delta", [-5, 5])
    def test_warm_start_of_the_wrong_length_is_refused(self, delta):
        """Before the world starts: five labels short used to fail on
        one rank mid-run, five extra were silently dropped."""
        from repro.generators import make_graph

        g = make_graph("channel", scale="tiny", seed=0)
        labels = np.arange(g.num_vertices + delta) % 7
        with pytest.raises(ValueError, match="initial_assignment covers"):
            run_louvain(g, 4, machine=FREE, initial_assignment=labels)

    def test_graph_with_isolated_vertices(self):
        g = EdgeList.from_arrays(6, [0, 1], [1, 2]).to_csr()
        r = run_louvain(g, 2, machine=FREE)
        assert_valid_partition(r.assignment, 6)

    def test_weighted_graph(self):
        g = EdgeList.from_arrays(
            6, [0, 1, 2, 3, 4, 0], [1, 2, 3, 4, 5, 3],
            [5.0, 5.0, 0.1, 5.0, 5.0, 0.1],
        ).to_csr()
        r = run_louvain(g, 2, machine=FREE)
        assert r.assignment[0] == r.assignment[1] == r.assignment[2]
        assert r.assignment[3] == r.assignment[4] == r.assignment[5]


class TestVariants:
    @pytest.mark.parametrize(
        "variant,alpha",
        [
            (Variant.ET, 0.25),
            (Variant.ET, 0.75),
            (Variant.ETC, 0.25),
            (Variant.ETC, 0.75),
            (Variant.THRESHOLD_CYCLING, 0.25),
            (Variant.ET_TC, 0.25),
        ],
    )
    def test_all_variants_reach_good_quality(
        self, planted_blocks, variant, alpha
    ):
        cfg = LouvainConfig(variant=variant, alpha=alpha)
        r = run_louvain(planted_blocks, 4, cfg, machine=FREE)
        assert r.modularity > 0.75
        assert_valid_partition(r.assignment, 200)

    def test_et_reduces_active_fraction(self, planted_blocks):
        cfg = LouvainConfig(variant=Variant.ET, alpha=0.75)
        r = run_louvain(planted_blocks, 4, cfg, machine=FREE)
        assert min(it.active_fraction for it in r.iterations) < 1.0

    def test_etc_tracks_global_inactive(self, planted_blocks):
        cfg = LouvainConfig(variant=Variant.ETC, alpha=0.75)
        r = run_louvain(planted_blocks, 4, cfg, machine=FREE)
        fracs = [it.inactive_fraction for it in r.iterations]
        assert max(fracs) > 0.0

    def test_etc_exit_flag_set_when_triggered(self, planted_blocks):
        cfg = LouvainConfig(
            variant=Variant.ETC, alpha=0.95, etc_exit_fraction=0.5
        )
        r = run_louvain(planted_blocks, 4, cfg, machine=FREE)
        assert any(p.exited_by_inactive for p in r.phases)

    @pytest.mark.parametrize("nranks", [2, 4])
    @pytest.mark.parametrize("variant", [Variant.ET, Variant.ET_TC])
    def test_et_result_is_replicated(self, planted_blocks, variant, nranks):
        # The inactive fraction is the global one (its count rides the
        # modularity allreduce), not this rank's own vertices': every
        # rank returns the same iteration records.
        from repro.core.distlouvain import distributed_louvain
        from repro.graph import DistGraph
        from repro.runtime import run_spmd

        cfg = LouvainConfig(variant=variant, alpha=0.75, seed=1)

        def prog(comm):
            dg = DistGraph.distribute(comm, planted_blocks)
            return distributed_louvain(comm, dg, cfg).iterations

        per_rank = run_spmd(nranks, prog, machine=FREE, timeout=60.0).values
        assert max(it.inactive_fraction for it in per_rank[0]) > 0.0
        for iterations in per_rank[1:]:
            assert iterations == per_rank[0]

    @pytest.mark.parametrize("nranks", [1, 3])
    def test_every_rank_gets_one_read_only_assignment(
        self, planted_blocks, nranks
    ):
        # The result's allgather normalises the assignment once for the
        # world: every rank holds the same array, and none may write it.
        from repro.core.distlouvain import distributed_louvain
        from repro.graph import DistGraph
        from repro.runtime import run_spmd

        def prog(comm):
            dg = DistGraph.distribute(comm, planted_blocks)
            return distributed_louvain(comm, dg).assignment

        per_rank = run_spmd(nranks, prog, machine=FREE, timeout=60.0).values
        want = run_louvain(planted_blocks, nranks, machine=FREE).assignment
        for assignment in per_rank:
            np.testing.assert_array_equal(assignment, want)
            assert not assignment.flags.writeable
            with pytest.raises(ValueError):
                assignment[:1] = -1
        # The driver hands its caller rank 0's array alone, writable.
        assert want.flags.writeable

    @pytest.mark.parametrize(
        "name,nranks,exits",
        [
            # (phase, its last iteration, inactive fraction) of every
            # phase ETC's exit ended, recorded when the exit still had
            # an allreduce of its own.
            ("soc-friendster", 1, [(1, 5, "0x1.e6dc211c83382p-1"),
                                   (2, 4, "0x1.d74a5f82bd74ap-1")]),
            ("soc-friendster", 2, [(1, 6, "0x1.d4a16e3b07d4ap-1")]),
            ("soc-friendster", 4, [(2, 4, "0x1.d83f9a3c6c1fdp-1")]),
            ("channel", 4, []),
            ("web-wiki-en-2013", 1, [(1, 6, "0x1.d87c6d4b3ea24p-1"),
                                     (2, 5, "0x1.dd1745d1745d1p-1")]),
            ("web-wiki-en-2013", 4, [(2, 4, "0x1.d5a0a97d5a0a9p-1"),
                                     (4, 3, "0x1.de6d1d60864b9p-1")]),
        ],
    )
    def test_etc_exits_where_it_did(self, name, nranks, exits):
        from tests import fingerprints

        cfg = LouvainConfig(variant=Variant.ETC, alpha=0.75, seed=3)
        r = run_louvain(fingerprints.graph(name), nranks, cfg)
        last = {it.phase: it for it in r.iterations}
        assert [
            (ph.phase, last[ph.phase].iteration,
             float(last[ph.phase].inactive_fraction).hex())
            for ph in r.phases if ph.exited_by_inactive
        ] == exits


class TestTiming:
    def test_elapsed_and_trace_populated(self, planted_blocks):
        r = run_louvain(planted_blocks, 4, machine=CORI_HASWELL)
        assert r.elapsed > 0
        cats = r.trace.seconds_by_category()
        for cat in ("compute", "ghost_comm", "community_comm", "allreduce"):
            assert cats.get(cat, 0) > 0, cat

    def test_deterministic_including_time(self, planted_blocks):
        r1 = run_louvain(planted_blocks, 4, machine=CORI_HASWELL)
        r2 = run_louvain(planted_blocks, 4, machine=CORI_HASWELL)
        np.testing.assert_array_equal(r1.assignment, r2.assignment)
        assert r1.elapsed == r2.elapsed

    def test_et_faster_than_baseline(self, planted_blocks):
        base = run_louvain(planted_blocks, 4, machine=CORI_HASWELL)
        et = run_louvain(
            planted_blocks,
            4,
            LouvainConfig(variant=Variant.ET, alpha=0.75),
            machine=CORI_HASWELL,
        )
        # ET processes fewer vertices; its modelled time per unit of
        # quality should not exceed baseline by much.  (Exact speedup is
        # graph-dependent; assert the compute trace shrank.)
        assert (
            et.trace.seconds_by_category()["compute"]
            < base.trace.seconds_by_category()["compute"] * 1.2
        )


class TestStatsTracking:
    def test_phase_graph_sizes_shrink(self, planted_blocks):
        r = run_louvain(planted_blocks, 4, machine=FREE)
        sizes = [p.num_vertices for p in r.phases]
        assert sizes[0] == 200
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))

    def test_iteration_series_nonempty(self, planted_blocks):
        r = run_louvain(planted_blocks, 4, machine=FREE)
        assert r.total_iterations == len(r.iterations)
        assert r.iterations[0].phase == 0

    def test_track_assignments_gathers_to_root(self, two_cliques):
        cfg = LouvainConfig(track_assignments=True)
        r = run_louvain(two_cliques, 2, cfg, machine=FREE)
        assert r.phase_assignments is not None
        assert len(r.phase_assignments) == r.num_phases
        for pa in r.phase_assignments:
            assert len(pa) == 10

    def test_max_phases_cap(self, planted_blocks):
        cfg = LouvainConfig(max_phases=1)
        r = run_louvain(planted_blocks, 4, cfg, machine=FREE)
        assert r.num_phases == 1

    def test_ghost_fraction_on_every_distributed_phase(self, planted_blocks):
        res = run_louvain(planted_blocks, 2, machine=FREE)
        assert all(p.ghost_fraction >= 0.0 for p in res.phases)

    def test_ghost_fraction_single_rank_is_all_local(self, planted_blocks):
        res = run_louvain(planted_blocks, 1, machine=FREE)
        assert all(p.ghost_fraction == 0.0 for p in res.phases)


class TestLayoutIndependence:
    def test_iteration_modularity_sequence(self):
        """The per-iteration Q is a function of the global assignment
        alone: both endpoints of every stored entry are evaluated under
        the post-move assignment and a_c^2 is summed before dividing,
        so which vertices happen to be rank-local cannot move it.  On an
        integer-weighted multigraph every float in the run is a sum of
        integers (< 2^53), so the whole sequence matches bit for bit
        across rank counts and input partitions."""
        for seed in range(6):
            rng = np.random.default_rng(seed)
            u = rng.integers(0, 30, 70)
            v = rng.integers(0, 30, 70)
            w = rng.integers(1, 5, 70).astype(np.float64)
            g = EdgeList.from_arrays(30, u, v, w).to_csr()
            ref = None
            for p in (1, 2, 3, 4):
                for partition in ("even_edge", "even_vertex"):
                    r = run_louvain(g, p, machine=FREE, partition=partition)
                    seq = [
                        (it.phase, it.iteration, it.modularity)
                        for it in r.iterations
                    ]
                    if ref is None:
                        ref = seq
                    assert seq == ref, (seed, p, partition)


class TestCommunityInfoCoverage:
    def test_unfetched_candidate_fails_loudly(
        self, planted_blocks, monkeypatch
    ):
        # A sweep that evaluates a community whose (a_c, |c|) was never
        # fetched is a protocol bug.  The world sweeps against the
        # owners' tables themselves, so the check lives where a rank's
        # partial knowledge does: the per-rank reference iteration, which
        # the world iteration is held to.  Simulate a miss there: the
        # kernel sweeps *every* vertex while the round fetched only what
        # ET's active subset needs.  It must surface as a KeyError naming
        # the communities, never as a move scored against garbage.
        from repro.runtime import RankFailedError

        from .oracles import iteration_reference

        def sweep_everyone(**kwargs):
            kwargs["active"] = None
            return real(**kwargs)

        real = iteration_reference.propose_moves
        monkeypatch.setattr(
            iteration_reference, "propose_moves", sweep_everyone
        )
        iteration_reference.per_rank_iterations(monkeypatch)
        cfg = LouvainConfig(variant=Variant.ET, alpha=0.75)
        with pytest.raises(RankFailedError) as excinfo:
            run_louvain(planted_blocks, 2, cfg, machine=FREE)
        cause = excinfo.value.causes[excinfo.value.rank]
        assert isinstance(cause, KeyError)
        assert "community totals missing for ids" in str(cause)

    def test_owner_table_not_its_interval_fails_loudly(self, planted_blocks):
        # Owners answer from their C_info tables laid end to end, so a
        # table that does not cover its owner's interval would shift
        # every later rank's answers: it must raise, naming the rank.
        from repro.core.coarsen import owner_lookup
        from repro.graph import DistGraph
        from repro.runtime import RankFailedError, run_spmd

        def prog(comm):
            dg = DistGraph.distribute(comm, planted_blocks)
            n = dg.num_global_vertices
            tot = dg.local_degrees()
            return owner_lookup(
                comm, dg.offsets, np.arange(0, n, 3),
                (tot[:-1] if comm.rank == 1 else tot,
                 np.ones(dg.num_local, dtype=np.int64)),
                category="community_comm",
            )

        with pytest.raises(RankFailedError) as excinfo:
            run_spmd(2, prog, machine=FREE, timeout=15.0)
        cause = excinfo.value.causes[1]
        assert isinstance(cause, ValueError)
        assert "rank 1: owner table" in str(cause)

    def test_iteration_owner_table_not_its_interval_names_the_rank(
        self, planted_blocks, monkeypatch
    ):
        # The iteration works on every rank's tables laid end to end, of
        # which a rank's ``tot_owned`` becomes a segment when the phase
        # lays them out: a table that is not its interval must raise
        # there, naming the rank.
        from repro.core import distlouvain
        from repro.runtime import RankFailedError

        real = distlouvain._begin_phase
        shortened = []

        def short_table(comm, *args):
            seat = real(comm, *args)
            if comm.rank == 1:
                shortened.append(comm.rank)
                seat.state.tot_owned = seat.state.tot_owned[:-1]
            return seat

        monkeypatch.setattr(distlouvain, "_begin_phase", short_table)
        with pytest.raises(RankFailedError) as excinfo:
            run_louvain(planted_blocks, 2, machine=FREE, timeout=15.0)
        assert shortened == [1]
        cause = excinfo.value.causes[excinfo.value.rank]
        assert isinstance(cause, ValueError)
        assert "rank 1: owner table" in str(cause)

    def test_delta_for_a_non_vertex_fails_loudly(self, planted_blocks):
        # Community ids are vertex ids.  One outside the vertex space
        # has no owner: a warm start's seed naming one must raise where
        # its deltas are routed, naming the rank, not hand them to the
        # last rank (the old owner lookup) or drop them (a bare cut).
        from repro.core import distributed_louvain
        from repro.graph import DistGraph
        from repro.runtime import RankFailedError, run_spmd

        def prog(comm):
            dg = DistGraph.distribute(comm, planted_blocks)
            seed = dg.local_vertex_ids()
            if comm.rank == 1:
                seed[-1] = dg.num_global_vertices + 3
            distributed_louvain(comm, dg, initial_assignment=seed)

        with pytest.raises(
            RankFailedError, match="rank 1: ids outside the vertex space"
        ):
            run_spmd(2, prog, machine=FREE, timeout=15.0)

    def test_iteration_delta_for_a_non_vertex_names_the_rank(
        self, planted_blocks, monkeypatch
    ):
        # The iteration's push step routes every rank's deltas at once:
        # a move to a community outside the vertex space must raise
        # there, and the error must still say whose move it was.
        from repro.core import distlouvain
        from repro.runtime import RankFailedError

        real = distlouvain.propose_moves
        n = planted_blocks.num_vertices
        calls = []

        def stray(**kwargs):
            res = real(**kwargs)
            calls.append(res.num_moves)
            if len(calls) == 1:
                # The first round also moves the last vertex of rank 1
                # (the last rank) outside the vertex space.
                res.proposal[-1] = n + 3
                res.moved[-1] = True
            return res

        monkeypatch.setattr(distlouvain, "propose_moves", stray)
        with pytest.raises(RankFailedError) as excinfo:
            run_louvain(planted_blocks, 2, machine=FREE, timeout=15.0)
        cause = excinfo.value.causes[excinfo.value.rank]
        assert isinstance(cause, ValueError)
        assert "rank 1: ids outside the vertex space" in str(cause)


class TestCollectiveBudget:
    """What leaves at which synchronisation point, counted: a sweep
    round is three exchanges (community-info request, reply, then one
    message per peer with its deltas and labels), an iteration one
    allreduce on every variant, a phase boundary seven exchanges (ghost
    plan, full ghost exchange; the rebuild's notification-and-request,
    its reply, the meta edges; the projection's request and reply), one
    allreduce (statistics + exact Q) and one allgather (alive counts) —
    plus the final allgather of the assignment."""

    @staticmethod
    def _watch_rank0(monkeypatch):
        """Log rank 0's ``(collective, category)`` sequence — one entry
        per leg, where it consults the fault plan — the number of sweep
        rounds it ran, and the log position after each iteration in
        which ETC's exit fired.  The rounds are counted where the
        iteration's world function runs them (:func:`_world_round`)."""
        from repro.core import distlouvain
        from repro.runtime.comm import Communicator

        seen = {"log": [], "rounds": 0, "exits": []}
        real_hook = Communicator._fault_hook
        real_round = distlouvain._world_round
        real_iterate = distlouvain._iterate

        def collective(self, name, category):
            if self.rank == 0:
                seen["log"].append((name, category))
            return real_hook(self, name, category)

        def world_round(*args, **kwargs):
            # One call per colour round of the whole world.
            seen["rounds"] += 1
            return real_round(*args, **kwargs)

        def iterate(*args, **kwargs):
            # Once per iteration of the whole world, rank 0's included.
            exited = real_iterate(*args, **kwargs)
            if exited:
                seen["exits"].append(len(seen["log"]))
            return exited

        monkeypatch.setattr(Communicator, "_fault_hook", collective)
        monkeypatch.setattr(distlouvain, "_world_round", world_round)
        monkeypatch.setattr(distlouvain, "_iterate", iterate)
        return seen

    @pytest.mark.parametrize("nranks", [1, 2, 4])
    @pytest.mark.parametrize(
        "variant", [Variant.BASELINE, Variant.ET, Variant.ETC]
    )
    def test_budget_per_rank(self, planted_blocks, monkeypatch, variant, nranks):
        seen = self._watch_rank0(monkeypatch)
        cfg = LouvainConfig(variant=variant, alpha=0.5, seed=4)
        r = run_louvain(planted_blocks, nranks, cfg, machine=FREE)
        rounds, phases = r.total_iterations, r.num_phases
        assert seen["rounds"] == rounds
        for rank_trace in r.trace.ranks:
            got = rank_trace.collectives
            assert got["alltoall"] == 3 * rounds + 7 * phases
            assert got["allreduce"] == rounds + phases
            assert got["allgather"] == phases + 1
            assert "exscan" not in got

    def test_three_exchanges_per_colour_class_round(
        self, planted_blocks, monkeypatch
    ):
        seen = self._watch_rank0(monkeypatch)
        r = run_louvain(
            planted_blocks, 4, LouvainConfig(use_coloring=True), machine=FREE
        )
        assert seen["rounds"] > r.total_iterations
        # Without refinement the rounds are all ``community_comm`` holds,
        # and the ghost labels ride there: ``ghost_comm`` is left with
        # what the phase's set-up and the coloring itself exchange.
        assert (
            seen["log"].count(("alltoall", "community_comm"))
            == 3 * seen["rounds"]
        )
        assert seen["log"].count(("allreduce", "allreduce")) == (
            r.total_iterations + r.num_phases
        )

    def test_etc_schedule_is_ets_up_to_the_exit(
        self, planted_blocks, monkeypatch
    ):
        """No variant guards a collective: at equal alpha and seed ETC
        and ET issue the same sequence until ETC's exit first fires."""
        logs = {}
        for variant in (Variant.ETC, Variant.ET):
            seen = self._watch_rank0(monkeypatch)
            cfg = LouvainConfig(
                variant=variant, alpha=0.5, etc_exit_fraction=0.5, seed=2
            )
            run_louvain(planted_blocks, 4, cfg, machine=FREE)
            logs[variant] = seen
            monkeypatch.undo()
        assert logs[Variant.ET]["rounds"] > 0
        assert logs[Variant.ETC]["rounds"] > 0
        assert logs[Variant.ET]["exits"] == []
        first_exit = logs[Variant.ETC]["exits"][0]
        # Nine iterations in: 2 set-up exchanges, then 3 + 1 a round.
        assert first_exit - logs[Variant.ETC]["log"].index(
            ("alltoall", "ghost_comm")
        ) == 2 + 9 * 4
        assert (
            logs[Variant.ETC]["log"][:first_exit]
            == logs[Variant.ET]["log"][:first_exit]
        )
