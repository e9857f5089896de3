"""Unit tests for the distributed graph: slicing, ghosts, exchange, ingest."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, DistGraph, EdgeList, write_edgelist
from repro.graph.partition import owner_of
from repro.runtime import FREE, run_spmd

from .conftest import planted_blocks_graph


def ring_graph(n=8):
    return EdgeList.from_arrays(
        n, np.arange(n), (np.arange(n) + 1) % n
    ).to_csr()


def spmd(size, fn, *args, **kw):
    return run_spmd(size, fn, *args, machine=FREE, timeout=15.0, **kw)


class TestFromGlobal:
    def test_slices_cover_graph(self):
        g = ring_graph(10)
        offsets = np.array([0, 4, 7, 10])
        parts = [DistGraph.from_global(g, offsets, r) for r in range(3)]
        assert sum(p.num_local for p in parts) == 10
        assert sum(p.num_local_entries for p in parts) == g.nnz
        total = sum(p.local_degrees().sum() for p in parts)
        assert total == pytest.approx(g.total_weight)

    def test_row_targets_are_global(self):
        g = ring_graph(6)
        offsets = np.array([0, 3, 6])
        p1 = DistGraph.from_global(g, offsets, 1)
        nbrs, _ = p1.row(0)  # local vertex 0 == global 3
        assert set(map(int, nbrs)) == {2, 4}

    def test_partition_must_cover(self):
        g = ring_graph(6)
        with pytest.raises(ValueError):
            DistGraph.from_global(g, np.array([0, 3, 5]), 0)

    def test_rank_slices_are_views_of_the_frozen_graph(self):
        # No copy per rank: the frozen CSR's bytes cannot change under
        # the slices, and a slice cannot be written either.
        g = planted_blocks_graph(blocks=3, per_block=8, seed=1)
        offsets = np.array([0, 7, 15, 24])
        for r in range(3):
            dg = DistGraph.from_global(g, offsets, r)
            for mine, whole in ((dg.edges, g.edges), (dg.weights, g.weights)):
                assert np.shares_memory(mine, whole)
                with pytest.raises(ValueError):
                    mine[:1] = 0

    def test_local_self_loops(self):
        g = CSRGraph.from_edges(4, [0, 1, 1], [1, 2, 1], [1.0, 1.0, 2.5])
        dg = DistGraph.from_global(g, np.array([0, 2, 4]), 0)
        np.testing.assert_allclose(dg.local_self_loops(), [0.0, 2.5])


class TestGhostPlan:
    def test_ring_neighbors(self):
        g = ring_graph(8)

        def prog(comm):
            dg = DistGraph.distribute(comm, g, partition="even_vertex")
            plan = dg.build_ghost_plan(comm)
            return (
                plan.ghost_ids.tolist(), plan.ghost_cuts.tolist(),
                plan.send_ids.tolist(), plan.send_cuts.tolist(),
            )

        r = spmd(4, prog)
        # Rank 1 owns {2,3}: ghosts are 1 and 4, owned by ranks 0 and 2,
        # which ghost 2 and 3 of its own.
        assert r.values[1] == ([1, 4], [0, 1, 1, 2, 2], [2, 3], [0, 1, 1, 2, 2])

    def test_plan_symmetry(self):
        g = planted_blocks_graph(blocks=4, per_block=10, seed=3)

        def prog(comm):
            return DistGraph.distribute(comm, g).build_ghost_plan(comm)

        plans = spmd(3, prog).values
        for a in range(3):
            for b in range(3):
                # What a sends b is what b ghosts of a, in the same order.
                sent = plans[a].send_ids[
                    plans[a].send_cuts[b]:plans[a].send_cuts[b + 1]
                ]
                ghosted = plans[b].ghost_ids[
                    plans[b].ghost_cuts[a]:plans[b].ghost_cuts[a + 1]
                ]
                np.testing.assert_array_equal(sent, ghosted)
                assert a != b or not len(sent)

    def test_plan_cached(self):
        g = ring_graph(6)

        def prog(comm):
            dg = DistGraph.distribute(comm, g)
            p1 = dg.build_ghost_plan(comm)
            p2 = dg.build_ghost_plan(comm)
            return p1 is p2

        assert all(spmd(3, prog).values)

    def test_single_rank_no_ghosts(self):
        g = ring_graph(6)

        def prog(comm):
            dg = DistGraph.distribute(comm, g)
            return dg.build_ghost_plan(comm).num_ghosts

        assert spmd(1, prog).values == [0]


@given(
    n=st.integers(0, 14),
    m=st.integers(0, 30),
    seed=st.integers(0, 2**16),
    p=st.integers(1, 8),
    partition=st.sampled_from(["even_vertex", "even_edge"]),
)
@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_plan_is_owner_order(n, m, seed, p, partition):
    """The plan's slices follow ownership, the two sides of every
    (owner, ghosting rank) pair hold the same ids, and the exchange
    returns each ghost's owner value in ghost order — on graphs with
    isolated vertices, with p > n allowed."""
    rng = np.random.default_rng(seed)
    u = v = np.empty(0, np.int64)
    if n:
        # Edges touch a random half of the vertices; the rest are isolated.
        ends = rng.choice(n, size=max(n // 2, 1), replace=False)
        u, v = rng.choice(ends, m), rng.choice(ends, m)
    g = EdgeList.from_arrays(n, u, v).to_csr()

    def prog(comm):
        dg = DistGraph.distribute(comm, g, partition=partition)
        plan = dg.build_ghost_plan(comm)
        gc, off = plan.ghost_cuts, dg.offsets
        for o in range(p):
            got = plan.ghost_ids[gc[o]:gc[o + 1]]
            assert np.all((got >= off[o]) & (got < off[o + 1]))
            assert o != comm.rank or not len(got)
        assert gc[-1] == plan.num_ghosts
        everyone = comm.allgather(plan)
        for r, theirs in enumerate(everyone):
            np.testing.assert_array_equal(
                plan.send_ids[plan.send_cuts[r]:plan.send_cuts[r + 1]],
                theirs.ghost_ids[
                    theirs.ghost_cuts[comm.rank]:theirs.ghost_cuts[comm.rank + 1]
                ],
            )
        got = dg.exchange_ghost_values(
            comm, plan, dg.local_vertex_ids() * 7 + 3
        )
        np.testing.assert_array_equal(got, plan.ghost_ids * 7 + 3)
        return True

    assert all(spmd(p, prog).values)


class TestGhostExchange:
    def test_values_match_owners(self):
        g = planted_blocks_graph(blocks=4, per_block=10, seed=3)

        def prog(comm):
            dg = DistGraph.distribute(comm, g)
            plan = dg.build_ghost_plan(comm)
            # Send a recognisable function of the global vertex id.
            local = (np.arange(dg.vbegin, dg.vend) * 7 + 1).astype(np.int64)
            ghosts = dg.exchange_ghost_values(comm, plan, local)
            return bool(np.all(ghosts == plan.ghost_ids * 7 + 1))

        assert all(spmd(4, prog).values)

    def test_wrong_length_rejected(self):
        g = ring_graph(8)

        def prog(comm):
            dg = DistGraph.distribute(comm, g)
            plan = dg.build_ghost_plan(comm)
            dg.exchange_ghost_values(comm, plan, np.zeros(1, dtype=np.int64))

        from repro.runtime import RankFailedError

        with pytest.raises(RankFailedError):
            spmd(4, prog)

    def test_short_wire_message_names_the_rank(self, monkeypatch):
        # The replies are laid end to end as the ghost values, so one
        # that is not as long as its slice of the plan would shift every
        # later ghost: it must fail, naming the rank that sent it.
        from repro.runtime import RankFailedError
        from repro.runtime.comm import Communicator

        g = ring_graph(8)
        real = Communicator.alltoall

        def lossy(self, values, category="other"):
            if category == "test" and self.rank == 2:
                values = [v if d != 1 else v[:-1] for d, v in enumerate(values)]
            return real(self, values, category=category)

        def prog(comm):
            dg = DistGraph.distribute(comm, g, partition="even_vertex")
            plan = dg.build_ghost_plan(comm)
            local = dg.local_vertex_ids()
            return dg.exchange_ghost_values(comm, plan, local, category="test")

        monkeypatch.setattr(Communicator, "alltoall", lossy)
        with pytest.raises(RankFailedError) as excinfo:
            spmd(4, prog)
        (rank, err), = excinfo.value.causes.items()
        assert rank == 1 and isinstance(err, ValueError)
        assert str(err) == (
            "ghost exchange mismatch with rank 2: expected 1 values, got 0"
        )

    def test_compressed_targets_resolve_communities(self):
        g = planted_blocks_graph(blocks=3, per_block=8, seed=5)

        def prog(comm):
            dg = DistGraph.distribute(comm, g)
            plan = dg.build_ghost_plan(comm)
            ct = dg.compressed_targets()
            local = np.arange(dg.vbegin, dg.vend, dtype=np.int64)
            ghosts = dg.exchange_ghost_values(comm, plan, local)
            resolved = np.concatenate([local, ghosts])[ct]
            return bool(np.all(resolved == dg.edges))

        assert all(spmd(3, prog).values)


class TestLoadBinary:
    @pytest.mark.parametrize("partition", ["even_vertex", "even_edge"])
    @pytest.mark.parametrize("nranks", [1, 2, 3, 5])
    def test_matches_direct_distribution(self, tmp_path, partition, nranks):
        g = planted_blocks_graph(blocks=4, per_block=10, seed=7)
        el = EdgeList.from_csr(g)
        path = str(tmp_path / "g.bin")
        write_edgelist(path, el)

        def prog(comm):
            dg = DistGraph.load_binary(comm, path, partition=partition)
            return (
                float(dg.local_degrees().sum()),
                dg.total_weight,
                dg.num_local_entries,
            )

        r = spmd(nranks, prog)
        deg_total = sum(v[0] for v in r.values)
        assert deg_total == pytest.approx(g.total_weight)
        assert all(v[1] == pytest.approx(g.total_weight) for v in r.values)
        assert sum(v[2] for v in r.values) == g.nnz

    def test_shuffled_file_same_graph(self, tmp_path):
        g = planted_blocks_graph(blocks=3, per_block=8, seed=9)
        rng = np.random.default_rng(4)
        el = EdgeList.from_csr(g).permuted(rng)
        path = str(tmp_path / "shuf.bin")
        write_edgelist(path, el)

        def prog(comm):
            dg = DistGraph.load_binary(comm, path)
            return float(dg.weights.sum())

        r = spmd(4, prog)
        assert sum(r.values) == pytest.approx(g.total_weight)

    def test_io_charged(self, tmp_path):
        g = ring_graph(12)
        path = str(tmp_path / "r.bin")
        write_edgelist(path, EdgeList.from_csr(g))

        def prog(comm):
            DistGraph.load_binary(comm, path)
            return None

        from repro.runtime import CORI_HASWELL

        r = run_spmd(3, prog, machine=CORI_HASWELL, timeout=15.0)
        assert r.trace.seconds_by_category().get("io", 0) > 0


class TestSplitByRank:
    def test_buckets_and_stability(self):
        from .oracles.aggregate_reference import split_by_rank

        ranks = np.array([2, 0, 2, 1, 0, 2])
        vals = np.array([10, 11, 12, 13, 14, 15])
        aux = vals * 2.0
        out = split_by_rank(ranks, 4, vals, aux)
        assert len(out) == 4
        np.testing.assert_array_equal(out[0][0], [11, 14])
        np.testing.assert_array_equal(out[1][0], [13])
        np.testing.assert_array_equal(out[2][0], [10, 12, 15])
        assert len(out[3][0]) == 0
        # Aligned arrays stay aligned.
        for r in range(4):
            np.testing.assert_array_equal(out[r][1], out[r][0] * 2.0)

    def test_empty_input(self):
        from .oracles.aggregate_reference import split_by_rank

        out = split_by_rank(np.empty(0, np.int64), 3, np.empty(0, np.int64))
        assert len(out) == 3
        assert all(len(t[0]) == 0 for t in out)


class TestOwnerCuts:
    """``DistGraph.cuts``: on ascending ids, routing by owner is slicing."""

    #: Partitions with an empty first, middle and last rank, and with
    #: more ranks than vertices.
    OFFSETS = [
        [0, 4, 7, 10],
        [0, 0, 3, 3, 6, 6],
        [0, 1, 2, 3, 3, 3, 3, 3],
        [0, 5],
    ]

    @pytest.mark.parametrize("offsets", OFFSETS)
    def test_equals_split_by_owner(self, offsets):
        from .oracles.aggregate_reference import split_by_rank

        offsets = np.array(offsets)
        n, p = int(offsets[-1]), len(offsets) - 1
        dg = DistGraph.from_global(ring_graph(n), offsets, 0)
        rng = np.random.default_rng(n * p)
        for ids in (
            np.arange(n),
            np.empty(0, np.int64),
            np.sort(rng.choice(n, n // 2, replace=False)),
            np.sort(rng.integers(0, n, 3 * n)),  # duplicates allowed
        ):
            aux = ids * 0.5
            cuts = dg.cuts(ids)
            assert len(cuts) == p + 1
            want = split_by_rank(owner_of(offsets, ids), p, ids, aux)
            for r in range(p):
                a, b = cuts[r], cuts[r + 1]
                np.testing.assert_array_equal(ids[a:b], want[r][0])
                np.testing.assert_array_equal(aux[a:b], want[r][1])
                # A slice, not a copy: the same bytes go on the wire.
                assert ids[a:b].base is ids or not len(ids)

    @pytest.mark.parametrize("bad", [[-1, 2], [3, 10], [0, 99], [-5]])
    def test_id_outside_vertex_space_raises(self, bad):
        # A bare owner search would hand such an id to the first or last
        # rank; a cut would silently drop it off the end.  Neither: it
        # raises.
        dg = DistGraph.from_global(ring_graph(10), np.array([0, 4, 7, 10]), 1)
        with pytest.raises(ValueError, match="outside the vertex space"):
            dg.cuts(np.array(bad))

    def test_ghost_plan_rejects_out_of_range_target(self):
        from repro.runtime import RankFailedError

        g = ring_graph(6)

        def prog(comm):
            dg = DistGraph.from_global(g, np.array([0, 3, 6]), comm.rank)
            if comm.rank == 0:
                # (The slice is a read-only view of the frozen graph.)
                dg.edges = dg.edges.copy()
                dg.edges[0] = 6  # not a vertex
            return dg.build_ghost_plan(comm)

        with pytest.raises(RankFailedError, match="outside the vertex space"):
            spmd(2, prog)


class TestLocalRowSums:
    def test_degrees_and_loops_match_the_global_graph(self):
        rng = np.random.default_rng(4)
        n = 17
        u, v = rng.integers(0, n, 60), rng.integers(0, n, 60)
        v[::7] = u[::7]  # self loops
        g = CSRGraph.from_edges(n, u, v, rng.random(60))
        # A rank without entries and one without vertices included.
        offsets = np.array([0, 6, 6, 11, n])
        for r in range(4):
            dg = DistGraph.from_global(g, offsets, r)
            lo, hi = offsets[r], offsets[r + 1]
            for got, want in (
                (dg.local_degrees(), g.degrees()[lo:hi]),
                (dg.local_self_loops(), g.self_loop_weights()[lo:hi]),
            ):
                assert got.dtype == np.float64
                np.testing.assert_array_equal(got, want)
            assert dg.local_rows() is dg.local_rows()
