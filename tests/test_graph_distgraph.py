"""Unit tests for the distributed graph: slicing, ghosts, exchange, ingest."""

import numpy as np
import pytest

from repro.graph import CSRGraph, DistGraph, EdgeList, write_edgelist
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

    def test_owner(self):
        g = ring_graph(6)
        dg = DistGraph.from_global(g, np.array([0, 3, 6]), 0)
        np.testing.assert_array_equal(
            dg.owner(np.array([0, 2, 3, 5])), [0, 0, 1, 1]
        )

    def test_partition_must_cover(self):
        g = ring_graph(6)
        with pytest.raises(ValueError):
            DistGraph.from_global(g, np.array([0, 3, 5]), 0)

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
            return sorted(plan.ghost_ids.tolist()), plan.neighbor_ranks()

        r = spmd(4, prog)
        # Rank 1 owns {2,3}: ghosts are 1 and 4, owned by ranks 0 and 2.
        ghosts, nbrs = r.values[1]
        assert ghosts == [1, 4]
        assert nbrs == [0, 2]

    def test_plan_symmetry(self):
        g = planted_blocks_graph(blocks=4, per_block=10, seed=3)

        def prog(comm):
            dg = DistGraph.distribute(comm, g)
            plan = dg.build_ghost_plan(comm)
            send = {r: ids.tolist() for r, ids in sorted(plan.send_ids.items())}
            recv = {r: ids.tolist() for r, ids in sorted(plan.recv_ids.items())}
            return send, recv

        r = spmd(3, prog)
        for a in range(3):
            for b in range(3):
                if a == b:
                    continue
                sends = r.values[a][0].get(b, [])
                recvs = r.values[b][1].get(a, [])
                assert sorted(sends) == sorted(recvs)

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

    def test_insertion_order_of_plan_dicts_is_irrelevant(self):
        # Regression: exchange_ghost_values used to iterate
        # plan.send_ids/recv_ids in dict insertion order, so two plans
        # with the same content but different construction history could
        # exchange in different per-rank orders.  Both iterations are now
        # sorted; a plan with reversed insertion order must produce the
        # identical ghost array (checked under the schedule verifier).
        from repro.graph.distgraph import GhostPlan

        g = planted_blocks_graph(blocks=4, per_block=10, seed=3)

        def prog(comm):
            dg = DistGraph.distribute(comm, g)
            plan = dg.build_ghost_plan(comm)
            reversed_plan = GhostPlan(
                ghost_ids=plan.ghost_ids,
                recv_ids=dict(reversed(list(plan.recv_ids.items()))),
                send_ids=dict(reversed(list(plan.send_ids.items()))),
            )
            local = (np.arange(dg.vbegin, dg.vend) * 7 + 1).astype(np.int64)
            a = dg.exchange_ghost_values(comm, plan, local)
            b = dg.exchange_ghost_values(comm, reversed_plan, local)
            return bool(np.array_equal(a, b)) and bool(
                np.all(a == plan.ghost_ids * 7 + 1)
            )

        assert all(spmd(4, prog, verify_schedule=True).values)

    def test_wrong_length_rejected(self):
        g = ring_graph(8)

        def prog(comm):
            dg = DistGraph.distribute(comm, g)
            plan = dg.build_ghost_plan(comm)
            dg.exchange_ghost_values(comm, plan, np.zeros(1, dtype=np.int64))

        from repro.runtime import RankFailedError

        with pytest.raises(RankFailedError):
            spmd(4, prog)

    def test_compressed_targets_resolve_communities(self):
        g = planted_blocks_graph(blocks=3, per_block=8, seed=5)

        def prog(comm):
            dg = DistGraph.distribute(comm, g)
            plan = dg.build_ghost_plan(comm)
            ct = dg.compressed_targets(plan)
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


class TestOwnerLookup:
    def test_owner_of_matches_offsets(self):
        g = ring_graph(17)
        offsets = np.array([0, 5, 5, 11, 17])
        dg = DistGraph.from_global(g, offsets, 0)
        ids = np.arange(17)
        expected = np.searchsorted(offsets, ids, side="right") - 1
        np.testing.assert_array_equal(dg.owner_of(ids), expected)

    def test_owner_of_scalar_and_boundaries(self):
        g = ring_graph(10)
        offsets = np.array([0, 3, 7, 10])
        dg = DistGraph.from_global(g, offsets, 1)
        assert dg.owner_of(0) == 0
        assert dg.owner_of(2) == 0
        assert dg.owner_of(3) == 1  # first vertex of rank 1's slice
        assert dg.owner_of(6) == 1
        assert dg.owner_of(7) == 2
        assert dg.owner_of(9) == 2

    def test_empty_rank_owns_nothing(self):
        g = ring_graph(6)
        offsets = np.array([0, 3, 3, 6])  # rank 1 owns no vertices
        dg = DistGraph.from_global(g, offsets, 0)
        owners = dg.owner_of(np.arange(6))
        assert 1 not in owners


class TestSplitByRank:
    def test_buckets_and_stability(self):
        from repro.graph.distgraph import split_by_rank

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
        from repro.graph.distgraph import split_by_rank

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
        from repro.graph.distgraph import split_by_rank

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
            want = split_by_rank(dg.owner_of(ids), p, ids, aux)
            for r in range(p):
                a, b = cuts[r], cuts[r + 1]
                np.testing.assert_array_equal(ids[a:b], want[r][0])
                np.testing.assert_array_equal(aux[a:b], want[r][1])
                # A slice, not a copy: the same bytes go on the wire.
                assert ids[a:b].base is ids or not len(ids)

    @pytest.mark.parametrize("bad", [[-1, 2], [3, 10], [0, 99], [-5]])
    def test_id_outside_vertex_space_raises(self, bad):
        # owner_of would hand such an id to the first or last rank; a
        # cut would silently drop it off the end.  Neither: it raises.
        dg = DistGraph.from_global(ring_graph(10), np.array([0, 4, 7, 10]), 1)
        with pytest.raises(ValueError, match="outside the vertex space"):
            dg.cuts(np.array(bad))

    def test_ghost_plan_rejects_out_of_range_target(self):
        from repro.runtime import RankFailedError

        g = ring_graph(6)

        def prog(comm):
            dg = DistGraph.from_global(g, np.array([0, 3, 6]), comm.rank)
            if comm.rank == 0:
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
