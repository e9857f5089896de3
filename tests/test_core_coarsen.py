"""Unit tests for serial and distributed graph coarsening."""

import numpy as np
import pytest

from repro.core import coarsen_csr, modularity, remote_lookup
from repro.core.coarsen import rebuild_distributed
from repro.graph import CSRGraph, DistGraph
from repro.graph.partition import even_vertex
from repro.runtime import FREE, RankFailedError, run_spmd

from .conftest import planted_blocks_graph
from .oracles import aggregate_reference, rebuild_reference
from .oracles.rebuild_reference import _meta_edge_payloads


class TestCoarsenCSR:
    def test_two_cliques_collapse(self, two_cliques):
        assignment = np.array([0] * 5 + [5] * 5)
        meta, v2m = coarsen_csr(two_cliques, assignment)
        assert meta.num_vertices == 2
        np.testing.assert_array_equal(v2m, [0] * 5 + [1] * 5)
        # Self loops: 10 intra edges counted twice = 20 each.
        np.testing.assert_allclose(meta.self_loop_weights(), [20.0, 20.0])
        # Inter-community edge weight 1.
        nbrs, w = meta.neighbors(0)
        assert w[nbrs == 1][0] == pytest.approx(1.0)

    def test_total_weight_preserved(self, planted_blocks):
        rng = np.random.default_rng(0)
        assignment = rng.integers(0, 10, planted_blocks.num_vertices)
        meta, _ = coarsen_csr(planted_blocks, assignment)
        assert meta.total_weight == pytest.approx(
            planted_blocks.total_weight
        )

    def test_modularity_invariant_under_coarsening(self, planted_blocks):
        # Q of the assignment on G equals Q of singletons on the coarse
        # graph — the property that makes multi-phase Louvain valid.
        rng = np.random.default_rng(1)
        assignment = rng.integers(0, 12, planted_blocks.num_vertices)
        meta, v2m = coarsen_csr(planted_blocks, assignment)
        q_fine = modularity(planted_blocks, assignment)
        q_coarse = modularity(meta, np.arange(meta.num_vertices))
        assert q_fine == pytest.approx(q_coarse, abs=1e-12)

    def test_identity_assignment(self, two_cliques):
        meta, v2m = coarsen_csr(two_cliques, np.arange(10))
        assert meta.num_vertices == 10
        assert meta.num_edges == two_cliques.num_edges

    def test_noncontiguous_labels(self, two_cliques):
        assignment = np.array([100] * 5 + [-3] * 5)
        meta, v2m = coarsen_csr(two_cliques, assignment)
        assert meta.num_vertices == 2
        # -3 sorts before 100, so the second clique becomes meta vertex 0.
        assert v2m[0] == 1 and v2m[5] == 0

    def test_length_check(self, two_cliques):
        with pytest.raises(ValueError):
            coarsen_csr(two_cliques, np.zeros(3))

    def test_existing_self_loops_accumulate(self):
        g = CSRGraph.from_edges(3, [0, 0, 1], [0, 1, 2], [2.0, 1.0, 1.0])
        meta, _ = coarsen_csr(g, np.array([0, 0, 0]))
        # loop(2.0 once) + edges (1+1) twice each = 2 + 4 = 6.
        assert meta.self_loop_weights()[0] == pytest.approx(6.0)
        assert meta.total_weight == pytest.approx(g.total_weight)


class TestRemoteLookup:
    def test_routes_to_owners(self):
        offsets = np.array([0, 4, 8, 12])

        def prog(comm):
            vb = offsets[comm.rank]
            ve = offsets[comm.rank + 1]
            table = (np.arange(vb, ve) * 100).astype(np.int64)
            queries = np.array([1, 5, 9, 5, 1], dtype=np.int64)
            return remote_lookup(comm, offsets, queries, table).tolist()

        r = run_spmd(3, prog, machine=FREE, timeout=10.0)
        assert r.values == [[100, 500, 900, 500, 100]] * 3

    def test_empty_queries(self):
        offsets = np.array([0, 2, 4])

        def prog(comm):
            table = np.zeros(2, dtype=np.int64)
            out = remote_lookup(comm, offsets, np.empty(0, np.int64), table)
            return len(out)

        assert run_spmd(2, prog, machine=FREE, timeout=10.0).values == [0, 0]

    def test_owner_table_not_its_interval_raises(self):
        # Owners answer from their tables laid end to end, so a table
        # shorter than its owner's interval would shift every later
        # rank's ids: it must not pass, and the error names the rank.
        offsets = np.array([0, 4, 8])

        def prog(comm):
            table = np.arange(3 if comm.rank == 1 else 4, dtype=np.int64)
            return remote_lookup(comm, offsets, np.arange(8), table)

        with pytest.raises(
            RankFailedError, match="rank 1: owner table of 3 values"
        ):
            run_spmd(2, prog, machine=FREE, timeout=10.0)

    def test_query_outside_vertex_space_raises(self):
        offsets = np.array([0, 4, 8])

        def prog(comm):
            return remote_lookup(
                comm, offsets, np.array([1, 8]), lambda ids: ids
            )

        with pytest.raises(RankFailedError, match="outside the vertex space"):
            run_spmd(2, prog, machine=FREE, timeout=10.0)


class TestMetaEdgePayloads:
    @pytest.mark.parametrize("seed", range(6))
    def test_one_sort_equals_per_destination_sorts(self, seed):
        """Step 6's payloads — one stable (src, dst) sort, destinations
        as slices — against bucketing by owner and sorting each bucket:
        same entries, same order, and on fractional weights the same
        floats (duplicates are summed in storage order either way)."""
        rng = np.random.default_rng(seed)
        n_new = int(rng.integers(1, 12))
        p = int(rng.integers(1, 6))  # p > n_new leaves ranks empty
        m = int(rng.integers(0, 200))
        src = rng.integers(0, n_new, m)
        dst = rng.integers(0, n_new, m)
        w = rng.random(m) * 3.0
        offsets = even_vertex(n_new, p)
        got = _meta_edge_payloads(src, dst, w, offsets)
        want = aggregate_reference.meta_edge_payloads(src, dst, w, offsets)
        assert len(got) == len(want) == p
        for g_r, w_r in zip(got, want):
            for a, b in zip(g_r, w_r):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)


class TestRebuildDistributed:
    def test_misaligned_ghost_comm_raises(self):
        g = planted_blocks_graph(blocks=2, per_block=6, seed=2)

        def prog(comm):
            dg = DistGraph.distribute(comm, g, partition="even_vertex")
            plan = dg.build_ghost_plan(comm)
            return rebuild_distributed(
                comm, dg, dg.local_vertex_ids(), plan.ghost_ids[:-1]
            )

        with pytest.raises(
            RankFailedError, match="ghost_comm not aligned with the ghost plan"
        ):
            run_spmd(2, prog, machine=FREE, timeout=10.0)

    @pytest.mark.parametrize("nranks", [1, 2, 3, 4])
    def test_matches_serial_coarsening(self, nranks):
        g = planted_blocks_graph(blocks=4, per_block=10, seed=11)
        # A fixed, deterministic assignment: community = block leader.
        assignment = (np.arange(40) // 10) * 10

        def prog(comm):
            dg = DistGraph.distribute(comm, g, partition="even_vertex")
            plan = dg.build_ghost_plan(comm)
            local_comm = assignment[dg.vbegin:dg.vend].astype(np.int64)
            ghost_comm = assignment[plan.ghost_ids].astype(np.int64)
            new_dg, local_new = rebuild_distributed(
                comm, dg, local_comm, ghost_comm
            )
            return (
                new_dg.num_global_vertices,
                float(new_dg.weights.sum()),
                new_dg.total_weight,
                local_new.tolist(),
            )

        r = run_spmd(nranks, prog, machine=FREE, timeout=20.0)
        meta, v2m = coarsen_csr(g, assignment)
        for n_new, _, tw, _ in r.values:
            assert n_new == meta.num_vertices == 4
            assert tw == pytest.approx(g.total_weight)
        assert sum(v[1] for v in r.values) == pytest.approx(
            meta.total_weight
        )
        # local_new pieces concatenate to the serial vertex_to_meta map.
        combined = []
        for v in r.values:
            combined.extend(v[3])
        np.testing.assert_array_equal(combined, v2m)

    def test_stale_owned_communities_pruned(self):
        # Community ids owned by rank 0 that only remote vertices use:
        # every vertex joins community 0 (owned by rank 0).
        g = planted_blocks_graph(blocks=2, per_block=6, seed=2)
        assignment = np.zeros(12, dtype=np.int64)

        def prog(comm):
            dg = DistGraph.distribute(comm, g, partition="even_vertex")
            plan = dg.build_ghost_plan(comm)
            local_comm = assignment[dg.vbegin:dg.vend]
            ghost_comm = assignment[plan.ghost_ids]
            new_dg, local_new = rebuild_distributed(
                comm, dg, local_comm, ghost_comm
            )
            return new_dg.num_global_vertices, local_new.tolist()

        r = run_spmd(3, prog, machine=FREE, timeout=20.0)
        for n_new, local_new in r.values:
            assert n_new == 1
            assert all(x == 0 for x in local_new)

    def test_meta_graph_structure(self, two_cliques):
        def prog(comm):
            dg = DistGraph.distribute(comm, two_cliques, "even_vertex")
            plan = dg.build_ghost_plan(comm)
            assignment = np.array([0] * 5 + [5] * 5, dtype=np.int64)
            local_comm = assignment[dg.vbegin:dg.vend]
            ghost_comm = assignment[plan.ghost_ids]
            new_dg, _ = rebuild_distributed(comm, dg, local_comm, ghost_comm)
            out = []
            for lu in range(new_dg.num_local):
                nbrs, w = new_dg.row(lu)
                out.append(
                    (lu + new_dg.vbegin, sorted(zip(nbrs.tolist(), w.tolist())))
                )
            return out

        r = run_spmd(2, prog, machine=FREE, timeout=20.0)
        rows = dict(kv for v in r.values for kv in v)
        assert rows[0] == [(0, 20.0), (1, 1.0)]
        assert rows[1] == [(0, 1.0), (1, 20.0)]


class TestRebuildOneRequest:
    """Steps 2-4 send the used-community lists once: the notification
    that keeps a community alive is the request for its new id, and the
    renumbering base comes from one allgather of the alive counts."""

    @staticmethod
    def _rebuild_and_oracle(g, assignment, nranks):
        """Per rank: the shipped rebuild's outputs beside the oracle's
        renumbering (notification and request as separate exchanges,
        ``exscan`` + ``allreduce``)."""
        from .oracles.exchange_reference import rebuild_renumbering

        def prog(comm):
            dg = DistGraph.distribute(comm, g, partition="even_vertex")
            plan = dg.build_ghost_plan(comm)
            local_comm = assignment[dg.vbegin:dg.vend]
            ghost_comm = assignment[plan.ghost_ids]
            want_n, want_slots = rebuild_renumbering(
                comm, dg, local_comm, ghost_comm
            )
            new_dg, local_new = rebuild_distributed(
                comm, dg, local_comm, ghost_comm
            )
            np.testing.assert_array_equal(
                local_new, want_slots[:dg.num_local]
            )
            assert new_dg.num_global_vertices == want_n
            np.testing.assert_array_equal(
                new_dg.offsets, even_vertex(want_n, comm.size)
            )
            return local_new, new_dg.index, new_dg.edges, new_dg.weights

        return run_spmd(nranks, prog, machine=FREE, timeout=30.0).values

    @pytest.mark.parametrize("nranks", [2, 3, 4, 7])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_equals_the_two_exchange_formulation(self, seed, nranks):
        from .test_core_sweep_differential import adversarial_edges

        rng, n, u, v, w = adversarial_edges(seed)
        if seed % 3 == 2:
            w = np.ceil(w)  # integer weights: every sum below is exact
        g = CSRGraph.from_edges(n, u, v, w)
        # Community ids are vertex ids, most of them used by nobody.
        labels = rng.choice(n, max(n // 4, 1)).astype(np.int64)
        assignment = labels[rng.integers(0, len(labels), n)]
        pieces = self._rebuild_and_oracle(g, assignment, nranks)
        meta, v2m = coarsen_csr(g, assignment)
        np.testing.assert_array_equal(
            np.concatenate([piece[0] for piece in pieces]), v2m
        )
        # The rebuilt slices, in rank order, are the serial coarsening.
        np.testing.assert_array_equal(
            np.concatenate([np.diff(piece[1]) for piece in pieces]),
            np.diff(meta.index),
        )
        np.testing.assert_array_equal(
            np.concatenate([piece[2] for piece in pieces]), meta.edges
        )
        np.testing.assert_array_equal(
            np.concatenate([piece[3] for piece in pieces]), meta.weights
        )

    def test_ranks_that_own_nothing_alive(self):
        # Five vertices on eight ranks: three ranks own no vertex at
        # all, and of the rest only the owners of 1 and 3 own a live
        # community — everyone else answers an empty notification and
        # contributes a zero to the allgather.
        g = CSRGraph.from_edges(5, [0, 1, 2, 3, 0], [1, 2, 3, 4, 4])
        assignment = np.array([1, 1, 3, 3, 3], dtype=np.int64)
        pieces = self._rebuild_and_oracle(g, assignment, 8)
        np.testing.assert_array_equal(
            np.concatenate([piece[0] for piece in pieces]), [0, 0, 1, 1, 1]
        )
        meta, _ = coarsen_csr(g, assignment)
        np.testing.assert_array_equal(
            np.concatenate([piece[2] for piece in pieces]), meta.edges
        )

    def test_short_new_id_reply_fails_loudly(self, monkeypatch):
        # The new ids are read as slices of the notification order, so
        # a reply that is not as long as its notification must not be
        # accepted — and the error names the rank that sent it.  The
        # world rebuild reads every new id off one prefix sum, so only
        # the per-rank formulation has replies to shorten: the check
        # lives in its oracle.
        from repro.runtime.comm import Communicator

        g = planted_blocks_graph(blocks=2, per_block=6, seed=2)
        real = Communicator.alltoall
        calls = {}

        def lossy(self, values, category="other"):
            calls[self.rank] = calls.get(self.rank, 0) + 1
            # Rank 1's second exchange is its new-id reply; only the
            # messages that cross the wire are shortened.
            if self.rank == 1 and calls[1] == 2:
                values = [
                    v if d == self.rank else v[:-1]
                    for d, v in enumerate(values)
                ]
            return real(self, values, category=category)

        def prog(comm):
            dg = DistGraph.distribute(comm, g, partition="even_vertex")
            plan = dg.build_ghost_plan(comm)
            calls.pop(comm.rank, None)
            return rebuild_reference.rebuild_distributed(
                comm, dg, dg.local_vertex_ids(), plan.ghost_ids.copy()
            )

        monkeypatch.setattr(Communicator, "alltoall", lossy)
        with pytest.raises(RankFailedError) as excinfo:
            run_spmd(2, prog, machine=FREE, timeout=15.0)
        assert isinstance(excinfo.value.causes[0], ValueError)
        assert "rank 1 answered" in str(excinfo.value.causes[0])
        assert "new community ids" in str(excinfo.value.causes[0])
