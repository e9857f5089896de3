"""Unit tests for the owner-push community cache internals."""

import numpy as np
import pytest

from repro.core import aggregate_deltas, pack_info, unpack_info
from repro.core.commcache import COMM_INFO_DTYPE, CommunityCache, _membership
from repro.graph import DistGraph, EdgeList
from repro.runtime import FREE, run_spmd


def ring_graph(n=12):
    return EdgeList.from_arrays(
        n, np.arange(n), (np.arange(n) + 1) % n
    ).to_csr()


class TestPacking:
    def test_roundtrip(self):
        ids = np.array([3, 7, 11], dtype=np.int64)
        tot = np.array([1.5, 2.0, 0.25])
        size = np.array([2, 5, 1], dtype=np.int64)
        packed = pack_info(ids, tot, size)
        assert packed.dtype == COMM_INFO_DTYPE
        assert packed.nbytes == 3 * 24
        i, t, s = unpack_info(packed)
        np.testing.assert_array_equal(i, ids)
        np.testing.assert_array_equal(t, tot)
        np.testing.assert_array_equal(s, size)

    def test_empty(self):
        packed = pack_info(
            np.empty(0, np.int64), np.empty(0), np.empty(0, np.int64)
        )
        assert packed.nbytes == 0


class TestAggregateDeltas:
    def test_nets_out_per_community(self):
        # v0: 5 -> 9 (k=2), v1: 9 -> 5 (k=3), v2: 5 -> 5 stays? no —
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
        # A swap leaves both communities net-zero, but the ids must
        # still appear (the push protocol relies on them marking the
        # community "changed" so hinted info rides the same exchange).
        uniq, dtot, dsize = aggregate_deltas(
            np.array([4]), np.array([4]), np.array([2.0])
        )
        np.testing.assert_array_equal(uniq, [4])
        np.testing.assert_array_equal(dtot, [0.0])
        np.testing.assert_array_equal(dsize, [0])


class TestMembership:
    def test_basic(self):
        sorted_ids = np.array([2, 5, 9])
        np.testing.assert_array_equal(
            _membership(sorted_ids, np.array([1, 2, 5, 8, 9, 10])),
            [False, True, True, False, True, False],
        )

    def test_empty_either_side(self):
        assert _membership(np.empty(0), np.array([1])).tolist() == [False]
        assert _membership(np.array([1]), np.empty(0)).tolist() == []


class TestApplyPush:
    def _cache(self):
        dg = DistGraph.from_global(ring_graph(), np.array([0, 6, 12]), 0)
        return CommunityCache(dg, comm_size=2)

    def test_overwrites_known_and_inserts_unknown(self):
        c = self._cache()
        c._insert(
            pack_info(
                np.array([6, 8]), np.array([1.0, 2.0]), np.array([1, 2])
            )
        )
        # Push: update 8, introduce 7 (a hint-driven subscription).
        c._apply_push(
            pack_info(
                np.array([8, 7]), np.array([9.0, 4.0]), np.array([5, 3])
            )
        )
        np.testing.assert_array_equal(c.ids, [6, 7, 8])
        np.testing.assert_array_equal(c.tot, [1.0, 4.0, 9.0])
        np.testing.assert_array_equal(c.size, [1, 3, 5])
        assert c.pushed_entries == 2

    def test_pure_overwrite_keeps_length(self):
        c = self._cache()
        c._insert(pack_info(np.array([10]), np.array([1.0]), np.array([1])))
        c._apply_push(
            pack_info(np.array([10]), np.array([7.5]), np.array([4]))
        )
        assert len(c.ids) == 1
        assert c.tot[0] == 7.5 and c.size[0] == 4


class TestSubscriptions:
    def test_subscribe_unions(self):
        dg = DistGraph.from_global(ring_graph(), np.array([0, 6, 12]), 0)
        c = CommunityCache(dg, comm_size=2)
        c.subscribe(1, np.array([3, 1]))
        c.subscribe(1, np.array([1, 5]))
        np.testing.assert_array_equal(c.subs[1], [1, 3, 5])
        assert len(c.subs[0]) == 0


class TestHintDedup:
    def test_repeat_hints_cost_nothing(self):
        """The same (community, subscriber) pair hinted twice must only
        ship once — subscriptions are permanent."""
        g = ring_graph()

        def prog(comm):
            dg = DistGraph.from_global(g, np.array([0, 6, 12]), comm.rank)
            cache = CommunityCache(dg, comm.size)
            tot = dg.local_degrees()
            size = np.ones(dg.num_local, dtype=np.int64)
            empty = np.empty(0, np.int64)
            emptyf = np.empty(0)
            # Rank 0 hints (community 7 — owned by rank 1 — subscriber
            # rank 0) in two successive rounds; only the first counts.
            for _ in range(2):
                if comm.rank == 0:
                    cache.exchange_deltas(
                        comm, empty, emptyf, empty, tot, size,
                        hint_ids=np.array([7]),
                        hint_ranks=np.array([0]),
                    )
                else:
                    cache.exchange_deltas(
                        comm, empty, emptyf, empty, tot, size
                    )
            return cache.hinted_pairs

        r = run_spmd(2, prog, machine=FREE, timeout=15.0)
        assert r.values == [1, 0]

    def test_self_owned_hints_dropped(self):
        g = ring_graph()

        def prog(comm):
            dg = DistGraph.from_global(g, np.array([0, 6, 12]), comm.rank)
            cache = CommunityCache(dg, comm.size)
            tot = dg.local_degrees()
            size = np.ones(dg.num_local, dtype=np.int64)
            empty = np.empty(0, np.int64)
            # Hinting "rank r may reference a community r owns" is
            # useless: owned info never goes through the cache.
            cache.exchange_deltas(
                comm, empty, np.empty(0), empty, tot, size,
                hint_ids=np.array([dg.vbegin + 1 if comm.rank == 1 else 7]),
                hint_ranks=np.array([comm.rank if comm.rank == 1 else 1]),
            )
            return cache.hinted_pairs

        r = run_spmd(2, prog, machine=FREE, timeout=15.0)
        # Rank 1 hinted (own-community, self): dropped. Rank 0 hinted
        # (7, rank 1) where 7 is owned by rank 1: also dropped.
        assert r.values == [0, 0]


class TestColdFetch:
    def test_miss_after_cold_start_raises(self):
        g = ring_graph()

        def prog(comm):
            dg = DistGraph.from_global(g, np.array([0, 6, 12]), comm.rank)
            cache = CommunityCache(dg, comm.size)
            tot = dg.local_degrees()
            size = np.ones(dg.num_local, dtype=np.int64)
            first = np.array([5, 6]) if comm.rank == 0 else np.array([0, 11])
            cache.fetch(comm, first, tot, size, prefetch=first)
            assert not cache.cold
            # Referencing an id that was neither prefetched nor hinted
            # violates the no-miss invariant.
            stranger = np.array([8]) if comm.rank == 0 else np.array([2])
            with pytest.raises(RuntimeError, match="cache miss"):
                cache.fetch(comm, stranger, tot, size)
            return True

        assert all(run_spmd(2, prog, machine=FREE, timeout=15.0).values)

    def test_cold_fetch_values_match_owner_state(self):
        g = ring_graph()

        def prog(comm):
            dg = DistGraph.from_global(g, np.array([0, 6, 12]), comm.rank)
            cache = CommunityCache(dg, comm.size)
            tot = dg.local_degrees()
            size = np.arange(1, dg.num_local + 1, dtype=np.int64)
            needed = np.arange(12)
            got_tot, got_size = cache.fetch(
                comm, needed, tot, size, prefetch=needed
            )
            return got_tot.tolist(), got_size.tolist()

        r = run_spmd(2, prog, machine=FREE, timeout=15.0)
        # Every rank sees the global (a_c, |c|) vectors.
        expected_tot = [2.0] * 12
        expected_size = [1, 2, 3, 4, 5, 6] * 2
        for got_tot, got_size in r.values:
            assert got_tot == expected_tot
            assert got_size == expected_size
