"""Unit tests for the content-addressed result store (LRU + disk tier)."""

import copy

import numpy as np

from repro.core import LouvainConfig
from repro.core.distlouvain import run_louvain
from repro.generators import make_graph
from repro.service import ResultStore


def _result(seed=0):
    g = make_graph("soc-friendster", scale="tiny")
    return run_louvain(g, 2, LouvainConfig(seed=seed))


def _assert_identical(a, b):
    assert np.array_equal(a.assignment, b.assignment)
    assert a.modularity == b.modularity
    assert a.elapsed == b.elapsed
    assert a.num_phases == b.num_phases


class TestMemoryTier:
    def test_put_get_round_trip(self):
        store = ResultStore(capacity=4)
        r = _result()
        store.put("k1", r)
        got = store.get("k1")
        assert got is not None
        _assert_identical(got, r)

    def test_get_returns_copy(self):
        store = ResultStore(capacity=4)
        store.put("k1", _result())
        a = store.get("k1")
        a.assignment[:] = -1
        b = store.get("k1")
        assert b.assignment.min() >= 0, "cached entry was mutated via a hit"

    def test_hits_and_the_stored_entry_are_independent(self, tmp_path):
        """The module's contract — "callers may mutate what they get
        back without corrupting the cache" — for everything a result
        holds that can be mutated, through both tiers, and for the
        object handed to ``put``."""
        g = make_graph("soc-friendster", scale="tiny")
        original = run_louvain(
            g, 2, LouvainConfig(seed=0, track_assignments=True)
        )
        pristine = copy.deepcopy(original)

        def vandalise(result):
            result.assignment[:] = -1
            result.phases.clear()
            if result.iterations:          # (not persisted to disk)
                result.iterations.pop()
            if result.phase_assignments:
                result.phase_assignments[0][:] = -1
                result.phase_assignments.pop()
            if result.trace is not None:   # (memory tier only)
                result.trace.ranks[0].seconds["compute"] += 1.0
                result.trace.ranks[0].collectives["alltoall"] += 1
                result.trace.ranks[0].messages_sent += 1
                result.trace.ranks.pop()

        def contents(result):
            return (
                result.modularity, result.elapsed,
                result.assignment.tolist(), result.phases, result.iterations,
                result.phase_assignments
                and [a.tolist() for a in result.phase_assignments],
                result.trace and [vars(t) for t in result.trace.ranks],
            )

        store = ResultStore(capacity=4, directory=str(tmp_path))
        store.put("k", original)
        vandalise(original)
        # First the memory tier, then a cold disk hit and its promotion.
        for tier in (store, ResultStore(capacity=4, directory=str(tmp_path))):
            want = contents(pristine) if tier is store else None
            for _ in range(3):
                hit = tier.get("k")
                want = want or copy.deepcopy(contents(hit))
                assert contents(hit) == want
                _assert_identical(hit, pristine)
                vandalise(hit)
            assert tier.stats()["hits"] == 3

    def test_miss_counts(self):
        store = ResultStore(capacity=4)
        assert store.get("absent") is None
        stats = store.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 0

    def test_lru_evicts_oldest(self):
        store = ResultStore(capacity=2)
        r = _result()
        store.put("a", r)
        store.put("b", r)
        store.put("c", r)
        assert "a" not in store
        assert "b" in store and "c" in store
        assert store.stats()["evictions"] == 1

    def test_hit_refreshes_recency(self):
        store = ResultStore(capacity=2)
        r = _result()
        store.put("a", r)
        store.put("b", r)
        assert store.get("a") is not None  # a is now most-recent
        store.put("c", r)  # evicts b, not a
        assert "a" in store and "b" not in store


class TestDiskTier:
    def test_persists_across_instances(self, tmp_path):
        r = _result()
        store1 = ResultStore(capacity=4, directory=str(tmp_path))
        store1.put("k1", r)

        store2 = ResultStore(capacity=4, directory=str(tmp_path))
        got = store2.get("k1")
        assert got is not None
        _assert_identical(got, r)

    def test_disk_survives_memory_eviction(self, tmp_path):
        store = ResultStore(capacity=1, directory=str(tmp_path))
        r = _result()
        store.put("a", r)
        store.put("b", r)  # evicts "a" from memory; disk copy remains
        got = store.get("a")
        assert got is not None
        _assert_identical(got, r)

    def test_distinct_keys_distinct_entries(self, tmp_path):
        store = ResultStore(capacity=4, directory=str(tmp_path))
        r0, r1 = _result(seed=0), _result(seed=1)
        store.put("k0", r0)
        store.put("k1", r1)
        _assert_identical(store.get("k0"), r0)
        _assert_identical(store.get("k1"), r1)
        assert len(store) == 2
        assert set(store.keys()) == {"k0", "k1"}


class TestDiskCapacity:
    def test_requires_directory(self):
        import pytest

        with pytest.raises(ValueError, match="requires a directory"):
            ResultStore(disk_capacity=2)
        with pytest.raises(ValueError, match="disk_capacity"):
            ResultStore(directory="/tmp/x", disk_capacity=0)

    def test_eviction_keeps_newest(self, tmp_path):
        store = ResultStore(
            capacity=8, directory=str(tmp_path), disk_capacity=2
        )
        r = _result()
        store.put("a", r)
        store.put("b", r)
        store.put("c", r)  # exceeds the cap: "a" (oldest) must go
        assert store.disk_keys() == ["b", "c"]
        assert store.stats()["disk_evictions"] == 1
        assert store.stats()["disk_entries"] == 2
        assert not (tmp_path / "a.npz").exists()

    def test_disk_hit_refreshes_recency(self, tmp_path):
        store = ResultStore(
            capacity=1, directory=str(tmp_path), disk_capacity=2
        )
        r = _result()
        store.put("a", r)
        store.put("b", r)  # "a" drops out of the memory tier (cap 1)
        assert store.get("a") is not None  # disk hit: "a" now most-recent
        store.put("c", r)  # evicts "b", not "a"
        assert store.disk_keys() == ["a", "c"]

    def test_memory_tier_unaffected(self, tmp_path):
        store = ResultStore(
            capacity=8, directory=str(tmp_path), disk_capacity=1
        )
        r = _result()
        store.put("a", r)
        store.put("b", r)  # disk keeps only "b"; memory keeps both
        assert set(store.keys()) == {"a", "b"}
        assert store.disk_keys() == ["b"]
        got = store.get("a")  # served from memory despite disk eviction
        assert got is not None
        _assert_identical(got, r)
