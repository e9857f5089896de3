"""Unit tests for the persistent tuning database (repro.tune.db)."""

import json

import pytest

from repro.core import LouvainConfig
from repro.generators import make_graph
from repro.tune import (
    DB_FORMAT_VERSION,
    TuningDB,
    TuningRecord,
    compute_features,
)


def _record(g, fingerprint=None, ranks=4, **overrides):
    fields = dict(
        fingerprint=fingerprint or g.fingerprint(),
        features=compute_features(g),
        config=LouvainConfig(),
        ranks=ranks,
        predicted_seconds=0.5,
        measured_seconds=0.4,
        baseline_seconds=1.0,
        baseline_modularity=0.85,
        tuned_modularity=0.84,
        quality_tolerance=0.02,
        quality_guard_passed=True,
        tuner_seed=0,
        machine="cori-haswell",
        created=123.0,
    )
    fields.update(overrides)
    return TuningRecord(**fields)


@pytest.fixture(scope="module")
def channel():
    return make_graph("channel", scale="tiny", seed=0)


class TestInMemory:
    def test_put_get(self, channel):
        db = TuningDB()
        rec = _record(channel)
        db.put(rec)
        got = db.get(channel.fingerprint())
        assert got.fingerprint == rec.fingerprint
        assert got.last_used > 0  # hits stamp recency for LRU GC
        assert channel.fingerprint() in db
        assert len(db) == 1

    def test_miss(self, channel):
        assert TuningDB().get(channel.fingerprint()) is None

    def test_put_stamps_created(self, channel):
        db = TuningDB()
        db.put(_record(channel, created=0.0))
        assert db.get(channel.fingerprint()).created > 0

    def test_save_requires_path(self, channel):
        with pytest.raises(ValueError, match="no path"):
            TuningDB().save()


class TestPersistence:
    def test_round_trip(self, channel, tmp_path):
        path = tmp_path / "db.json"
        db = TuningDB(path)
        rec = _record(channel)
        db.put(rec)
        again = TuningDB(path)
        loaded = again.get(channel.fingerprint())
        assert loaded is not None
        assert loaded.config == rec.config
        assert loaded.ranks == rec.ranks
        assert loaded.features == rec.features

    def test_on_disk_shape(self, channel, tmp_path):
        path = tmp_path / "db.json"
        TuningDB(path).put(_record(channel))
        doc = json.loads(path.read_text())
        assert doc["version"] == DB_FORMAT_VERSION
        assert channel.fingerprint() in doc["entries"]

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not a valid tuning DB"):
            TuningDB(path)

    def test_wrong_shape_rejected(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text('{"records": []}')
        with pytest.raises(ValueError, match="not a tuning DB"):
            TuningDB(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(
            json.dumps({"version": DB_FORMAT_VERSION + 1, "entries": {}})
        )
        with pytest.raises(ValueError, match="not supported"):
            TuningDB(path)

    def test_v1_file_refused_with_path(self, tmp_path):
        # v1 entries hold config dicts with since-removed fields.
        path = tmp_path / "db.json"
        path.write_text(json.dumps({"version": 1, "entries": {}}))
        with pytest.raises(ValueError) as excinfo:
            TuningDB(path)
        assert f"{path}: tuning DB version 1 not supported" in str(
            excinfo.value
        )

    def test_v2_file_refused_with_path(self, tmp_path):
        # v2 plans may name the removed ghost_delta_updates field, v3
        # plans the removed owner-push switch: both are refused by
        # version, before any entry is decoded.
        path = tmp_path / "db.json"
        for version in (2, 3):
            entry = {"config": {"a_removed_field": True}}
            path.write_text(
                json.dumps({"version": version, "entries": {"fp": entry}})
            )
            with pytest.raises(ValueError) as excinfo:
                TuningDB(path)
            assert (
                f"{path}: tuning DB version {version} not supported"
                in str(excinfo.value)
            )

    def test_undecodable_entry_names_file_and_fingerprint(
        self, channel, tmp_path
    ):
        path = tmp_path / "db.json"
        TuningDB(path).put(_record(channel))
        doc = json.loads(path.read_text())
        fp = channel.fingerprint()
        doc["entries"][fp]["config"]["repartition"] = "none"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as excinfo:
            TuningDB(path)
        msg = str(excinfo.value)
        assert str(path) in msg and fp in msg
        assert "unknown LouvainConfig field(s): repartition" in msg

    def test_no_tmp_litter(self, channel, tmp_path):
        path = tmp_path / "db.json"
        db = TuningDB(path)
        db.put(_record(channel))
        db.put(_record(channel, ranks=8))
        assert [p.name for p in tmp_path.iterdir()] == ["db.json"]


class TestNearest:
    def test_exact_graph_is_distance_zero(self, channel):
        db = TuningDB()
        db.put(_record(channel))
        hit = db.nearest(compute_features(channel))
        assert hit is not None
        assert hit.distance == 0.0

    def test_similar_graph_found(self, channel):
        db = TuningDB()
        db.put(_record(channel))
        sibling = make_graph("channel", scale="tiny", seed=3)
        hit = db.nearest(compute_features(sibling))
        assert hit is not None
        assert hit.record.fingerprint == channel.fingerprint()
        assert hit.distance > 0.0

    def test_radius_respected(self, channel):
        db = TuningDB()
        db.put(_record(channel))
        sibling = make_graph("channel", scale="tiny", seed=3)
        assert db.nearest(
            compute_features(sibling), max_distance=1e-12
        ) is None

    def test_empty_db(self, channel):
        assert TuningDB().nearest(compute_features(channel)) is None

    def test_picks_closest(self, channel):
        db = TuningDB()
        db.put(_record(channel))
        other = make_graph("com-orkut", scale="tiny", seed=0)
        db.put(_record(other, ranks=8))
        hit = db.nearest(
            compute_features(make_graph("channel", scale="tiny", seed=3)),
            max_distance=100.0,
        )
        assert hit.record.fingerprint == channel.fingerprint()


class TestRecord:
    def test_round_trip(self, channel):
        rec = _record(channel)
        assert TuningRecord.from_dict(rec.to_dict()) == rec

    def test_speedup(self, channel):
        assert _record(channel).speedup == pytest.approx(2.5)
        assert _record(channel, measured_seconds=0.0).speedup == float("inf")

    def test_summary_mentions_guard(self, channel):
        assert "guard ok" in _record(channel).summary()
        bad = _record(channel, quality_guard_passed=False)
        assert "FAILED" in bad.summary()


def _graphs(n):
    """Distinct tiny graphs (distinct fingerprints) for GC tests."""
    return [make_graph("channel", scale="tiny", seed=s) for s in range(n)]


class TestGarbageCollection:
    def test_validation(self):
        with pytest.raises(ValueError):
            TuningDB(max_entries=0)
        with pytest.raises(ValueError):
            TuningDB(max_age_seconds=0.0)

    def test_size_cap_evicts_lru(self):
        gs = _graphs(4)
        db = TuningDB(max_entries=3)
        for i, g in enumerate(gs[:3]):
            db.put(_record(g, created=float(i + 1)))
        # Touch the oldest record so it becomes most recently used.
        assert db.get(gs[0].fingerprint()) is not None
        db.put(_record(gs[3], created=100.0))
        assert len(db) == 3
        # gs[1] (created=2, never used) was the LRU entry.
        assert db.get(gs[1].fingerprint()) is None
        assert db.get(gs[0].fingerprint()) is not None
        assert db.gc_evictions == 1

    def test_age_prune(self):
        gs = _graphs(2)
        db = TuningDB(max_age_seconds=3600.0)
        db.put(_record(gs[0], created=1.0))  # epoch 1970: long stale
        db.put(_record(gs[1], created=0.0))  # created stamped "now"
        assert db.gc() == 0  # put() already pruned the stale one
        assert len(db) == 1
        assert db.get(gs[1].fingerprint()) is not None

    def test_get_refreshes_last_used(self):
        gs = _graphs(3)
        db = TuningDB(max_entries=2)
        db.put(_record(gs[0], created=1.0))
        db.put(_record(gs[1], created=2.0))
        # Touch the older record; the untouched one becomes the LRU.
        assert db.get(gs[0].fingerprint()).last_used > 0
        db.put(_record(gs[2], created=0.0))
        assert db.get(gs[1].fingerprint()) is None
        assert db.get(gs[0].fingerprint()) is not None

    def test_gc_on_load(self, tmp_path):
        gs = _graphs(3)
        path = tmp_path / "tune.json"
        writer = TuningDB(path)
        for i, g in enumerate(gs):
            writer.put(_record(g, created=float(i + 1)))
        assert len(writer) == 3
        capped = TuningDB(path, max_entries=2)
        assert len(capped) == 2
        assert capped.gc_evictions == 1
        # The pruned document was persisted (atomic rewrite).
        assert len(json.loads(path.read_text())["entries"]) == 2

    def test_gc_persists(self, tmp_path):
        gs = _graphs(3)
        path = tmp_path / "tune.json"
        db = TuningDB(path)
        for g in gs:
            db.put(_record(g))
        db.max_entries = 1
        assert db.gc() == 2
        assert len(TuningDB(path)) == 1

    def test_unbounded_db_never_drops(self):
        db = TuningDB()
        for g in _graphs(5):
            db.put(_record(g, created=1.0))
        assert db.gc() == 0
        assert len(db) == 5

    def test_last_used_round_trips(self, channel):
        rec = _record(channel, last_used=42.0)
        assert TuningRecord.from_dict(rec.to_dict()).last_used == 42.0
