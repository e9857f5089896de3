"""Content addressing of detection requests.

A request's cache key is byte-identical to the one earlier releases
wrote (so a ``ResultStore`` directory or tuning DB stays valid); a
``graph_path`` input is keyed by its file's bytes and loaded only for
bytes the process has not seen; and a graph cannot change under a
queued job, so a mutated run is never stored under the original key.
"""

import shutil
import sys
import threading

import numpy as np
import pytest

import repro.graph.binio as binio
import repro.service.engine as engine_module
from repro.graph import CSRGraph, EdgeList
from repro.graph.binio import write_edgelist
from repro.service import DetectionRequest, Engine, JobState, ResultStore
from repro.service.request import _FileFingerprints


def _graph(weights=(1.0, 2.0, 3.0, 4.0)):
    return CSRGraph.from_edges(4, [0, 1, 0, 2], [1, 2, 2, 3], weights)


def _write(path, graph):
    write_edgelist(str(path), EdgeList.from_csr(graph))
    return str(path)


def _refuse_loads(monkeypatch):
    def refuse(path):
        raise AssertionError(f"{path} was loaded")

    monkeypatch.setattr(binio, "read_edgelist", refuse)


class TestKeyValues:
    # Computed by the release before graphs were frozen and path inputs
    # keyed by their bytes: stored results stay reachable.
    GRAPH_P2 = "e9218424b640d87eb121b770ce767601a932394c676ca1a53d716f90cf0523d6"
    INCREMENTAL_P3 = (
        "651971d5909fb87847fd4445902f888b772cd02dc8dec439cdfbf95f0a29c891"
    )

    def test_graph_key_pinned(self):
        assert DetectionRequest(graph=_graph(), nranks=2).cache_key() == (
            self.GRAPH_P2
        )

    def test_incremental_key_pinned(self):
        request = DetectionRequest(
            graph=_graph(), nranks=3, mode="incremental",
            previous_assignment=np.array([0, 0, 0, 1]),
            reset_touched=np.array([3]),
        )
        assert request.cache_key() == self.INCREMENTAL_P3

    def test_path_key_equals_graph_key(self, tmp_path):
        path = _write(tmp_path / "g.bin", _graph())
        assert DetectionRequest(graph_path=path, nranks=2).cache_key() == (
            self.GRAPH_P2
        )


class TestPathKeying:
    def test_same_bytes_elsewhere_are_not_loaded(self, tmp_path, monkeypatch):
        graph = _graph((1.0, 2.0, 3.0, 5.5))
        first = _write(tmp_path / "a.bin", graph)
        key = DetectionRequest(graph_path=first, nranks=2).cache_key()
        second = str(tmp_path / "b.bin")
        shutil.copyfile(first, second)
        _refuse_loads(monkeypatch)
        request = DetectionRequest(graph_path=second, nranks=2)
        assert request.cache_key() == key
        assert request.graph_fingerprint() == graph.fingerprint()
        assert request.graph is None

    def test_one_weight_changed_is_another_key(self, tmp_path):
        path = _write(tmp_path / "g.bin", _graph((1.0, 2.0, 3.0, 6.5)))
        before = DetectionRequest(graph_path=path, nranks=2).cache_key()
        _write(path, _graph((1.0, 2.0, 3.0, 6.75)))
        after = DetectionRequest(graph_path=path, nranks=2).cache_key()
        assert after != before
        assert after == DetectionRequest(
            graph=_graph((1.0, 2.0, 3.0, 6.75)), nranks=2
        ).cache_key()

    def test_file_changed_after_keying_is_refused(self, tmp_path):
        path = _write(tmp_path / "g.bin", _graph((1.0, 2.0, 3.0, 7.5)))
        DetectionRequest(graph_path=path, nranks=2).cache_key()
        request = DetectionRequest(graph_path=path, nranks=2)
        request.cache_key()  # a seen digest: keyed without a load
        assert request.graph is None
        _write(path, _graph((1.0, 2.0, 3.0, 8.5)))
        with pytest.raises(ValueError, match="changed after"):
            request.resolved_graph()

    def test_engine_hit_on_a_copied_file_loads_nothing(
        self, tmp_path, monkeypatch
    ):
        first = _write(tmp_path / "a.bin", _graph((1.0, 2.0, 3.0, 9.5)))
        second = str(tmp_path / "b.bin")
        shutil.copyfile(first, second)
        with Engine(workers=1, store=ResultStore(capacity=4)) as engine:
            cold = engine.detect(
                DetectionRequest(graph_path=first, nranks=2), timeout=300
            )
            assert cold.state is JobState.DONE, cold.error
            _refuse_loads(monkeypatch)
            hit = engine.detect(
                DetectionRequest(graph_path=second, nranks=2), timeout=300
            )
        assert hit.cache_hit
        assert np.array_equal(hit.result.assignment, cold.result.assignment)


class TestFileFingerprints:
    def test_least_recently_used_digest_goes_first(self):
        known = _FileFingerprints(capacity=2)
        known.put("a", "A")
        known.put("b", "B")
        assert known.get("a") == "A"
        known.put("c", "C")
        assert known.get("b") is None
        assert (known.get("a"), known.get("c")) == ("A", "C")

    def test_concurrent_use_keeps_the_bound_and_the_values(self):
        known = _FileFingerprints(capacity=8)
        wrong = []

        def hammer(t):
            try:
                for i in range(2000):
                    digest = f"d{(t * 7 + i) % 20}"
                    known.put(digest, digest.upper())
                    got = known.get(digest)
                    if got not in (None, digest.upper()):
                        wrong.append(got)
            except Exception as exc:  # a lost update shows as KeyError
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(t,)) for t in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong
        assert len(known._entries) == 8


def test_a_submitted_graph_cannot_be_written(monkeypatch):
    """Writing into a queued job's graph raises, so a mutated run can
    never be stored under the key of the graph the caller submitted."""
    release = threading.Event()
    execute = engine_module.execute_request

    def held(*args, **kwargs):
        release.wait(60)
        return execute(*args, **kwargs)

    monkeypatch.setattr(engine_module, "execute_request", held)
    graph = _graph((1.0, 2.0, 3.0, 10.5))
    with Engine(workers=1, store=ResultStore(capacity=4)) as engine:
        job = engine.submit(DetectionRequest(graph=graph, nranks=2))
        try:
            for array in (graph.index, graph.edges, graph.weights):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0
        finally:
            release.set()
        assert engine.wait(job, timeout=300).state is JobState.DONE
