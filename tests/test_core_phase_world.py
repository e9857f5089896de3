"""A detection of Louvain is one rendezvous.

``distributed_louvain`` runs Algorithm 2 for every rank in one scripted
rendezvous, ``detect`` (``_detect_world``): every phase's set-up,
iterations and close (``_phase_world``), Leiden's split and the audits
included, its record, and the result's allgather.  The world leaves it
early only where a checkpoint is due (the next rendezvous continues the
run).  Counted here per rank, by name, on the free machine (which never
gathers a tail).
"""

from __future__ import annotations

import pytest

from repro.core import LouvainConfig, Variant, distlouvain, run_louvain
from repro.resilience import RunSnapshots
from repro.runtime import FREE
from repro.runtime.comm import _Rendezvous

from .conftest import planted_blocks_graph


def _rendezvous(monkeypatch, p):
    """Per rank of the ``p``-rank world, the names of the rendezvous it
    enters, in order."""
    names: dict[int, list[str]] = {rank: [] for rank in range(p)}
    real = _Rendezvous.exchange

    def exchange(self, rank, op_name, *args):
        if self._size == p:
            names[rank].append(op_name)
        return real(self, rank, op_name, *args)

    monkeypatch.setattr(_Rendezvous, "exchange", exchange)
    return names


@pytest.fixture(scope="module")
def graph():
    return planted_blocks_graph(blocks=6, per_block=16, inter_edges=70, seed=2)


@pytest.mark.parametrize("p", [2, 4])
@pytest.mark.parametrize("variant", [Variant.BASELINE, Variant.ETC])
def test_one_rendezvous_per_phase(graph, monkeypatch, p, variant):
    """With a save point at every phase boundary and none inside a phase,
    the world leaves the detection's rendezvous at every boundary after
    the first phase (phase 0's is cut before the first), so a detection
    is one rendezvous per phase; the result is the uncheckpointed
    run's."""
    cfg = LouvainConfig(variant=variant, alpha=0.5, seed=3)
    ref = run_louvain(graph, p, cfg, machine=FREE)
    names = _rendezvous(monkeypatch, p)
    snapshots = RunSnapshots(
        every_phases=1, every_iterations=0, config_key=cfg.cache_key()
    )
    r = run_louvain(graph, p, cfg, machine=FREE, checkpoints=snapshots)
    assert r.modularity == ref.modularity and r.iterations == ref.iterations
    assert r.num_phases > 1
    for rank in range(p):
        assert names[rank] == ["detect"] * r.num_phases


def test_an_iteration_checkpoint_continues_in_the_next_rendezvous(
    graph, monkeypatch
):
    """With a save point after every iteration the world leaves after
    each iteration but a phase's last (the tau test ended it there), so a
    detection is one rendezvous more than it has such saves, the rank's
    save (in memory: no collective) between every two; the result is the
    uncheckpointed run's."""
    p = 3
    cfg = LouvainConfig()
    ref = run_louvain(graph, p, cfg, machine=FREE)
    names = _rendezvous(monkeypatch, p)
    real_save = distlouvain._save_checkpoint

    def save(manager, comm, *args):
        names[comm.rank].append("save")
        return real_save(manager, comm, *args)

    monkeypatch.setattr(distlouvain, "_save_checkpoint", save)
    snapshots = RunSnapshots(
        every_phases=0, every_iterations=1, config_key=cfg.cache_key()
    )
    snapshots.begin_attempt(resume=False)
    r = run_louvain(graph, p, cfg, machine=FREE, checkpoints=snapshots)
    assert r.modularity == ref.modularity and r.iterations == ref.iterations
    saves = r.total_iterations - r.num_phases
    assert saves > 0
    assert names[0] == ["detect"] + ["save", "detect"] * saves


def test_leiden_and_the_audits_close_the_phase_in_its_world(
    graph, monkeypatch
):
    p = 3
    names = _rendezvous(monkeypatch, p)
    r = run_louvain(
        graph, p,
        LouvainConfig(refine="leiden", validate_invariants=True, seed=2),
        machine=FREE,
    )
    assert r.num_phases > 1
    for rank in range(p):
        assert names[rank] == ["detect"]
