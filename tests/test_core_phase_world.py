"""A phase of Louvain is one rendezvous.

``louvain_phase_distributed`` runs Algorithm 3 for every rank in one
scripted rendezvous (``_phase_world``): the set-up, the iterations and
the close, Leiden's split and the audits included.  The world leaves it
early only after an iteration an iteration checkpoint is due at (the
next rendezvous continues the phase).  Counted here per rank, by name,
on the free machine (which never gathers a tail).
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
    names = _rendezvous(monkeypatch, p)
    r = run_louvain(
        graph, p, LouvainConfig(variant=variant, alpha=0.5, seed=3),
        machine=FREE,
    )
    assert r.num_phases > 1
    for rank in range(p):
        assert names[rank] == ["phase"] * r.num_phases + ["allgather"]


def test_an_iteration_checkpoint_continues_in_the_next_rendezvous(
    graph, monkeypatch
):
    """With a save point after every iteration the world leaves after
    each iteration but a phase's last (the tau test ended it there), so a
    phase of n iterations is n rendezvous, the rank's save (in memory: no
    collective) between every two; the result is the uncheckpointed
    run's."""
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
    seq = names[0]
    at = [i for i, n in enumerate(seq) if n == "phase"]
    assert len(at) == r.total_iterations
    # A save between every two rendezvous of one phase, none between one
    # phase's last and the next one's first.
    saves = [seq[a + 1:b] for a, b in zip(at, at[1:]) if b - a > 1]
    assert saves == [["save"]] * (r.total_iterations - r.num_phases)
    assert saves
    assert seq[0] == "phase" and seq[-2:] == ["phase", "allgather"]


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
        assert names[rank] == ["phase"] * r.num_phases + ["allgather"]
