"""The §IV-A(b) rebuild as world steps against the per-rank rebuild.

``rebuild_distributed`` is one scripted rendezvous whose world function
runs the seven steps once for every rank; a phase's end adds the
statistics' allreduce and the projection (``distlouvain._end_world``),
inside the phase's rendezvous or, after Leiden's collectives, in one of
its own (``distlouvain._end_phase``).  The per-rank formulation they
replaced —
each collective its own rendezvous, the rank's work between them — is
kept in ``tests/oracles/rebuild_reference.py``.  Both must leave every
rank bit-equal new CSR arrays and new ids, and the same clock, trace
seconds by category, messages, bytes and collective counts, fault-plan
delays included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LouvainConfig, Variant, distlouvain, run_louvain
from repro.core.coarsen import rebuild_distributed
from repro.graph import DistGraph
from repro.runtime import CORI_HASWELL, run_spmd

from .oracles import rebuild_reference
from .test_core_iteration_world import _delays, _graph


def _rank_trace(comm) -> tuple:
    t = comm.trace
    return (
        comm.clock, comm._ops, t.messages_sent, t.messages_received,
        t.bytes_sent, t.bytes_received, dict(t.seconds),
        dict(t.collectives),
    )


def _graph_arrays(dg: DistGraph) -> list[np.ndarray]:
    return [dg.offsets, dg.index, dg.edges, dg.weights]


def _assert_equal_arrays(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("p", [1, 2, 3, 7])
def test_world_rebuild_equals_per_rank_rebuild(p):
    g = _graph(fractional=True)
    # Communities are vertex ids; most ids are nobody's community, and
    # blocks of five straddle the ranks.
    labels = (np.arange(g.num_vertices) // 5) * 5 + 2
    labels[-1] = 0

    def prog(comm, rebuild):
        dg = DistGraph.distribute(comm, g)
        plan = dg.build_ghost_plan(comm)
        new_dg, local_new = rebuild(
            comm, dg, labels[dg.vbegin:dg.vend], labels[plan.ghost_ids]
        )
        return _graph_arrays(new_dg) + [local_new], _rank_trace(comm)

    runs = [
        run_spmd(
            p, prog, rebuild, machine=CORI_HASWELL, fault_plan=_delays(p)
        ).values
        for rebuild in (
            rebuild_distributed, rebuild_reference.rebuild_distributed
        )
    ]
    for (got, got_trace), (want, want_trace) in zip(*runs):
        _assert_equal_arrays(got, want)
        assert got_trace == want_trace


CONFIGS = {
    "baseline": LouvainConfig(),
    "etc": LouvainConfig(variant=Variant.ETC, alpha=0.25, seed=1),
    "leiden": LouvainConfig(refine="leiden", seed=2),
    "vertex following": LouvainConfig(vertex_following=True),
}


def _world_ends(patch, snapshot):
    """``snapshot(comm, ended)`` for every rank wherever the world ends a
    phase (``_end_world``)."""
    real = distlouvain._end_world

    def end_world(world, comms, closing):
        ends = real(world, comms, closing)
        for comm, ended in zip(comms, ends):
            snapshot(comm, ended)
        return ends

    patch.setattr(distlouvain, "_end_world", end_world)


def _per_rank_ends(patch, snapshot):
    """The phase's world leaves before the end, which
    ``rebuild_reference.end_phase`` makes on every rank in place of
    ``_end_phase``; ``snapshot(comm, ended)`` after it."""
    def end_phase(comm, run, phase):
        ended = rebuild_reference.end_phase(comm, run, phase)
        snapshot(comm, ended)
        return ended

    patch.setattr(distlouvain, "_ends_in_world", lambda config: False)
    patch.setattr(distlouvain, "_end_phase", end_phase)


def _after_every_phase(g, p, config, ends):
    """Per rank, a snapshot after every distributed phase's end, hooked
    in by ``ends`` (:func:`_world_ends` or :func:`_per_rank_ends`)."""
    seen = {rank: [] for rank in range(p)}

    def snapshot(comm, ended):
        new_dg, total, orig = ended
        seen[comm.rank].append((
            _graph_arrays(new_dg) + [total, orig], _rank_trace(comm)
        ))

    with pytest.MonkeyPatch.context() as patch:
        ends(patch, snapshot)
        result = run_louvain(
            g, p, config, machine=CORI_HASWELL, fault_plan=_delays(p)
        )
    return seen, result


@pytest.mark.parametrize("p", [1, 2, 3, 7])
@pytest.mark.parametrize("config", list(CONFIGS))
def test_world_phase_end_equals_per_rank_phase_end(p, config):
    g = _graph(fractional=True)
    (got, got_result), (want, want_result) = (
        _after_every_phase(g, p, CONFIGS[config], ends)
        for ends in (_world_ends, _per_rank_ends)
    )
    for rank in range(p):
        assert len(got[rank]) == len(want[rank]) > 0
        for (a, a_trace), (b, b_trace) in zip(got[rank], want[rank]):
            _assert_equal_arrays(a, b)
            assert a_trace == b_trace
    np.testing.assert_array_equal(
        got_result.assignment, want_result.assignment
    )
    assert got_result.modularity == want_result.modularity
    assert got_result.elapsed == want_result.elapsed
