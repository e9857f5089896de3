"""Reference schedule: one Louvain iteration as every rank runs it alone.

The shipped ``repro.core.distlouvain`` runs a whole phase in one
rendezvous, and each of its iterations (``_iterate``) runs Algorithm 3's
steps (ii)-(v) for every rank inside it — each step a fixed number of
numpy passes over every rank's state laid end to end, in global
community ids — charging each rank's ops to its clock and trace as they
are made.  The world keeps no rank's partial knowledge of
the communities as data: a ghost's community is its label in the world's
labels, a fetched a_c / |c| is the owner's table entry itself, and the
messages are priced from counts.

This is the formulation it replaced, kept as an oracle (tests only,
never imported by ``src/``): per colour round a ``lookup`` (request and
reply legs), the rank's own sweep and a ``push`` of the deltas with the
ghost labels, then one ``allreduce`` — each its own rendezvous, with the
per-rank work between them on the rank's own thread.  Each rank keeps
its own view: its copies of its ghosts' communities
(``phase.ghost_comm``, patched with the labels its pushes deliver,
:func:`absorb`) and, per round, its communities numbered densely with
the (a_c, |c|) of exactly those it fetched — a community the round did
not fetch stays NaN, and scoring against it raises ``KeyError``
(:func:`~repro.core.sweep.array_lookup`).  After every iteration every
rank must hold *equal* state, clock and trace.

:func:`louvain_phase` is a drop-in for
``distlouvain.louvain_phase_distributed`` that runs the phase's set-up
as its own rendezvous, then :func:`iterate` (looked up by name at each
iteration, so a test can wrap it) on the rank's own thread, and leaves
the end to ``_finish_phase``'s own rendezvous.  Its delta exchange is
the module function :func:`apply_community_deltas`, so a test can swap
in the two-exchange oracle of :mod:`.exchange_reference`.
:func:`per_rank_iterations` and :func:`world_iterations` hook a
function in after every iteration of either, per rank.
"""

from __future__ import annotations

import sys
from functools import partial

import numpy as np

from repro.core import distlouvain
from repro.core.coarsen import owner_lookup
from repro.core.distlouvain import (
    _begin_phase, _exit_tests, _save_checkpoint, _set_up_world,
    aggregate_dense_deltas,
)
from repro.core.sweep import array_lookup, propose_moves


def louvain_phase(comm, run, tau, config, checkpoints=None, rejoin=None):
    """A drop-in for ``louvain_phase_distributed``: the set-up as its own
    rendezvous, then the iteration loop with :func:`iterate` on the
    rank's own thread, checkpointing where the shipped world leaves for
    it; the phase is returned open (``ended`` is ``None``)."""
    seat = _begin_phase(comm, run, config, rejoin)
    phase = comm.scripted(
        "phase_setup", seat,
        partial(_set_up_world, resolution=config.resolution),
    )
    state = phase.state
    for it in range(state.iteration + 1, config.max_iterations):
        if iterate(comm, phase, it, config) or state.q - state.prev_q <= tau:
            break
        state.prev_q = state.q
        if checkpoints is not None and checkpoints.should_checkpoint_iteration(it):
            _save_checkpoint(checkpoints, comm, run, state)
    phase.ghost_comm = phase.world.local_comm.take(phase.plan.ghost_ids)
    return phase


def per_rank_iterations(patch, after):
    """Run detections with :func:`louvain_phase` in place of the world's
    phase, calling ``after(comm, phase, exited)`` on every rank after
    every :func:`iterate`."""
    real = iterate

    def hooked(comm, phase, *args):
        exited = real(comm, phase, *args)
        after(comm, phase, exited)
        return exited

    patch.setattr(distlouvain, "louvain_phase_distributed", louvain_phase)
    patch.setattr(sys.modules[__name__], "iterate", hooked)


def world_iterations(patch, after):
    """Call ``after(comm, phase, exited)`` for every rank, in rank order,
    wherever the shipped world closes an iteration."""
    real = distlouvain._iterate

    def hooked(world, comms, phases, *args):
        exited = real(world, comms, phases, *args)
        for comm, phase in zip(comms, phases):
            after(comm, phase, exited)
        return exited

    patch.setattr(distlouvain, "_iterate", hooked)


def apply_community_deltas(
    comm, dg, ids, dtot, dsize, tot_owned, size_owned, labels=None
):
    """The round's closing exchange: deltas and labels in one ``push``
    (looked up by name at each call, so a test can swap it)."""
    return comm.push(
        ids, dg.cuts(ids), (dtot, dsize), (tot_owned, size_owned),
        carry=labels, category="community_comm",
    )


def iterate(comm, phase, it, config) -> bool:
    """Iteration ``it``: steps (i)-(iv) in one sweep round per active
    set, then (v) and (vi); returns whether ETC's exit fired."""
    et = phase.state.et
    dg = phase.dg
    nloc = dg.num_local
    if phase.ghost_comm is None:
        # The phase's first iteration: the ghosts' communities as its
        # full exchange delivered them — the labels the world holds
        # before any rank's first collective of the iteration.
        phase.ghost_comm = phase.world.local_comm.take(phase.plan.ghost_ids)
    active = et.draw_active() if et is not None else np.ones(nloc, dtype=bool)
    colors = phase.world.colors
    rounds = (
        [active]
        if colors is None
        else [
            active & (colors[dg.vbegin:dg.vend] == c)
            for c in range(phase.rounds)
        ]
    )
    moved = np.zeros(nloc, dtype=bool)
    for round_active in rounds:
        moved |= sweep_round(comm, phase, round_active)[0]
    total = global_modularity(comm, phase, config, active, moved)
    return _exit_tests([phase], it, config, total)


def view(phase):
    """The rank's communities as it knows them: every slot's (owned
    vertices, then ghosts) numbered densely in ascending id order, and
    the ids, the slots' and every CSR entry's target's dense
    community."""
    raw = np.concatenate([phase.state.local_comm, phase.ghost_comm])
    ids, slot = np.unique(raw, return_inverse=True)
    return ids, slot, slot[phase.dg.compressed_targets()]


def sweep_round(comm, phase, active) -> tuple[np.ndarray, int]:
    """Steps (i)-(iv) for one active set: fetch, the rank's sweep, deltas
    and labels out, ghost copies patched."""
    dg, state = phase.dg, phase.state
    nloc = dg.num_local
    ids, slot, target = view(phase)
    local_dense = slot[:nloc]
    flags = np.zeros(len(ids), dtype=bool)
    if active.all():
        scanned = dg.num_local_entries
        flags[slot] = True
    else:
        active_entries = active[dg.local_rows()]
        scanned = int(np.count_nonzero(active_entries))
        flags[target[active_entries]] = True
        flags[local_dense[active]] = True
    wanted = np.flatnonzero(flags)
    dense_info = np.full((2, len(ids)), np.nan)
    dense_info[0, wanted], dense_info[1, wanted] = owner_lookup(
        comm, dg.offsets, ids[wanted], (state.tot_owned, state.size_owned),
        category="community_comm",
    )
    res = propose_moves(
        index=dg.index,
        target_comm=target,
        weights=dg.weights,
        self_mask=dg.self_loop_mask(),
        degrees=phase.k,
        cur_comm=local_dense,
        total_weight=dg.total_weight,
        tot_lookup=array_lookup(ids, dense_info[0]),
        size_lookup=array_lookup(ids, dense_info[1]),
        active=active,
        resolution=phase.world.resolution,
    )
    comm.charge_compute(res.pairs_evaluated + scanned + nloc)
    moved = res.moved
    rows = np.flatnonzero(moved)
    new_dense = res.proposal[rows]
    deltas = aggregate_dense_deltas(
        ids, local_dense[rows], new_dense, phase.k[rows]
    )
    state.local_comm[rows] = ids[new_dense]
    absorb(phase, *apply_community_deltas(
        comm, dg, *deltas, tot_owned=state.tot_owned,
        size_owned=state.size_owned,
        labels=publish(dg, phase.plan, state.local_comm, moved),
    ))
    return moved, len(rows)


def publish(dg, plan, local_comm, moved):
    """This round's labels by destination rank: ``(counts, vertex ids,
    new communities)`` of the ``moved`` owned vertices each rank ghosts,
    in destination order, ``counts[d]`` of them for rank ``d``."""
    send_loc = dg.to_local(plan.send_ids)
    sel = np.flatnonzero(moved[send_loc])
    counts = np.diff(np.searchsorted(sel, plan.send_cuts))
    return counts, plan.send_ids[sel], local_comm[send_loc[sel]]


def absorb(phase, ghost_ids, values) -> None:
    """Ghost vertices ``ghost_ids`` now belong to communities ``values``:
    update the rank's copies."""
    if len(ghost_ids):
        phase.ghost_comm[
            np.searchsorted(phase.plan.ghost_ids, ghost_ids)
        ] = values


def global_modularity(comm, phase, config, active, moved) -> np.ndarray:
    """Step (v): the modularity partials and counts in one allreduce;
    sets ``phase.state.q``."""
    dg, state = phase.dg, phase.state
    _, slot, target = view(phase)
    intra = slot[dg.local_rows()] == target
    local_in = float(dg.weights.compress(intra).sum())
    comm.charge_compute(dg.num_local_entries)
    local_inactive = state.et.update(moved) if state.et is not None else 0
    partial = np.array([
        local_in, float(np.square(state.tot_owned).sum()),
        float(np.count_nonzero(moved)), float(active.sum()),
        float(local_inactive),
    ])
    total = comm.allreduce(partial, category="allreduce")
    w = dg.total_weight
    state.q = (
        float(total[0] / w - config.resolution * total[1] / (w * w))
        if w > 0
        else 0.0
    )
    return total
