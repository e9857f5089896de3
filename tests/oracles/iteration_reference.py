"""Reference schedule: one Louvain iteration as every rank runs it alone.

The shipped ``repro.core.distlouvain._iterate`` makes one rendezvous per
iteration: every rank consults the fault plan for the iteration's ops,
and one world function runs Algorithm 3's steps (ii)-(v) for every rank
— each step a fixed number of numpy passes over every rank's state laid
end to end — handing each rank back the charges its ops would have made.
This is the formulation it replaced, kept as an oracle (tests only,
never imported by ``src/``): per colour round a ``lookup`` (request and
reply legs), a world call of the stacked sweep and a ``push`` of the
deltas with the ghost labels, then one ``allreduce`` — each its own
rendezvous, with the per-rank work between them on the rank's own
thread, in the per-rank forms of the view's patching (:func:`publish`,
:func:`absorb`).  After every iteration every rank must hold *equal*
state, clock and trace.

:func:`iterate` is a drop-in for ``_iterate``.  Its delta exchange is
the module function :func:`apply_community_deltas`, so a test can swap
in the two-exchange oracle of :mod:`.exchange_reference`.
"""

from __future__ import annotations

import numpy as np

from repro.core.coarsen import owner_lookup
from repro.core.distlouvain import _exit_tests, aggregate_dense_deltas
from repro.core.sweep import Segments, array_lookup, propose_moves
from repro.graph.csr import sorted_unique


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
    return _exit_tests(phase, it, config, total)


def sweep_round(comm, phase, active) -> tuple[np.ndarray, int]:
    """Steps (i)-(iv) for one active set: fetch, world sweep, deltas and
    labels out, view patched."""
    dg, view, state = phase.dg, phase.view, phase.state
    nloc = dg.num_local
    ids = view.ids
    local_dense = view.slot[:nloc]
    flags = np.zeros(len(ids), dtype=bool)
    if active.all():
        scanned = dg.num_local_entries
        flags[view.slot] = True
    else:
        active_entries = active[dg.local_rows()]
        scanned = int(np.count_nonzero(active_entries))
        flags[view.target[active_entries]] = True
        flags[local_dense[active]] = True
    wanted = np.flatnonzero(flags)
    dense_info = np.full((2, len(ids)), np.nan)
    dense_info[0, wanted], dense_info[1, wanted] = owner_lookup(
        comm, dg.offsets, ids[wanted], (state.tot_owned, state.size_owned),
        category="community_comm",
    )
    stack = phase.world.stack
    _, cur, round_active = stack.segment(comm.rank)
    cur[:] = local_dense
    round_active[:] = active
    proposal, moved, pairs = comm.world_call(
        (phase.world, dense_info, ids), _sweep_world
    )
    moved = moved.copy()
    comm.charge_compute(pairs + scanned + nloc)
    rows = np.flatnonzero(moved)
    new_dense = proposal[rows]
    deltas = aggregate_dense_deltas(
        ids, local_dense[rows], new_dense, phase.k[rows]
    )
    state.local_comm[rows] = ids[new_dense]
    local_dense[rows] = new_dense
    absorb(comm, phase, *apply_community_deltas(
        comm, dg, *deltas, tot_owned=state.tot_owned,
        size_owned=state.size_owned,
        labels=publish(dg, view.plan, state.local_comm, moved),
    ))
    return moved, len(rows)


def _sweep_world(rounds):
    """One ``propose_moves`` over the stack for every rank's round."""
    world = rounds[0][0]
    stack = world.stack
    lengths = [len(r_ids) for _, _, r_ids in rounds]
    shift = np.zeros(len(rounds), dtype=np.int64)
    np.cumsum(lengths[:-1], out=shift[1:])
    ids = np.concatenate([r_ids for _, _, r_ids in rounds])
    info = np.concatenate([r_info for _, r_info, _ in rounds], axis=1)
    res = propose_moves(
        index=stack.index,
        target_comm=stack.target,
        weights=None,
        self_mask=None,
        degrees=stack.degrees,
        cur_comm=stack.cur,
        total_weight=world.total_weight,
        tot_lookup=array_lookup(ids, info[0]),
        size_lookup=array_lookup(ids, info[1]),
        active=stack.active,
        resolution=world.resolution,
        plan=stack.plan,
        segments=Segments(stack.row_cuts, shift),
    )
    cuts = stack.row_cuts
    return [
        (res.proposal[a:b], res.moved[a:b], int(pairs))
        for a, b, pairs in zip(cuts[:-1], cuts[1:], res.segment_pairs)
    ]


def publish(dg, plan, local_comm, moved):
    """This round's labels by destination rank: ``(counts, vertex ids,
    new communities)`` of the ``moved`` owned vertices each rank ghosts,
    in destination order, ``counts[d]`` of them for rank ``d``."""
    send_loc = dg.to_local(plan.send_ids)
    sel = np.flatnonzero(moved[send_loc])
    counts = np.diff(np.searchsorted(sel, plan.send_cuts))
    return counts, plan.send_ids[sel], local_comm[send_loc[sel]]


def absorb(comm, phase, ghost_ids, values) -> None:
    """Ghost vertices ``ghost_ids`` now belong to communities ``values``
    (raw ids, possibly never seen here): update the ghost copies and
    their positions, then re-aim the view's targets.  Collective: a rank
    whose ids grew hands them to the world's table in a world call every
    rank makes."""
    dg, view = phase.dg, phase.view
    grown = None
    if len(ghost_ids):
        ghosts = np.searchsorted(view.plan.ghost_ids, ghost_ids)
        view.values[ghosts] = values
        grown, pos = _positions(view, values)
        view.slot[dg.num_local + ghosts] = pos
    comm.world_call((phase.world, grown), _set_ids)
    view.slot.take(dg.compressed_targets(), out=view.target, mode="clip")


def _positions(view, values):
    """This rank's ``ids`` with the unseen ``values`` merged in (``None``
    when none is unseen), and the position of each value in them; the
    positions above a merged id move up, in ``slot`` too."""
    ids = view.ids
    pos = np.searchsorted(ids, values)
    unseen = ids.take(pos, mode="clip") != values
    if not unseen.any():
        return None, pos
    fresh = sorted_unique(values[unseen])
    shift = np.searchsorted(fresh, ids)
    shift += np.arange(len(ids))
    view.slot[:] = shift[view.slot]
    pos += np.searchsorted(fresh, values)
    return np.insert(ids, np.searchsorted(ids, fresh), fresh), pos


def _set_ids(deposits):
    """Every rank's ``ids`` laid end to end again, a grown rank's
    replaced."""
    world = deposits[0][0]
    if any(grown is not None for _, grown in deposits):
        cuts = world.id_cuts
        parts = [
            world.ids[cuts[r]:cuts[r + 1]] if grown is None else grown
            for r, (_, grown) in enumerate(deposits)
        ]
        world.id_cuts = np.zeros(len(parts) + 1, dtype=np.int64)
        np.cumsum([len(a) for a in parts], out=world.id_cuts[1:])
        world.ids = np.concatenate(parts)
        world.slot_shift[:] = np.repeat(
            world.id_cuts[:-1], np.diff(world.slot_cuts)
        )
    return [None] * len(deposits)


def global_modularity(comm, phase, config, active, moved) -> np.ndarray:
    """Step (v): the modularity partials and counts in one allreduce;
    sets ``phase.state.q``."""
    dg, view, state = phase.dg, phase.view, phase.state
    intra = view.slot[dg.local_rows()] == view.target
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
