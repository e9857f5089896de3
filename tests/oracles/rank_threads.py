"""Per-rank programs run from inside a world function.

A detection is one world function, run once for every rank.  The oracles
it is held to are per-rank programs: each rank's work on its own thread,
each collective a rendezvous of its own.  :func:`on_rank_threads` runs
such a program for every rank from inside a world function — in a world
of its own, each rank on its own thread, with a communicator that takes
over the outer rank's clock, trace and op count (so the fault plan sees
the op indexes it would see) and hands them back.  A failure inside it
fails the world function with the failing rank's own exception: a kill
stops the outer rendezvous as a kill inside the world would.
"""

from __future__ import annotations

from repro.runtime import RankFailedError, run_spmd


def on_rank_threads(world, comms, program, deposits) -> list:
    """``program(comm, deposit)`` on every rank's own thread, rank ``r``
    with ``deposits[r]`` and a communicator standing in for
    ``comms[r]``; returns the values in rank order."""

    def rank_main(inner):
        outer = comms[inner.rank]
        inner.clock, inner.trace, inner._ops = (
            outer.clock, outer.trace, outer._ops
        )
        try:
            return program(inner, deposits[inner.rank])
        finally:
            outer.clock, outer._ops = inner.clock, inner._ops

    try:
        return run_spmd(
            len(comms), rank_main, machine=world.machine,
            timeout=world.timeout, fault_plan=world.fault_plan,
        ).values
    except RankFailedError as exc:
        raise exc.causes[exc.rank] from None
