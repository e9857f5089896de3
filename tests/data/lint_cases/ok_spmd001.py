"""SPMD001 near-misses: rank-dependent code that keeps the schedule."""

import numpy as np


def rooted_bcast_idiom(comm, seq):
    # The legit rooted-collective idiom: every rank calls bcast; only
    # the deposited value is rank-dependent (IfExp, not a branch).
    return comm.bcast(seq if comm.rank == 0 else None, root=0)


def balanced_branches(comm, x):
    # Both branches make the same collective calls, in the same order.
    if comm.rank == 0:
        y = comm.allreduce(x)
    else:
        y = comm.allreduce(x)
    return y


def replicated_condition(comm, config, values):
    # The condition is config-derived, identical on every rank.
    if config.use_extra_reduction:
        return comm.allreduce(values.sum())
    return values.sum()


def rank_local_work_only(comm, values):
    # Rank-dependent branch with no collectives inside: fine.
    if comm.rank == 0:
        print("rank 0 reporting", values.sum())
    total = comm.allreduce(values.sum())
    return total


def uniform_trip_count(comm, rounds):
    acc = 0.0
    for _ in range(rounds):
        acc += comm.allreduce(1.0)
    return acc


def _exchange(comm, values):
    return comm.allreduce(values)


def config_guarded_helper(comm, config, values):
    # A config flag is identical on every rank: the inlined allreduce
    # changes the schedule per config (the schedule matrix), never per
    # rank.
    if config.use_coloring:
        values = _exchange(comm, values)
    return values
