"""SPMD001: collectives under rank-dependent control flow."""

import numpy as np


def rank_guarded_bcast(comm, model):
    # Only rank 0 enters the bcast; every other rank never makes the
    # matching call -> the collective can never complete.
    if comm.rank == 0:
        comm.bcast(model, root=0)
    else:
        model = None
    return model


def tainted_condition(comm, values):
    me = comm.rank
    low_half = me < comm.size // 2
    if low_half:
        total = comm.allreduce(values.sum())
    else:
        total = 0.0
    return total


def rank_dependent_trip_count(comm, chunks):
    acc = 0.0
    for _ in range(comm.rank):
        acc += comm.allreduce(1.0)
    return acc


def owner_guarded_gather(comm, dg, item):
    if dg.owner_of(item) == comm.rank:
        return comm.gather(item, root=0)
    return None


def unbalanced_collective_mix(comm, x):
    if comm.rank % 2 == 0:
        comm.barrier()
        y = comm.allreduce(x)
    else:
        y = comm.allreduce(x)
    return y


def _exchange(comm, values):
    return comm.allreduce(values)


def helper_under_rank_guard(comm, config, values):
    # The allreduce lives in a module-local helper; the call graph
    # inlines it, so the rank guard is seen to skip it on odd ranks.
    if config.use_coloring:
        if comm.rank % 2 == 0:
            values = _exchange(comm, values)
    return values


def closure_under_rank_guard(comm, values):
    def sync():
        return comm.allreduce(values)

    # A nested closure over the communicator is a helper too.
    if comm.rank == 0:
        values = sync()
    return values
