"""SPMD004 (retired, now SPMD001) near-misses: helpers two calls deep.

A config guard around a transitive collective changes the schedule per
config, never per rank; a rank guard around a helper chain that makes
no collective changes nothing.
"""


def _reduce(comm, values):
    return comm.allreduce(values)


def _refresh(comm, values):
    return _reduce(comm, values) / comm.size


def _scale(values, factor):
    return values * factor


def _local_update(values, rank):
    return _scale(values, rank + 1)


def config_guarded_chain(comm, config, values):
    if config.use_coloring:
        values = _refresh(comm, values)
    return values


def rank_guarded_local_chain(comm, values):
    if comm.rank == 0:
        values = _local_update(values, comm.rank)
    return comm.allreduce(values)
