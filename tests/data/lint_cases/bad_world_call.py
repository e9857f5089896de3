"""SPMD001: a world call under a rank guard.

``world_call`` sends nothing, but every rank must make it: the last rank
to arrive runs the function for all of them.  Rank 0 alone never
reaches that count, so the other ranks wait forever.
"""


def _sum_all(deposits):
    return [sum(deposits)] * len(deposits)


def totals(comm, value):
    if comm.rank == 0:
        value = comm.world_call(value, _sum_all)
    return value
