"""SPMD004 (retired, now reported as SPMD001): divergence two calls deep.

The allreduce sits in ``_reduce``, reached through ``_refresh``; the
call graph's contains-collective closure is transitive, so the rank
guard around ``_refresh`` is seen to skip a collective on odd ranks.
"""


def _reduce(comm, values):
    return comm.allreduce(values)


def _refresh(comm, values):
    return _reduce(comm, values) / comm.size


def sweep(comm, values):
    if comm.rank % 2 == 0:
        values = _refresh(comm, values)
    return values
