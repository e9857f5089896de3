"""SPMD001 near-miss: the same calls on the one-rank communicator.

A collective on ``MPI_COMM_SELF`` involves rank 0 alone, so the rank
guard around it skips nothing the other ranks wait for.
"""


def _finish(comm, values):
    return comm.allreduce(values)


def tail(comm, values):
    found = None
    if comm.rank == 0:
        with comm.solo() as solo:
            found = _finish(solo, values)
    return comm.bcast(found, root=0)


def tail_direct(comm, values):
    found = None
    if comm.rank == 0:
        with comm.solo() as solo:
            found = solo.allreduce(values)
    return comm.bcast(found, root=0)
