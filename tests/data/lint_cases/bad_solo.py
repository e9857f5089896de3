"""SPMD001: rank 0 works alone, but on the world's communicator.

Rank 0 opens a one-rank communicator (``MPI_COMM_SELF``) and then makes
its collectives on the outer ``comm`` anyway — directly, or by handing
it to a helper.  The other ranks are already waiting in the broadcast,
so the allreduce never completes.
"""


def _finish(comm, values):
    return comm.allreduce(values)


def tail(comm, values):
    found = None
    if comm.rank == 0:
        with comm.solo() as solo:
            found = _finish(comm, values)
    return comm.bcast(found, root=0)


def tail_direct(comm, values):
    found = None
    if comm.rank == 0:
        with comm.solo() as solo:
            found = comm.allreduce(values)
    return comm.bcast(found, root=0)
