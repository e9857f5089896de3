"""SPMD002: conditional early return skipping later collectives."""


def local_early_exit(comm, local_work):
    # len(local_work) is rank-local: a rank with no work returns here
    # while the others enter the allreduce below and hang.
    if len(local_work) == 0:
        return 0.0
    return comm.allreduce(local_work.sum())


def nested_conditional_return(comm, values, threshold):
    if values is not None:
        if values.max() < threshold:
            return None
    total = comm.allreduce(values.sum())
    comm.barrier()
    return total


def _sync(comm, x):
    return comm.allreduce(x)


def early_exit_before_helper(comm, local_work):
    # The skipped collective hides in a module-local helper.
    if len(local_work) == 0:
        return 0.0
    return _sync(comm, local_work.sum())
