"""Suppression-comment behavior.

Three violations are silenced (targeted, bare, and a helper divergence
under a targeted ignore); the fourth's rule id does not match: reported.
"""


def guarded(comm, x):
    if comm.rank == 0:  # spmdlint: ignore[SPMD001] -- deliberate fixture
        comm.bcast(x, root=0)
    return x


def iterate(comm, members, gains):
    total = 0.0
    for vid in set(members):  # spmdlint: ignore
        total += gains[vid]
    return comm.allreduce(total)


def wrong_id(comm, x):
    if comm.rank == 0:  # spmdlint: ignore[SPMD104] -- wrong rule: no effect
        comm.bcast(x, root=0)
    return x


def _exchange(comm, x):
    return comm.allreduce(x)


def through_helper(comm, x):
    if comm.rank == 0:  # spmdlint: ignore[SPMD001] -- deliberate fixture
        x = _exchange(comm, x)
    return x
