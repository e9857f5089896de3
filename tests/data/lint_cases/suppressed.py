"""Suppression-comment behavior.

Two violations are silenced (targeted and bare); the third's rule id
does not match: reported.
"""


def iterate(comm, members, gains):
    total = 0.0
    for vid in set(members):  # spmdlint: ignore[SPMD101] -- deliberate fixture
        total += gains[vid]
    return comm.allreduce(total)


def share(comm, frontier):
    return comm.bcast(set(frontier), root=0)  # spmdlint: ignore


def wrong_id(comm, members):
    return [m for m in set(members)]  # spmdlint: ignore[SPMD104] -- wrong rule: no effect
