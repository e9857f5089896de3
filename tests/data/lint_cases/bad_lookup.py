"""SPMD001: an owner-routed lookup under a rank guard.

``lookup`` answers every rank's request in one rendezvous, so every rank
must make it, asking for nothing or not.  A rank that skips it because
it has nothing to ask leaves the others waiting for its deposit.
"""


def community_info(comm, ids, cuts, tables):
    if comm.rank == 0:
        return comm.lookup(ids, cuts, tables, category="community_comm")
    return None
