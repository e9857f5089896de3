"""SPMD001 near-miss: the same lookup, made by every rank (an empty
request is still a deposit)."""


def community_info(comm, ids, cuts, tables):
    return comm.lookup(ids, cuts, tables, category="community_comm")
