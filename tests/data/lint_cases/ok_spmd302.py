"""SPMD302 near-miss: the guarding field's exclusion is schedule-safe.

``audit_pass`` adds a replicated verification barrier; every rank sees
the same config, and the ``audit`` kind documents that the extra
collectives never change detection results.
"""

from dataclasses import dataclass

CACHE_KEY_EXCLUSIONS = {
    "audit_pass": "audit: replicated verification only, results unchanged",
}


@dataclass(frozen=True)
class LouvainConfig:
    tau: float = 1e-6
    audit_pass: bool = False


def detect(comm, config: LouvainConfig, values):
    total = comm.allreduce(values)
    if config.audit_pass:
        comm.barrier()
    return total
