"""SPMD302: a collective-guarding field hides behind a non-schedule-
safe cache-key exclusion.

``fast_exit`` selects whether the final barrier runs, so two configs
differing only in it execute different collective schedules — but its
exclusion is tagged ``perf``, which does not certify schedule safety.
"""

from dataclasses import dataclass

CACHE_KEY_EXCLUSIONS = {
    "fast_exit": "perf: skips the final consistency barrier",
}


@dataclass(frozen=True)
class LouvainConfig:
    tau: float = 1e-6
    fast_exit: bool = False


def detect(comm, config: LouvainConfig, values):
    total = comm.allreduce(values)
    if config.fast_exit:
        comm.barrier()
    return total
