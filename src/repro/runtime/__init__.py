"""Simulated SPMD/MPI runtime substrate.

This subpackage replaces the MPI + Cray Aries stack the paper ran on:
ranks are threads, every collective is one rendezvous of all ranks (the
last to arrive routes the deposits and prices them), and time is an
analytic LogGP-style model (see DESIGN.md §2 for the substitution
rationale).
"""

from .comm import Communicator, World, payload_kind
from .errors import (
    CollectiveMismatchError,
    CommTimeoutError,
    InjectedFault,
    InvalidRankError,
    RankAborted,
    RankFailedError,
    RuntimeSimError,
)
from .executor import SPMDResult, run_spmd
from .payload import message_bytes, nbytes
from .perfmodel import (
    CORI_HASWELL,
    CORI_HASWELL_SHARED,
    FREE,
    PRESETS,
    SLOW_NETWORK,
    MachineModel,
    OpenMPModel,
)
from .tracing import CATEGORIES, RankTrace, TraceReport

__all__ = [
    "CATEGORIES",
    "CORI_HASWELL",
    "CORI_HASWELL_SHARED",
    "FREE",
    "PRESETS",
    "SLOW_NETWORK",
    "CollectiveMismatchError",
    "CommTimeoutError",
    "Communicator",
    "InjectedFault",
    "InvalidRankError",
    "MachineModel",
    "OpenMPModel",
    "RankAborted",
    "RankFailedError",
    "RankTrace",
    "RuntimeSimError",
    "SPMDResult",
    "TraceReport",
    "World",
    "message_bytes",
    "nbytes",
    "payload_kind",
    "run_spmd",
]
