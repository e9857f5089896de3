"""Core algorithms: the paper's distributed Louvain and its comparators."""

from .coarsen import coarsen_csr, rebuild_distributed, remote_lookup
from .coloring import color_world
from .config import (
    DEFAULT_THRESHOLD_CYCLE,
    PAPER_VARIANTS,
    LouvainConfig,
    Variant,
)
from .distlouvain import (
    distributed_louvain,
    run_louvain,
)
from .dynamic import (
    ChurnAccumulator,
    ChurnStats,
    EdgeChurn,
    apply_churn,
    churn_statistics,
    incremental_louvain,
    warm_start_assignment,
)
from .grappolo import grappolo_louvain, greedy_coloring, vertex_following_seed
from .heuristics import EarlyTermination, ThresholdCycler, make_rank_rng
from .modularity import (
    community_aggregates,
    modularity,
    modularity_bounds_ok,
    move_gain,
)
from .refine import refine_world
from .result import (
    IterationStats,
    LouvainResult,
    PhaseStats,
    normalize_assignment,
)
from .resultio import (
    RESULT_FORMAT_VERSION,
    load_result,
    read_communities_text,
    save_result,
    write_communities_text,
)
from .sequential import louvain, louvain_phase
from .state import IterationState, RunState
from .sweep import SweepPlan, SweepResult, array_lookup, propose_moves
from .validate import AuditReport, audit_world

__all__ = [
    "DEFAULT_THRESHOLD_CYCLE",
    "EarlyTermination",
    "IterationState",
    "IterationStats",
    "LouvainConfig",
    "LouvainResult",
    "PAPER_VARIANTS",
    "PhaseStats",
    "RESULT_FORMAT_VERSION",
    "RunState",
    "SweepPlan",
    "SweepResult",
    "ThresholdCycler",
    "Variant",
    "AuditReport",
    "ChurnStats",
    "ChurnAccumulator",
    "EdgeChurn",
    "apply_churn",
    "array_lookup",
    "audit_world",
    "churn_statistics",
    "coarsen_csr",
    "color_world",
    "community_aggregates",
    "distributed_louvain",
    "grappolo_louvain",
    "incremental_louvain",
    "greedy_coloring",
    "load_result",
    "louvain",
    "louvain_phase",
    "make_rank_rng",
    "modularity",
    "modularity_bounds_ok",
    "move_gain",
    "normalize_assignment",
    "propose_moves",
    "read_communities_text",
    "rebuild_distributed",
    "refine_world",
    "remote_lookup",
    "run_louvain",
    "save_result",
    "vertex_following_seed",
    "warm_start_assignment",
    "write_communities_text",
]
