"""Autotuning: cost-model-guided config planning with a persistent DB.

The paper hand-picks its heuristic parameters (ET ``alpha``, the Fig. 2
threshold cycle, ETC's 90% exit) and the best setting varies per graph
(Tables II-VII); this subsystem picks them *per workload*:

1. :mod:`~repro.tune.features` featurizes the graph in one CSR pass;
2. :mod:`~repro.tune.space` declares the search space over variant,
   heuristic parameters and rank count, reusing
   :class:`~repro.core.config.LouvainConfig` validation as its
   constraint oracle;
3. :mod:`~repro.tune.costmodel` pre-screens hundreds of candidates with
   the :mod:`~repro.runtime.perfmodel` cost primitives;
4. :mod:`~repro.tune.search` measures the survivors with
   successive-halving trials (deterministic given a seed) behind a
   quality guard that refuses plans losing more modularity than a
   tolerance;
5. :mod:`~repro.tune.db` persists plans keyed by graph fingerprint,
   with nearest-neighbour fallback in feature space for unseen graphs.

Quickstart::

    from repro.tune import TuningDB, tune_graph

    db = TuningDB("tuning.json")
    record, cached = tune_graph(g, db)       # search on miss, instant on hit
    result = run_louvain(g, record.ranks, record.config)

Or through the service: ``DetectionRequest(..., tune="auto")`` makes an
:class:`~repro.service.Engine` built with a tuning DB plan the config
automatically, and ``repro-louvain tune`` does the same from the shell.
See ``docs/TUNING.md``.
"""

from .costmodel import CostEstimate, predict_cost, screen
from .db import (
    DB_FORMAT_VERSION,
    DEFAULT_NEAREST_DISTANCE,
    TuningDB,
    TuningRecord,
)
from .features import (
    GraphFeatures,
    compute_features,
    feature_distance,
)
from .search import (
    SearchReport,
    Trial,
    TunerSettings,
    plan_for_graph,
    tune_graph,
)
from .space import (
    THRESHOLD_CYCLES,
    Candidate,
    SearchSpace,
    default_space,
)

__all__ = [
    "Candidate",
    "CostEstimate",
    "DB_FORMAT_VERSION",
    "DEFAULT_NEAREST_DISTANCE",
    "GraphFeatures",
    "SearchReport",
    "SearchSpace",
    "THRESHOLD_CYCLES",
    "Trial",
    "TunerSettings",
    "TuningDB",
    "TuningRecord",
    "compute_features",
    "default_space",
    "feature_distance",
    "plan_for_graph",
    "predict_cost",
    "screen",
    "tune_graph",
]
