"""repro — distributed Louvain community detection (IPDPS 2018 reproduction).

Reproduction of Ghosh et al., "Distributed Louvain Algorithm for Graph
Community Detection", IPDPS 2018, on a simulated SPMD/MPI runtime.

Quickstart::

    from repro import DetectionRequest, Engine, LouvainConfig, Variant, make_graph

    g = make_graph("soc-friendster", scale="small")
    with Engine(workers=4) as engine:
        job = engine.submit(DetectionRequest(
            graph=g, nranks=8,
            config=LouvainConfig(variant=Variant.ETC, alpha=0.25)))
        print(engine.wait(job).summary())

One-shot, without a worker pool::

    from repro import DetectionRequest, detect

    result = detect(DetectionRequest(graph=g, nranks=8)).result

The library entry points ``run_louvain``, ``distributed_louvain`` and
``incremental_louvain`` are re-exported from :mod:`repro.core`.

Subpackages
-----------
``repro.runtime``
    Simulated MPI substrate: SPMD executor, communicator, LogGP-style
    performance model, tracing.
``repro.graph``
    CSR graphs, binary edge-list I/O, 1-D partitioning, the distributed
    ghost-aware graph.
``repro.generators``
    Synthetic workloads standing in for the paper's inputs (R-MAT, LFR,
    SSCA#2, meshes, web crawls, small worlds) plus the dataset registry.
``repro.core``
    The algorithms: serial Louvain, Grappolo-style shared-memory Louvain,
    and the paper's distributed Louvain with its heuristics.
``repro.quality``
    Ground-truth metrics (precision/recall/F-score, NMI).
``repro.service``
    The serving tier: async detection engine, scheduler, result cache,
    service metrics, and the unified typed request API.
``repro.bench``
    Experiment harness used by the ``benchmarks/`` directory.
"""

from .core import (
    LouvainConfig,
    LouvainResult,
    Variant,
    distributed_louvain,
    grappolo_louvain,
    incremental_louvain,
    louvain,
    modularity,
    run_louvain,
)
from .generators import make_graph
from .graph import CSRGraph, DistGraph, EdgeList
from .quality import best_match_scores, normalized_mutual_information
from .runtime import CORI_HASWELL, MachineModel, run_spmd
from .service import (
    AdmissionError,
    DetectionRequest,
    DetectionResponse,
    Engine,
    JobState,
    ResultStore,
    detect,
)

__version__ = "1.1.0"

__all__ = [
    "AdmissionError",
    "CORI_HASWELL",
    "CSRGraph",
    "DetectionRequest",
    "DetectionResponse",
    "DistGraph",
    "EdgeList",
    "Engine",
    "JobState",
    "LouvainConfig",
    "LouvainResult",
    "MachineModel",
    "ResultStore",
    "Variant",
    "__version__",
    "best_match_scores",
    "detect",
    "distributed_louvain",
    "grappolo_louvain",
    "incremental_louvain",
    "louvain",
    "make_graph",
    "modularity",
    "normalized_mutual_information",
    "run_louvain",
    "run_spmd",
]
