"""Detection service: async jobs, result caching, one typed request API.

The serving tier over the distributed Louvain library.  One way in —
:class:`DetectionRequest` — and three ways to run it:

* :func:`detect` — inline, on the calling thread (the one-shot path);
* :class:`Engine` — asynchronous: a bounded worker pool multiplexes
  many jobs, with priority scheduling, admission control and
  backpressure (:class:`AdmissionError`), per-job retry-with-resume on
  rank failure (from in-memory snapshots of the run state),
  content-addressed result caching
  (:class:`ResultStore`), and full observability
  (:class:`ServiceMetrics`);
* ``repro-louvain serve / submit`` — the same engine from the command
  line.

Quickstart::

    from repro.service import DetectionRequest, Engine, ResultStore

    with Engine(workers=4, store=ResultStore(capacity=64)) as engine:
        job = engine.submit(DetectionRequest(graph=g, nranks=8))
        response = engine.wait(job)
        print(response.summary())

The service layer is an extension beyond the paper (its §V runs are
one-shot batch jobs) — see ``docs/PAPER_MAPPING.md``.
"""

from .engine import Engine, Job, detect, execute_request
from .metrics import ServiceMetrics
from .request import (
    MODES,
    DetectionRequest,
    DetectionResponse,
    JobState,
)
from .scheduler import AdmissionError, PriorityScheduler
from .store import ResultStore

__all__ = [
    "AdmissionError",
    "DetectionRequest",
    "DetectionResponse",
    "Engine",
    "Job",
    "JobState",
    "MODES",
    "PriorityScheduler",
    "ResultStore",
    "ServiceMetrics",
    "detect",
    "execute_request",
]
