"""What a distributed Louvain run carries between synchronisation points.

Under the synchronised sweep every rank decides against the state of
the last synchronisation point, so what a run must keep from one such
point to the next is small and explicit — two objects, one per loop
level:

* :class:`RunState` — what Algorithm 2 carries from phase to phase;
* :class:`IterationState` — what Algorithm 3 carries from iteration to
  iteration inside one phase.

The loops in :mod:`repro.core.distlouvain` own one of each and mutate
it in place.  Everything else a phase works with — the ghost plan, the
world's arrays, the sweep plan, colour classes — is *derived* from
these two and rebuilt whenever a phase begins, so a checkpoint is
``pack(state)`` (:mod:`repro.resilience.louvain_state`) and a resume is
``state = unpack(...)``: the resumed loop rebuilds the derived parts
exactly as a fresh phase does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.distgraph import DistGraph
from .heuristics import EarlyTermination
from .result import IterationStats, PhaseStats


@dataclass
class IterationState:
    """One rank's state between two iterations of a phase (Algorithm 3).

    ``tot_owned`` / ``size_owned`` are the owner-side ``C_info``: a_c
    and |c| of every community whose id this rank owns, dense over its
    vertex interval.

    While a phase runs, ``local_comm``, ``tot_owned`` and ``size_owned``
    are views of this rank's segments of the world's per-vertex tables,
    which hold every rank's laid end to end (the phase's set-up
    rendezvous points them there).  They are written in place, never rebound: the
    world's tables are the one copy.
    """

    #: Community of every owned vertex (global community ids).
    local_comm: np.ndarray
    tot_owned: np.ndarray
    size_owned: np.ndarray
    #: ET's activity probabilities, inactive flags and generator
    #: (``None`` for variants without early termination).
    et: EarlyTermination | None = None
    #: Last iteration run (-1: none yet); a resumed phase starts after it.
    iteration: int = -1
    #: Modularity after the previous / the last iteration.
    prev_q: float = -np.inf
    q: float = 0.0
    #: This phase's iterations so far.
    stats: list[IterationStats] = field(default_factory=list)


@dataclass
class RunState:
    """One rank's state between two phases of a run (Algorithm 2)."""

    #: The rank's slice of the graph the next phase runs on.
    dg: DistGraph
    #: Current meta vertex of every original vertex this rank loaded.
    orig_slice: np.ndarray
    #: Index of the next phase to run.
    phase: int = 0
    #: Modularity of the last phase by its own iterations / exactly.
    prev_mod: float = -np.inf
    final_mod: float = 0.0
    #: History of the phases completed so far.
    phases: list[PhaseStats] = field(default_factory=list)
    iterations: list[IterationStats] = field(default_factory=list)
    #: Threshold cycling's forced last pass at the lowest tau is on.
    in_final_pass: bool = False
    #: Warm start the first phase has yet to apply (owned vertices).
    seed_assignment: np.ndarray | None = None
    #: Original-vertex assignment after each phase — rank 0 only, and
    #: only with ``track_assignments``; ``None`` otherwise.
    phase_assignments: list[np.ndarray] | None = None
    #: Rank count of the world a gathered tail's one-rank run stands
    #: for, whose even-vertex layout its phases draw ET and report
    #: ``ghost_fraction`` under; ``None`` on every other run.  Not a
    #: field: the tail that sets it is atomic, so no checkpoint holds it.
    layout_ranks = None
