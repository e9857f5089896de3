"""When the rest of a run is cheaper on one rank: the gather rule.

Step 6 of the paper's graph rebuild (§IV-A(b)) spreads every coarsened
graph back over all ``p`` ranks.  A few phases in, the graph has a few
hundred vertices, and an iteration on ``p`` ranks is latency and
nothing else — three exchanges and an allreduce — while one rank sweeps
the whole graph in less time than one of those messages takes.  At
every phase boundary after the first, :func:`gather_pays` decides from
replicated values whether the run gathers the graph to rank 0 and
finishes there on ``MPI_COMM_SELF``
(:func:`repro.core.distlouvain._finish_on_one_rank`).

It says yes only when the modelled clock provably cannot rise.  The
tail on one rank runs the same phases, iterations, sweep rounds and
propagation rounds as the ``p`` ranks would (outcomes do not depend on
the rank count), so it is enough that every unit of work is cheaper
there, and that one phase's least saving pays for the gather and the
broadcast that bracket the tail:

===================  =============================  ======================
unit                 ``p`` ranks, at least           one rank, at most
===================  =============================  ======================
sweep round          3 exchanges                     ``c(2E + 2n)``
iteration close      1 allreduce                     ``c(E)``, its stats row
propagation round    1 exchange, 1 allreduce         ``c(E)``
(coloring, Leiden)
phase boundary       7 exchanges, 1 allreduce,       ``c(2E)``, its stats row
                     1 allgather
once                 —                               gather, broadcast
===================  =============================  ======================

The ``p``-rank side charges every collective at zero bytes and no
compute; the one-rank side charges only compute — ``c`` is
:meth:`~repro.runtime.perfmodel.MachineModel.compute_cost` — because
every collective on a one-rank communicator is free.  ``n`` and ``E``
bound the vertices and stored entries of every remaining phase: the
next graph's vertex count, and the finished phase's entry count
(coarsening never adds entries).  A stats row is what the tail's
broadcast carries per iteration and per phase.  Every phase has at
least one iteration of at least one sweep round, so the tail saves at
least ``boundary + round + close`` per phase.

Assignment tracking adds the original-vertex map to the gather; that
costs less than the per-phase gather of the same map the ``p`` ranks
make, so it needs no term.  The comparison is strict: on a free machine
both sides are zero and nothing is gathered.
"""

from __future__ import annotations

from dataclasses import fields

from ..runtime.payload import ENVELOPE_BYTES, SCALAR_BYTES
from ..runtime.perfmodel import MachineModel
from .result import IterationStats, PhaseStats

#: Bytes one iteration's / one phase's statistics add to the broadcast.
ITERATION_BYTES = len(fields(IterationStats)) * SCALAR_BYTES
PHASE_BYTES = len(fields(PhaseStats)) * SCALAR_BYTES


def gather_pays(
    machine: MachineModel, nranks: int, num_vertices: int, max_entries: int
) -> bool:
    """Whether the phases left run on one rank in less modelled time than
    on ``nranks``, gather and broadcast included (see the module
    docstring): for a graph of ``num_vertices`` vertices and at most
    ``max_entries`` stored entries, whose later phases are no larger."""
    p, n, e = nranks, num_vertices, max_entries
    compute = machine.compute_cost
    exchange = machine.alltoallv_cost(0, 0, p, rank=0)
    allreduce = machine.allreduce_cost(0, p)

    def row(nbytes: int) -> float:
        return machine.bcast_cost(nbytes, p) - machine.bcast_cost(0, p)

    sweep_round = 3 * exchange - compute(2 * e + 2 * n)
    close = allreduce - compute(e) - row(ITERATION_BYTES)
    propagation = exchange + allreduce - compute(e)
    boundary = (
        7 * exchange + allreduce + machine.allgather_cost(0, p)
        - compute(2 * e) - row(PHASE_BYTES)
    )
    # The largest slice's CSR to rank 0; the meta vertex -> community
    # map and the final Q back (the stats rows are counted above).
    largest = -(-n // p)
    gather = machine.gather_cost(
        ENVELOPE_BYTES + SCALAR_BYTES * (largest + 1 + 2 * e), p
    )
    bcast = machine.bcast_cost(ENVELOPE_BYTES + SCALAR_BYTES * (n + 1), p)
    return (
        sweep_round > 0
        and close > 0
        and propagation > 0
        and sweep_round + close + boundary > gather + bcast
    )
