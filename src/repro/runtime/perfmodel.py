"""Analytic performance model for the simulated SPMD runtime.

The paper reports wall-clock times on NERSC Cori (Cray XC40, dual-socket
Haswell nodes, Aries dragonfly interconnect).  This environment has one
CPU core and no interconnect, so times are produced by a LogGP-style
analytic model instead of measured:

* every rank carries a *virtual clock* (seconds);
* local computation charges ``ops / effective_rate`` where ``ops`` counts
  edge/vertex operations and the effective rate folds in the modelled
  OpenMP thread count (the paper runs MPI+OpenMP hybrid);
* a point-to-point message of ``n`` bytes costs ``alpha + beta * n``;
* collectives use the textbook logarithmic-stage formulas.

The model's purpose is to reproduce the *shape* of the paper's results —
which heuristic wins on which graph structure, where strong scaling
flattens, how the comm/compute balance shifts with ``p`` — not the
absolute Cori seconds.  All constants live in :class:`MachineModel` so
benchmarks can state exactly what machine is being modelled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class OpenMPModel:
    """Amdahl-style model for intra-rank (OpenMP) thread scaling.

    ``speedup(t) = 1 / (serial_fraction + (1 - serial_fraction) / t)``
    optionally degraded by a per-thread contention term, which captures
    the sub-linear scaling both codes show in Table III of the paper.
    """

    serial_fraction: float = 0.04
    #: Extra cost per additional thread (memory-bandwidth contention).
    contention: float = 0.002
    #: Physical cores available; threads beyond this are hyperthreads
    #: and contribute at :attr:`hyperthread_yield` of a core.
    physical_cores: int = 32
    hyperthread_yield: float = 0.3

    def speedup(self, threads: int) -> float:
        """Modelled speedup of ``threads`` threads over one thread."""
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        eff_threads = float(min(threads, self.physical_cores))
        if threads > self.physical_cores:
            eff_threads += (threads - self.physical_cores) * self.hyperthread_yield
        amdahl = 1.0 / (
            self.serial_fraction + (1.0 - self.serial_fraction) / eff_threads
        )
        return amdahl / (1.0 + self.contention * (eff_threads - 1.0))


@dataclass(frozen=True)
class MachineModel:
    """Constants describing the modelled machine.

    Parameters are calibrated to be *plausible for Cori Haswell + Aries*;
    the benchmark harness treats them as the single source of truth and
    prints them alongside results.
    """

    name: str = "cori-haswell"
    #: Point-to-point message latency, seconds.
    alpha: float = 2.0e-6
    #: Per-byte transfer cost, seconds (≈ 1/8 GB/s effective).
    beta: float = 1.25e-10
    #: Local edge-operations per second for one thread of the
    #: *distributed* implementation (C++-calibrated, not Python speed).
    compute_rate: float = 2.0e8
    #: Relative per-op overhead of the distributed implementation over
    #: the shared-memory one at equal thread count (Table III shows the
    #: distributed code ~5x slower at 4 threads on one node).
    distributed_overhead: float = 1.0
    #: Effective file-read bandwidth per rank, bytes/second.  Models
    #: MPI-IO collective-buffered reads from Lustre, which stream far
    #: faster than independent POSIX reads; calibrated so ingest is the
    #: 1-2% of runtime the paper reports (§V).
    io_rate: float = 5.0e9
    #: OpenMP threads each rank runs with (paper uses 2 or 4).
    threads_per_rank: int = 4
    #: Ranks packed per node (Cori: 32 cores / threads_per_rank).  Used
    #: by the hierarchical latency model: messages between ranks on the
    #: same node go through shared memory, not the Aries network.
    ranks_per_node: int = 8
    #: Intra-node latency as a fraction of the network alpha.
    intra_node_alpha_fraction: float = 0.25
    omp: OpenMPModel = field(default_factory=OpenMPModel)

    # ------------------------------------------------------------------
    # Derived rates
    # ------------------------------------------------------------------
    def effective_compute_rate(self) -> float:
        """Edge-operations per second for one rank (all its threads)."""
        base = self.compute_rate / self.distributed_overhead
        return base * self.omp.speedup(self.threads_per_rank)

    def compute_cost(self, ops: float) -> float:
        """Seconds of local compute for ``ops`` edge/vertex operations."""
        if ops < 0:
            raise ValueError(f"ops must be >= 0, got {ops}")
        return ops / self.effective_compute_rate()

    def io_cost(self, nbytes: float) -> float:
        """Seconds to read/write ``nbytes`` from the parallel filesystem."""
        return nbytes / self.io_rate

    # ------------------------------------------------------------------
    # Communication costs
    # ------------------------------------------------------------------
    def p2p_cost(self, nbytes: int) -> float:
        """Cost of one point-to-point message of ``nbytes``."""
        return self.alpha + self.beta * nbytes

    def node_of(self, rank: int) -> int:
        """Node hosting ``rank`` under contiguous rank placement."""
        return rank // max(self.ranks_per_node, 1)

    def p2p_alpha(self, src: int, dst: int) -> float:
        """Latency between two ranks: shared memory when co-located."""
        if self.node_of(src) == self.node_of(dst):
            return self.alpha * self.intra_node_alpha_fraction
        return self.alpha

    def barrier_cost(self, p: int) -> float:
        """Dissemination barrier: ``ceil(log2 p)`` latency-bound rounds."""
        return self.alpha * _log2_stages(p)

    def bcast_cost(self, nbytes: int, p: int) -> float:
        """Binomial-tree broadcast."""
        return _log2_stages(p) * (self.alpha + self.beta * nbytes)

    def reduce_cost(self, nbytes: int, p: int) -> float:
        """Binomial-tree reduction (same stage structure as bcast)."""
        return _log2_stages(p) * (self.alpha + self.beta * nbytes)

    def allreduce_cost(self, nbytes: int, p: int) -> float:
        """Recursive-doubling allreduce: reduce + bcast stage structure."""
        return 2.0 * _log2_stages(p) * (self.alpha + self.beta * nbytes)

    def allgather_cost(self, nbytes_per_rank: int, p: int) -> float:
        """Recursive-doubling allgather; volume doubles each stage."""
        stages = _log2_stages(p)
        return stages * self.alpha + self.beta * nbytes_per_rank * max(p - 1, 0)

    def gather_cost(self, nbytes_per_rank: int, p: int) -> float:
        """Binomial gather to a root."""
        stages = _log2_stages(p)
        return stages * self.alpha + self.beta * nbytes_per_rank * max(p - 1, 0)

    def alltoallv_cost(
        self,
        sent_bytes: int,
        recv_bytes: int,
        p: int,
        rank: int | None = None,
    ) -> float:
        """Pairwise-exchange alltoallv as seen by one rank.

        One rank exchanges with up to ``p - 1`` partners; it pays latency
        per partner plus bandwidth for everything it sends and receives.
        When ``rank`` is given, partners on the same node (contiguous
        placement, :attr:`ranks_per_node`) cost the cheaper intra-node
        latency.
        """
        partners = max(p - 1, 0)
        if rank is None or self.ranks_per_node <= 1:
            latency = partners * self.alpha
        else:
            node = self.node_of(rank)
            node_lo = node * self.ranks_per_node
            node_hi = min(node_lo + self.ranks_per_node, p)
            on_node = max(node_hi - node_lo - 1, 0)
            off_node = partners - on_node
            latency = self.alpha * (
                on_node * self.intra_node_alpha_fraction + off_node
            )
        return latency + self.beta * (sent_bytes + recv_bytes)

    def neighbor_alltoallv_cost(
        self, sent_bytes: int, recv_bytes: int, degree: int
    ) -> float:
        """MPI-3 neighbourhood alltoallv: latency scales with the actual
        neighbour count instead of ``p - 1`` (paper §VI future work)."""
        return degree * self.alpha + self.beta * (sent_bytes + recv_bytes)

    # ------------------------------------------------------------------
    def with_threads(self, threads: int) -> "MachineModel":
        """A copy of this model with a different OpenMP thread count."""
        return replace(self, threads_per_rank=threads)

    def scaled(self, edge_factor: float) -> "MachineModel":
        """Model for a scaled-down stand-in of a larger input.

        When a synthetic graph stands in for a real input ``edge_factor``
        times its size, each synthetic edge represents that many real
        edges: per-op compute cost and per-byte transfer cost scale up by
        the factor (so the compute/bandwidth-to-latency balance matches
        the full-size run), while message latency is a property of the
        network and stays fixed.  This is what lets strong-scaling
        *shape* (where curves flatten) survive the down-scaling — see
        DESIGN.md §2.
        """
        if edge_factor <= 0:
            raise ValueError(f"edge_factor must be > 0, got {edge_factor}")
        return replace(
            self,
            name=f"{self.name}-x{edge_factor:g}",
            compute_rate=self.compute_rate / edge_factor,
            beta=self.beta * edge_factor,
            io_rate=self.io_rate / edge_factor,
        )

    def calibrated(self, factor: float) -> "MachineModel":
        """Uniformly rescale every modelled cost by ``factor``.

        The drift monitor's calibration hook (ROADMAP item 3): when
        measured job seconds run ``factor`` times the model's
        predictions, scaling latencies and per-byte costs up — and
        compute/IO rates down — by the same factor makes subsequent
        predictions track measurements without refitting individual
        constants.  ``factor > 1`` means the machine is slower than
        modelled.  Calibration composes: the name keeps the base preset
        with the most recent factor so tuning records stay attributable.
        """
        if factor <= 0 or not math.isfinite(factor):
            raise ValueError(f"calibration factor must be > 0, got {factor}")
        base = self.name.split("~", 1)[0]
        return replace(
            self,
            name=f"{base}~cal{factor:.3g}",
            alpha=self.alpha * factor,
            beta=self.beta * factor,
            compute_rate=self.compute_rate / factor,
            io_rate=self.io_rate / factor,
        )


def _log2_stages(p: int) -> int:
    """Number of stages of a log2 algorithm over ``p`` ranks."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return int(math.ceil(math.log2(p))) if p > 1 else 0


#: Preset modelling a Cori Haswell node + Aries interconnect running the
#: distributed (MPI+OpenMP) implementation.  ``distributed_overhead`` and
#: the OpenMP curve are fit so a single-node run reproduces the relative
#: behaviour of Table III.
CORI_HASWELL = MachineModel()

#: Preset for the shared-memory comparator (Grappolo [22]): no message
#: passing overheads, lower per-op cost, but a worse thread-scaling curve
#: (Table III shows it scaling ~2x from 4 to 64 threads).
CORI_HASWELL_SHARED = MachineModel(
    name="cori-haswell-shared",
    # Calibrated against Table III: the shared-memory code is ~5x faster
    # per-op at 4 threads but scales only ~2.2x from 4 to 64 threads
    # (the distributed code scales ~4.7x over the same range).
    distributed_overhead=0.16,
    omp=OpenMPModel(serial_fraction=0.135, contention=0.0),
)

#: A deliberately slow-network preset for ablations (comm-bound regime).
SLOW_NETWORK = MachineModel(name="slow-network", alpha=5.0e-5, beta=2.0e-9)

#: Zero-cost model: virtual clocks stay near zero; used by unit tests
#: that only care about algorithmic behaviour.
FREE = MachineModel(
    name="free",
    alpha=0.0,
    beta=0.0,
    compute_rate=float("inf"),
    io_rate=float("inf"),
    threads_per_rank=1,
)

PRESETS: dict[str, MachineModel] = {
    m.name: m for m in (CORI_HASWELL, CORI_HASWELL_SHARED, SLOW_NETWORK, FREE)
}
