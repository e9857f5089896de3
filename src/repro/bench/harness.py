"""Experiment harness: variant sweeps, process sweeps, speedup tables.

Each benchmark in ``benchmarks/`` composes these helpers to regenerate
one table or figure of the paper; the harness owns the mechanics
(running configurations, collecting modelled times, computing speedups)
so benches stay declarative.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..core.config import LouvainConfig
from ..core.distlouvain import run_louvain
from ..core.result import LouvainResult
from ..graph.csr import CSRGraph
from ..resilience.checkpoint import CheckpointManager
from ..runtime.perfmodel import CORI_HASWELL, MachineModel


@dataclass
class SweepResultSet:
    """Results of a (variant x process-count) sweep on one input graph."""

    graph_name: str
    #: results[variant_label][nranks] -> LouvainResult
    results: dict[str, dict[int, LouvainResult]] = field(default_factory=dict)

    def add(self, label: str, nranks: int, result: LouvainResult) -> None:
        self.results.setdefault(label, {})[nranks] = result

    def labels(self) -> list[str]:
        return list(self.results)

    def process_counts(self, label: str) -> list[int]:
        return sorted(self.results[label])

    def elapsed_series(self, label: str) -> list[tuple[int, float]]:
        """(nranks, modelled seconds) curve — one line of Fig. 3."""
        return [
            (p, self.results[label][p].elapsed)
            for p in self.process_counts(label)
        ]

    def best_speedup_over_baseline(
        self, baseline_label: str = "Baseline"
    ) -> tuple[float, str, int]:
        """Table IV metric: Baseline time on the smallest process count
        divided by the fastest (variant, p) observed; returns
        ``(speedup, winning label, winning p)``."""
        base = self.results.get(baseline_label)
        if not base:
            raise KeyError(f"no {baseline_label!r} results recorded")
        base_time = base[min(base)].elapsed
        best = (0.0, baseline_label, min(base))
        for label, by_p in self.results.items():
            for p, res in by_p.items():
                if res.elapsed <= 0:
                    continue
                speedup = base_time / res.elapsed
                if speedup > best[0]:
                    best = (speedup, label, p)
        return best

    def modularity_spread(self) -> tuple[float, float]:
        """(min, max) final modularity across every configuration."""
        mods = [
            r.modularity
            for by_p in self.results.values()
            for r in by_p.values()
        ]
        return min(mods), max(mods)


def run_variant_sweep(
    g: CSRGraph,
    graph_name: str,
    configs: list[LouvainConfig],
    process_counts: list[int],
    machine: MachineModel = CORI_HASWELL,
    partition: str = "even_edge",
) -> SweepResultSet:
    """Run every (config, nranks) combination on ``g``."""
    out = SweepResultSet(graph_name=graph_name)
    for config in configs:
        for p in process_counts:
            res = run_louvain(
                g, p, config, machine=machine, partition=partition
            )
            out.add(config.label(), p, res)
    return out


def strong_scaling_curve(
    g: CSRGraph,
    config: LouvainConfig,
    process_counts: list[int],
    machine: MachineModel = CORI_HASWELL,
) -> list[tuple[int, float]]:
    """(p, modelled seconds) for one variant — one curve of Fig. 3."""
    return [
        (p, run_louvain(g, p, config, machine=machine).elapsed)
        for p in process_counts
    ]


def run_trial(
    g: CSRGraph,
    config: LouvainConfig,
    nranks: int,
    *,
    machine: MachineModel = CORI_HASWELL,
    partition: str = "even_edge",
    max_phases: int | None = None,
) -> LouvainResult:
    """One autotuner trial: a (possibly phase-capped) measured run.

    ``max_phases`` overrides the config's phase cap — the successive-
    halving rungs of :mod:`repro.tune.search` run cheap low-fidelity
    trials (one or two phases) before committing to full runs.  Every
    run meets the runtime's schedule check, so a tuning sweep doubles as
    a collective-safety sweep over the whole candidate space.
    """
    if max_phases is not None:
        config = replace(config, max_phases=max_phases)
    return run_louvain(
        g,
        nranks,
        config,
        machine=machine,
        partition=partition,
    )


def speedup_table(
    curve: list[tuple[int, float]]
) -> list[tuple[int, float, float]]:
    """(p, time, speedup vs the smallest p) rows for a scaling curve."""
    if not curve:
        return []
    base_p, base_t = curve[0]
    del base_p
    return [(p, t, (base_t / t) if t > 0 else float("inf")) for p, t in curve]


@dataclass
class CheckpointOverhead:
    """Cost of checkpointing one configuration, on both clocks.

    The interesting number for a long production run is
    ``overhead_fraction``: how much of the run's modelled time goes to
    cutting checkpoints (shard I/O + digest gather + barrier, all
    charged to the ``checkpoint`` trace category).  The wall seconds
    are what the caller of this process waits: serialising, hashing and
    writing the shards costs host time the modelled clock never sees.
    """

    plain: LouvainResult
    checkpointed: LouvainResult
    num_checkpoints: int
    plain_wall_s: float
    checkpointed_wall_s: float

    @property
    def checkpoint_seconds(self) -> float:
        trace = self.checkpointed.trace
        if trace is None:
            return 0.0
        return trace.seconds_by_category().get("checkpoint", 0.0)

    @property
    def overhead_fraction(self) -> float:
        trace = self.checkpointed.trace
        if trace is None:
            return 0.0
        return trace.fraction_by_category().get("checkpoint", 0.0)

    @property
    def bytes_written(self) -> int:
        """Shard bytes of every checkpoint cut, pruned ones included."""
        trace = self.checkpointed.trace
        return 0 if trace is None else trace.total_bytes_written

    def format(self) -> str:
        return (
            f"{self.num_checkpoints} checkpoint(s), "
            f"{self.bytes_written} bytes: "
            f"{self.checkpoint_seconds:.6f}s modelled "
            f"({100.0 * self.overhead_fraction:.2f}% of run), "
            f"elapsed {self.plain.elapsed:.6f}s -> "
            f"{self.checkpointed.elapsed:.6f}s modelled, "
            f"{self.plain_wall_s:.3f}s -> "
            f"{self.checkpointed_wall_s:.3f}s wall"
        )


def measure_checkpoint_overhead(
    g: CSRGraph,
    nranks: int,
    config: LouvainConfig,
    checkpoints: CheckpointManager,
    *,
    machine: MachineModel = CORI_HASWELL,
    partition: str = "even_edge",
) -> CheckpointOverhead:
    """Run ``g`` plain and with checkpointing to the disk manager
    ``checkpoints``, at its cadence; report the cost.

    Both runs use the same seed and machine model, so the checkpointed
    run's extra modelled time is exactly the checkpoint overhead (the
    results themselves are verified identical — checkpoint writes never
    perturb the algorithm).  The wall seconds are one run each: compare
    them across repeated calls, not within one.
    """
    import os
    import time

    t0 = time.perf_counter()
    plain = run_louvain(
        g, nranks, config, machine=machine, partition=partition
    )
    t1 = time.perf_counter()
    checkpointed = run_louvain(
        g,
        nranks,
        config,
        machine=machine,
        partition=partition,
        checkpoints=checkpoints,
    )
    t2 = time.perf_counter()
    if checkpointed.modularity != plain.modularity:
        raise RuntimeError(
            "checkpointed run diverged from plain run "
            f"(Q={checkpointed.modularity} vs {plain.modularity})"
        )
    # Sequence numbers are monotonic, so the newest surviving step dir
    # reveals how many checkpoints were cut even after pruning.
    seqs = [
        int(name.split("-", 1)[1])
        for name in os.listdir(checkpoints.directory)
        if name.startswith("step-")
    ]
    num = max(seqs) + 1 if seqs else 0
    return CheckpointOverhead(
        plain=plain,
        checkpointed=checkpointed,
        num_checkpoints=num,
        plain_wall_s=t1 - t0,
        checkpointed_wall_s=t2 - t1,
    )
