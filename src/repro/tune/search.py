"""Two-stage tuning search: cost-model screening + measured halving.

Stage 1 — **screen**: every candidate of the search space is scored by
the closed-form cost model (:mod:`repro.tune.costmodel`); only the
``trials`` cheapest-predicted candidates advance.  This is what lets
the space stay hundreds of points wide while the measured budget stays
single-digit.

Stage 2 — **successive halving**: survivors run *measured* trials
through :func:`repro.bench.harness.run_trial` at increasing fidelity
(phase-capped runs first, full runs last), the slower half dropped at
each rung.  Measured time is the simulator's modelled seconds, so the
whole search is deterministic given the seed — same seed, same graph,
same space ⟹ identical trial schedule and identical planned config.

A **quality guard** closes the loop: the winner's full-run modularity
must reach the paper-default baseline's within ``quality_tolerance``,
otherwise the next-fastest finalist is considered, and if none passes
the plan falls back to the baseline config itself (never ship a fast
plan that detects worse communities).

The full-fidelity runs (baseline + finalists) additionally yield a
**Pareto frontier** over (modelled seconds, modularity): the heuristic
axes added since the paper — vertex following, Leiden-style
refinement — trade speed against quality rather than strictly winning
on one, so the report exposes the whole frontier instead of collapsing
it to a single winner.  Callers who care about quality more than the
guard requires can pick a slower, higher-Q point off the frontier.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Any

from ..bench.harness import run_trial
from ..core.config import LouvainConfig
from ..core.result import LouvainResult
from ..graph.csr import CSRGraph
from ..runtime.perfmodel import CORI_HASWELL, MachineModel
from .costmodel import predict_cost, screen
from .db import TuningDB, TuningRecord
from .features import GraphFeatures, compute_features
from .space import Candidate, SearchSpace, default_space

def _pareto_frontier(
    points: list[tuple[float, float, Candidate]],
) -> tuple[dict[str, Any], ...]:
    """Non-dominated (elapsed, modularity) points, fastest first.

    A point survives iff no other point is both at-most-as-slow and
    strictly higher-quality: scanning by elapsed ascending, keep a
    point only when its modularity strictly exceeds every faster
    point's.  Ties (same elapsed and modularity) keep the first by
    candidate key, so the frontier is deterministic.
    """
    ordered = sorted(points, key=lambda p: (p[0], -p[1], p[2].key()))
    frontier: list[dict[str, Any]] = []
    best_q = -math.inf
    for elapsed, modularity, cand in ordered:
        if modularity > best_q:
            best_q = modularity
            frontier.append(
                {
                    "candidate": cand.key(),
                    "describe": cand.describe(),
                    "elapsed": elapsed,
                    "modularity": modularity,
                }
            )
    return tuple(frontier)


@dataclass(frozen=True)
class TunerSettings:
    """Knobs of one tuning run (all deterministic given ``seed``)."""

    #: Candidates admitted to the measured stage after screening.
    trials: int = 8
    #: Keep ``ceil(len / eta)`` candidates per halving rung.
    eta: int = 2
    #: Phase caps of the low-fidelity rungs (the final rung always runs
    #: the full configuration).
    rung_phase_caps: tuple[int, ...] = (1, 2)
    #: Optional cap on cumulative *modelled* seconds spent in measured
    #: trials; once exceeded, remaining candidates are dropped
    #: deterministically (screen order) instead of measured.
    budget_seconds: float | None = None
    #: Tuned modularity may fall at most this far below baseline.
    quality_tolerance: float = 0.02
    #: Rank count of the paper-default baseline run the guard (and the
    #: speedup report) compares against.
    baseline_ranks: int = 4
    #: Seed stamped onto every candidate config (ET's RNG) — the single
    #: number the whole search is reproducible from.
    seed: int = 0
    machine: MachineModel = CORI_HASWELL
    partition: str = "even_edge"

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.eta < 2:
            raise ValueError(f"eta must be >= 2, got {self.eta}")
        if self.baseline_ranks < 1:
            raise ValueError(
                f"baseline_ranks must be >= 1, got {self.baseline_ranks}"
            )
        if self.budget_seconds is not None and self.budget_seconds <= 0:
            raise ValueError(
                f"budget_seconds must be > 0, got {self.budget_seconds}"
            )


@dataclass
class Trial:
    """One measured run of one candidate at one fidelity."""

    rung: int
    candidate: Candidate
    #: Phase cap of this rung (``None`` = full-fidelity run).
    max_phases: int | None
    elapsed: float
    modularity: float
    phases: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "rung": self.rung,
            "candidate": self.candidate.key(),
            "describe": self.candidate.describe(),
            "max_phases": self.max_phases,
            "elapsed": self.elapsed,
            "modularity": self.modularity,
            "phases": self.phases,
        }


@dataclass
class SearchReport:
    """Everything :func:`plan_for_graph` did, for humans and JSON."""

    record: TuningRecord
    candidates_total: int
    candidates_screened: int
    trials: list[Trial] = field(default_factory=list)
    #: Search wall-notes: why the winner won / guard decisions.
    notes: list[str] = field(default_factory=list)

    def format(self) -> str:
        rec = self.record
        lines = [
            f"tuning {rec.fingerprint[:12]}…  [{rec.features.format()}]",
            f"  space: {self.candidates_total} candidates, "
            f"screened to {self.candidates_screened} measured",
        ]
        for t in self.trials:
            cap = "full" if t.max_phases is None else f"<= {t.max_phases} phase(s)"
            lines.append(
                f"  rung {t.rung}: {t.candidate.describe():<40} {cap:>14}  "
                f"{t.elapsed:.4f}s  Q={t.modularity:.4f}"
            )
        if rec.frontier:
            lines.append(
                f"  pareto frontier ({len(rec.frontier)} point(s), "
                "modelled seconds x modularity):"
            )
            lines.extend(
                f"    {pt['elapsed']:.4f}s  Q={pt['modularity']:.4f}  "
                f"{pt['describe']}"
                for pt in rec.frontier
            )
        lines.extend(f"  {n}" for n in self.notes)
        lines.append(f"  {rec.summary()}")
        lines.append(
            f"  tuning cost: {rec.tune_seconds:.4f} modelled seconds "
            f"over {len(self.trials)} trial(s)"
        )
        return "\n".join(lines)


def plan_for_graph(
    g: CSRGraph,
    space: SearchSpace | None = None,
    settings: TunerSettings | None = None,
    features: GraphFeatures | None = None,
) -> SearchReport:
    """Run the two-stage search on ``g`` and return the full report.

    Deterministic: candidate enumeration, screening ties, rung
    membership, and the measured times themselves (the simulator is a
    pure function of its inputs) all derive from ``settings.seed``.
    """
    settings = settings or TunerSettings()
    space = space or default_space()
    features = features or compute_features(g)
    machine = settings.machine

    candidates = space.candidates(seed=settings.seed)
    ranked = screen(features, candidates, machine)
    survivors = [cand for _, cand in ranked[:settings.trials]]
    num_screened = len(survivors)
    predicted = {c.key(): s for s, c in ranked}

    trials: list[Trial] = []
    notes: list[str] = []
    spent = 0.0

    def budget_left() -> bool:
        return (
            settings.budget_seconds is None
            or spent < settings.budget_seconds
        )

    def measure(
        cand: Candidate, rung: int, cap: int | None
    ) -> tuple[Trial, LouvainResult]:
        nonlocal spent
        result = run_trial(
            g,
            cand.config,
            cand.ranks,
            machine=machine,
            partition=settings.partition,
            max_phases=cap,
        )
        trial = Trial(
            rung=rung,
            candidate=cand,
            max_phases=cap,
            elapsed=result.elapsed,
            modularity=result.modularity,
            phases=result.num_phases,
        )
        trials.append(trial)
        spent += result.elapsed
        return trial, result

    # ------------------------------------------------------------------
    # Baseline (paper defaults) — the guard's reference, always run.
    # ------------------------------------------------------------------
    baseline_config = replace(LouvainConfig(), seed=settings.seed)
    baseline_cand = Candidate(
        config=baseline_config, ranks=settings.baseline_ranks
    )
    _, baseline_result = measure(baseline_cand, rung=-1, cap=None)

    # ------------------------------------------------------------------
    # Successive halving over the screened survivors.
    # ------------------------------------------------------------------
    rung = 0
    for cap in settings.rung_phase_caps:
        if len(survivors) <= 1:
            break
        measured: list[tuple[float, Candidate]] = []
        for cand in survivors:
            if not budget_left():
                break  # deterministic: screen order decides who is cut
            trial, _ = measure(cand, rung=rung, cap=cap)
            measured.append((trial.elapsed, cand))
        if measured:
            measured.sort(key=lambda ec: (ec[0], ec[1].key()))
            keep = max(1, math.ceil(len(measured) / settings.eta))
            survivors = [c for _, c in measured[:keep]]
        else:
            survivors = survivors[:1]
        rung += 1

    # ------------------------------------------------------------------
    # Final rung: full-fidelity runs of the remaining finalists.
    # ------------------------------------------------------------------
    finalists: list[tuple[float, float, Candidate]] = []
    for i, cand in enumerate(survivors):
        if i > 0 and not budget_left():
            break
        trial, _ = measure(cand, rung=rung, cap=None)
        finalists.append((trial.elapsed, trial.modularity, cand))
    finalists.sort(key=lambda emc: (emc[0], emc[2].key()))

    # ------------------------------------------------------------------
    # Quality guard: fastest finalist whose modularity holds up.
    # ------------------------------------------------------------------
    floor = baseline_result.modularity - settings.quality_tolerance
    winner: tuple[float, float, Candidate] | None = None
    for elapsed, modularity, cand in finalists:
        if modularity >= floor:
            winner = (elapsed, modularity, cand)
            break
        notes.append(
            f"guard: rejected {cand.describe()} "
            f"(Q={modularity:.4f} < floor {floor:.4f})"
        )
    guard_passed = winner is not None
    if winner is None:
        notes.append(
            "guard: no finalist met the quality floor; "
            "falling back to the paper-default baseline"
        )
        winner = (
            baseline_result.elapsed,
            baseline_result.modularity,
            baseline_cand,
        )

    win_elapsed, win_modularity, win_cand = winner

    # Pareto frontier over every full-fidelity run (baseline included,
    # deduplicated by candidate): the quality/speed trade-offs of the
    # heuristic axes, not just the guard's single winner.
    full_runs: list[tuple[float, float, Candidate]] = [
        (baseline_result.elapsed, baseline_result.modularity, baseline_cand)
    ]
    seen_full = {baseline_cand.key()}
    for elapsed, modularity, cand in finalists:
        if cand.key() not in seen_full:
            seen_full.add(cand.key())
            full_runs.append((elapsed, modularity, cand))
    frontier = _pareto_frontier(full_runs)

    record = TuningRecord(
        fingerprint=g.fingerprint(),
        features=features,
        config=win_cand.config,
        ranks=win_cand.ranks,
        predicted_seconds=predicted.get(
            win_cand.key(),
            predict_cost(features, win_cand, machine).seconds,
        ),
        measured_seconds=win_elapsed,
        baseline_seconds=baseline_result.elapsed,
        baseline_modularity=baseline_result.modularity,
        tuned_modularity=win_modularity,
        quality_tolerance=settings.quality_tolerance,
        quality_guard_passed=guard_passed,
        tuner_seed=settings.seed,
        machine=machine.name,
        schedule=tuple(
            {
                "rung": t.rung,
                "candidate": t.candidate.key(),
                "max_phases": t.max_phases,
            }
            for t in trials
        ),
        trials=tuple(t.to_dict() for t in trials),
        frontier=frontier,
        tune_seconds=spent,
        created=time.time(),
    )
    return SearchReport(
        record=record,
        candidates_total=len(candidates),
        candidates_screened=num_screened,
        trials=trials,
        notes=notes,
    )


def tune_graph(
    g: CSRGraph,
    db: TuningDB,
    space: SearchSpace | None = None,
    settings: TunerSettings | None = None,
    *,
    force: bool = False,
) -> tuple[TuningRecord, bool]:
    """DB-aware tuning: serve an exact hit, otherwise search and store.

    Returns ``(record, cached)`` — ``cached=True`` means the plan came
    straight from the database and **no measured trials ran**.
    """
    record = db.get(g.fingerprint())
    if record is not None and not force:
        return record, True
    report = plan_for_graph(g, space=space, settings=settings)
    db.put(report.record)
    return report.record, False
