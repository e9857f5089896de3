"""Simulated-vs-predicted drift monitoring (ROADMAP item 3, online half).

The autotuner plans with an analytic cost model; the engine then reads
what each served job took on the simulator's virtual clock
(``result.elapsed`` — simulated seconds, not a wall-clock measurement).
:class:`DriftMonitor` keeps, per config family (machine preset × config
label × rank count), an EWMA of ``log(simulated / predicted)``.  When
the smoothed ratio drifts past a threshold the monitor:

* reports a :class:`DriftDecision` with ``retune=True`` — the engine
  reacts by enqueueing its existing low-priority background
  ``kind="tune"`` job with ``force=True``;
* applies a cheap calibration rescale to its planning
  :class:`~repro.runtime.perfmodel.MachineModel`
  (:meth:`MachineModel.calibrated`), so both future predictions and the
  forced re-tune search run against a model that matches reality.

The monitor is deterministic: the decision sequence is a pure function
of the ``(family, predicted, simulated)`` observation sequence, which is
what makes the re-tune trigger point testable.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from ..runtime.perfmodel import MachineModel
from .registry import MetricsRegistry

__all__ = ["DriftConfig", "DriftDecision", "DriftMonitor"]

#: Floor for simulated/predicted seconds so ratios stay finite.
_EPS = 1e-12


@dataclass(frozen=True)
class DriftConfig:
    """Tunables for the drift detector."""

    #: EWMA smoothing weight of the newest log-ratio observation.
    ewma_alpha: float = 0.4
    #: Trigger when the smoothed simulated/predicted ratio leaves
    #: ``[1/ratio_threshold, ratio_threshold]``.
    ratio_threshold: float = 1.5
    #: Observations a family needs before it may trigger (one outlier
    #: job must not force a re-tune).
    min_observations: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}")
        if self.ratio_threshold <= 1.0:
            raise ValueError(
                f"ratio_threshold must be > 1, got {self.ratio_threshold}"
            )
        if self.min_observations < 1:
            raise ValueError(
                f"min_observations must be >= 1, got {self.min_observations}"
            )


@dataclass(frozen=True)
class DriftDecision:
    """Outcome of one observation."""

    family: str
    predicted: float
    #: The job's seconds on the simulator's virtual clock.
    simulated: float
    #: Smoothed simulated/predicted ratio after this observation.
    ratio: float
    observations: int
    retune: bool
    #: Rescale factor applied to the planning machine (1.0 unless
    #: ``retune``).
    calibration: float


@dataclass
class _FamilyState:
    ewma: float = 0.0
    observations: int = 0
    retunes: int = 0


class DriftMonitor:
    """Per-family EWMA drift tracker with optional machine calibration.

    ``machine`` is the *planning* model predictions are made with; it is
    never the model a request executes under, so calibration cannot
    perturb detection results.  When omitted, the monitor only tracks
    and decides — calibration is the caller's problem.
    """

    def __init__(
        self,
        machine: MachineModel | None = None,
        config: DriftConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or DriftConfig()
        self._machine = machine
        self._lock = threading.Lock()
        self._families: dict[str, _FamilyState] = {}
        self._registry = registry
        if registry is not None:
            self._ratio_g = registry.gauge(
                "repro_drift_ratio",
                "Smoothed simulated/predicted seconds ratio per config family.",
                labelnames=("family",),
            )
            self._obs_c = registry.counter(
                "repro_drift_observations_total",
                "Drift observations per config family.",
                labelnames=("family",),
            )
            self._retunes_c = registry.counter(
                "repro_drift_retunes_total",
                "Drift-triggered background re-tunes per config family.",
                labelnames=("family",),
            )

    @property
    def machine(self) -> MachineModel | None:
        """Current (possibly calibrated) planning machine."""
        with self._lock:
            return self._machine

    @staticmethod
    def family_key(machine: str, config_label: str, ranks: int) -> str:
        """Canonical config-family key (machine × config × ranks)."""
        return f"{machine}|{config_label}|p{ranks}"

    def observe(
        self, family: str, predicted: float, simulated: float
    ) -> DriftDecision:
        """Fold one served job's simulated seconds into the family's EWMA.

        Returns the (deterministic) decision; on ``retune`` the family
        state resets so a second trigger needs fresh evidence against
        the recalibrated model.
        """
        if simulated < 0 or predicted < 0:
            raise ValueError(
                f"seconds must be >= 0, got predicted={predicted} "
                f"simulated={simulated}"
            )
        log_ratio = math.log(max(simulated, _EPS) / max(predicted, _EPS))
        cfg = self.config
        with self._lock:
            state = self._families.setdefault(family, _FamilyState())
            if state.observations == 0:
                state.ewma = log_ratio
            else:
                state.ewma = (
                    cfg.ewma_alpha * log_ratio
                    + (1.0 - cfg.ewma_alpha) * state.ewma
                )
            state.observations += 1
            ratio = math.exp(state.ewma)
            retune = state.observations >= cfg.min_observations and abs(
                state.ewma
            ) >= math.log(cfg.ratio_threshold)
            calibration = 1.0
            if retune:
                calibration = ratio
                state.retunes += 1
                state.ewma = 0.0
                state.observations = 0
                if self._machine is not None:
                    self._machine = self._machine.calibrated(calibration)
            decision = DriftDecision(
                family=family,
                predicted=predicted,
                simulated=simulated,
                ratio=ratio,
                observations=state.observations,
                retune=retune,
                calibration=calibration,
            )
        if self._registry is not None:
            self._ratio_g.labels(family=family).set(
                1.0 if decision.retune else decision.ratio
            )
            self._obs_c.labels(family=family).inc()
            if decision.retune:
                self._retunes_c.labels(family=family).inc()
        return decision

    def snapshot(self) -> dict:
        """JSON-able per-family state (exported next to the metrics)."""
        with self._lock:
            return {
                "machine": self._machine.name if self._machine else None,
                "families": {
                    key: {
                        "ratio": math.exp(state.ewma),
                        "observations": state.observations,
                        "retunes": state.retunes,
                    }
                    for key, state in sorted(self._families.items())
                },
            }
