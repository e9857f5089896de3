"""Configuration for the Louvain variants evaluated in the paper (§V).

The experiment legends map to :class:`Variant` as:

* ``Baseline``          -> ``Variant.BASELINE``
* ``Threshold Cycling`` -> ``Variant.THRESHOLD_CYCLING``
* ``ET(alpha)``         -> ``Variant.ET`` with ``alpha`` set
* ``ETC(alpha)``        -> ``Variant.ETC`` with ``alpha`` set
* ``ET + TC`` (Table VI) -> ``Variant.ET_TC``
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Any


class Variant(enum.Enum):
    """Algorithm variants from §IV-B / §V of the paper."""

    BASELINE = "baseline"
    THRESHOLD_CYCLING = "threshold-cycling"
    ET = "et"
    ETC = "etc"
    ET_TC = "et+tc"

    @property
    def uses_early_termination(self) -> bool:
        return self in (Variant.ET, Variant.ETC, Variant.ET_TC)

    @property
    def uses_threshold_cycling(self) -> bool:
        return self in (Variant.THRESHOLD_CYCLING, Variant.ET_TC)

    @property
    def uses_inactive_exit(self) -> bool:
        """ETC's exit: end the phase on the global inactive count (which
        rides the iteration's allreduce on every variant)."""
        return self is Variant.ETC


#: Fig. 2 schedule: phases 0-2 at 1e-3, 3-6 at 1e-4, 7-9 at 1e-5,
#: 10-12 at 1e-6, then the pattern repeats.
DEFAULT_THRESHOLD_CYCLE: tuple[tuple[float, int], ...] = (
    (1e-3, 3),
    (1e-4, 4),
    (1e-5, 3),
    (1e-6, 3),
)


#: The :class:`LouvainConfig` fields :meth:`LouvainConfig.cache_key`
#: leaves out; it hashes every other field, so a new field is in the key
#: unless it is named here.  Each value is ``"<kind>: <reason>"``.  An
#: exclusion promises that flipping the field leaves the detection
#: outcome unchanged, so a request can be served from a result cached
#: under the other value (``tests/test_core_config.py`` checks the
#: outcome digest at p = 1 and 3).  ``audit`` — the knob adds
#: verification work executed identically by every rank — may change
#: which collectives run and still keep that promise.
CACHE_KEY_EXCLUSIONS = {
    "validate_invariants": (
        "audit: adds replicated verification collectives; detection "
        "output is unchanged"
    ),
}


@dataclass(frozen=True)
class LouvainConfig:
    """All knobs of the (distributed) Louvain implementation.

    Defaults follow the paper: ``tau = 1e-6`` (Algorithm 2), ET inactive
    floor 2%, ETC exit at 90% inactive, Fig. 2 threshold cycle.
    """

    variant: Variant = Variant.BASELINE
    #: Convergence threshold tau (both iteration- and phase-level).
    tau: float = 1e-6
    #: ET decay parameter alpha in Eq. 3 (paper evaluates 0.25 / 0.75).
    alpha: float = 0.25
    #: Probability below which a vertex is labelled permanently inactive.
    et_inactive_floor: float = 0.02
    #: Global inactive fraction at which ETC exits the phase.
    etc_exit_fraction: float = 0.90
    #: (tau, phase-count) steps of the cycling schedule.
    threshold_cycle: tuple[tuple[float, int], ...] = DEFAULT_THRESHOLD_CYCLE
    #: Safety caps (the algorithm normally converges well before these).
    max_phases: int = 40
    max_iterations: int = 500
    #: RNG seed for the ET probabilistic scheme.
    seed: int = 0
    #: Distance-1 coloring: process mutually non-adjacent vertex sets
    #: one after another (paper §VI future work).  More synchronisation
    #: per iteration, fewer iterations to converge.
    use_coloring: bool = False
    #: Grappolo's vertex-following heuristic (Lu & Halappanavar,
    #: arXiv:1410.1237 §4.1): merge every single-degree vertex into its
    #: sole neighbour *before* phase 1 via one extra coarsening, then
    #: un-merge exactly through the usual original-vertex projection.
    #: Leaves can never improve modularity by sitting alone, so this
    #: shrinks phase 1 without changing what communities are reachable.
    #: Skipped on warm starts and checkpoint resumes (the seed already
    #: encodes a community structure to respect).
    vertex_following: bool = False
    #: Post-phase refinement: "leiden" splits internally disconnected
    #: communities (the known Louvain defect, Traag et al. 2019) into
    #: their connected components after every phase's sweep.  Splitting
    #: along zero-edge cuts never lowers modularity.
    refine: str = "none"
    #: Resolution parameter gamma: Q_gamma = sum_c [in_c/W - g(a_c/W)^2].
    #: gamma > 1 favours more, smaller communities — the standard remedy
    #: for the resolution limit the paper's §I discusses [12], [30].
    resolution: float = 1.0
    #: Gather per-phase vertex-community associations to rank 0
    #: ("quality assessment feature", §V-D).  Costs extra collectives.
    track_assignments: bool = False
    #: Debug mode: audit the distributed state (C_info vs ground truth,
    #: partition sanity, ghost coherence) after every phase and raise on
    #: any inconsistency.  Expensive; for tests and debugging.
    validate_invariants: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {self.tau}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.et_inactive_floor < 1.0:
            raise ValueError(
                f"et_inactive_floor must be in [0, 1), got "
                f"{self.et_inactive_floor}"
            )
        if not 0.0 < self.etc_exit_fraction <= 1.0:
            raise ValueError(
                f"etc_exit_fraction must be in (0, 1], got "
                f"{self.etc_exit_fraction}"
            )
        if self.max_phases < 1 or self.max_iterations < 1:
            raise ValueError("max_phases and max_iterations must be >= 1")
        if self.resolution <= 0.0:
            raise ValueError(
                f"resolution must be > 0, got {self.resolution}"
            )
        if self.refine not in ("none", "leiden"):
            raise ValueError(
                f"refine must be 'none' or 'leiden', got {self.refine!r}"
            )
        if not self.threshold_cycle:
            raise ValueError("threshold_cycle must be non-empty")
        for tau_k, count in self.threshold_cycle:
            if not 0.0 < tau_k < 1.0 or count < 1:
                raise ValueError(
                    f"bad threshold_cycle step ({tau_k}, {count})"
                )

    @property
    def min_cycle_tau(self) -> float:
        """Lowest tau in the cycling schedule (the forced final pass)."""
        return min(t for t, _ in self.threshold_cycle)

    def with_variant(self, variant: Variant, **kwargs) -> "LouvainConfig":
        return replace(self, variant=variant, **kwargs)

    def label(self) -> str:
        """Legend string matching the paper's figures/tables."""
        if self.variant is Variant.BASELINE:
            return "Baseline"
        if self.variant is Variant.THRESHOLD_CYCLING:
            return "Threshold Cycling"
        if self.variant is Variant.ET:
            return f"ET({self.alpha:g})"
        if self.variant is Variant.ETC:
            return f"ETC({self.alpha:g})"
        return f"ET({self.alpha:g})+TC"

    # ------------------------------------------------------------------
    # Canonical serialization / content addressing
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict of every field (round-trips via :meth:`from_dict`)."""
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Variant):
                value = value.value
            elif f.name == "threshold_cycle":
                value = [[float(t), int(c)] for t, c in value]
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LouvainConfig":
        """Rebuild a config from :meth:`to_dict` output (or a subset).

        Missing keys take their defaults; unknown keys raise
        :class:`ValueError` (typo safety for job-spec files).
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown LouvainConfig field(s): {', '.join(unknown)}"
            )
        kwargs = dict(data)
        if "variant" in kwargs and not isinstance(kwargs["variant"], Variant):
            kwargs["variant"] = Variant(kwargs["variant"])
        if "threshold_cycle" in kwargs:
            kwargs["threshold_cycle"] = tuple(
                (float(t), int(c)) for t, c in kwargs["threshold_cycle"]
            )
        return cls(**kwargs)

    def cache_key(self) -> str:
        """Stable content hash over every field not in
        :data:`CACHE_KEY_EXCLUSIONS`.

        Two configs hash equal iff they request the same detection
        *outcome*: ``validate_invariants`` is excluded because it only
        audits.
        Field order never matters (keys are sorted), so the hash is
        stable across dataclass reordering and process restarts.  Used
        as the config half of the result-store cache key and recorded
        in checkpoint manifests to refuse cross-config resumes.  The
        config is frozen, so the hash is computed on the first call and
        kept on the instance (outside the dataclass fields).
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            payload = {
                name: value
                for name, value in self.to_dict().items()
                if name not in CACHE_KEY_EXCLUSIONS
            }
            blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            key = hashlib.sha256(blob.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_cache_key", key)
        return key


#: Ready-made configs for the variant sweep the paper reports.
PAPER_VARIANTS: tuple[LouvainConfig, ...] = (
    LouvainConfig(variant=Variant.BASELINE),
    LouvainConfig(variant=Variant.THRESHOLD_CYCLING),
    LouvainConfig(variant=Variant.ET, alpha=0.25),
    LouvainConfig(variant=Variant.ET, alpha=0.75),
    LouvainConfig(variant=Variant.ETC, alpha=0.25),
    LouvainConfig(variant=Variant.ETC, alpha=0.75),
)
