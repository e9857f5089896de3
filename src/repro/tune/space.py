"""Declarative search space over Louvain configs and rank counts.

The paper hand-picks its heuristic parameters — ET decay ``alpha``
(Table I evaluates only 0.25/0.75), the Fig. 2 threshold cycle, ETC's
90% exit fraction — and evaluates each variant at fixed process counts.
The tuner instead enumerates a *declarative* space over those axes and
lets the cost model and measured trials pick.

Every candidate is materialised as a real :class:`LouvainConfig`, so
validity constraints are exactly the config's own ``__post_init__``
validation — a space can never emit a setting the library would reject.
Axes that do not apply to a variant (``alpha`` for Baseline, the cycle
for non-TC variants, ...) are pinned to their defaults so the space
stays free of aliased duplicates.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Any, Iterator

from ..core.config import DEFAULT_THRESHOLD_CYCLE, LouvainConfig, Variant

#: Named threshold-cycling schedules (Fig. 2 variations).  "paper" is
#: the published schedule; "aggressive" spends more phases at coarse
#: thresholds (faster, slightly lower quality); "gentle" descends
#: quickly to fine thresholds (slower, higher quality).
THRESHOLD_CYCLES: dict[str, tuple[tuple[float, int], ...]] = {
    "paper": DEFAULT_THRESHOLD_CYCLE,
    "aggressive": ((1e-2, 3), (1e-3, 4), (1e-5, 2), (1e-6, 2)),
    "gentle": ((1e-4, 3), (1e-5, 3), (1e-6, 4)),
}


@dataclass(frozen=True)
class Candidate:
    """One point of the search space: a full config plus a rank count."""

    config: LouvainConfig
    ranks: int

    def key(self) -> str:
        """Stable short id: content digest over (config, ranks)."""
        blob = json.dumps(
            {"config": self.config.to_dict(), "ranks": self.ranks},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]

    def describe(self) -> str:
        cfg = self.config
        extras = []
        if cfg.threshold_cycle != DEFAULT_THRESHOLD_CYCLE:
            extras.append("cycle=custom")
        if cfg.variant.uses_inactive_exit and cfg.etc_exit_fraction != 0.90:
            extras.append(f"exit={cfg.etc_exit_fraction:g}")
        if cfg.use_coloring:
            extras.append("coloring")
        if cfg.vertex_following:
            extras.append("vf")
        if cfg.refine != "none":
            extras.append(f"refine={cfg.refine}")
        tail = (" " + " ".join(extras)) if extras else ""
        return f"{cfg.label()} x{self.ranks}{tail}"

    def to_dict(self) -> dict[str, Any]:
        return {"config": self.config.to_dict(), "ranks": self.ranks}


@dataclass(frozen=True)
class SearchSpace:
    """Axes of the tuning search, with per-variant applicability.

    Enumeration (:meth:`candidates`) is deterministic: axes iterate in
    declaration order and duplicates (settings that alias because an
    axis does not apply to the variant) are dropped on first sight.
    """

    variants: tuple[str, ...] = (
        "baseline",
        "threshold-cycling",
        "et",
        "etc",
        "et+tc",
    )
    #: ET decay values (paper's Table I evaluates 0.25/0.75 only).
    alphas: tuple[float, ...] = (0.25, 0.5, 0.75)
    #: ETC phase-exit fractions (the paper fixes 0.90).
    etc_exit_fractions: tuple[float, ...] = (0.85, 0.90, 0.95)
    #: Named cycling schedules from :data:`THRESHOLD_CYCLES`.
    threshold_cycles: tuple[str, ...] = ("paper", "aggressive")
    #: Simulated world sizes to plan over.
    rank_counts: tuple[int, ...] = (1, 2, 4, 8)
    #: Grappolo's vertex following and Leiden refinement (quality/speed
    #: axes — these change the detection *outcome*, so the Pareto
    #: frontier is where their trade-offs surface).  The resolution
    #: parameter and coloring are deliberately *not* axes: both are
    #: pinned per-request through ``base`` (a zoom level is a caller
    #: choice, not a tunable; coloring buys quality and never time, so
    #: a search ranked by predicted seconds would never measure it).
    vertex_following: tuple[bool, ...] = (False, True)
    refines: tuple[str, ...] = ("none", "leiden")
    #: Base config every candidate derives from (tau, caps, seed, ...).
    base: LouvainConfig = field(default_factory=LouvainConfig)

    def __post_init__(self) -> None:
        if not self.variants or not self.rank_counts:
            raise ValueError("variants and rank_counts must be non-empty")
        for name in self.threshold_cycles:
            if name not in THRESHOLD_CYCLES:
                raise ValueError(
                    f"unknown threshold cycle {name!r}; "
                    f"known: {sorted(THRESHOLD_CYCLES)}"
                )
        for r in self.rank_counts:
            if r < 1:
                raise ValueError(f"rank counts must be >= 1, got {r}")

    # ------------------------------------------------------------------
    def candidates(self, seed: int | None = None) -> list[Candidate]:
        """Enumerate every valid, de-duplicated candidate.

        ``seed`` (when given) is stamped onto every config so a whole
        search is reproducible from one number.  Axes that do not apply
        to a variant are pinned to the base config's value; settings
        the config validation rejects are skipped (the space reuses
        :class:`LouvainConfig` as its constraint oracle).
        """
        seen: set[str] = set()
        out: list[Candidate] = []
        for cand in self._enumerate(seed):
            k = cand.key()
            if k not in seen:
                seen.add(k)
                out.append(cand)
        return out

    def _enumerate(self, seed: int | None) -> Iterator[Candidate]:
        base = self.base if seed is None else replace(self.base, seed=seed)
        for variant_name in self.variants:
            variant = Variant(variant_name)
            alphas = self.alphas if variant.uses_early_termination else (base.alpha,)
            exits = (
                self.etc_exit_fractions
                if variant.uses_inactive_exit
                else (base.etc_exit_fraction,)
            )
            cycles = (
                self.threshold_cycles
                if variant.uses_threshold_cycling
                else ("paper",)
            )
            for (
                alpha,
                exit_fraction,
                cycle_name,
                ranks,
                vf,
                refine,
            ) in product(
                alphas,
                exits,
                cycles,
                self.rank_counts,
                self.vertex_following,
                self.refines,
            ):
                try:
                    config = replace(
                        base,
                        variant=variant,
                        alpha=alpha,
                        etc_exit_fraction=exit_fraction,
                        threshold_cycle=THRESHOLD_CYCLES[cycle_name],
                        vertex_following=vf,
                        refine=refine,
                    )
                except ValueError:
                    continue  # constraint oracle said no
                yield Candidate(config=config, ranks=ranks)

    def size(self) -> int:
        return len(self.candidates())


def default_space(
    max_ranks: int = 8, base: LouvainConfig | None = None
) -> SearchSpace:
    """The stock space, with the rank axis capped at ``max_ranks``.

    Rank counts are the powers of two up to the cap — matching both the
    paper's process-count sweeps and the ghost-fraction probe points of
    the featurizer.
    """
    if max_ranks < 1:
        raise ValueError(f"max_ranks must be >= 1, got {max_ranks}")
    ranks = []
    p = 1
    while p <= max_ranks:
        ranks.append(p)
        p *= 2
    kwargs: dict[str, Any] = {"rank_counts": tuple(ranks)}
    if base is not None:
        kwargs["base"] = base
    return SearchSpace(**kwargs)
