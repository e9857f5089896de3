"""The paper's two performance heuristics (§IV-B).

* :class:`ThresholdCycler` — Threshold Cycling: tau modulated across
  phases following the Fig. 2 schedule, with a forced final pass at the
  lowest tau before declaring convergence (§V-C(a)).
* :class:`EarlyTermination` — the probabilistic vertex activity scheme of
  Eq. 3: ``P(v,k) = P(v,k-1) * (1 - alpha)`` while ``v``'s community is
  unchanged, reset to 1 on a move; permanently inactive below the 2%
  floor.  ETC additionally exits a phase when >= 90% of vertices are
  inactive globally (the count rides the iteration's allreduce).
"""

from __future__ import annotations

import numpy as np

from .config import LouvainConfig


class ThresholdCycler:
    """Phase-indexed tau schedule (Fig. 2), plus the final-pass rule.

    ``tau_for_phase(k)`` walks the (tau, count) steps cyclically.  When a
    phase converges while its tau is above the schedule minimum, the
    caller must run one more phase at :attr:`final_tau` before stopping
    — :meth:`enter_final_pass` switches the cycler into that mode.
    """

    def __init__(self, config: LouvainConfig):
        self._schedule: list[float] = []
        for tau_k, count in config.threshold_cycle:
            self._schedule.extend([tau_k] * count)
        self.final_tau = config.min_cycle_tau
        self._final_pass = False

    def tau_for_phase(self, phase: int) -> float:
        if self._final_pass:
            return self.final_tau
        return self._schedule[phase % len(self._schedule)]

    @property
    def in_final_pass(self) -> bool:
        return self._final_pass

    def enter_final_pass(self) -> None:
        self._final_pass = True


class EarlyTermination:
    """Per-vertex activity state for one phase (Eq. 3).

    The state is local to a rank (vertex activity needs no
    communication of its own).  Deterministic given the seed.
    """

    def __init__(
        self,
        num_vertices: int,
        config: LouvainConfig,
        rng: np.random.Generator,
    ):
        self.alpha = config.alpha
        self.floor = config.et_inactive_floor
        self.rng = rng
        self.prob = np.ones(num_vertices, dtype=np.float64)
        self.permanently_inactive = np.zeros(num_vertices, dtype=bool)

    @property
    def num_vertices(self) -> int:
        return len(self.prob)

    def draw_active(self) -> np.ndarray:
        """Sample this iteration's active mask.

        A vertex participates with its current probability; permanently
        inactive vertices never participate (saving their computation
        *and* communication, as §IV-B(b) argues).
        """
        draws = self.rng.random(self.num_vertices)
        active = (draws < self.prob) & ~self.permanently_inactive
        return active

    def update(self, moved: np.ndarray) -> int:
        """Apply Eq. 3 after a sweep; returns local inactive count.

        ``moved`` is a bool mask of vertices whose community changed this
        iteration (``C(v,k-1) != C(v,k-2)`` in the paper's indexing).
        """
        if len(moved) != self.num_vertices:
            raise ValueError("moved mask length mismatch")
        self.prob[moved] = 1.0
        self.permanently_inactive[moved] = False
        stayed = ~moved
        self.prob[stayed] *= 1.0 - self.alpha
        self.permanently_inactive |= self.prob < self.floor
        return int(self.permanently_inactive.sum())

    def inactive_fraction(self) -> float:
        if self.num_vertices == 0:
            return 0.0
        return float(self.permanently_inactive.mean())


def make_rank_rng(seed: int, rank: int, phase: int) -> np.random.Generator:
    """Deterministic per-(rank, phase) RNG for the ET draws."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(rank, phase))
    )


class LayoutStreams:
    """The ET draws of ranks ``0..p-1`` in one generator: ``random(n)``
    draws each rank's slice from that rank's :func:`make_rank_rng` stream
    and lays them end to end in rank order.

    A phase gathered onto one rank holds every vertex of the ``p``-rank
    layout it stands for (``sizes``: the vertex count of each of its
    slices); drawing through this object it activates exactly the
    vertices the ``p`` ranks would have.
    """

    def __init__(self, seed: int, phase: int, sizes: np.ndarray):
        self.streams = [make_rank_rng(seed, r, phase) for r in range(len(sizes))]
        self.sizes = [int(k) for k in sizes]

    def random(self, n: int) -> np.ndarray:
        if n != sum(self.sizes):
            raise ValueError(
                f"{n} draws asked of a layout of {sum(self.sizes)} vertices"
            )
        return np.concatenate(
            [rng.random(k) for rng, k in zip(self.streams, self.sizes)]
        )
