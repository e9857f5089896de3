"""Output checks: every operation the benchmark times is also verified.

A violation is recorded, counted into ``failed`` and fails the command;
it never raises, so one bad detection cannot hide the ones after it.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.modularity import modularity

Q_TOLERANCE = 1e-9


def assignment_hash(assignment: np.ndarray) -> str:
    data = np.ascontiguousarray(assignment, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


class Checker:
    def __init__(self, q_floor: float | None) -> None:
        #: Lowest acceptable modularity of one detection (None: unchecked).
        self.q_floor = q_floor
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures += [f"{label}: {p}" for p in problems]
        return not problems

    def error(self, label: str, exc: BaseException) -> None:
        """The operation raised or was refused instead of answering."""
        self.record(label, [f"raised {exc!r}"])

    def detection(self, label: str, g, result) -> float:
        """A fresh detection of ``g``; returns the recomputed modularity."""
        problems: list[str] = []
        a = np.asarray(result.assignment)
        q = float("nan")
        if len(a) != g.num_vertices:
            problems.append(
                f"assignment covers {len(a)} of {g.num_vertices} vertices"
            )
        else:
            ids = np.unique(a)
            if len(ids) and not np.array_equal(ids, np.arange(len(ids))):
                problems.append("community ids are not contiguous from 0")
            q = modularity(g, a)
            if abs(q - result.modularity) > Q_TOLERANCE:
                problems.append(
                    f"reported Q {result.modularity!r} != recomputed {q!r}"
                )
            if self.q_floor is not None and q < self.q_floor:
                problems.append(f"Q {q:.6f} under the floor {self.q_floor}")
        self.record(label, problems)
        return q

    def repeat(self, label: str, first, again) -> None:
        """The same input detected twice must give the same answer."""
        problems = []
        if assignment_hash(first.assignment) != assignment_hash(again.assignment):
            problems.append("assignment differs between repeats")
        if first.elapsed != again.elapsed:
            problems.append(
                f"modelled_s differs between repeats: "
                f"{first.elapsed!r} vs {again.elapsed!r}"
            )
        self.record(label, problems)

    def hit(self, label: str, response, cold_result) -> None:
        """A repeat read: served from the store, bit-identical to cold."""
        problems = []
        if response.state.value != "done":
            problems.append(f"state {response.state.value}: {response.error}")
        elif not response.cache_hit:
            problems.append("warm read was recomputed, not a cache hit")
        elif not np.array_equal(
            response.result.assignment, cold_result.assignment
        ):
            problems.append("cached assignment differs from the cold result")
        self.record(label, problems)

    def fresh(self, label: str, g, response) -> float | None:
        """An engine job that must have run (cold batch or incremental)."""
        if response.state.value != "done":
            self.record(
                label, [f"state {response.state.value}: {response.error}"]
            )
            return None
        if response.cache_hit:
            self.record(label, ["expected a fresh run, got a cache hit"])
            return None
        return self.detection(label, g, response.result)
