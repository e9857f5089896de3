"""Per-rank tracing: message counters and per-category virtual timers.

Section V-A of the paper profiles the Baseline run with HPCToolkit and
reports where time goes (≈34% community-info communication, ≈40% in the
modularity allreduce, ≈22% local compute).  The tracer reproduces that
breakdown for the simulator: every charge to a rank's virtual clock is
tagged with a category, and :class:`TraceReport` aggregates across ranks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable

#: Canonical categories used by the library.  Free-form strings are also
#: accepted, but sticking to these keeps reports comparable.
CATEGORIES = (
    "compute",          # ΔQ sweeps and other local work
    "ghost_comm",       # ghost vertex coordinate/community exchange
    "community_comm",   # community update exchange to owners
    "allreduce",        # global modularity / counters reduction
    "rebuild",          # distributed graph reconstruction
    "io",               # input reading
    "checkpoint",       # resilience: checkpoint save/load traffic and I/O
    "service",          # detection service: engine-side overhead per job
    "tune",             # autotuner: modelled seconds spent on search trials
    "serving",          # multi-tenant tier: routing, churn application
    "other",
)


@dataclass(frozen=True)
class TraceEvent:
    """One virtual-time interval on one rank's timeline."""

    category: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class RankTrace:
    """Virtual-time and message accounting for a single rank."""

    rank: int
    seconds: Counter = field(default_factory=Counter)
    messages_sent: int = 0
    bytes_sent: int = 0
    messages_received: int = 0
    bytes_received: int = 0
    collectives: Counter = field(default_factory=Counter)
    #: Bytes this rank wrote to the filesystem (checkpoint shards).
    bytes_written: int = 0
    #: Per-interval timeline, populated only when event recording is on.
    events: list[TraceEvent] | None = None

    def enable_events(self) -> None:
        if self.events is None:
            self.events = []

    def copy(self) -> "RankTrace":
        """An independent trace: own counters and event list (the
        events themselves are immutable)."""
        return replace(
            self,
            seconds=Counter(self.seconds),
            collectives=Counter(self.collectives),
            events=None if self.events is None else list(self.events),
        )

    def charge(self, category: str, dt: float, at: float | None = None) -> None:
        """Attribute ``dt`` virtual seconds to ``category``.

        ``at`` is the interval's start on the rank's virtual clock; when
        given and event recording is enabled, the interval lands on the
        timeline too.
        """
        if dt < 0:
            raise ValueError(f"negative charge {dt} for {category!r}")
        self.seconds[category] += dt
        if self.events is not None and at is not None and dt > 0:
            self.events.append(
                TraceEvent(category=category, start=at, end=at + dt)
            )

    def record_send(self, nbytes: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += nbytes

    def record_recv(self, nbytes: int) -> None:
        self.messages_received += 1
        self.bytes_received += nbytes

    def record_collective(self, name: str) -> None:
        self.collectives[name] += 1

    @property
    def total_seconds(self) -> float:
        return float(sum(self.seconds.values()))


@dataclass
class TraceReport:
    """Aggregate view over all ranks of a run."""

    ranks: list[RankTrace]

    @classmethod
    def merge(cls, traces: Iterable[RankTrace]) -> "TraceReport":
        return cls(ranks=sorted(traces, key=lambda t: t.rank))

    def copy(self) -> "TraceReport":
        return TraceReport(ranks=[t.copy() for t in self.ranks])

    @property
    def size(self) -> int:
        return len(self.ranks)

    def seconds_by_category(self) -> dict[str, float]:
        """Total virtual seconds per category, summed over ranks."""
        out: Counter = Counter()
        for t in self.ranks:
            out.update(t.seconds)
        return dict(out)

    def fraction_by_category(self) -> dict[str, float]:
        """Share of total virtual time per category (sums to 1.0)."""
        totals = self.seconds_by_category()
        grand = sum(totals.values())
        if grand <= 0.0:
            return {k: 0.0 for k in totals}
        return {k: v / grand for k, v in totals.items()}

    @property
    def total_messages(self) -> int:
        return sum(t.messages_sent for t in self.ranks)

    @property
    def total_bytes(self) -> int:
        return sum(t.bytes_sent for t in self.ranks)

    @property
    def total_bytes_written(self) -> int:
        return sum(t.bytes_written for t in self.ranks)

    def collective_counts(self) -> dict[str, int]:
        out: Counter = Counter()
        for t in self.ranks:
            out.update(t.collectives)
        return dict(out)

    def to_chrome_trace(self, time_scale: float = 1e6) -> dict:
        """Export recorded timelines as a Chrome-trace (chrome://tracing,
        Perfetto) JSON object.

        Each rank becomes a thread; each recorded interval a complete
        ('X') event.  Metadata ('M') events name the process and each
        rank's thread so Perfetto labels the timelines instead of
        showing bare ids.  ``time_scale`` converts virtual seconds to
        the microseconds the format expects.  Requires the run to have
        been executed with event recording enabled
        (``run_spmd(..., trace_events=True)``).
        """
        events = []
        meta: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": "repro SPMD world"},
            }
        ]
        for t in self.ranks:
            if not t.events:
                continue
            meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": t.rank,
                    "args": {"name": f"rank {t.rank}"},
                }
            )
            for ev in t.events:
                events.append(
                    {
                        "name": ev.category,
                        "cat": ev.category,
                        "ph": "X",
                        "ts": ev.start * time_scale,
                        "dur": ev.duration * time_scale,
                        "pid": 0,
                        "tid": t.rank,
                    }
                )
        if not events:
            raise ValueError(
                "no timeline events recorded; run with trace_events=True"
            )
        return {
            "traceEvents": meta + events,
            "displayTimeUnit": "ms",
            "otherData": {"source": "repro simulated SPMD runtime"},
        }

    def format(self) -> str:
        """Human-readable breakdown, one line per category."""
        fracs = self.fraction_by_category()
        secs = self.seconds_by_category()
        lines = [f"trace over {self.size} rank(s):"]
        for cat, frac in sorted(fracs.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {cat:<16} {secs[cat]:>12.6f}s  {frac:6.1%}")
        lines.append(
            f"  messages={self.total_messages}  bytes={self.total_bytes}"
        )
        return "\n".join(lines)
