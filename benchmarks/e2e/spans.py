"""Outside-in span recorder: time each layer by wrapping its public calls.

Nothing under ``src/`` knows about this file.  :func:`tracing` swaps a
recording wrapper in for each public entry point listed in
:func:`patch_points` -- on the name the *caller* looks up, e.g.
``repro.core.distlouvain.propose_moves`` rather than
``repro.core.sweep.propose_moves`` -- and puts every original object back
on exit.  A renamed entry point makes :func:`tracing` raise ``KeyError``
instead of silently measuring nothing.

A span is ``(id, parent id, name, thread, operation id, start_ns,
end_ns, args)``.  Each thread keeps its own stack, so a span's parent is
the span open on the same thread; a span opened on a thread with an
empty stack (a rank thread, the engine's worker) hangs off the operation
in flight, or off the ``parent`` the wrapper names (rank mains hang off
their ``run_spmd``).  A span's *self time* is its duration minus the
durations of its children on the same thread: children on other threads
run beside it, not inside it.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterator, NamedTuple

#: Collectives and point-to-point calls wrapped on ``Communicator``.
COMM_METHODS = (
    "barrier", "bcast", "reduce", "allreduce", "gather", "allgather",
    "scatter", "alltoall", "exchange_roundtrip", "neighbor_alltoall",
    "scan", "exscan", "send", "recv", "sendrecv",
)

RANK_MAIN = "core.rank_main"
RUN_SPMD = "runtime.run_spmd"


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    thread: str
    op: int
    start_ns: int
    end_ns: int
    args: dict[str, Any] | None

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns


class Recorder:
    """In-memory span store; one per traced run, written out at the end."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: (operation id, kind, input index) for every operation opened.
        self.ops: list[tuple[int, str, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # The load generator is one closed-loop client, so at most one
        # operation is in flight and every thread's work belongs to it.
        self._op = 0
        self._op_span = 0

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def current(self) -> int:
        """Id of the innermost span open on this thread (0 if none)."""
        stack = self._stack()
        return stack[-1] if stack else self._op_span

    @contextlib.contextmanager
    def span(
        self, name: str, parent: int | None = None, **args: Any
    ) -> Iterator[dict[str, Any]]:
        stack = self._stack()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else self._op_span
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield args
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                Span(sid, parent, name, threading.current_thread().name,
                     self._op, start, end, args or None)
            )

    @contextlib.contextmanager
    def operation(self, kind: str, input_index: int) -> Iterator[None]:
        """One client-visible operation; spans on any thread join it."""
        self._op = len(self.ops) + 1
        self.ops.append((self._op, kind, input_index))
        with self.span(f"op.{kind}"):
            self._op_span = self._stack()[-1]
            try:
                yield
            finally:
                self._op_span = 0
        self._op = 0


def maybe_span(rec: Recorder | None, name: str):
    """``rec.span(name)``, or a no-op when the pass is untraced."""
    return rec.span(name) if rec is not None else contextlib.nullcontext({})


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _traced(rec: Recorder, name: str, note: Callable | None = None):
    def wrap(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*a: Any, **k: Any) -> Any:
            with rec.span(name) as args:
                out = fn(*a, **k)
                if note is not None:
                    note(args, out, a, k)
                return out

        return wrapper

    return wrap


def _trace_run_spmd(rec: Recorder):
    def wrap(run_spmd: Callable) -> Callable:
        @functools.wraps(run_spmd)
        def wrapper(size: int, fn: Callable, *a: Any, **k: Any) -> Any:
            with rec.span(RUN_SPMD, size=size):
                parent = rec.current()

                def rank_main(comm: Any, *fa: Any, **fk: Any) -> Any:
                    with rec.span(RANK_MAIN, parent=parent, rank=comm.rank):
                        return fn(comm, *fa, **fk)

                return run_spmd(size, rank_main, *a, **k)

        return wrapper

    return wrap


def _note_sweep(args: dict, out: Any, a: tuple, k: dict) -> None:
    active = k.get("active")
    nloc = len(k["index"]) - 1
    args["active"] = nloc if active is None else int(active.sum())
    args["pairs"] = int(out.pairs_evaluated)
    args["moves"] = out.num_moves


def _note_checkpoint(args: dict, manifest: Any, a: tuple, k: dict) -> None:
    comm = a[1]
    # ``save`` is collective; rank 0 speaks for the checkpoint.
    if comm.rank == 0:
        args["saves"] = 1
        args["bytes"] = sum(s.nbytes for s in manifest.shards)


def _note_binio(args: dict, out: Any, a: tuple, k: dict) -> None:
    args["bytes"] = os.path.getsize(a[0])


def patch_points(rec: Recorder) -> list[tuple[Any, str, Callable]]:
    """(owner, attribute, wrapper factory) for every wrapped entry point."""
    import repro.core.distlouvain as distlouvain
    import repro.core.dynamic as dynamic
    import repro.graph.binio as binio
    import repro.service.engine as engine
    import repro.service.store as store
    from repro.graph.csr import CSRGraph
    from repro.graph.distgraph import DistGraph
    from repro.resilience.checkpoint import CheckpointManager
    from repro.runtime.comm import Communicator
    from repro.service.request import DetectionRequest

    points: list[tuple[Any, str, Callable]] = [
        (distlouvain, "run_spmd", _trace_run_spmd(rec)),
        (distlouvain, "propose_moves", _traced(rec, "core.sweep", _note_sweep)),
        (distlouvain, "rebuild_distributed", _traced(rec, "core.coarsen")),
        (DistGraph, "distribute", _traced(rec, "graph.distribute")),
        (DistGraph, "build_ghost_plan", _traced(rec, "graph.ghost_plan")),
        (DistGraph, "exchange_ghost_values",
         _traced(rec, "graph.ghost_exchange")),
        (CSRGraph, "fingerprint", _traced(rec, "graph.fingerprint")),
        (binio, "read_edgelist",
         _traced(rec, "graph.binio_read", _note_binio)),
        (engine, "warm_start_assignment", _traced(rec, "core.dynamic")),
        (dynamic, "apply_churn", _traced(rec, "core.dynamic")),
        (CheckpointManager, "save",
         _traced(rec, "resilience.checkpoint", _note_checkpoint)),
        (engine.Engine, "submit", _traced(rec, "service.submit")),
        (DetectionRequest, "cache_key", _traced(rec, "service.cache_key")),
        (store.ResultStore, "get", _traced(rec, "service.store_get")),
        (store.ResultStore, "put", _traced(rec, "service.store_put")),
        (store, "load_result", _traced(rec, "service.store_load")),
        (engine, "execute_request", _traced(rec, "service.execute")),
    ]
    points += [
        (Communicator, m, _traced(rec, f"runtime.{m}")) for m in COMM_METHODS
    ]
    return points


@contextlib.contextmanager
def tracing(rec: Recorder) -> Iterator[None]:
    """Install every wrapper; restore every original object on exit."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, wrap in patch_points(rec):
            raw = vars(owner)[attr]
            if isinstance(raw, staticmethod):
                new: Any = staticmethod(wrap(raw.__func__))
            elif isinstance(raw, classmethod):
                new = classmethod(wrap(raw.__func__))
            else:
                new = wrap(raw)
            setattr(owner, attr, new)
            saved.append((owner, attr, raw))
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# ----------------------------------------------------------------------
# Reading the spans
# ----------------------------------------------------------------------
def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus its same-thread children's durations."""
    thread_of = {s.id: s.thread for s in spans}
    out = {s.id: s.dur_ns for s in spans}
    for s in spans:
        if thread_of.get(s.parent) == s.thread:
            out[s.parent] -= s.dur_ns
    return out


def under_rank_main(spans: list[Span]) -> set[int]:
    """Ids of rank-main spans and everything nested below them."""
    by_id = {s.id: s for s in spans}
    inside: set[int] = set()
    outside: set[int] = set()
    for s in spans:
        chain = []
        cur: Span | None = s
        verdict = False
        while cur is not None:
            if cur.id in inside or cur.name == RANK_MAIN:
                verdict = True
                break
            if cur.id in outside:
                break
            chain.append(cur.id)
            cur = by_id.get(cur.parent)
        (inside if verdict else outside).update(chain)
        if s.name == RANK_MAIN:
            inside.add(s.id)
    return inside


class LayerTotals(NamedTuple):
    #: span name -> summed self time, seconds
    self_s: dict[str, float]
    #: span name -> number of spans
    calls: dict[str, int]
    #: (span name, arg key) -> summed value
    args: dict[tuple[str, str], float]
    #: sum over run_spmd spans of (span - its longest rank main), seconds
    spmd_overhead_s: float
    #: summed durations of the rank mains, seconds
    rank_main_s: float
    #: thread seconds on offer: serial wall x 1 + run_spmd wall x size
    available_s: float
    #: of those, inside a rank main or a named span outside one
    attributed_s: float


def layer_totals(spans: list[Span]) -> LayerTotals:
    selfs = self_times(spans)
    ranked = under_rank_main(spans)
    self_s: Counter = Counter()
    calls: Counter = Counter()
    args: Counter = Counter()
    longest_main: dict[int, int] = defaultdict(int)
    available = attributed = rank_main = 0
    for s in spans:
        self_s[s.name] += selfs[s.id]
        calls[s.name] += 1
        for key, value in (s.args or {}).items():
            args[(s.name, key)] += value
        if s.name == RANK_MAIN:
            longest_main[s.parent] = max(longest_main[s.parent], s.dur_ns)
            rank_main += s.dur_ns
        elif s.id not in ranked and s.name != RUN_SPMD:
            if not s.name.startswith("op."):
                attributed += selfs[s.id]
    overhead = 0
    for s in spans:
        if s.name.startswith("op."):
            available += s.dur_ns
        elif s.name == RUN_SPMD:
            overhead += s.dur_ns - longest_main[s.id]
            available += (s.args["size"] - 1) * s.dur_ns
    return LayerTotals(
        self_s={k: v / 1e9 for k, v in self_s.items()},
        calls=dict(calls),
        args=dict(args),
        spmd_overhead_s=overhead / 1e9,
        rank_main_s=rank_main / 1e9,
        available_s=available / 1e9,
        attributed_s=(attributed + rank_main) / 1e9,
    )


def tree_errors(spans: list[Span]) -> list[str]:
    """Well-formedness: children inside parents, self >= 0, sum <= thread."""
    errors: list[str] = []
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    per_thread_self: Counter = Counter()
    per_thread_lo: dict[str, int] = {}
    per_thread_hi: dict[str, int] = {}
    for s in spans:
        if s.end_ns < s.start_ns:
            errors.append(f"span {s.id} {s.name} ends before it starts")
        parent = by_id.get(s.parent)
        if s.parent and parent is None:
            errors.append(f"span {s.id} {s.name} has unknown parent {s.parent}")
        if parent is not None and not (
            parent.start_ns <= s.start_ns and s.end_ns <= parent.end_ns
        ):
            errors.append(
                f"span {s.id} {s.name} not inside parent {parent.name}"
            )
        if selfs[s.id] < 0:
            errors.append(f"span {s.id} {s.name} has negative self time")
        per_thread_self[s.thread] += selfs[s.id]
        per_thread_lo[s.thread] = min(
            per_thread_lo.get(s.thread, s.start_ns), s.start_ns
        )
        per_thread_hi[s.thread] = max(
            per_thread_hi.get(s.thread, s.end_ns), s.end_ns
        )
    for thread, total in per_thread_self.items():
        if total > per_thread_hi[thread] - per_thread_lo[thread]:
            errors.append(f"thread {thread}: self times exceed its lifetime")
    return errors


def chrome_trace(spans: list[Span]) -> dict:
    """Chrome-trace ("Trace Event") JSON: one complete event per span."""
    if not spans:
        return {"traceEvents": []}
    t0 = min(s.start_ns for s in spans)
    tids: dict[str, int] = {}
    events: list[dict] = []
    for s in sorted(spans, key=lambda s: s.start_ns):
        tid = tids.setdefault(s.thread, len(tids))
        events.append({
            "name": s.name,
            "cat": s.name.split(".", 1)[0],
            "ph": "X",
            "ts": (s.start_ns - t0) / 1e3,
            "dur": s.dur_ns / 1e3,
            "pid": 1,
            "tid": tid,
            "args": {"id": s.id, "parent": s.parent, "op": s.op,
                     **(s.args or {})},
        })
    events += [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
         "args": {"name": thread}}
        for thread, tid in tids.items()
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
