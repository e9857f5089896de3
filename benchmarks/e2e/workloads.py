"""The four workloads: what they generate, run, check and report.

A run streams ``n`` inputs generated from ``--seed``; per input it times
the set-up (generate, build CSR), then the workload's operations, and
checks every answer.  ``n`` is a fixed function of ``--seconds`` and the
workload -- never of how fast the box turned out to be -- so the same
seed always means the same inputs and the exact metrics repeat exactly.

An untraced run has one *lane*.  A traced run has two, fed the same
inputs in alternating order: a plain lane and one running under
:func:`spans.tracing`.  The traced lane gives the per-layer numbers; the
pair gives the tracing overhead and proves the wrappers changed neither
an answer nor an exact counter.  End-to-end numbers are only ever taken
from an untraced run.
"""

from __future__ import annotations

import contextlib
import os
import resource
import statistics
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import repro.core.dynamic as dynamic
from repro.core import LouvainConfig, Variant
from repro.core.coarsen import coarsen_csr
from repro.core.distlouvain import run_louvain
from repro.core.sweep import array_lookup, propose_moves
from repro.generators import dataset
from repro.graph.binio import write_edgelist
from repro.runtime import run_spmd
from repro.runtime.perfmodel import FREE
from repro.service import DetectionRequest, Engine, ResultStore

import spans
from check import Checker, assignment_hash


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "direct": run_louvain calls; "service": Engine jobs
    dataset: str
    scale: str
    nranks: int
    variant: str
    #: Inputs per second of ``--seconds``, sized on a 2-core box so the
    #: timed operations of an untraced run fill about ``--seconds``.
    inputs_per_second: float
    #: Mean modularity of the cold detections of the seed-0 run at
    #: ``scale``; the checker's floors hang off it.
    q_seed0: float


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "social_p1",
        "friendster-class social graphs on one rank: kernel-bound plain "
        "baseline, ~80% of time in propose_moves, zero messages",
        "direct", "soc-friendster", "small", 1, "baseline", 1.45, 0.6084,
    ),
    Workload(
        "mesh_p8",
        "banded channel meshes on 8 ranks: runtime-bound, thousands of "
        "small collectives and little data, sweep only a quarter of time",
        "direct", "channel", "medium", 8, "baseline", 1.7, 0.9575,
    ),
    Workload(
        "social_p4_etc",
        "the social_p1 graphs on 4 ranks with ETC: masked sweep, extra "
        "allreduce, heaviest community exchange",
        "direct", "soc-friendster", "small", 4, "etc", 1.65, 0.6103,
    ),
    Workload(
        "service_mix",
        "closed loop, one client, Engine + two-tier store on 2 ranks: cold "
        "jobs, cache-hit reads and incremental re-detections side by side",
        "service", "web-wiki-en-2013", "small", 2, "baseline", 1.45, 0.6642,
    ),
)}

#: service_mix: per input, one cold job, then this many repeat reads ...
READS_PER_INPUT = 20
#: ... of which this many go to the RECENT_INPUTS most recent inputs
#: (memory tier) and the rest to any input seen so far (mostly disk).
READS_RECENT = 16
RECENT_INPUTS = 2
#: ... then this many churn -> incremental re-detect rounds.
INCR_ROUNDS = 3
CHURN_FRACTION = 0.002
#: Every fifth input is submitted as a binary edge-list file.
PATH_EVERY = 5
#: Memory tier: an input stores 1 cold + INCR_ROUNDS results, so only
#: the recent inputs stay resident and older reads go to the disk tier.
STORE_CAPACITY = RECENT_INPUTS * (1 + INCR_ROUNDS)
PROBE_REPEATS = 10
PROBE_COLLECTIVES = 200
#: Operation kinds that are jobs (everything timed except set-up).
JOB_KINDS = ("detect", "hit", "incr")
#: One detection may fall this far under the seed-0 mean modularity (a
#: gross-error check: single generated graphs stray up to 15% under);
#: the run's mean, which moves 0.3% between seeds, only this far.
Q_FLOOR_ONE, Q_FLOOR_MEAN = 0.75, 0.95


class HostSpeed:
    """How slow the host is right now, against a fixed numpy + Python kernel.

    The sizing box's clock flips between two levels ~17% apart and stays
    at one for 10-60 s, so whole runs come out fast or slow together and
    raw wall clocks spread up to 13% between runs of one commit.  The
    kernel is timed before every input; a ``*_cal_s`` metric divides
    each wall by the slowdown measured beside it, i.e. it is in seconds
    at the host speed at which the kernel takes ``REF_S``.  That removes
    the clock level (service_mix: 12.8% -> 3.6% over ten seeds), not the
    thread-scheduling noise of the 8-rank workload.
    """

    #: The kernel's median on the sizing box at its faster level.
    REF_S = 0.0028

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.a = rng.integers(0, 5000, 10_000)
        self.b = rng.integers(0, 5000, 10_000)
        self.w = rng.random(10_000)
        self.starts = np.arange(0, 10_000, 4)
        self.seen: list[float] = []

    def _kernel(self) -> None:
        order = np.lexsort((self.a, self.b))
        np.add.reduceat(self.w[order], self.starts)
        total = 0
        for i in range(40_000):
            total += i * i

    def slowdown(self) -> float:
        times = []
        for _ in range(5):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        self.seen.append(statistics.median(times) / self.REF_S)
        return self.seen[-1]


def input_seed(seed: int, i: int) -> int:
    """Generator seed of input ``i``; disjoint across ``--seed`` values."""
    return seed * 100_003 + i


def input_count(w: Workload, seconds: float, traced: bool) -> int:
    """Inputs in a run; a traced run processes each input twice."""
    share = 0.5 if traced else 1.0
    return max(2, round(seconds * w.inputs_per_second * share))


def generate(w: Workload, scale: str, gseed: int, rec: spans.Recorder | None):
    spec = dataset(w.dataset)
    with spans.maybe_span(rec, "generators.make_graph"):
        el = spec.generate(scale, gseed)
    with spans.maybe_span(rec, "graph.csr_build"):
        g = el.to_csr()
    return el, g


def corrupted(result: Any) -> Any:
    """--corrupt: flip one label so the checker has something to catch."""
    a = result.assignment.copy()
    a[0] = (a[0] + 1) % max(int(a.max()) + 1, 2)
    result.assignment = a
    return result


class Lane:
    """One pass over the inputs, plain (``rec is None``) or traced."""

    def __init__(self, w: Workload, seed: int, rec: spans.Recorder | None,
                 checker: Checker, corrupt: bool) -> None:
        self.w = w
        self.seed = seed
        self.rec = rec
        self.checker = checker
        self.corrupt = corrupt
        self.config = LouvainConfig(variant=Variant(w.variant))
        #: operation kind -> wall seconds of every timed operation
        self.walls: dict[str, list[float]] = defaultdict(list)
        #: the same walls, each divided by the host slowdown beside it
        self.cal: dict[str, list[float]] = defaultdict(list)
        #: host slowdown measured before the current input (run() sets it)
        self.slowdown = 1.0
        #: one record per cold detection, in input order
        self.cold: list[dict[str, Any]] = []
        self.tag = "traced" if rec is not None else "plain"
        # Engine jobs; stay empty on the direct workloads.
        self.queue_waits: list[float] = []
        self.jobs = self.jobs_failed = self.retries = 0

    def scope(self) -> Any:
        """Wrappers installed for a traced lane; nothing for a plain one."""
        if self.rec is None:
            return contextlib.nullcontext()
        return spans.tracing(self.rec)

    def timed(self, kind: str, i: int, fn: Callable[[], Any]) -> Any:
        """Run one client-visible operation; record its wall time."""
        op = (self.rec.operation(kind, i) if self.rec is not None
              else contextlib.nullcontext())
        start = time.perf_counter()
        try:
            with op:
                return fn()
        finally:
            wall = time.perf_counter() - start
            self.walls[kind].append(wall)
            self.cal[kind].append(wall / self.slowdown)

    def record_cold(self, i: int, g: Any, result: Any, q: float) -> None:
        trace = result.trace  # fresh runs always carry one
        seconds = trace.seconds_by_category()
        if i == 0:
            self.first_assignment = result.assignment
        self.cold.append({
            "input": i,
            "edges": g.num_edges,
            "wall_s": self.walls["detect"][-1],
            "cal_s": self.cal["detect"][-1],
            "modelled_s": result.elapsed,
            "modularity": q,
            "hash": assignment_hash(result.assignment),
            "phases": result.num_phases,
            "iterations": result.total_iterations,
            "messages": trace.total_messages,
            "bytes": trace.total_bytes,
            "collective_calls": sum(trace.collective_counts().values()),
            "modelled_total_s": sum(seconds.values()),
            "modelled_compute_s": seconds.get("compute", 0.0),
        })

    def warm_up(self, scale: str) -> None:
        raise NotImplementedError

    def block(self, i: int, el: Any, g: Any, path: str | None) -> None:
        raise NotImplementedError

    def store_counts(self) -> tuple[int, int, int]:
        """(hits, misses, evictions) of the lane's result store."""
        return 0, 0, 0

    def close(self) -> None:
        pass


class DirectLane(Lane):
    """run_louvain on each input; the first input also ran as warm-up."""

    def detect(self, g: Any) -> Any:
        return run_louvain(g, self.w.nranks, self.config)

    def warm_up(self, scale: str) -> None:
        _, g = generate(self.w, scale, input_seed(self.seed, 0), None)
        self.first = self.detect(g)

    def block(self, i: int, el: Any, g: Any, path: str | None) -> None:
        label = f"{self.tag} detect input {i}"
        try:
            result = self.timed("detect", i, lambda: self.detect(g))
        except Exception as exc:  # a failed detection is a counted failure
            self.checker.error(label, exc)
            return
        if self.corrupt:
            result = corrupted(result)
        q = self.checker.detection(label, g, result)
        self.record_cold(i, g, result, q)
        if i == 0:
            self.checker.repeat(f"{self.tag} warm-up repeat", self.first, result)


class ServiceLane(Lane):
    """Engine(workers=1) + two-tier store; cold, hit and incremental jobs."""

    def __init__(self, *args: Any, work_dir: str) -> None:
        super().__init__(*args)
        self.tmp = tempfile.TemporaryDirectory(dir=work_dir, prefix=self.tag)
        self.store = ResultStore(
            capacity=STORE_CAPACITY,
            directory=os.path.join(self.tmp.name, "store"),
        )
        # Default max_retries=1, so the engine auto-checkpoints fresh
        # jobs into its workdir, as a real caller gets.
        self.engine = Engine(
            workers=1, store=self.store,
            workdir=os.path.join(self.tmp.name, "jobs"),
        )
        #: (request kwargs, graph, cold result) of every input so far
        self.seen: list[tuple[dict[str, Any], Any, Any]] = []

    def store_counts(self) -> tuple[int, int, int]:
        return self.store.hits, self.store.misses, self.store.evictions

    def close(self) -> None:
        self.engine.shutdown()
        self.tmp.cleanup()

    def request(self, **kw: Any) -> DetectionRequest:
        return DetectionRequest(
            config=self.config, nranks=self.w.nranks, **kw
        )

    def job(self, kind: str, i: int, make: Callable[[], DetectionRequest]):
        """Build the request and wait for its response, as one operation."""
        self.jobs += 1
        try:
            response = self.timed(kind, i, lambda: self.engine.detect(make()))
        except Exception:
            self.jobs_failed += 1
            raise
        self.jobs_failed += response.state.value != "done"
        self.retries += response.retries
        if not response.cache_hit and response.queue_seconds is not None:
            self.queue_waits.append(response.queue_seconds)
        return response

    def warm_up(self, scale: str) -> None:
        _, g = generate(self.w, "tiny", input_seed(self.seed, 0), None)
        self.engine.detect(self.request(graph=g, use_cache=False))

    def block(self, i: int, el: Any, g: Any, path: str | None) -> None:
        source = {"graph_path": path} if path is not None else {"graph": g}
        label = f"{self.tag} input {i}"
        try:
            response = self.job("detect", i, lambda: self.request(**source))
        except Exception as exc:  # refused or crashed: a counted failure
            self.checker.error(f"{label} cold", exc)
            return
        if self.corrupt and response.result is not None:
            corrupted(response.result)
        q = self.checker.fresh(f"{label} cold", g, response)
        if q is None:
            return
        cold = response.result
        self.record_cold(i, g, cold, q)
        self.seen.append((source, g, cold))

        rng = np.random.default_rng([self.seed, i])
        for r in range(READS_PER_INPUT):
            pool = self.seen[-RECENT_INPUTS:] if r < READS_RECENT else self.seen
            src, _, want = pool[int(rng.integers(len(pool)))]
            try:
                hit = self.job("hit", i, lambda: self.request(**src))
            except Exception as exc:
                self.checker.error(f"{label} read {r}", exc)
                continue
            self.checker.hit(f"{label} read {r}", hit, want)

        g_cur, prev = g, cold
        for r in range(INCR_ROUNDS):
            churn = dynamic.EdgeChurn.random(
                g_cur, CHURN_FRACTION, CHURN_FRACTION,
                seed=input_seed(self.seed, i) * INCR_ROUNDS + r,
            )
            made: list[Any] = []

            def incremental() -> DetectionRequest:
                # Looked up on the module so the traced lane sees it.
                made.append(dynamic.apply_churn(g_cur, churn))
                return self.request(
                    graph=made[0], mode="incremental",
                    previous_assignment=prev.assignment,
                    reset_touched=churn.touched_vertices(),
                )

            try:
                response = self.job("incr", i, incremental)
            except Exception as exc:
                self.checker.error(f"{label} incremental {r}", exc)
                break
            if self.checker.fresh(
                f"{label} incremental {r}", made[0], response
            ) is None:
                break
            g_cur, prev = made[0], response.result


# ----------------------------------------------------------------------
# Probes: one layer at a time, outside any detection (traced runs only)
# ----------------------------------------------------------------------
def _median_ms(fn: Callable[[], Any]) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def sweep_probe_ms(g: Any) -> float:
    """propose_moves over the whole graph from the singleton state."""
    n = g.num_vertices
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.index))
    ids = np.arange(n, dtype=np.int64)
    degrees = g.degrees()
    sizes = np.ones(n)
    return _median_ms(lambda: propose_moves(
        index=g.index, target_comm=g.edges, weights=g.weights,
        self_mask=g.edges == rows, degrees=degrees, cur_comm=ids,
        total_weight=g.total_weight,
        tot_lookup=array_lookup(ids, degrees),
        size_lookup=array_lookup(ids, sizes),
    ))


def _collective_loop(comm: Any, which: str) -> float:
    empty = [None] * comm.size
    start = time.perf_counter()
    for _ in range(PROBE_COLLECTIVES):
        if which == "alltoall":
            comm.alltoall(empty)
        else:
            comm.allreduce(0)
    return time.perf_counter() - start


def collective_probe_us(nranks: int, which: str) -> float:
    """Wall per empty collective at this rank count, modelled cost free."""
    out = run_spmd(nranks, _collective_loop, which, machine=FREE)
    return max(out.values) / PROBE_COLLECTIVES * 1e6


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run(w: Workload, *, seed: int, seconds: float, trace: bool, quick: bool,
        corrupt: bool, work_dir: str) -> dict[str, Any]:
    scale = "tiny" if quick else w.scale
    n = input_count(w, seconds, trace)
    checker = Checker(None if quick else w.q_seed0 * Q_FLOOR_ONE)
    host = HostSpeed()
    rec = spans.Recorder() if trace else None

    def lane(r: spans.Recorder | None) -> Lane:
        if w.kind == "service":
            return ServiceLane(w, seed, r, checker, corrupt, work_dir=work_dir)
        return DirectLane(w, seed, r, checker, corrupt)

    lanes = [lane(None)] + ([lane(rec)] if trace else [])
    feeder = lanes[-1]  # set-up is traced whenever anything is
    first_graph = None
    try:
        for ln in lanes:
            ln.warm_up(scale)
        for i in range(n):
            slowdown = host.slowdown()
            for ln in lanes:
                ln.slowdown = slowdown
            path = None
            if w.kind == "service" and i % PATH_EVERY == PATH_EVERY - 1:
                path = os.path.join(work_dir, f"input{i}.bin")

            def set_up():
                el, g = generate(w, scale, input_seed(seed, i), rec)
                if path is not None:
                    with spans.maybe_span(rec, "graph.binio_write"):
                        write_edgelist(path, el)
                return el, g

            with feeder.scope():
                el, g = feeder.timed("setup", i, set_up)
            if first_graph is None:
                first_graph = g
            # Alternate which lane goes first, so neither always runs warm.
            for ln in (lanes if i % 2 == 0 else lanes[::-1]):
                with ln.scope():
                    ln.block(i, el, g, path)
    finally:
        for ln in lanes:
            ln.close()

    plain = lanes[0]
    out: dict[str, Any] = {
        "workload": w.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "quick": quick, "scale": scale, "inputs": n,
        "nranks": w.nranks, "cold": plain.cold,
    }
    if trace:
        _check_lanes_agree(checker, plain, feeder)
        out["metrics"] = _per_layer(w, feeder, plain, rec, first_graph, n)
        out["metrics"]["host.slowdown"] = statistics.median(host.seen)
        out["recorder"] = rec  # run.py writes the Chrome trace from it
    else:
        out["metrics"] = _end_to_end(plain)
        out["samples"] = dict(plain.walls)
        out["host_slowdown"] = host.seen
        if not quick and plain.cold:
            mean_q = out["metrics"]["modularity"]
            floor = w.q_seed0 * Q_FLOOR_MEAN
            checker.record("mean modularity of the run", [] if mean_q >= floor
                           else [f"{mean_q:.6f} under the floor {floor:.6f}"])
    out.update(attempted=checker.attempted, failed=checker.failed,
               failures=checker.failures)
    return out


def _check_lanes_agree(checker: Checker, plain: Lane, traced: Lane) -> None:
    """Tracing must change no answer and no exact counter."""
    exact = ("hash", "modelled_s", "messages", "bytes", "collective_calls",
             "phases", "iterations")
    problems = []
    if len(plain.cold) != len(traced.cold):
        problems.append("lanes completed different numbers of detections")
    for a, b in zip(plain.cold, traced.cold):
        problems += [
            f"input {a['input']}: {key} {a[key]!r} plain vs {b[key]!r} traced"
            for key in exact if a[key] != b[key]
        ]
    checker.record("traced lane equals plain lane", problems)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _end_to_end(lane: Lane) -> dict[str, float]:
    cold = lane.cold
    detect_cal = sum(c["cal_s"] for c in cold)
    jobs = sum(len(lane.cal[k]) for k in JOB_KINDS)
    jobs_cal = sum(sum(lane.cal[k]) for k in JOB_KINDS)
    m = {
        "setup_s": statistics.median(lane.cal["setup"]),
        "detect_wall_s": _mean([c["wall_s"] for c in cold]),
        "detect_cal_s": _mean([c["cal_s"] for c in cold]),
        "edges_per_cal_s":
            sum(c["edges"] for c in cold) / detect_cal if detect_cal else 0.0,
        "jobs_per_cal_s": jobs / jobs_cal if jobs_cal else 0.0,
        "modelled_s": _mean([c["modelled_s"] for c in cold]),
        "modularity": _mean([c["modularity"] for c in cold]),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if lane.cal["hit"]:
        m["hit_cal_s"] = statistics.median(lane.cal["hit"])
    if lane.cal["incr"]:
        m["incr_cal_s"] = statistics.median(lane.cal["incr"])
    return m


def _per_layer(w: Workload, traced: Lane, plain: Lane, rec: spans.Recorder,
               first_graph: Any, n: int) -> dict[str, float]:
    t = spans.layer_totals(rec.spans)
    cold = traced.cold

    def self_s(*names: str) -> float:
        return sum(t.self_s.get(name, 0.0) for name in names) / n

    def calls(name: str) -> float:
        return t.calls.get(name, 0) / n

    def arg(name: str, key: str) -> float:
        return t.args.get((name, key), 0) / n

    def per_cold(key: str) -> float:
        return _mean([c[key] for c in cold])

    comm_names = [f"runtime.{m}" for m in spans.COMM_METHODS]
    collective_s = self_s(*comm_names)
    collective_spans = sum(calls(name) for name in comm_names)
    rank_s = t.rank_main_s / n  # the denominator of every share
    sweep_s = self_s("core.sweep")
    pairs = arg("core.sweep", "pairs")
    active = arg("core.sweep", "active")
    glue_s = self_s(spans.RANK_MAIN)
    traced_wall = sum(sum(traced.walls[k]) for k in JOB_KINDS)
    plain_wall = sum(sum(plain.walls[k]) for k in JOB_KINDS)
    hits, misses, evictions = traced.store_counts()
    disk_hits = calls("service.store_load")
    executes = [s.dur_ns / 1e9 for s in rec.spans
                if s.name == "service.execute"]
    fresh_walls = traced.walls["detect"] + traced.walls["incr"]
    modelled_total = sum(c["modelled_total_s"] for c in cold)
    modelled_compute = sum(c["modelled_compute_s"] for c in cold)

    def share(x: float) -> float:
        return x / rank_s if rank_s else 0.0

    m = {
        "generators.make_graph_s": self_s("generators.make_graph"),
        "graph.csr_build_s": self_s("graph.csr_build"),
        "graph.distribute_s": self_s("graph.distribute"),
        "graph.ghost_plan_s": self_s("graph.ghost_plan"),
        "graph.ghost_plan_calls": calls("graph.ghost_plan"),
        "graph.ghost_exchange_s": self_s("graph.ghost_exchange"),
        "graph.ghost_exchange_calls": calls("graph.ghost_exchange"),
        "graph.fingerprint_s": self_s("graph.fingerprint"),
        "graph.binio_read_s": self_s("graph.binio_read"),
        "graph.binio_read_bytes": arg("graph.binio_read", "bytes"),
        "runtime.collective_calls": per_cold("collective_calls"),
        "runtime.messages": per_cold("messages"),
        "runtime.bytes": per_cold("bytes"),
        "runtime.modelled_comm_fraction":
            1.0 - modelled_compute / modelled_total if modelled_total else 0.0,
        "runtime.collective_s": collective_s,
        "runtime.collective_us_per_call":
            collective_s / collective_spans * 1e6 if collective_spans else 0.0,
        "runtime.alltoall_s": self_s("runtime.alltoall"),
        "runtime.allreduce_s": self_s("runtime.allreduce"),
        "runtime.collective_share": share(collective_s),
        "runtime.spmd_overhead_s": t.spmd_overhead_s / n,
        "runtime.alltoall_probe_us": collective_probe_us(w.nranks, "alltoall"),
        "runtime.allreduce_probe_us":
            collective_probe_us(w.nranks, "allreduce"),
        "core.phases": per_cold("phases"),
        "core.iterations": per_cold("iterations"),
        "core.sweep_calls": calls("core.sweep"),
        "core.sweep_pairs": pairs,
        "core.sweep_active_vertices": active,
        "core.sweep_moves": arg("core.sweep", "moves"),
        "core.sweep_move_ratio":
            arg("core.sweep", "moves") / active if active else 0.0,
        "core.sweep_s": sweep_s,
        "core.sweep_ns_per_pair": sweep_s / pairs * 1e9 if pairs else 0.0,
        "core.sweep_share": share(sweep_s),
        "core.sweep_probe_ms": sweep_probe_ms(first_graph),
        "core.coarsen_s": self_s("core.coarsen"),
        "core.coarsen_calls": calls("core.coarsen"),
        "core.coarsen_probe_ms": _median_ms(
            lambda: coarsen_csr(first_graph, plain.first_assignment)
        ) if plain.cold and plain.cold[0]["input"] == 0 else 0.0,
        "core.glue_s": glue_s,
        "core.glue_share": share(glue_s),
        "core.dynamic_s": self_s("core.dynamic"),
        "resilience.checkpoint_s": self_s("resilience.checkpoint"),
        "resilience.checkpoint_calls": arg("resilience.checkpoint", "saves"),
        "resilience.checkpoint_bytes": arg("resilience.checkpoint", "bytes"),
        "service.submit_s": self_s("service.submit"),
        "service.cache_key_s": self_s("service.cache_key"),
        "service.store_get_s": self_s("service.store_get", "service.store_load"),
        "service.store_put_s": self_s("service.store_put"),
        "service.store_mem_hits": hits / n - disk_hits,
        "service.store_disk_hits": disk_hits,
        "service.store_misses": misses / n,
        "service.store_evictions": evictions / n,
        "service.queue_wait_s": _mean(traced.queue_waits),
        "service.execute_s": _mean(executes),
        # Per fresh job: submit -> response minus execute_request.
        "service.overhead_s":
            (sum(fresh_walls) - sum(executes)) / len(executes)
            if executes else 0.0,
        "service.hit_wall_s":
            statistics.median(traced.walls["hit"]) if traced.walls["hit"] else 0.0,
        "service.incr_wall_s":
            statistics.median(traced.walls["incr"]) if traced.walls["incr"] else 0.0,
        "service.jobs_attempted": float(traced.jobs),
        "service.jobs_failed": float(traced.jobs_failed),
        "service.jobs_retried": float(traced.retries),
        "trace.span_count": len(rec.spans) / n,
        "trace.overhead_fraction":
            traced_wall / plain_wall - 1.0 if plain_wall else 0.0,
        "trace.attributed_fraction":
            t.attributed_s / t.available_s if t.available_s else 0.0,
    }
    return m
