"""Micro-benchmarks of the simulator's hot kernels (wall time).

Unlike the paper-reproduction benches (which report *modelled* time),
these track the real wall-clock cost of the library's inner kernels so
performance regressions of the simulator itself are visible:

* the vectorised move-selection sweep — from the singleton state, from
  a mid-run state with sparse community ids, and under a 25%-active
  mask — and one whole iteration, ``_iterate``, on every rank at
  p ∈ {1, 4} (per world-iteration: wall and thread-CPU µs summed over
  the ranks, the kernel's share beside it, modelled seconds), so the
  glue around the kernel has its own number; both also on
  soc-friendster ``small`` / ``medium`` /
  ``large`` (p = 1), in ns per candidate entry and per (vertex,
  community) pair with the kernel's stages replayed beside them, so a
  per-edge cost that rises with the input says where, and the
  iterations also on the ``mesh_p8`` and ``social_p4_etc`` workloads' slices
  (appended to ``BENCH_generators.json``);
* one round's community-info legs per 8-rank world on the ``mesh_p8``
  slice — ``Communicator.lookup`` + ``push`` with the ghost labels
  against the list protocol they replaced — wall µs per world-round and
  modelled seconds per round (appended to ``BENCH_generators.json``);
* the phase boundaries of a detection (set-up and end of phases 0-1:
  thread-CPU ms summed over the ranks, wall, rank 0's rendezvous) on the
  ``mesh_p8`` graphs at p ∈ {1, 4, 8} (appended to
  ``BENCH_generators.json``);
* a detection's fixed cost on a 222-vertex coarsened soc-friendster
  graph at p ∈ {1, 4, 8}: wall, thread CPU summed over the ranks, rank
  0's rendezvous and the iterations per detection (appended to
  ``BENCH_generators.json``);
* the vectorised greedy coloring and vertex-following seeds;
* serial graph coarsening;
* CSR construction from edge lists;
* the simulated runtime itself: wall ns and ``message_bytes`` calls per
  collective for barrier / bcast / gather / allreduce / allgather /
  alltoall / ``exchange_roundtrip`` at p ∈ {2, 4, 8} with empty and
  1 kB payloads (appended to ``BENCH_generators.json``);
* one collective checkpoint save, full (the first of a phase: graph
  slice and history too) and delta (iteration state only), at
  p ∈ {1, 2, 4} on the ``service_mix`` graph: wall µs and bytes.
"""

from __future__ import annotations

import os
import tempfile
import time
from functools import lru_cache, partial

import numpy as np

import pytest

from repro.core import (
    IterationState,
    LouvainConfig,
    RunState,
    Variant,
    coarsen_csr,
    run_louvain,
)
from repro.core.distlouvain import (
    _iterate,
    _save_checkpoint,
    _Seat,
    _set_up_world,
)
from repro.core.heuristics import EarlyTermination, make_rank_rng
from repro.core.grappolo import greedy_coloring, vertex_following_seed
from repro.core.sweep import SweepPlan, SweepSlice, array_lookup, propose_moves
from repro.core.result import IterationStats
from repro.generators import generate_lfr, make_graph
from repro.graph import CSRGraph, DistGraph, EdgeList
from repro.resilience import CheckpointManager, RunSnapshots, read_manifest
from repro.runtime import CORI_HASWELL, FREE, run_spmd
from tests.oracles import aggregate_reference, exchange_reference
from tests.oracles.iteration_reference import publish


def _graph():
    return generate_lfr(3000, avg_degree=16, seed=1).edges


#: The kernel rows' inputs: the 3 000-vertex LFR graph every other row
#: of this file uses, then the flagship social stand-in at three sizes
#: (36 k / 109 k / 363 k edges).
KERNEL_GRAPHS = ("lfr3000", "small", "medium", "large")


@lru_cache(maxsize=None)
def _kernel_graph(which: str) -> CSRGraph:
    if which == "lfr3000":
        return _graph().to_csr()
    if which == "mesh":
        return make_graph("channel", scale="medium", seed=0)
    return make_graph("soc-friendster", scale=which, seed=0)


def _sweep_state(g: CSRGraph, state: str) -> np.ndarray:
    """Community per vertex: singletons, or a mid-run state of one
    community per ten vertices labelled by sparse vertex ids."""
    n = g.num_vertices
    if state == "singleton":
        return np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(7)
    labels = np.sort(rng.choice(n, size=n // 10, replace=False))
    return labels[rng.integers(0, len(labels), n)]


def _sweep_active(n: int, active: str) -> np.ndarray | None:
    if active == "all":
        return None
    return np.random.default_rng(11).random(n) < 0.25


SWEEP_CASES = [
    ("singleton", "all"), ("midrun", "all"), ("midrun", "quarter"),
]


def _median_ns(fn, repeats: int = 5):
    """``(median wall ns, last result)`` of ``repeats`` calls."""
    times, out = _times_ns(fn, repeats)
    return float(np.median(times)), out


def _times_ns(fn, repeats: int):
    """``(wall ns of each of ``repeats`` calls, last result)``."""
    times, out = [], None
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        out = fn()
        times.append(time.perf_counter_ns() - t0)
    return times, out


def _spread(values) -> tuple[float, float]:
    """``(median, inter-quartile range)`` of repeated measurements."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(median), float(q3 - q1)


def _replay_stages(plan, target_comm, cur_comm, active):
    """The grouping half of ``propose_moves`` — selected entries, their
    communities, bit-field key, in-place sort, segment sum, each pair's
    row and community off its key — one stage at a time, in freshly
    allocated arrays (the kernel writes into its plan's scratch).
    Returns ``({stage: median ns}, entries, pairs)``; scoring and the
    per-row argmax are what the kernel's total has left."""
    ns = {}
    inner = len(plan.entries)

    def select():
        if active is None:
            return plan.positions[:len(plan.entry_rows)], inner
        sel = np.flatnonzero(active[plan.entry_rows])
        return sel, int(sel.searchsorted(inner))

    ns["select"], (sel, k) = _median_ns(select)

    def entry_comm():
        # Only the selected entries' communities, and the rows' own.
        rows = plan.entry_rows if active is None else plan.entry_rows[sel]
        at = plan.entries if active is None else plan.entries[sel[:k]]
        return rows, np.concatenate([target_comm[at], cur_comm[rows[k:]]])

    ns["entry_comm"], (c_rows, c_comm) = _median_ns(entry_comm)
    n_entries = len(c_comm)
    cb = int(c_comm.max()).bit_length()
    bits = (len(plan.entry_rows) - 1).bit_length()

    def build_key():
        key = np.left_shift(c_rows, cb)
        key |= c_comm
        key <<= bits
        key |= sel
        return key

    ns["key"], key = _median_ns(build_key)

    def sort():
        out = key.copy()
        t0 = time.perf_counter_ns()
        out.sort()
        return time.perf_counter_ns() - t0, out

    runs = [sort() for _ in range(5)]
    ns["sort"], key = float(np.median([r[0] for r in runs])), runs[-1][1]

    def unpack():
        order = key & ((1 << bits) - 1)
        pair_key = key >> bits
        first = np.empty(n_entries, bool)
        first[:1] = True
        np.not_equal(pair_key[1:], pair_key[:-1], out=first[1:])
        return order, pair_key, np.flatnonzero(first)

    ns["unpack+starts"], (order, pair_key, starts) = _median_ns(unpack)
    ns["reduceat"], _ = _median_ns(
        lambda: np.add.reduceat(plan.entry_weights.take(order), starts)
    )

    def pairs():
        lead = pair_key.take(starts)
        return lead >> cb, lead & ((1 << cb) - 1)

    ns["pairs_off_key"], _ = _median_ns(pairs)
    return ns, n_entries, len(starts)


@pytest.mark.parametrize("which", KERNEL_GRAPHS)
@pytest.mark.parametrize("state,active", SWEEP_CASES)
def test_kernel_propose_moves(benchmark, record_bench, state, active, which):
    g = _kernel_graph(which)
    n = g.num_vertices
    k = g.degrees()
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.index))
    comm = _sweep_state(g, state)
    tot = np.bincount(comm, weights=k, minlength=n)
    size = np.bincount(comm, minlength=n)
    self_mask = g.edges == rows
    target_comm = comm[g.edges]
    mask = _sweep_active(n, active)
    # As the distributed caller runs it: one plan (and its scratch) per
    # phase, many sweeps.
    plan = SweepPlan.build(g.index, g.weights, self_mask, rows=rows)

    def sweep():
        return propose_moves(
            index=g.index,
            target_comm=target_comm,
            weights=g.weights,
            self_mask=self_mask,
            degrees=k,
            cur_comm=comm,
            total_weight=g.total_weight,
            tot_lookup=array_lookup(None, tot),
            size_lookup=array_lookup(None, size),
            active=mask,
            plan=plan,
        )

    result = benchmark(sweep)
    assert result.num_moves > 0

    times, _ = _times_ns(sweep, KERNEL_REPEATS)
    total_ns, iqr_ns = _spread(times)
    stages, entries, pairs = _replay_stages(plan, target_comm, comm, mask)
    assert pairs == result.pairs_evaluated
    per_entry = {name: round(t / entries, 2) for name, t in stages.items()}
    per_entry["scoring+argmax"] = round(
        (total_ns - sum(stages.values())) / entries, 2
    )
    print(
        f"\npropose_moves {which:<8} {state:<9} {active:<7} "
        f"{g.num_edges:>7} edges {entries:>7} entries {pairs:>7} pairs  "
        f"{total_ns / entries:6.1f} ns/entry {total_ns / pairs:6.1f} ns/pair"
        f"  {total_ns / 1e6:7.2f} ms  stages ns/entry: "
        + " ".join(f"{name}={v}" for name, v in per_entry.items())
    )
    if which != "lfr3000":
        record_bench("generators", {
            "kind": "kernel_propose_moves", "dataset": "soc-friendster",
            "scale": which, "state": state, "active": active,
            "num_edges": g.num_edges, "entries": entries, "pairs": pairs,
            "kernel_ms": round(total_ns / 1e6, 3),
            "kernel_ms_iqr": round(iqr_ns / 1e6, 3),
            "repeats": KERNEL_REPEATS,
            "ns_per_entry": round(total_ns / entries, 2),
            "ns_per_pair": round(total_ns / pairs, 2),
            "stage_ns_per_entry": per_entry,
        })


SWEEP_ROUNDS = 30
WARM_ROUNDS = 3
#: Repeats of a measurement inside one run, for its median and IQR.
KERNEL_REPEATS = 9
WORLD_REPEATS = 5


@pytest.mark.parametrize(
    "p,which",
    [
        (1, "lfr3000"), (4, "lfr3000"), (1, "small"), (1, "medium"),
        (1, "large"),
        # the end-to-end workloads' slices: mesh_p8, social_p4_etc
        (8, "mesh"), (4, "small"),
    ],
)
@pytest.mark.parametrize("state,active", SWEEP_CASES)
def test_kernel_iteration(
    benchmark, monkeypatch, record_bench, state, active, p, which
):
    """One Louvain iteration on every rank, ``_iterate(world, comms,
    phases, it, config)`` in a rendezvous of its own — steps (i)-(v): the
    ``needed`` set and its fetch, the
    kernel over every rank's entries, the delta aggregation and the
    push with the ghost labels, the entries' re-aim, the modularity
    partials and the allreduce — at p = 1 on soc-friendster at three
    sizes, on the 3 000-vertex LFR graph at p = 1 and 4, and on the
    slices the ``mesh_p8`` (channel ``medium``, p = 8) and
    ``social_p4_etc`` (soc-friendster ``small``, p = 4) workloads sweep.
    Every iteration restarts from the same assignment (the world's
    arrays and ET state are rebuilt outside the timers); the 25%-active
    case is ET with every vertex's probability at 0.25.  Reported per
    world-iteration: wall µs (first rank in to last rank out),
    thread-CPU µs summed over the ranks (``thread_time_ns``: what the
    ranks burn, waits excluded), the kernel's share of that CPU — one
    thread works for every rank, so a per-rank number would charge the
    whole world to whichever rank ran it — and the modelled seconds the
    latest rank's clock advances on ``CORI_HASWELL``."""
    from repro.core import distlouvain

    g = _kernel_graph(which)
    n = g.num_vertices
    comm0 = _sweep_state(g, state)
    config = (
        LouvainConfig() if active == "all"
        else LouvainConfig(variant=Variant.ET, alpha=0.25, seed=11)
    )
    deg = g.degrees()
    tot0 = np.bincount(comm0, weights=deg, minlength=n)
    size0 = np.bincount(comm0, minlength=n)
    kernel_ns: list[int] = []
    kernel = distlouvain.propose_moves
    rounds = SWEEP_ROUNDS if which == "lfr3000" else SWEEP_ROUNDS // 3

    def timed_kernel(**kwargs):
        t0 = time.thread_time_ns()
        try:
            return kernel(**kwargs)
        finally:
            kernel_ns.append(time.thread_time_ns() - t0)

    monkeypatch.setattr(distlouvain, "propose_moves", timed_kernel)

    def iteration(world, comms, phases):
        return [_iterate(world, comms, phases, 0, config)] * len(phases)

    def prog(comm):
        dg = DistGraph.distribute(comm, g)
        lo, hi = dg.vbegin, dg.vend
        ghost_plan = dg.build_ghost_plan(comm)
        k = dg.local_degrees()
        run = RunState(dg=dg, orig_slice=dg.local_vertex_ids())
        part = SweepSlice(
            dg.index, dg.weights, np.flatnonzero(~dg.self_loop_mask()),
            dg.local_rows(), k,
        )
        spans, moves = [], 0
        for _ in range(rounds + WARM_ROUNDS):
            local = comm0[lo:hi].copy()
            state = IterationState(
                local, tot0[lo:hi].copy(), size0[lo:hi].copy()
            )
            if active != "all":
                state.et = EarlyTermination(
                    dg.num_local, config, make_rank_rng(11, comm.rank, 0)
                )
                state.et.prob[:] = 0.25
            dg.exchange_ghost_values(comm, ghost_plan, local)
            phase = comm.scripted(
                "phase_setup", _Seat(run, k, part, state, dg.plan_seat(), None),
                partial(_set_up_world, config=config),
            )
            comm.barrier()
            m0 = comm.clock
            w0, c0 = time.perf_counter_ns(), time.thread_time_ns()
            comm.scripted("iteration", phase, iteration)
            c1, w1 = time.thread_time_ns(), time.perf_counter_ns()
            spans.append((w0, w1, c1 - c0, m0, comm.clock))
            moves = state.stats[-1].moves
        return spans[WARM_ROUNDS:], moves

    def one_run():
        """``(wall, cpu, kernel cpu µs, modelled s)`` per world-iteration
        of one run: each its median over the run's timed iterations."""
        kernel_ns.clear()
        r = run_spmd(p, prog, machine=CORI_HASWELL, timeout=60.0)
        assert r.values[0][1] > 0
        per_round = list(zip(*(v[0] for v in r.values)))
        # The kernel calls of the timed iterations: the last ones made.
        calls = len(kernel_ns) // (rounds + WARM_ROUNDS)
        return calls, (
            float(np.median([
                max(s[1] for s in rs) - min(s[0] for s in rs)
                for rs in per_round
            ])) / 1e3,
            float(np.median([sum(s[2] for s in rs) for rs in per_round]))
            / 1e3,
            float(np.sum(kernel_ns[-calls * rounds:])) / rounds / 1e3,
            float(np.median([
                max(s[4] for s in rs) - max(s[3] for s in rs)
                for rs in per_round
            ])),
        )

    # Repeats inside the run: a row carries the median of the runs'
    # medians and their spread.
    runs = [benchmark.pedantic(one_run, rounds=1, iterations=1)]
    runs += [one_run() for _ in range(WORLD_REPEATS - 1)]
    calls = runs[0][0]
    (wall_us, wall_iqr), (cpu_us, cpu_iqr), (kernel_us, _), (modelled_s, _) = (
        _spread(values) for values in zip(*(run for _, run in runs))
    )
    benchmark.extra_info.update(
        wall_us_per_world_iteration=wall_us,
        cpu_us_per_world_iteration=cpu_us,
        kernel_cpu_us_per_world_iteration=kernel_us,
        modelled_s_per_world_iteration=modelled_s,
    )
    dataset = "channel" if which == "mesh" else "soc-friendster"
    print(
        f"\niteration {which:<8} {state:<9} {active:<7} p={p} "
        f"{wall_us:>8.0f} us wall {cpu_us:>8.0f} (IQR {cpu_iqr:.0f}) us cpu "
        f"per world-iteration, "
        f"kernel {kernel_us:>7.0f} us ({kernel_us / cpu_us:.0%}) in "
        f"{calls} call(s), {1e3 * cpu_us / g.num_edges:.0f} ns cpu per edge, "
        f"{modelled_s * 1e6:.1f} us modelled"
    )
    if which != "lfr3000":
        record_bench("generators", {
            "kind": "kernel_iteration", "dataset": dataset,
            "scale": "medium" if which == "mesh" else which,
            "state": state, "active": active, "ranks": p,
            "num_edges": g.num_edges,
            "kernel_calls_per_world_iteration": calls,
            "wall_us_per_world_iteration": round(wall_us, 1),
            "wall_us_iqr": round(wall_iqr, 1),
            "cpu_us_per_world_iteration": round(cpu_us, 1),
            "cpu_us_iqr": round(cpu_iqr, 1),
            "repeats": WORLD_REPEATS,
            "kernel_cpu_us_per_world_iteration": round(kernel_us, 1),
            "kernel_cpu_share": round(kernel_us / cpu_us, 3),
            "cpu_ns_per_edge": round(1e3 * cpu_us / g.num_edges, 1),
            "modelled_s_per_world_iteration": modelled_s,
        })


COMMUNITY_ROUNDS = 30
COMMUNITY_PATHS = {
    "list protocol": (
        lambda comm, dg, ids, tables: exchange_reference.lookup(
            comm, dg.offsets, ids, tables, "community_comm"
        ),
        lambda comm, dg, ids, values, tables, carry: exchange_reference.push(
            comm, dg.offsets, ids, values, tables, carry, "community_comm"
        ),
    ),
    "lookup + push": (
        lambda comm, dg, ids, tables: comm.lookup(
            ids, dg.cuts(ids), tables, category="community_comm"
        ),
        lambda comm, dg, ids, values, tables, carry: comm.push(
            ids, dg.cuts(ids), values, tables, carry, "community_comm"
        ),
    ),
}


def test_kernel_community_legs(benchmark, record_bench):
    """One round's community-info legs per 8-rank world on the
    ``mesh_p8`` slice (channel ``medium``) in the mid-run state: step
    (ii)'s request and reply for every community a rank holds, then
    step (iv)'s deltas with the moved vertices' labels, each rank moving
    every seventh vertex it owns to its first neighbour's community.
    ``lookup + push`` is the shipped path, ``list protocol`` the
    request / reply ``alltoall``s and per-source ``np.add.at`` it
    replaced (``tests/oracles/exchange_reference.py``), run as the
    before.  Both must leave every rank the same answers, tables and
    labels and the same modelled seconds.  Reported per world-round:
    wall µs (first rank in to last rank out) and the modelled seconds
    of the round's three legs on ``CORI_HASWELL``."""
    g = _kernel_graph("mesh")
    n = g.num_vertices
    comm0 = _sweep_state(g, "midrun")
    tot0 = np.bincount(comm0, weights=g.degrees(), minlength=n)
    size0 = np.bincount(comm0, minlength=n)

    def prog(comm, lookup, push):
        dg = DistGraph.distribute(comm, g)
        lo, hi = dg.vbegin, dg.vend
        plan = dg.build_ghost_plan(comm)
        local = comm0[lo:hi].copy()
        ids = np.unique(np.concatenate(
            [local, dg.exchange_ghost_values(comm, plan, local)]
        ))
        rows = np.arange(0, dg.num_local, 7)
        rows = rows[np.diff(dg.index)[rows] > 0]
        new = local.copy()
        new[rows] = comm0[dg.edges[dg.index[rows]]]
        moved = new != local
        deltas = aggregate_reference.aggregate_deltas(
            local[moved], new[moved], dg.local_degrees()[moved]
        )
        labels = publish(dg, plan, new, moved)
        spans = []
        for _ in range(COMMUNITY_ROUNDS + WARM_ROUNDS):
            tables = (tot0[lo:hi].copy(), size0[lo:hi].copy())
            comm.barrier()
            w0, m0 = time.perf_counter_ns(), comm.clock
            info = lookup(comm, dg, ids, tables)
            got = push(comm, dg, deltas[0], deltas[1:], tables, labels)
            spans.append((w0, time.perf_counter_ns(), comm.clock - m0))
        return spans[WARM_ROUNDS:], (*info, *got, *tables)

    runs = {
        path: run_spmd(8, prog, *legs, machine=CORI_HASWELL, timeout=60.0)
        for path, legs in COMMUNITY_PATHS.items()
    }
    benchmark.pedantic(
        lambda: run_spmd(
            8, prog, *COMMUNITY_PATHS["lookup + push"], timeout=60.0
        ),
        rounds=1, iterations=1,
    )
    rows = {}
    for path, r in runs.items():
        per_round = list(zip(*(v[0] for v in r.values)))
        rows[path] = (
            float(np.median([
                max(s[1] for s in rs) - min(s[0] for s in rs)
                for rs in per_round
            ])) / 1e3,
            float(np.median([max(s[2] for s in rs) for rs in per_round])),
        )
    before, after = (runs[path].values for path in COMMUNITY_PATHS)
    for (_, want), (_, got) in zip(before, after):
        assert len(want) == len(got)
        for a, b in zip(want, got):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
    assert rows["list protocol"][1] == rows["lookup + push"][1]
    benchmark.extra_info.update({
        f"{path} {unit}": value
        for path, row in rows.items()
        for unit, value in zip(("wall_us", "modelled_s"), row)
    })
    for path, (wall_us, modelled_s) in rows.items():
        print(
            f"\ncommunity legs {path:<14} p=8 {wall_us:>8.0f} us wall per "
            f"world-round, {modelled_s * 1e6:.2f} us modelled per round"
        )
        record_bench("generators", {
            "kind": "kernel_community_legs", "dataset": "channel",
            "scale": "medium", "state": "midrun", "ranks": 8,
            "path": path, "num_edges": g.num_edges,
            "wall_us_per_world_round": round(wall_us, 1),
            "modelled_s_per_round": modelled_s,
        })


#: Inputs per phase-boundary run: the first ``mesh_p8`` graphs.
BOUNDARY_INPUTS = 4


@pytest.mark.parametrize("p", [1, 4, 8])
def test_kernel_phase_boundary(benchmark, monkeypatch, record_bench, p):
    """The phase boundaries of a detection on every rank: the set-up
    (``_begin_phase``: the starting state, the sweep slice, the target
    scan; ``_set_up_world``: the ghost plan, the full ghost exchange,
    the stacking) and the end (``_close_world``: the §IV-A(b) rebuild,
    the statistics' allreduce, the projection; ``_record_phase``) of
    phases 0 and 1 — the distributed ones at every p — on the
    ``mesh_p8`` graphs (channel ``medium``, inputs 0-3, Baseline).
    Reported per detection: thread CPU ms summed over the threads that
    run them (the ranks', or the one running the world), wall ms of the
    whole detection, and the rendezvous rank 0 enters.  Only names and
    signatures both sides of a change share are wrapped, so a clone of
    the parent commit runs the same rows; ``fixed_cost`` times whole
    detections."""
    from repro.core import distlouvain
    from repro.runtime import comm as comm_mod

    graphs = [
        make_graph("channel", scale="medium", seed=i)
        for i in range(BOUNDARY_INPUTS)
    ]
    spent: dict[str, list[int]] = {"set-up": [], "end": []}
    entered: list[int] = []

    def timed(part, real, phase_of):
        """``real`` timed when ``phase_of(*args)``, its ``(phase, rank
        count)``, names phase 0 or 1 of the ``p``-rank world."""
        def call(*args, **kwargs):
            c0 = time.thread_time_ns()
            try:
                return real(*args, **kwargs)
            finally:
                phase, size = phase_of(*args)
                if size == p and phase < 2:
                    spent[part].append(time.thread_time_ns() - c0)
        return call

    real_exchange = comm_mod._Rendezvous.exchange

    def exchange(self, rank, *args):
        if rank == 0 and self._size == p:
            entered.append(1)
        return real_exchange(self, rank, *args)

    stages = {
        "_begin_phase": (
            "set-up", lambda comm, run, *a: (run.phase, comm.size)
        ),
        "_set_up_world": (
            "set-up", lambda world, comms, seats: (seats[0].run.phase, len(comms))
        ),
        "_close_world": (
            "end", lambda world, comms, phases, config: (
                phases[0].index, len(comms)
            )
        ),
        "_record_phase": (
            "end", lambda run, *a: (run.phase, len(run.dg.offsets) - 1)
        ),
    }
    for name, (part, phase_of) in stages.items():
        monkeypatch.setattr(
            distlouvain, name,
            timed(part, getattr(distlouvain, name), phase_of),
        )
    monkeypatch.setattr(comm_mod._Rendezvous, "exchange", exchange)
    run_louvain(graphs[0], p, LouvainConfig())  # warm

    def one_run():
        """Per detection: set-up and end CPU ms, wall ms, rendezvous."""
        for part in spent.values():
            part.clear()
        entered.clear()
        walls = []
        for g in graphs:
            t0 = time.perf_counter_ns()
            run_louvain(g, p, LouvainConfig())
            walls.append(time.perf_counter_ns() - t0)
        n = len(graphs)
        return (
            sum(spent["set-up"]) / n / 1e6, sum(spent["end"]) / n / 1e6,
            (sum(spent["set-up"]) + sum(spent["end"])) / n / 1e6,
            float(np.mean(walls)) / 1e6, len(entered) / n,
        )

    runs = [benchmark.pedantic(one_run, rounds=1, iterations=1)]
    runs += [one_run() for _ in range(WORLD_REPEATS - 1)]
    (setup, _), (end, _), (total, total_iqr), (wall, wall_iqr), (rdv, _) = (
        _spread(values) for values in zip(*runs)
    )
    benchmark.extra_info.update(
        boundary_cpu_ms=total, wall_ms=wall, rendezvous=rdv
    )
    print(
        f"\nphase boundary p={p} set-up {setup:.2f} + end {end:.2f} = "
        f"{total:.2f} (IQR {total_iqr:.2f}) ms cpu per detection, "
        f"{wall:.1f} ms wall, {rdv:.1f} rendezvous at rank 0"
    )
    record_bench("generators", {
        "kind": "phase_boundary", "dataset": "channel", "scale": "medium",
        "inputs": BOUNDARY_INPUTS, "ranks": p, "repeats": WORLD_REPEATS,
        "setup_cpu_ms": round(setup, 3), "end_cpu_ms": round(end, 3),
        "boundary_cpu_ms": round(total, 3),
        "boundary_cpu_ms_iqr": round(total_iqr, 3),
        "wall_ms_per_detection": round(wall, 2),
        "wall_ms_iqr": round(wall_iqr, 2),
        "rendezvous_rank0_per_detection": rdv,
    })


#: Detections per repeat of the fixed-cost row, and its repeats.
FIXED_RUNS = 10
FIXED_REPEATS = 7


@lru_cache(maxsize=None)
def _fixed_cost_graph() -> CSRGraph:
    """soc-friendster ``small`` coarsened by its detection's second phase:
    222 meta vertices, a detection of a few iterations in two phases."""
    g = make_graph("soc-friendster", scale="small", seed=0)
    r = run_louvain(g, 1, LouvainConfig(track_assignments=True))
    meta, _ = coarsen_csr(g, r.phase_assignments[1])
    return meta


@pytest.mark.parametrize("p", [1, 4, 8])
def test_kernel_fixed_cost(benchmark, monkeypatch, record_bench, p):
    """What a detection costs beyond its work: a ~200-vertex graph
    (:func:`_fixed_cost_graph`, Baseline), where the kernels have almost
    nothing to do, at p ∈ {1, 4, 8}.  Per detection: wall ms, thread CPU
    ms summed over the ranks (each rank's ``thread_time_ns`` across its
    ``distributed_louvain``), the rendezvous rank 0 enters and the
    iterations; each the median and IQR of the repeats' means.  Only
    names both sides of a change share are wrapped, so a clone of the
    parent commit runs the same rows."""
    from repro.core import distlouvain
    from repro.runtime import comm as comm_mod

    g = _fixed_cost_graph()
    spent: list[int] = []
    entered: list[int] = []
    real_detect = distlouvain.distributed_louvain
    real_exchange = comm_mod._Rendezvous.exchange

    def detect(comm, *args, **kwargs):
        c0 = time.thread_time_ns()
        try:
            return real_detect(comm, *args, **kwargs)
        finally:
            if comm.size == p:
                spent.append(time.thread_time_ns() - c0)

    def exchange(self, rank, *args):
        if rank == 0 and self._size == p:
            entered.append(1)
        return real_exchange(self, rank, *args)

    monkeypatch.setattr(distlouvain, "distributed_louvain", detect)
    monkeypatch.setattr(comm_mod._Rendezvous, "exchange", exchange)
    run_louvain(g, p, LouvainConfig())  # warm

    def one_run():
        """Per detection, over FIXED_RUNS: wall ms, CPU ms, rendezvous,
        iterations."""
        spent.clear()
        entered.clear()
        t0 = time.perf_counter_ns()
        for _ in range(FIXED_RUNS):
            r = run_louvain(g, p, LouvainConfig())
        wall = (time.perf_counter_ns() - t0) / FIXED_RUNS / 1e6
        return (
            wall, sum(spent) / FIXED_RUNS / 1e6, len(entered) / FIXED_RUNS,
            float(r.total_iterations),
        )

    runs = [benchmark.pedantic(one_run, rounds=1, iterations=1)]
    runs += [one_run() for _ in range(FIXED_REPEATS - 1)]
    (wall, wall_iqr), (cpu, cpu_iqr), (rdv, _), (its, _) = (
        _spread(values) for values in zip(*runs)
    )
    benchmark.extra_info.update(wall_ms=wall, cpu_ms=cpu, rendezvous=rdv)
    print(
        f"\nfixed cost p={p} {g.num_vertices} vertices: {wall:.2f} "
        f"(IQR {wall_iqr:.2f}) ms wall, {cpu:.2f} (IQR {cpu_iqr:.2f}) ms "
        f"cpu per detection, {rdv:.0f} rendezvous at rank 0, "
        f"{its:.0f} iterations"
    )
    record_bench("generators", {
        "kind": "fixed_cost", "dataset": "soc-friendster",
        "scale": "small coarsened by phase 1",
        "num_vertices": g.num_vertices, "num_edges": g.num_edges,
        "ranks": p, "runs": FIXED_RUNS, "repeats": FIXED_REPEATS,
        "wall_ms_per_detection": round(wall, 3),
        "wall_ms_iqr": round(wall_iqr, 3),
        "cpu_ms_per_detection": round(cpu, 3),
        "cpu_ms_iqr": round(cpu_iqr, 3),
        "rendezvous_rank0_per_detection": rdv,
        "iterations": its,
    })


def test_kernel_greedy_coloring(benchmark):
    g = _graph().to_csr()

    colors = benchmark(greedy_coloring, g)
    assert colors.min() == 0


def test_kernel_vertex_following(benchmark):
    g = _graph().to_csr()

    comm = benchmark(vertex_following_seed, g)
    assert len(comm) == g.num_vertices


def test_kernel_coarsen(benchmark):
    g = _graph().to_csr()
    rng = np.random.default_rng(0)
    assignment = rng.integers(0, 100, g.num_vertices)

    meta, _ = benchmark(coarsen_csr, g, assignment)
    assert meta.num_vertices == 100


def test_kernel_csr_construction(benchmark):
    el = _graph()

    g = benchmark(
        CSRGraph.from_edges, el.num_vertices, el.u, el.v, el.w
    )
    assert g.num_vertices == el.num_vertices


def test_kernel_edgelist_dedup(benchmark):
    rng = np.random.default_rng(2)
    n, m = 2000, 40_000
    u = rng.integers(0, n, m)
    v = rng.integers(0, n, m)

    el = benchmark(EdgeList.from_arrays, n, u, v)
    assert el.num_edges > 0


# ----------------------------------------------------------------------
# The simulated runtime's own number: wall cost of one collective
# ----------------------------------------------------------------------
COLLECTIVES_PER_RUN = 200

PAYLOADS = {
    "empty": np.empty(0, dtype=np.int64),
    "1kB": np.arange(128, dtype=np.int64),
}


def _collective_call(op: str, payload: np.ndarray):
    """``call(comm)`` issuing one collective of kind ``op``."""
    if op == "barrier":
        return lambda comm: comm.barrier()
    if op == "bcast":
        return lambda comm: comm.bcast(payload if comm.rank == 0 else None)
    if op == "gather":
        return lambda comm: comm.gather(payload)
    if op == "allreduce":
        return lambda comm: comm.allreduce(payload)
    if op == "allgather":
        return lambda comm: comm.allgather(payload)
    if op == "alltoall":
        return lambda comm: comm.alltoall([payload] * comm.size)
    assert op == "exchange_roundtrip"
    return lambda comm: comm.exchange_roundtrip([payload] * comm.size, list)


@pytest.mark.parametrize("payload", sorted(PAYLOADS))
@pytest.mark.parametrize("p", [2, 4, 8])
@pytest.mark.parametrize(
    "op", [
        "barrier", "bcast", "gather", "allreduce", "allgather", "alltoall",
        "exchange_roundtrip",
    ],
)
def test_kernel_collective(
    benchmark, monkeypatch, record_bench, op, p, payload
):
    """Wall ns and ``message_bytes`` calls per collective, ``machine=FREE``
    (200 collectives per ``run_spmd``, so thread start-up is amortised);
    appended to ``BENCH_generators.json`` as ``kind: collective``."""
    from repro.runtime import comm as comm_mod

    call = _collective_call(op, PAYLOADS[payload])
    walls: list[int] = []

    def prog(comm):
        for _ in range(COLLECTIVES_PER_RUN):
            call(comm)
        return comm.trace.collectives[op]

    def run():
        t0 = time.perf_counter_ns()
        r = run_spmd(p, prog, machine=FREE, timeout=30.0)
        walls.append(time.perf_counter_ns() - t0)
        return r

    r = benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
    assert r.values == [COLLECTIVES_PER_RUN] * p

    # One extra, untimed run counts the sizing calls.
    sized: list[int] = []
    sizer = comm_mod.message_bytes
    monkeypatch.setattr(
        comm_mod, "message_bytes", lambda obj: sized.append(1) or sizer(obj)
    )
    run_spmd(p, prog, machine=FREE, timeout=30.0)
    # Drop the warm-up round (absent under --benchmark-disable).
    ns = float(np.median(walls[1:] or walls)) / COLLECTIVES_PER_RUN
    sizings = len(sized) / COLLECTIVES_PER_RUN
    benchmark.extra_info.update(
        wall_ns_per_collective=ns, message_bytes_calls_per_collective=sizings
    )
    print(
        f"\ncollective {op:<18} p={p} payload={payload:<5} "
        f"{ns:>10.0f} ns/collective {sizings:>6.1f} message_bytes calls"
    )
    record_bench("generators", {
        "kind": "collective", "op": op, "ranks": p, "payload": payload,
        "collectives_per_run": COLLECTIVES_PER_RUN,
        "wall_ns_per_collective": round(ns, 1),
        "message_bytes_calls_per_collective": sizings,
    })


# ----------------------------------------------------------------------
# The checkpoint layer: both clocks and bytes of one save, per medium
# ----------------------------------------------------------------------
SAVES_PER_RUN = 12


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("form", ["full", "delta"])
@pytest.mark.parametrize("medium", ["disk", "snapshot"])
def test_kernel_checkpoint_save(benchmark, tmp_path, medium, form, p):
    """One mid-phase save on web-wiki small (the ``service_mix`` graph):
    wall µs under ``machine=FREE`` (as every earlier record of the disk
    rows), the bytes it moves, and — from one more, untimed run on the
    ``CORI_HASWELL`` — the modelled seconds charged to ``checkpoint`` on
    rank 0.  ``full`` opens a new phase with every save, so each one
    takes in the rank's graph slice; ``delta`` stays in the phase an
    untimed first save opened.

    ``disk`` is a :class:`CheckpointManager` (bytes: the shards written);
    ``snapshot`` a :class:`RunSnapshots`, what an engine retry resumes
    from (bytes: copied, and beside them what the generation holds by
    reference).  Either way one manager, built before the world starts,
    serves every rank.  The labels are a late phase-0 state (a finished run's
    communities named by their smallest member), so the arrays compress
    as real ones do."""
    g = make_graph("web-wiki-en-2013", scale="small", seed=1)
    n = g.num_vertices
    assignment = _labels_by_min_member(g)
    tot = np.bincount(assignment, weights=g.degrees(), minlength=n)
    size = np.bincount(assignment, minlength=n)
    stats = [
        IterationStats(
            phase=0, iteration=i, modularity=0.5 + 0.01 * i, moves=n >> i,
            active_fraction=1.0, inactive_fraction=0.0,
        )
        for i in range(8)
    ]
    walls: list[int] = []
    nbytes: list[int] = []
    modelled: list[float] = []
    referenced: list[int] = []

    def prog(comm, manager, walls, modelled):
        dg = DistGraph.distribute(comm, g)
        lo, hi = dg.vbegin, dg.vend

        run = RunState(dg=dg, orig_slice=np.arange(lo, hi, dtype=np.int64))
        state = IterationState(
            local_comm=assignment[lo:hi], tot_owned=tot[lo:hi],
            size_owned=size[lo:hi], prev_q=0.56, q=0.57, stats=stats,
        )

        def cut(phase, iteration):
            run.phase, state.iteration = phase, iteration
            _save_checkpoint(manager, comm, run, state)

        cut(0, 0)
        for i in range(1, SAVES_PER_RUN + 1):
            comm.barrier()
            charged = comm.trace.seconds["checkpoint"]
            t0 = time.perf_counter_ns()
            cut(i if form == "full" else 0, i)
            if comm.rank == 0:
                walls.append(time.perf_counter_ns() - t0)
                modelled.append(comm.trace.seconds["checkpoint"] - charged)
            if medium == "snapshot":
                # A deposit is rank-local: wait for the last one.
                comm.barrier()
            if comm.rank == 0 and medium == "disk":
                root = manager.directory
                newest = max(os.listdir(root))
                nbytes.append(sum(
                    s.nbytes
                    for s in read_manifest(os.path.join(root, newest)).shards
                ))
            elif comm.rank == 0:
                held, copied = _generation_bytes(manager)
                referenced.append(held)
                nbytes.append(copied)

    def run(machine, walls, modelled):
        root = tempfile.mkdtemp(dir=tmp_path)
        cadence = dict(
            every_iterations=1, config_key=LouvainConfig().cache_key()
        )
        manager = (
            CheckpointManager(root, **cadence)
            if medium == "disk"
            else RunSnapshots(**cadence)
        )
        run_spmd(
            p, prog, manager, walls, modelled,
            machine=machine, timeout=60.0,
        )
        assert bool(os.listdir(root)) == (medium == "disk")

    benchmark.pedantic(
        run, args=(FREE, walls, []), rounds=3, iterations=1, warmup_rounds=1
    )
    run(CORI_HASWELL, [], modelled)
    # Drop the warm-up round (absent under --benchmark-disable).
    timed = walls[SAVES_PER_RUN:] or walls
    us = float(np.median(timed)) / 1e3
    per_save = int(np.median(nbytes))
    held = int(np.median(referenced)) if referenced else 0
    charged_us = float(np.median(modelled)) * 1e6
    benchmark.extra_info.update(
        wall_us_per_save=us, bytes_per_save=per_save,
        bytes_referenced_per_save=held, modelled_us_per_save=charged_us,
    )
    print(
        f"\ncheckpoint save {medium:<8} {form:<5} p={p} {us:>9.0f} us/save "
        f"{charged_us:>8.2f} modelled us/save {per_save:>8d} bytes "
        f"{'written' if medium == 'disk' else 'copied'}/save"
        + (f" {held:>8d} bytes by reference" if medium == "snapshot" else "")
    )


def _generation_bytes(snapshots: RunSnapshots) -> tuple[int, int]:
    """``(bytes held by reference, bytes copied)`` of the newest
    generation, over all ranks."""
    manifest, parts = snapshots._latest
    held = sum(
        arrays[name].nbytes
        for _, (_, arrays), _ in parts.values()
        for name in sorted(arrays)
    )
    return held, sum(shard.nbytes for shard in manifest.shards)


def _labels_by_min_member(g: CSRGraph) -> np.ndarray:
    """A finished detection's communities, each named by its smallest
    member (the id space live ``local_comm`` arrays use)."""
    from repro.core.sequential import louvain

    labels = louvain(g).assignment
    first = np.full(labels.max() + 1, g.num_vertices, dtype=np.int64)
    np.minimum.at(first, labels, np.arange(g.num_vertices))
    return first[labels]
