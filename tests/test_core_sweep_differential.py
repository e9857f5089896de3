"""Differential test: the shipped sweep kernel against the two-lexsort oracle.

The rewrite of ``repro.core.sweep.propose_moves`` (one fused-key sort,
sort-free argmax, per-phase plan with reused scratch memory) keeps the arithmetic of the old kernel
— same floats summed in the same order — so on every input the oracle in
``tests/oracles/sweep_reference.py`` accepts, ``proposal``, ``moved``
and ``pairs_evaluated`` must be *equal*, not close.  The generator aims
at the places an order or grouping slip would show: self loops, parallel
edges, zero and non-integer weights, isolated vertices, exact score
ties, singleton-singleton swap pairs and the sparse community ids a rank
sees at p > 1.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.core import LouvainConfig, Variant, distlouvain, run_louvain
from repro.core.distlouvain import _sweep_step
from repro.core.sweep import (
    SweepPlan, SweepSlice, SweepWorkspace, array_lookup, propose_moves,
)
from repro.runtime import FREE

from .conftest import planted_blocks_graph
from .oracles.sweep_reference import propose_moves as reference_propose_moves

SEEDS = range(40)
ACTIVE_KINDS = ("all", "quarter", "none")
RESOLUTIONS = (0.5, 1.0, 2.0)


def adversarial_edges(seed: int):
    """``(rng, n, u, v, w)``: a small undirected edge list with self
    loops, parallel edges, zero and fractional weights and isolated
    vertices.  ``rng`` comes back so a caller can keep drawing from the
    same stream."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    m = int(rng.integers(0, 4 * n))
    u = rng.integers(0, n, m)
    v = rng.integers(0, n, m)
    # Isolated vertices: the top few ids get no edges at all.
    isolated = int(rng.integers(0, 3))
    if isolated and n > isolated + 1:
        u %= n - isolated
        v %= n - isolated
    # Self loops and parallel edges (the CSR keeps duplicates).
    loops = rng.random(m) < 0.1
    v[loops] = u[loops]
    if m:
        dup = rng.integers(0, m, m // 4)
        u = np.concatenate([u, u[dup]])
        v = np.concatenate([v, v[dup]])
    # Unit weights make exact score ties (and, from singletons, swap
    # pairs) common; the other kinds add zero and fractional weights.
    weight_kind = seed % 3
    if weight_kind == 0:
        w = np.ones(len(u))
    elif weight_kind == 1:
        w = rng.integers(0, 4, len(u)).astype(np.float64)  # zeros included
    else:
        w = rng.random(len(u)) * 3.0
    return rng, n, u, v, w


def adversarial_case(seed: int) -> dict:
    """One small sweep input; every array the kernel takes, by keyword."""
    rng, n, u, v, w = adversarial_edges(seed)

    # Symmetric CSR with duplicates kept, rows in insertion order.
    keep = u != v
    src = np.concatenate([u, v[keep]])
    dst = np.concatenate([v, u[keep]])
    ww = np.concatenate([w, w[keep]])
    order = np.argsort(src, kind="stable")
    src, dst, ww = src[order], dst[order], ww[order]
    index = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=index[1:])
    degrees = np.bincount(src, weights=ww, minlength=n)

    # Communities: singletons, a few blobs, or a mid-run mix; labels are
    # then spread over a sparse id space (rank-local views at p > 1 hold
    # ids far apart), order-preserving or shuffled.
    state = seed % 4
    if state == 0:
        comm = np.arange(n)
    elif state == 1:
        comm = rng.integers(0, max(1, n // 4), n)
    else:
        comm = np.where(rng.random(n) < 0.5, np.arange(n), rng.integers(0, n, n))
    if seed % 2:
        spread = np.sort(rng.choice(50 * n, size=n, replace=False))
        if seed % 5 == 0:
            rng.shuffle(spread)
        comm = spread[comm]
    comm = comm.astype(np.int64)

    # Dense tables over the whole id range, NaN where no community lives.
    ids, inv = np.unique(comm, return_inverse=True)
    tot = np.full(int(ids[-1]) + 1, np.nan)
    size = np.full(int(ids[-1]) + 1, np.nan)
    tot[ids] = np.bincount(inv, weights=degrees)
    size[ids] = np.bincount(inv)
    return dict(
        index=index,
        target_comm=comm[dst],
        weights=ww,
        self_mask=dst == src,
        degrees=degrees,
        cur_comm=comm,
        total_weight=float(ww.sum()),
        tot_lookup=array_lookup(None, tot),
        size_lookup=array_lookup(None, size),
    )


def active_mask(kind: str, n: int, seed: int) -> np.ndarray | None:
    if kind == "all":
        return None if seed % 2 else np.ones(n, dtype=bool)
    if kind == "none":
        return np.zeros(n, dtype=bool)
    return np.random.default_rng(seed + 1000).random(n) < 0.25


def assert_same(got, want) -> None:
    np.testing.assert_array_equal(got.proposal, want.proposal)
    np.testing.assert_array_equal(got.moved, want.moved)
    assert got.pairs_evaluated == want.pairs_evaluated
    assert got.num_moves == want.num_moves


@pytest.mark.parametrize("active_kind", ACTIVE_KINDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_matches_reference(seed, active_kind):
    case = adversarial_case(seed)
    n = len(case["cur_comm"])
    active = active_mask(active_kind, n, seed)
    resolution = RESOLUTIONS[seed % len(RESOLUTIONS)]
    want = reference_propose_moves(
        **case, active=active, resolution=resolution
    )
    got = propose_moves(**case, active=active, resolution=resolution)
    assert_same(got, want)
    # A pre-built plan (the per-phase path) changes nothing.
    plan = SweepPlan.build(case["index"], case["weights"], case["self_mask"])
    planned = propose_moves(
        **case, active=active, resolution=resolution, plan=plan
    )
    assert_same(planned, want)


@pytest.mark.parametrize("words", [0, 3, None])
def test_one_plan_serves_many_sweeps(words, monkeypatch):
    """A plan's scratch memory is reused call after call: sweeps of every
    shape through one plan must not see each other's leftovers, nor care
    whether the scratch holds all, some or none of their temporaries."""
    if words is not None:
        monkeypatch.setattr("repro.core.sweep.SCRATCH_WORDS", words)
    for seed in range(0, 40, 5):
        case = adversarial_case(seed)
        n = len(case["cur_comm"])
        plan = SweepPlan.build(
            case["index"], case["weights"], case["self_mask"]
        )
        for kind in ACTIVE_KINDS * 2:
            active = active_mask(kind, n, seed)
            assert_same(
                propose_moves(**case, active=active, plan=plan),
                reference_propose_moves(**case, active=active),
            )


def test_narrow_id_dtype():
    """int32 community arrays (a caller's choice) give the same answer."""
    case = adversarial_case(4)
    narrow = dict(
        case,
        cur_comm=case["cur_comm"].astype(np.int32),
        target_comm=case["target_comm"].astype(np.int32),
    )
    active = active_mask("quarter", len(case["cur_comm"]), 4)
    for mask in (None, active):
        got = propose_moves(**narrow, active=mask)
        assert_same(got, reference_propose_moves(**case, active=mask))
        assert got.proposal.dtype == np.int32


@pytest.mark.parametrize("seed", range(0, 40, 3))
def test_ids_too_wide_to_pack_under_the_sort_key(seed):
    """Ids near the int64 limit leave no low bits for the entry position,
    so the kernel must sort with its stable-argsort fallback: same answer."""
    case = adversarial_case(seed)
    n = len(case["cur_comm"])
    ids = np.unique(case["cur_comm"])
    # Order-preserving stretch: n * (max id + 1) lands within 16x of 2**63.
    stretch = (2**63 // (16 * n)) // (int(ids[-1]) + 1)
    tot, size = case["tot_lookup"](ids), case["size_lookup"](ids)
    case.update(
        cur_comm=case["cur_comm"] * stretch,
        target_comm=case["target_comm"] * stretch,
        tot_lookup=lambda q: tot[np.searchsorted(ids * stretch, q)],
        size_lookup=lambda q: size[np.searchsorted(ids * stretch, q)],
    )
    for kind in ACTIVE_KINDS:
        active = active_mask(kind, n, seed)
        assert_same(
            propose_moves(**case, active=active),
            reference_propose_moves(**case, active=active),
        )


def test_generator_reaches_the_hard_cases():
    """The comparison above is only worth something if the cases occur."""
    seen = dict.fromkeys(
        ("self_loop", "parallel_edge", "zero_weight", "fraction_weight",
         "isolated", "sparse_ids", "moves", "masked_moves"),
        False,
    )
    for seed in SEEDS:
        case = adversarial_case(seed)
        index, w = case["index"], case["weights"]
        n = len(index) - 1
        rows = np.repeat(np.arange(n), np.diff(index))
        entry = rows * (int(case["target_comm"].max(initial=0)) + 1)
        entry = (entry + case["target_comm"])[~case["self_mask"]]
        seen["self_loop"] |= bool(case["self_mask"].any())
        seen["parallel_edge"] |= len(np.unique(entry)) < len(entry)
        seen["zero_weight"] |= bool((w == 0).any())
        seen["fraction_weight"] |= bool((w != np.round(w)).any())
        seen["isolated"] |= bool((np.diff(index) == 0).any())
        seen["sparse_ids"] |= bool(case["cur_comm"].max() >= 2 * n)
        seen["moves"] |= propose_moves(**case).num_moves > 0
        quarter = active_mask("quarter", n, seed)
        seen["masked_moves"] |= (
            propose_moves(**case, active=quarter).num_moves > 0
        )
    assert all(seen.values()), seen


def test_tie_and_swap_pair_with_sparse_ids():
    """Known answers: an exact tie goes to the smallest id (here the
    vertex's own), and of two linked singletons only the larger moves."""
    case = _path_case()
    res = propose_moves(**case)
    assert_same(res, reference_propose_moves(**case))
    np.testing.assert_array_equal(res.proposal, [10, 10, 10, 40, 40])


# ----------------------------------------------------------------------
# The world sweep: every rank's slice in one call
# ----------------------------------------------------------------------
def rank_slices(case: dict, p: int) -> list[dict]:
    """The case's rows cut into ``p`` contiguous slices (empty ones when
    ``p`` exceeds the rows), each as a rank holds it: its CSR slice, its
    communities numbered densely in ascending id order (as the per-rank
    reference iteration numbers them) and their ``(a_c, |c|)`` table."""
    index = case["index"]
    bounds = np.cumsum([0] + [len(r) for r in np.array_split(
        np.arange(len(index) - 1), p
    )])
    slices = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        e0, e1 = index[lo], index[hi]
        cur = case["cur_comm"][lo:hi]
        target = case["target_comm"][e0:e1]
        ids = np.unique(np.concatenate([cur, target]))
        slices.append(dict(
            index=index[lo:hi + 1] - e0,
            weights=case["weights"][e0:e1],
            self_mask=case["self_mask"][e0:e1],
            degrees=case["degrees"][lo:hi],
            cur=np.searchsorted(ids, cur),
            target=np.searchsorted(ids, target),
            ids=ids,
            info=np.stack([case["tot_lookup"](ids), case["size_lookup"](ids)]),
            rows=slice(lo, hi),
        ))
    return slices


def world_sweep(slices, active, total_weight, resolution):
    """Each rank's ``(proposal, moved, pairs)`` from a round's sweep step
    (:func:`_sweep_step`) over every rank's slice, laid end to end as a
    phase lays them (``SweepWorkspace.stack``), in the raw community ids
    against the ``(a_c, |c|)`` tables indexed by id (NaN where no
    community lives), as the world holds them."""
    stack = SweepWorkspace().stack([
        SweepSlice(
            s["index"], s["weights"], np.flatnonzero(~s["self_mask"]),
            np.repeat(np.arange(len(s["index"]) - 1), np.diff(s["index"])),
            s["degrees"],
        )
        for s in slices
    ])
    top = 1 + max(int(s["ids"].max()) for s in slices if len(s["ids"]))
    tot, size = np.full(top, np.nan), np.full(top, np.nan)
    for r, s in enumerate(slices):
        target, cur, rank_active = stack.segment(r)
        target[:], cur[:] = s["ids"][s["target"]], s["ids"][s["cur"]]
        rank_active[:] = active[s["rows"]]
        tot[s["ids"]], size[s["ids"]] = s["info"]
    res = _sweep_step(stack, tot, size, total_weight, resolution)
    cuts = stack.row_cuts
    return [
        (res.proposal[a:b].copy(), res.moved[a:b].copy(), int(pairs))
        for a, b, pairs in zip(cuts[:-1], cuts[1:], res.segment_pairs)
    ]


@pytest.mark.parametrize("p", [1, 2, 3, 7])
@pytest.mark.parametrize("active_kind", ACTIVE_KINDS)
def test_world_sweep_matches_each_rank_alone(p, active_kind):
    """One call over every rank's entries, in global ids, hands each rank
    the proposals, moved mask and pair count its own ``propose_moves``
    gives in its dense numbering — on self
    loops, parallel edges, zero and fractional weights, exact ties,
    ``resolution != 1``, all-false masks and empty slices."""
    empty_slices = 0
    for seed in range(0, 40, 2):
        case = adversarial_case(seed)
        n = len(case["cur_comm"])
        active = active_mask(active_kind, n, seed)
        active = np.ones(n, dtype=bool) if active is None else active
        resolution = RESOLUTIONS[seed % len(RESOLUTIONS)]
        slices = rank_slices(case, p)
        empty_slices += sum(len(s["cur"]) == 0 for s in slices)
        got = world_sweep(slices, active, case["total_weight"], resolution)
        for s, (proposal, moved, pairs) in zip(slices, got):
            want = propose_moves(
                index=s["index"], target_comm=s["target"],
                weights=s["weights"], self_mask=s["self_mask"],
                degrees=s["degrees"], cur_comm=s["cur"],
                total_weight=case["total_weight"],
                tot_lookup=array_lookup(s["ids"], s["info"][0]),
                size_lookup=array_lookup(s["ids"], s["info"][1]),
                active=active[s["rows"]], resolution=resolution,
            )
            np.testing.assert_array_equal(proposal, s["ids"][want.proposal])
            np.testing.assert_array_equal(moved, want.moved)
            assert pairs == want.pairs_evaluated
    assert (empty_slices > 0) == (p == 7)


def test_concurrent_detections_do_not_share_a_workspace(monkeypatch):
    """Two detections in two threads at once — each world's sweeps in its
    own workspace — end exactly as they do one after the other.  Every
    sweep sleeps a little, so the two worlds' rounds interleave."""
    jobs = [
        (planted_blocks_graph(blocks=6, per_block=20, seed=1), 3,
         LouvainConfig()),
        (planted_blocks_graph(blocks=5, per_block=30, seed=2), 4,
         LouvainConfig(variant=Variant.ETC, alpha=0.5, seed=3)),
    ]
    want = [run_louvain(g, p, cfg, machine=FREE) for g, p, cfg in jobs]

    real = distlouvain._sweep_step
    sweeps = []

    def yielding(stack, *args):
        sweeps.append(len(stack.row_cuts) - 1)
        time.sleep(0.0005)
        return real(stack, *args)

    monkeypatch.setattr(distlouvain, "_sweep_step", yielding)
    got: list = [None, None]

    def detect(i: int) -> None:
        g, p, cfg = jobs[i]
        try:
            got[i] = run_louvain(g, p, cfg, machine=FREE)
        except BaseException as exc:  # surfaced by the asserts below
            got[i] = exc

    threads = [threading.Thread(target=detect, args=(i,)) for i in range(2)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    # Both worlds swept through the patch: it is the iteration's hook.
    assert {3, 4} <= set(sweeps)
    for result, ref in zip(got, want):
        assert not isinstance(result, BaseException), result
        np.testing.assert_array_equal(result.assignment, ref.assignment)
        assert result.modularity == ref.modularity
        assert result.iterations == ref.iterations


def _path_case() -> dict:
    """Path 1 - 0 - 2 (parallel edge 0-1 split in two halves) plus the
    isolated pair 3 - 4, singletons with sparse ids 10, 20, 30, 40, 50."""
    src = np.array([0, 0, 0, 1, 1, 2, 3, 4])
    dst = np.array([1, 1, 2, 0, 0, 0, 4, 3])
    ww = np.array([0.5, 0.5, 1.0, 0.5, 0.5, 1.0, 1.0, 1.0])
    n = 5
    index = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=index[1:])
    comm = np.array([10, 20, 30, 40, 50])
    degrees = np.bincount(src, weights=ww, minlength=n)
    tot = np.full(51, np.nan)
    size = np.full(51, np.nan)
    tot[comm] = degrees
    size[comm] = 1
    return dict(
        index=index, target_comm=comm[dst], weights=ww,
        self_mask=dst == src, degrees=degrees, cur_comm=comm,
        total_weight=float(ww.sum()),
        tot_lookup=array_lookup(None, tot),
        size_lookup=array_lookup(None, size),
    )
