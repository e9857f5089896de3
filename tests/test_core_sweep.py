"""Unit tests for the snapshot move-selection kernel."""

import numpy as np
import pytest

from repro.core import array_lookup, move_gain, propose_moves
from repro.core import sweep
from repro.core.sweep import SweepPlan
from repro.graph import CSRGraph, EdgeList

from .fingerprints import GRAPHS, graph


def dense_sweep(g: CSRGraph, comm: np.ndarray, active=None):
    """Helper: run propose_moves with dense (shared-memory) lookups."""
    n = g.num_vertices
    k = g.degrees()
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.index))
    tot = np.zeros(n)
    np.add.at(tot, comm, k)
    size = np.bincount(comm, minlength=n)
    return propose_moves(
        index=g.index,
        target_comm=comm[g.edges],
        weights=g.weights,
        self_mask=g.edges == rows,
        degrees=k,
        cur_comm=comm,
        total_weight=g.total_weight,
        tot_lookup=lambda ids: tot[ids],
        size_lookup=lambda ids: size[ids],
        active=active,
    )


class TestProposeMoves:
    def test_singleton_joins_adjacent_clique(self, two_cliques):
        comm = np.array([9] + [0] * 4 + [5] * 5, dtype=np.int64)
        res = dense_sweep(two_cliques, comm)
        assert res.proposal[0] == 0
        assert res.moved[0]

    def test_settled_partition_stable(self, two_cliques):
        comm = np.array([0] * 5 + [5] * 5, dtype=np.int64)
        res = dense_sweep(two_cliques, comm)
        assert res.num_moves == 0
        np.testing.assert_array_equal(res.proposal, comm)

    def test_moves_only_with_positive_gain(self, planted_blocks):
        # From singletons, every accepted move must not decrease Q when
        # applied alone (the score is gain-equivalent).
        g = planted_blocks
        comm = np.arange(g.num_vertices, dtype=np.int64)
        res = dense_sweep(g, comm)
        rng = np.random.default_rng(0)
        movers = np.flatnonzero(res.moved)
        for u in rng.choice(movers, size=min(10, len(movers)), replace=False):
            gain = move_gain(g, comm, int(u), int(res.proposal[u]))
            assert gain > 0

    def test_chosen_move_is_argmax(self, planted_blocks):
        # The proposed target must beat every other candidate in exact ΔQ.
        g = planted_blocks
        comm = np.arange(g.num_vertices, dtype=np.int64)
        res = dense_sweep(g, comm)
        u = int(np.flatnonzero(res.moved)[0])
        nbrs, _ = g.neighbors(u)
        best = move_gain(g, comm, u, int(res.proposal[u]))
        for t in set(int(comm[v]) for v in nbrs if v != u):
            assert best >= move_gain(g, comm, u, t) - 1e-9

    def test_inactive_vertices_frozen(self, two_cliques):
        comm = np.array([9] + [0] * 4 + [5] * 5, dtype=np.int64)
        active = np.ones(10, dtype=bool)
        active[0] = False
        res = dense_sweep(two_cliques, comm, active)
        assert not res.moved[0]
        assert res.proposal[0] == 9

    def test_all_inactive_noop(self, two_cliques):
        comm = np.arange(10, dtype=np.int64)
        res = dense_sweep(two_cliques, comm, np.zeros(10, dtype=bool))
        assert res.num_moves == 0
        assert res.pairs_evaluated == 0

    def test_singleton_swap_suppressed(self):
        # Two connected singletons: only the larger id may move.
        g = EdgeList.from_arrays(2, [0], [1]).to_csr()
        comm = np.arange(2, dtype=np.int64)
        res = dense_sweep(g, comm)
        assert res.proposal[0] == 0  # vertex 0 stays (target id larger)
        assert res.proposal[1] == 0  # vertex 1 moves down
        # One more sweep from the merged state: stable.
        res2 = dense_sweep(g, res.proposal)
        assert res2.num_moves == 0

    def test_tie_breaks_to_smallest_community(self):
        # Path 1 - 0 - 2: vertex 0 gains equally joining 1 or 2.
        g = EdgeList.from_arrays(3, [0, 0], [1, 2]).to_csr()
        comm = np.arange(3, dtype=np.int64)
        res = dense_sweep(g, comm)
        assert res.proposal[0] == 0 or res.proposal[0] == 1
        # Tie-break rule: among equal scores the smallest community wins,
        # and vertex 0's own community (0) is the smallest — no move.
        # Vertices 1 and 2 strictly gain by joining 0 (smaller id rule).
        assert res.proposal[1] == 0
        assert res.proposal[2] == 0

    def test_empty_graph(self):
        g = CSRGraph.empty(0)
        res = dense_sweep(g, np.empty(0, dtype=np.int64))
        assert res.num_moves == 0

    def test_isolated_vertices_never_move(self):
        g = CSRGraph.empty(4)
        comm = np.arange(4, dtype=np.int64)
        res = dense_sweep(g, comm)
        assert res.num_moves == 0

    def test_self_loop_only_vertex_stays(self):
        g = CSRGraph.from_edges(2, [0, 0], [0, 1], [5.0, 1.0])
        comm = np.arange(2, dtype=np.int64)
        res = dense_sweep(g, comm)
        # Vertex 1 joining 0 is profitable; 0 must not chase its loop.
        assert res.proposal[0] == 0


class TestLookups:
    """``array_lookup``: dense tables where an unfetched slot is NaN."""

    def test_array_lookup_hits(self):
        look = array_lookup(
            np.array([2, 5, 9]), np.array([20.0, 50.0, 90.0])
        )
        np.testing.assert_allclose(
            look(np.array([2, 0, 1, 0])), [90.0, 20.0, 50.0, 20.0]
        )

    def test_array_lookup_miss_raises(self):
        # Slot 1 (community 5 before renumbering) was never fetched.
        look = array_lookup(np.array([2, 5, 9]), np.array([1.0, np.nan, 2.0]))
        with pytest.raises(KeyError, match=r"missing for ids \[5\]"):
            look(np.array([0, 1, 1, 2]))

    def test_array_lookup_miss_past_end(self):
        look = array_lookup(np.array([2, 5]), np.array([1.0, 2.0]))
        with pytest.raises(IndexError):
            look(np.array([99]))

    def test_array_lookup_empty_table(self):
        look = array_lookup(np.empty(0, np.int64), np.empty(0))
        assert len(look(np.empty(0, np.int64))) == 0
        with pytest.raises(IndexError):
            look(np.array([1]))

    def test_array_lookup_dense(self):
        look = array_lookup(None, np.array([10.0, 20.0, 30.0]))
        np.testing.assert_allclose(look(np.array([2, 0])), [30.0, 10.0])
        # Without names the missing slot itself is reported.
        look = array_lookup(None, np.array([10.0, np.nan]))
        with pytest.raises(KeyError, match=r"\[1\]"):
            look(np.array([1]))

    def test_sweep_refuses_an_unfetched_community(self, two_cliques):
        # Drop one candidate's totals from the fetched set: the kernel
        # must name it, not score against the NaN.
        g = two_cliques
        n = g.num_vertices
        comm = np.arange(n, dtype=np.int64)
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.index))
        tot = g.degrees().copy()
        tot[3] = np.nan
        with pytest.raises(KeyError, match=r"missing for ids \[3\]"):
            propose_moves(
                index=g.index,
                target_comm=comm[g.edges],
                weights=g.weights,
                self_mask=g.edges == rows,
                degrees=g.degrees(),
                cur_comm=comm,
                total_weight=g.total_weight,
                tot_lookup=array_lookup(None, tot),
                size_lookup=array_lookup(None, np.ones(n)),
            )

    def test_sweep_refuses_arrays_that_do_not_match_the_csr(self, two_cliques):
        # The kernel gathers with clipped indices, so a short array must
        # be turned away up front rather than read past its end.
        g = two_cliques
        n = g.num_vertices
        comm = np.arange(n, dtype=np.int64)
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.index))
        good = dict(target_comm=comm[g.edges], cur_comm=comm)
        for name in good:
            with pytest.raises(ValueError, match="do not match the CSR"):
                propose_moves(
                    index=g.index,
                    weights=g.weights,
                    self_mask=g.edges == rows,
                    degrees=g.degrees(),
                    total_weight=g.total_weight,
                    tot_lookup=array_lookup(None, g.degrees()),
                    size_lookup=array_lookup(None, np.ones(n)),
                    **{**good, name: good[name][:-1]},
                )

    def test_shape_is_checked_on_a_graph_without_weight(self):
        # Nothing is scored when W = 0, but a malformed call is still one:
        # five target communities against a two-entry CSR.
        with pytest.raises(ValueError, match="do not match the CSR"):
            propose_moves(
                index=np.array([0, 1, 2]),
                target_comm=np.zeros(5, dtype=np.int64),
                weights=np.zeros(2),
                self_mask=np.zeros(2, dtype=bool),
                degrees=np.zeros(2),
                cur_comm=np.arange(2, dtype=np.int64),
                total_weight=0.0,
                tot_lookup=array_lookup(None, np.zeros(2)),
                size_lookup=array_lookup(None, np.ones(2)),
            )


class TestPairs:
    """``SweepResult.pairs``: the distinct (active row, community) pairs
    the sweep groups — each active row's own community and its entries'
    targets' (a self loop's is the row's own) — ascending."""

    @pytest.mark.parametrize("weight", [1.0, 0.0])
    def test_pairs_are_the_active_rows_candidates(self, weight):
        g = CSRGraph.from_edges(
            6, [0, 0, 1, 2, 3, 4, 4], [1, 2, 2, 2, 4, 5, 0],
            np.full(7, weight),
        )
        comm = np.array([0, 0, 2, 3, 3, 5], dtype=np.int64)
        active = np.array([True, False, True, True, False, True])
        res = dense_sweep(g, comm, active)
        rows = np.repeat(np.arange(6), np.diff(g.index))
        hit = active[rows]
        want = np.unique(np.concatenate([
            rows[hit] * 6 + comm[g.edges[hit]],
            np.flatnonzero(active) * 6 + comm[active],
        ]))
        pr, pc = res.pairs
        np.testing.assert_array_equal(pr * 6 + pc, want)
        assert res.pairs_evaluated == (len(want) if weight else 0)


class TestScratch:
    """The kernel's temporaries fit the plan's scratch: ``SCRATCH_WORDS``
    8-byte words per candidate entry (plus 4 kB)."""

    @staticmethod
    def _sweep(g, comm, plan, active):
        n = g.num_vertices
        k = g.degrees()
        return propose_moves(
            index=g.index,
            target_comm=comm[g.edges],
            weights=None,
            self_mask=None,
            degrees=k,
            cur_comm=comm,
            total_weight=g.total_weight,
            tot_lookup=np.bincount(comm, weights=k, minlength=n).take,
            size_lookup=np.bincount(comm, minlength=n).take,
            active=active,
            plan=plan,
        )

    def test_fingerprint_sweeps_never_outgrow_the_scratch(self, monkeypatch):
        # Every allocation's end in bytes; one past the buffer is a malloc.
        ends: list[int] = []
        outgrown: list[int] = []
        real = sweep._Scratch.empty

        def empty(self, n, dtype):
            ends.append(self.top + -(-n * dtype.itemsize // 64) * 64)
            if ends[-1] > len(self._buf):
                outgrown.append(n)
            return real(self, n, dtype)

        monkeypatch.setattr(sweep._Scratch, "empty", empty)
        worst = 0.0
        for name in GRAPHS:
            for weights in ("integer", "fractional"):
                g = graph(name, weights)
                n = g.num_vertices
                rows = np.repeat(np.arange(n), np.diff(g.index))
                plan = SweepPlan.build(
                    g.index, g.weights, g.edges == rows, rows=rows
                )
                quarter = np.random.default_rng(n).random(n) < 0.25
                comm = np.arange(n, dtype=np.int64)
                # Singleton labels, then mid-run ones: one and two
                # iterations on.
                for _ in range(3):
                    for active in (None, quarter):
                        ends.clear()
                        assert self._sweep(g, comm, plan, active).num_moves
                        worst = max(
                            worst, max(ends) / (8 * len(plan.entry_rows))
                        )
                    comm = self._sweep(g, comm, plan, None).proposal.copy()
        assert not outgrown
        # The constant is the measured worst case, not a loose bound.
        assert sweep.SCRATCH_WORDS - 1 < worst <= sweep.SCRATCH_WORDS
