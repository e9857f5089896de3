"""Unit tests for dynamic (incremental) community detection."""

import numpy as np
import pytest

from repro.core import modularity, run_louvain
from repro.core.dynamic import (
    ChurnAccumulator,
    ChurnStats,
    EdgeChurn,
    apply_churn,
    churn_statistics,
    incremental_louvain,
)
from repro.graph import CSRGraph
from repro.runtime import FREE

from .conftest import assert_valid_partition


class TestEdgeChurn:
    def test_validation(self):
        with pytest.raises(ValueError):
            EdgeChurn(add_u=np.array([1]), add_v=np.array([2]),
                      add_w=np.empty(0))
        with pytest.raises(ValueError):
            EdgeChurn(del_u=np.array([1]), del_v=np.empty(0, np.int64))

    def test_touched_vertices(self):
        churn = EdgeChurn(
            add_u=np.array([1]), add_v=np.array([5]),
            add_w=np.ones(1),
            del_u=np.array([2]), del_v=np.array([1]),
        )
        np.testing.assert_array_equal(churn.touched_vertices(), [1, 2, 5])

    def test_random_churn_shapes(self, planted_blocks):
        churn = EdgeChurn.random(planted_blocks, 0.02, 0.02, seed=1)
        m = planted_blocks.num_edges
        assert churn.num_deletions == int(0.02 * m)
        assert 0 < churn.num_insertions <= int(0.02 * m)

    def test_random_churn_deterministic(self, planted_blocks):
        a = EdgeChurn.random(planted_blocks, 0.05, 0.05, seed=7)
        b = EdgeChurn.random(planted_blocks, 0.05, 0.05, seed=7)
        np.testing.assert_array_equal(a.del_u, b.del_u)
        np.testing.assert_array_equal(a.add_u, b.add_u)


class TestApplyChurn:
    def test_insert_new_edge(self, two_cliques):
        churn = EdgeChurn(
            add_u=np.array([0]), add_v=np.array([9]),
            add_w=np.array([2.0]),
        )
        g2 = apply_churn(two_cliques, churn)
        assert g2.num_edges == two_cliques.num_edges + 1
        nbrs, w = g2.neighbors(0)
        assert 9 in nbrs

    def test_insert_accumulates_on_existing(self, two_cliques):
        churn = EdgeChurn(
            add_u=np.array([0]), add_v=np.array([1]),
            add_w=np.array([3.0]),
        )
        g2 = apply_churn(two_cliques, churn)
        assert g2.num_edges == two_cliques.num_edges
        nbrs, w = g2.neighbors(0)
        assert w[nbrs == 1][0] == pytest.approx(4.0)

    def test_delete_edge(self, two_cliques):
        churn = EdgeChurn(del_u=np.array([5]), del_v=np.array([0]))
        g2 = apply_churn(two_cliques, churn)
        assert g2.num_edges == two_cliques.num_edges - 1
        nbrs, _ = g2.neighbors(0)
        assert 5 not in nbrs

    def test_delete_missing_edge_ignored(self, two_cliques):
        churn = EdgeChurn(del_u=np.array([0]), del_v=np.array([9]))
        g2 = apply_churn(two_cliques, churn)
        assert g2.num_edges == two_cliques.num_edges

    def test_insertion_can_grow_vertex_set(self, two_cliques):
        churn = EdgeChurn(
            add_u=np.array([0]), add_v=np.array([15]),
            add_w=np.ones(1),
        )
        g2 = apply_churn(two_cliques, churn)
        assert g2.num_vertices == 16

    def test_empty_churn_identity(self, two_cliques):
        g2 = apply_churn(two_cliques, EdgeChurn())
        assert g2.num_edges == two_cliques.num_edges
        assert g2.total_weight == pytest.approx(two_cliques.total_weight)

    @staticmethod
    def _edge_by_edge(g, churn):
        """``apply_churn`` with every edge tested against the deleted
        pairs one by one — the formulation the fused key replaced."""
        eu, ev, ew = g.edge_array()
        gone = {
            (min(a, b), max(a, b))
            for a, b in zip(churn.del_u.tolist(), churn.del_v.tolist())
        }
        keep = np.array(
            [(a, b) not in gone for a, b in zip(eu.tolist(), ev.tolist())],
            dtype=bool,
        )
        survivors = CSRGraph.from_edges(
            g.num_vertices, eu[keep], ev[keep], ew[keep]
        )
        return apply_churn(survivors, EdgeChurn(
            add_u=churn.add_u, add_v=churn.add_v, add_w=churn.add_w,
        ))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_churn_equals_edge_by_edge(self, planted_blocks, seed):
        churn = EdgeChurn.random(planted_blocks, 0.05, 0.05, seed=seed)
        assert churn.num_deletions and churn.num_insertions
        got = apply_churn(planted_blocks, churn)
        want = self._edge_by_edge(planted_blocks, churn)
        assert got.fingerprint() == want.fingerprint()
        assert got.num_edges < planted_blocks.num_edges + churn.num_insertions

    def test_deletions_in_any_form_equal_edge_by_edge(self, planted_blocks):
        g = planted_blocks
        n = g.num_vertices
        eu, ev, _ = g.edge_array()
        present = (int(eu[-1]), int(ev[-1]))
        assert 1 <= present[0] < present[1]
        absent = next(
            (0, b) for b in range(1, n) if b not in g.neighbors(0)[0]
        )
        cases = {
            "as stored": ([present[0]], [present[1]]),
            "reversed": ([present[1]], [present[0]]),
            "repeated, both ways": (
                [present[0], present[1], present[0]],
                [present[1], present[0], present[1]],
            ),
            "missing": ([absent[0]], [absent[1]]),
            "beyond the graph": ([0, n + 7, 1], [n, n + 9, 2**62]),
            "negative": ([-1, -3], [2, -2]),
            # (a - 1, n + b) is not (a, b): a key folded on n alone
            # would say it is.
            "beyond the graph, aliasing": ([present[0] - 1], [n + present[1]]),
            "everything": (np.concatenate([eu, ev]), np.concatenate([ev, eu])),
        }
        removed = {"as stored": 1, "reversed": 1, "repeated, both ways": 1,
                   "everything": g.num_edges}
        for label, (du, dv) in cases.items():
            churn = EdgeChurn(del_u=np.array(du), del_v=np.array(dv))
            got = apply_churn(g, churn)
            assert got.fingerprint() == self._edge_by_edge(
                g, churn
            ).fingerprint(), label
            assert got.num_vertices == n, label
            assert got.num_edges == g.num_edges - removed.get(label, 0), label


class TestIncrementalLouvain:
    def test_stable_graph_keeps_partition(self, planted_blocks):
        base = run_louvain(planted_blocks, 4, machine=FREE)
        redo = incremental_louvain(
            planted_blocks, base.assignment, nranks=4, machine=FREE
        )
        # Nothing changed: the old partition is already converged, so
        # quality matches and the run is a couple of iterations.
        assert redo.modularity == pytest.approx(base.modularity, abs=0.01)
        assert redo.total_iterations <= 4

    def test_quality_after_small_churn(self, planted_blocks):
        base = run_louvain(planted_blocks, 4, machine=FREE)
        churn = EdgeChurn.random(planted_blocks, 0.02, 0.02, seed=3)
        g2 = apply_churn(planted_blocks, churn)
        inc = incremental_louvain(
            g2, base.assignment, nranks=4, machine=FREE,
            reset_touched=churn.touched_vertices(),
        )
        scratch = run_louvain(g2, 4, machine=FREE)
        assert_valid_partition(inc.assignment, g2.num_vertices)
        assert inc.modularity >= scratch.modularity - 0.02
        assert inc.modularity == pytest.approx(
            modularity(g2, inc.assignment), abs=1e-9
        )

    def test_fewer_iterations_than_scratch(self, planted_blocks):
        base = run_louvain(planted_blocks, 4, machine=FREE)
        churn = EdgeChurn.random(planted_blocks, 0.01, 0.01, seed=5)
        g2 = apply_churn(planted_blocks, churn)
        inc = incremental_louvain(
            g2, base.assignment, nranks=4, machine=FREE
        )
        scratch = run_louvain(g2, 4, machine=FREE)
        assert inc.total_iterations < scratch.total_iterations

    def test_new_vertices_become_singleton_seeds(self, two_cliques):
        base = run_louvain(two_cliques, 2, machine=FREE)
        # Attach two new vertices to clique 0.
        churn = EdgeChurn(
            add_u=np.array([0, 1]), add_v=np.array([10, 11]),
            add_w=np.ones(2),
        )
        g2 = apply_churn(two_cliques, churn)
        inc = incremental_louvain(g2, base.assignment, nranks=2,
                                  machine=FREE)
        assert len(inc.assignment) == 12
        # The new leaves join clique 0's community.
        assert inc.assignment[10] == inc.assignment[0]
        assert inc.assignment[11] == inc.assignment[1]

    def test_assignment_longer_than_graph_rejected(self, two_cliques):
        with pytest.raises(ValueError):
            incremental_louvain(
                two_cliques, np.zeros(99, dtype=np.int64), nranks=2,
                machine=FREE,
            )

    def test_arbitrary_labels_accepted(self, planted_blocks):
        labels = (np.arange(200) // 25) * 1000 - 7  # weird label space
        r = incremental_louvain(
            planted_blocks, labels, nranks=4, machine=FREE
        )
        assert r.modularity > 0.75


class TestChurnStatistics:
    def test_classification(self):
        prev = np.array([0, 0, 1, 1])
        churn = EdgeChurn(
            add_u=np.array([0, 0]), add_v=np.array([1, 2]),
            add_w=np.ones(2),
            del_u=np.array([2]), del_v=np.array([3]),
        )
        stats = churn_statistics(churn, prev)
        assert isinstance(stats, ChurnStats)
        assert stats.inter_inserted == 1  # 0-2 crosses communities
        assert stats.intra_deleted == 1  # 2-3 was intra
        assert stats.touched_vertices == 4

    def test_empty_previous(self):
        stats = churn_statistics(EdgeChurn(), np.empty(0, np.int64))
        assert stats.touched_fraction == 0.0


class TestChurnAccumulator:
    def test_empty(self):
        acc = ChurnAccumulator()
        assert not acc
        assert acc.net_size == 0 and acc.raw_size == 0
        batch = acc.batch()
        assert batch.num_insertions == 0 and batch.num_deletions == 0

    def test_repeated_add_counts_once(self):
        acc = ChurnAccumulator()
        acc.add(0, 1)
        acc.add(1, 0)  # same undirected edge, reversed
        acc.add(0, 1, w=2.0)
        assert acc.raw_size == 3
        assert acc.net_size == 1
        batch = acc.batch()
        assert batch.num_insertions == 1
        assert batch.add_w[0] == pytest.approx(4.0)  # weights accumulate

    def test_add_then_remove_nets_to_deletion(self):
        acc = ChurnAccumulator()
        acc.add(2, 3)
        acc.remove(3, 2)
        assert acc.net_size == 1
        batch = acc.batch()
        assert batch.num_insertions == 0
        assert batch.num_deletions == 1

    def test_remove_then_add_keeps_both(self):
        # Delete-then-insert is *replace*: apply_churn applies the
        # deletion first, so both operations must survive the window.
        acc = ChurnAccumulator()
        acc.remove(2, 3)
        acc.add(2, 3, w=5.0)
        assert acc.net_size == 1
        batch = acc.batch()
        assert batch.num_insertions == 1 and batch.num_deletions == 1

    def test_net_size_counts_distinct_keys(self):
        acc = ChurnAccumulator()
        acc.add_edges([0, 0, 1], [1, 1, 2])
        acc.remove_edges([5], [6])
        assert acc.raw_size == 4
        assert acc.net_size == 3  # (0,1), (1,2), (5,6)
        assert len(acc) == 3

    def test_batch_deterministic_order(self):
        a, b = ChurnAccumulator(), ChurnAccumulator()
        a.add_edges([3, 1, 2], [4, 2, 3])
        b.add_edges([2, 3, 1], [3, 4, 2])
        np.testing.assert_array_equal(a.batch().add_u, b.batch().add_u)
        np.testing.assert_array_equal(a.batch().add_v, b.batch().add_v)

    def test_take_clears(self):
        acc = ChurnAccumulator()
        acc.add(0, 1)
        batch = acc.take()
        assert batch.num_insertions == 1
        assert not acc
        assert acc.raw_size == 0

    def test_replay_equivalence(self, two_cliques):
        """Applying the accumulated net batch matches replaying the
        same operations one by one through apply_churn."""
        ops = [
            ("add", 0, 10, 1.0),
            ("add", 10, 0, 2.0),   # duplicate of the edge above
            ("add", 1, 6, 1.0),
            ("remove", 1, 6, None),   # cancels the pending insert
            ("remove", 0, 1, None),   # deletes a base-graph edge
            ("add", 0, 1, 7.0),       # ... then re-inserts it (replace)
        ]
        acc = ChurnAccumulator()
        replayed = two_cliques
        for op, u, v, w in ops:
            if op == "add":
                acc.add(u, v, w)
                replayed = apply_churn(
                    replayed,
                    EdgeChurn(
                        add_u=np.array([u]), add_v=np.array([v]),
                        add_w=np.array([float(w)]),
                    ),
                )
            else:
                acc.remove(u, v)
                replayed = apply_churn(
                    replayed,
                    EdgeChurn(
                        del_u=np.array([u]), del_v=np.array([v]),
                    ),
                )
        batched = apply_churn(two_cliques, acc.batch())
        assert batched.num_edges == replayed.num_edges
        np.testing.assert_array_equal(batched.index, replayed.index)
        np.testing.assert_array_equal(batched.edges, replayed.edges)
        np.testing.assert_allclose(batched.weights, replayed.weights)

    def test_threshold_scenario_net_vs_raw(self):
        """The satellite fix: thresholds fire on *net* churn, so an
        add/remove ping-pong of one edge cannot trigger re-detection."""
        acc = ChurnAccumulator()
        for _ in range(50):
            acc.add(0, 1)
            acc.remove(0, 1)
        assert acc.raw_size == 100
        assert acc.net_size == 1
