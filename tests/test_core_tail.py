"""The gathered tail: once the coarsened graph is cheaper on one rank,
rank 0 finishes the run alone on ``MPI_COMM_SELF`` (``core/tail.py``).

Only the modelled clock may tell.  Every outcome — assignment, every Q,
every iteration and phase record, ghost fractions and ET's draws
included — equals the same run with the rule switched off, and for the
RNG-free variants the one-rank run; a failure at the gather or the
broadcast resumes to the same outcome.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import EarlyTermination, LouvainConfig, Variant, run_louvain
from repro.core import distlouvain, tail
from repro.core.distlouvain import _cross_entries
from repro.core.heuristics import LayoutStreams, make_rank_rng
from repro.graph import DistGraph, EdgeList
from repro.graph.partition import even_vertex
from repro.resilience import FaultPlan, RunSnapshots
from repro.runtime import FREE, InjectedFault, RankFailedError
from repro.tune import costmodel

from tests import fingerprints
from tests.conftest import planted_blocks_graph

CONFIGS = {
    "baseline": LouvainConfig(),
    "threshold-cycling": LouvainConfig(variant=Variant.THRESHOLD_CYCLING),
    "coloring": LouvainConfig(use_coloring=True),
    "vf+leiden": LouvainConfig(vertex_following=True, refine="leiden"),
    "et": LouvainConfig(variant=Variant.ET, alpha=0.25, seed=3),
    "etc": LouvainConfig(variant=Variant.ETC, alpha=0.25, seed=3),
    "resolution 0.5": LouvainConfig(resolution=0.5),
    "tracked": LouvainConfig(track_assignments=True),
}


@pytest.fixture(scope="module")
def channel():
    """Channel tiny with integer weights: gathers at every p and config."""
    return fingerprints.graph("channel")


def gathered(result, p: int) -> bool:
    """The run gathered its tail: without checkpoints, the tail's is the
    only broadcast the last rank makes."""
    return result.trace.ranks[p - 1].collectives.get("bcast", 0) == 1


def ungathered(monkeypatch, *args, **kwargs):
    """``run_louvain`` with the rule switched off: every phase on every
    rank."""
    with monkeypatch.context() as m:
        m.setattr(distlouvain, "gather_pays", lambda *a: False)
        return run_louvain(*args, **kwargs)


def assert_same_outcome(got, want, ghost_fraction: bool = True) -> None:
    np.testing.assert_array_equal(got.assignment, want.assignment)
    assert got.modularity == want.modularity
    assert got.iterations == want.iterations

    def phases(result):
        if ghost_fraction:
            return result.phases
        return [
            dataclasses.replace(ph, ghost_fraction=-1.0)
            for ph in result.phases
        ]

    assert phases(got) == phases(want)
    if want.phase_assignments is None:
        assert got.phase_assignments is None
    else:
        assert len(got.phase_assignments) == len(want.phase_assignments)
        for a, b in zip(got.phase_assignments, want.phase_assignments):
            np.testing.assert_array_equal(a, b)


class TestOutcomes:
    @pytest.fixture(scope="class")
    def one_rank(self, channel):
        return {
            label: run_louvain(channel, 1, cfg)
            for label, cfg in CONFIGS.items()
        }

    @pytest.mark.parametrize("label", CONFIGS)
    @pytest.mark.parametrize("p", [2, 3, 4, 7, 8])
    def test_only_the_clock_moves(
        self, channel, one_rank, monkeypatch, p, label
    ):
        cfg = CONFIGS[label]
        got = run_louvain(channel, p, cfg)
        assert gathered(got, p)
        spread = ungathered(monkeypatch, channel, p, cfg)
        assert not gathered(spread, p)
        # Everything, ghost fractions and ET's draws included, as the p
        # ranks measure and draw them — in less modelled time.
        assert_same_outcome(got, spread)
        assert got.elapsed < spread.elapsed
        if not cfg.variant.uses_early_termination:
            # (ghost fractions are the layout's, so p's, not one rank's)
            assert_same_outcome(got, one_rank[label], ghost_fraction=False)

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_free_machine_never_gathers(self, channel, p):
        """Strict rule: on a free machine both sides are zero, so the
        schedule is the collective budget's (``TestCollectiveBudget``)."""
        r = run_louvain(channel, p, LouvainConfig(), machine=FREE)
        for rank in r.trace.ranks:
            assert "gather" not in rank.collectives
            assert "bcast" not in rank.collectives
            assert rank.collectives["allgather"] == r.num_phases + 1
        assert not tail.gather_pays(FREE, p, 1, 1)

    @pytest.mark.parametrize(
        "name,graph,p,gathers",
        [
            ("more ranks than vertices",
             planted_blocks_graph(
                 blocks=2, per_block=4, p_in=1.0, inter_edges=1, seed=0
             ), 12, True),
            ("isolated vertices",
             EdgeList.from_arrays(9, [0, 1, 5], [1, 2, 6]).to_csr(), 4,
             True),
            # One phase, so no boundary to gather at.
            ("no edges", EdgeList.from_arrays(7, [], []).to_csr(), 3, False),
            ("no vertices", EdgeList.from_arrays(0, [], []).to_csr(), 2,
             False),
        ],
    )
    def test_degenerate_inputs(self, monkeypatch, name, graph, p, gathers):
        cfg = LouvainConfig(track_assignments=True)
        got = run_louvain(graph, p, cfg)
        assert gathered(got, p) == gathers
        assert_same_outcome(got, ungathered(monkeypatch, graph, p, cfg))
        assert_same_outcome(
            got, run_louvain(graph, 1, cfg), ghost_fraction=False
        )


class TestLayout:
    """A gathered phase draws and measures as the p-rank even-vertex
    layout of its graph would."""

    def test_layout_streams_draw_as_the_ranks_would(self):
        sizes = np.diff(even_vertex(23, 5))
        streams = LayoutStreams(7, 2, sizes)
        ranks = [make_rank_rng(7, r, 2) for r in range(5)]
        for _ in range(3):
            np.testing.assert_array_equal(
                streams.random(23),
                np.concatenate(
                    [rng.random(k) for rng, k in zip(ranks, sizes)]
                ),
            )
        with pytest.raises(ValueError, match="22 draws"):
            streams.random(22)

    def test_et_mask_is_the_ranks_masks(self):
        cfg = LouvainConfig(variant=Variant.ET, alpha=0.5, seed=4)
        cuts = even_vertex(30, 4)
        sizes = np.diff(cuts)
        whole = EarlyTermination(30, cfg, LayoutStreams(cfg.seed, 3, sizes))
        parts = [
            EarlyTermination(int(k), cfg, make_rank_rng(cfg.seed, r, 3))
            for r, k in enumerate(sizes)
        ]
        moves = np.random.default_rng(0)
        for _ in range(8):
            np.testing.assert_array_equal(
                whole.draw_active(),
                np.concatenate([et.draw_active() for et in parts]),
            )
            moved = moves.random(30) < 0.3
            assert whole.update(moved) == sum(
                et.update(moved[a:b])
                for et, a, b in zip(parts, cuts[:-1], cuts[1:])
            )

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_ghost_fraction_is_the_layouts(self, channel, p):
        n = channel.num_vertices
        offsets = even_vertex(n, p)
        whole = DistGraph.from_global(channel, np.array([0, n]), 0)
        assert _cross_entries(whole, p) == sum(
            _cross_entries(DistGraph.from_global(channel, offsets, r), None)
            for r in range(p)
        )


class TestResilience:
    """The tail is atomic: nothing inside it is saved, and a run killed
    at its gather or its broadcast resumes from the boundary before."""

    CFG = LouvainConfig(variant=Variant.ET_TC, alpha=0.25, seed=3)
    P = 4

    @pytest.fixture(autouse=True)
    def _verify_schedule(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_SCHEDULE", "1")

    def _medium(self, medium, tmp_path, name):
        if medium == "disk":
            return {
                "checkpoint_dir": str(tmp_path / name),
                "checkpoint_every_iterations": 1,
            }
        return {
            "snapshots": RunSnapshots(
                every_iterations=1, config_key=self.CFG.cache_key()
            )
        }

    @pytest.mark.parametrize("medium", ["disk", "memory"])
    @pytest.mark.parametrize("op", ["gather", "bcast"])
    @pytest.mark.parametrize("victim", [0, 3])
    def test_kill_at_the_tail_then_resume(
        self, channel, tmp_path, medium, op, victim
    ):
        ref = run_louvain(channel, self.P, self.CFG)
        assert gathered(ref, self.P)
        log = fingerprints.OpLog(victim)
        run_louvain(
            channel, self.P, self.CFG, fault_plan=log,
            **self._medium(medium, tmp_path, "log"),
        )
        # The tail ends every rank's schedule: gather, broadcast, and
        # the result's allgather.
        assert log.ops[-3:] == ["gather", "bcast", "allgather"]
        at = len(log.ops) - (2 if op == "gather" else 1)
        kept = self._medium(medium, tmp_path, "ck")
        with pytest.raises(RankFailedError) as exc:
            run_louvain(
                channel, self.P, self.CFG,
                fault_plan=FaultPlan(kills={victim: at}), **kept,
            )
        cause = exc.value.causes[victim]
        assert isinstance(cause, InjectedFault) and cause.op_name == op
        res = run_louvain(channel, self.P, self.CFG, resume=True, **kept)
        assert_same_outcome(res, ref)

    def test_no_checkpoint_inside_the_tail(self, channel, monkeypatch):
        saves = []
        real = RunSnapshots.save

        def save(self, comm, **kwargs):
            saves.append((comm.size, kwargs["kind"], kwargs["phase"]))
            return real(self, comm, **kwargs)

        monkeypatch.setattr(RunSnapshots, "save", save)
        r = run_louvain(
            channel, self.P, self.CFG,
            snapshots=RunSnapshots(
                every_iterations=1, config_key=self.CFG.cache_key()
            ),
        )
        assert gathered(r, self.P)
        # One allgather per phase every rank ran, and the result's.
        spread = r.trace.ranks[self.P - 1].collectives["allgather"] - 1
        assert r.num_phases > spread
        assert {size for size, _, _ in saves} == {self.P}
        assert max(phase for _, _, phase in saves) == spread
        # The last save is the boundary the run gathered at.
        assert saves[-1][1:] == ("phase", spread)


def test_cost_model_prices_with_the_same_rule():
    assert costmodel.gather_pays is distlouvain.gather_pays is tail.gather_pays
