"""Owner-push community exchange must be bit-identical to the pull protocol.

``community_push_updates`` is a pure transport optimisation: the same
``(a_c, |c|)`` values must reach the same consumers in the same float
accumulation order, so assignments and modularity match the pull
protocol exactly — across variants, rank counts, the other transport
knobs, and checkpoint/resume.
"""

import numpy as np
import pytest

from repro.core import LouvainConfig, Variant, run_louvain
from repro.resilience import FaultPlan
from repro.runtime import FREE, InjectedFault, RankFailedError

from .conftest import planted_blocks_graph, random_graph


@pytest.fixture(autouse=True)
def _verify_schedule(monkeypatch):
    """Run this suite under the dynamic collective-schedule verifier so
    a push/pull schedule divergence fails at its first mismatched op
    instead of on end-state mismatch."""
    monkeypatch.setenv("REPRO_VERIFY_SCHEDULE", "1")


def _graph():
    return planted_blocks_graph(
        blocks=6, per_block=15, p_in=0.5, inter_edges=40, seed=5
    )


def _assert_identical(ref, res):
    np.testing.assert_array_equal(ref.assignment, res.assignment)
    assert res.modularity == ref.modularity


class TestBitIdentical:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    @pytest.mark.parametrize(
        "variant",
        [
            Variant.BASELINE,
            Variant.ET,
            Variant.THRESHOLD_CYCLING,
            Variant.ETC,
        ],
    )
    def test_variants_and_rank_counts(self, p, variant):
        g = _graph()
        cfg = LouvainConfig(variant=variant, alpha=0.25, seed=2)
        ref = run_louvain(g, p, cfg, machine=FREE)
        res = run_louvain(
            g, p, cfg.with_variant(variant, community_push_updates=True),
            machine=FREE,
        )
        _assert_identical(ref, res)

    @pytest.mark.parametrize(
        "toggles",
        [{"use_coloring": True}],
        ids=lambda t: "+".join(sorted(t)),
    )
    def test_composes_with_other_transport_knobs(self, toggles):
        g = _graph()
        ref = run_louvain(g, 4, LouvainConfig(**toggles), machine=FREE)
        res = run_louvain(
            g, 4,
            LouvainConfig(community_push_updates=True, **toggles),
            machine=FREE,
        )
        _assert_identical(ref, res)

    def test_audited_under_invariant_validation(self):
        """The per-phase state audits must hold with the push cache."""
        g = _graph()
        cfg = LouvainConfig(
            community_push_updates=True, validate_invariants=True
        )
        ref = run_louvain(g, 4, machine=FREE)
        _assert_identical(ref, run_louvain(g, 4, cfg, machine=FREE))

    def test_random_multigraphs(self):
        for seed in range(6):
            g = random_graph(
                np.random.default_rng(seed), 30, 70, weighted=True
            )
            for p in (2, 3):
                ref = run_louvain(g, p, machine=FREE)
                res = run_louvain(
                    g, p,
                    LouvainConfig(community_push_updates=True),
                    machine=FREE,
                )
                _assert_identical(ref, res)


class TestCheckpointInterop:
    @pytest.mark.parametrize("p", [2, 4])
    def test_resume_matches_pull_reference(self, tmp_path, p):
        """Kill a push-protocol run mid-phase, resume it, and match the
        uninterrupted *pull* run — resume rebuilds the subscription
        cache via a fresh cold pull, so nothing may drift."""
        g = _graph()
        pull_cfg = LouvainConfig(variant=Variant.ET_TC, alpha=0.25, seed=1)
        push_cfg = LouvainConfig(
            variant=Variant.ET_TC,
            alpha=0.25,
            seed=1,
            community_push_updates=True,
        )
        ref = run_louvain(g, p, pull_cfg, machine=FREE)
        d = str(tmp_path / "ck")
        with pytest.raises((RankFailedError, InjectedFault)):
            run_louvain(
                g, p, push_cfg,
                checkpoint_dir=d,
                fault_plan=FaultPlan(kills={p - 1: 40}),
                checkpoint_every_iterations=1,
                machine=FREE,
            )
        res = run_louvain(
            g, p, push_cfg, checkpoint_dir=d, resume=True, machine=FREE
        )
        _assert_identical(ref, res)

    def test_pull_checkpoint_resumes_under_push(self, tmp_path):
        """A checkpoint written by the pull protocol restores cleanly
        into a push-configured run (the cache is rebuilt per phase, not
        checkpointed)."""
        g = _graph()
        pull_cfg = LouvainConfig(seed=1)
        push_cfg = LouvainConfig(seed=1, community_push_updates=True)
        ref = run_louvain(g, 2, pull_cfg, machine=FREE)
        d = str(tmp_path / "ck")
        with pytest.raises((RankFailedError, InjectedFault)):
            run_louvain(
                g, 2, pull_cfg,
                checkpoint_dir=d,
                fault_plan=FaultPlan(kills={1: 40}),
                checkpoint_every_iterations=1,
                machine=FREE,
            )
        res = run_louvain(
            g, 2, push_cfg, checkpoint_dir=d, resume=True, machine=FREE
        )
        _assert_identical(ref, res)


class TestTraffic:
    def test_steady_state_drops_alltoalls(self):
        """Per steady-state round: pull pays 3 alltoalls (2 fetch +
        1 delta), push pays 1 fused exchange round trip."""
        g = _graph()
        ref = run_louvain(g, 4, machine=FREE)
        res = run_louvain(
            g, 4, LouvainConfig(community_push_updates=True), machine=FREE
        )
        pull_colls = ref.trace.collective_counts()
        push_colls = res.trace.collective_counts()
        assert push_colls.get("exchange_roundtrip", 0) > 0
        assert push_colls.get("alltoall", 0) < pull_colls["alltoall"]
        # Fetch + delta legs vanish from the alltoall count: what is
        # left (ghost refresh etc.) plus one round trip per round must
        # stay below pull's schedule.
        assert (
            push_colls.get("alltoall", 0)
            + push_colls.get("exchange_roundtrip", 0)
            < pull_colls["alltoall"]
        )

    def test_community_comm_time_not_worse(self):
        g = _graph()
        ref = run_louvain(g, 4, machine=FREE)
        res = run_louvain(
            g, 4, LouvainConfig(community_push_updates=True), machine=FREE
        )
        pull_s = ref.trace.seconds_by_category().get("community_comm", 0.0)
        push_s = res.trace.seconds_by_category().get("community_comm", 0.0)
        assert push_s <= pull_s
