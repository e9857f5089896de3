"""Unit tests for cost-model screening + successive-halving search."""

import pytest

from repro.core import LouvainConfig
from repro.generators import make_graph
from repro.runtime import CORI_HASWELL
from repro.tune import (
    Candidate,
    SearchSpace,
    TunerSettings,
    TuningDB,
    plan_for_graph,
    predict_cost,
    screen,
    tune_graph,
)


@pytest.fixture(scope="module")
def channel():
    return make_graph("channel", scale="tiny", seed=0)


SMALL_SPACE = SearchSpace(
    variants=("baseline", "et", "et+tc"),
    alphas=(0.25, 0.5),
    threshold_cycles=("paper",),
    rank_counts=(1, 2, 4),
)

FAST = TunerSettings(trials=4, rung_phase_caps=(1,))


class TestCostModel:
    def test_predictions_positive_and_finite(self, channel):
        from repro.tune import compute_features

        f = compute_features(channel)
        for cand in SMALL_SPACE.candidates(seed=0)[:8]:
            est = predict_cost(f, cand, CORI_HASWELL)
            assert est.seconds > 0
            assert est.breakdown
            assert sum(est.breakdown.values()) == pytest.approx(est.seconds)

    def test_screen_sorted_and_deterministic(self, channel):
        from repro.tune import compute_features

        f = compute_features(channel)
        cands = SMALL_SPACE.candidates(seed=0)
        a = screen(f, cands, CORI_HASWELL)
        b = screen(f, cands, CORI_HASWELL)
        assert [c.key() for _, c in a] == [c.key() for _, c in b]
        times = [s for s, _ in a]
        assert times == sorted(times)

    def test_single_rank_has_no_comm_cost(self, channel):
        from repro.tune import compute_features

        f = compute_features(channel)
        est = predict_cost(
            f, Candidate(config=LouvainConfig(), ranks=1), CORI_HASWELL
        )
        assert est.breakdown.get("ghost_comm", 0.0) == 0.0
        assert est.breakdown.get("community_comm", 0.0) == 0.0

    def test_prediction_tracks_the_mesh_workload(self):
        """Channel medium at p = 8 (the ``mesh_p8`` input) gathers its
        tail to rank 0; the model, pricing the phases after the same
        rule on one rank, stays within 1.25x of the traced seconds (it
        was 1.33x over when it priced every phase on eight ranks)."""
        from repro.core import run_louvain
        from repro.tune import compute_features

        g = make_graph("channel", scale="medium", seed=0)
        cand = Candidate(config=LouvainConfig(), ranks=8)
        predicted = predict_cost(compute_features(g), cand, CORI_HASWELL)
        traced = run_louvain(g, 8, LouvainConfig()).elapsed
        assert 1 / 1.25 <= predicted.seconds / traced <= 1.25


class TestDeterminism:
    def test_same_seed_same_plan_and_schedule(self, channel):
        a = plan_for_graph(channel, space=SMALL_SPACE, settings=FAST)
        b = plan_for_graph(channel, space=SMALL_SPACE, settings=FAST)
        assert a.record.config == b.record.config
        assert a.record.ranks == b.record.ranks
        assert a.record.schedule == b.record.schedule
        assert a.record.trials == b.record.trials
        assert a.record.measured_seconds == b.record.measured_seconds

    def test_schedule_lists_every_trial(self, channel):
        report = plan_for_graph(channel, space=SMALL_SPACE, settings=FAST)
        assert len(report.record.schedule) == len(report.trials)
        for entry, trial in zip(report.record.schedule, report.trials):
            assert entry["candidate"] == trial.candidate.key()
            assert entry["rung"] == trial.rung
            assert entry["max_phases"] == trial.max_phases


class TestSearch:
    def test_screening_caps_measured_candidates(self, channel):
        report = plan_for_graph(channel, space=SMALL_SPACE, settings=FAST)
        assert report.candidates_screened <= FAST.trials
        assert report.candidates_total == len(SMALL_SPACE.candidates(seed=0))

    def test_baseline_always_measured(self, channel):
        report = plan_for_graph(channel, space=SMALL_SPACE, settings=FAST)
        assert report.trials[0].rung == -1
        assert report.trials[0].max_phases is None

    def test_trials_run_collective_safe(self, channel):
        # The schedule verifier raises on any rank divergence in the
        # collective sequence; a clean pass is the assertion.
        settings = TunerSettings(
            trials=3, rung_phase_caps=(1,), verify_schedule=True
        )
        report = plan_for_graph(channel, space=SMALL_SPACE, settings=settings)
        assert report.record.quality_guard_passed

    def test_budget_cuts_are_deterministic(self, channel):
        settings = TunerSettings(
            trials=4, rung_phase_caps=(1,), budget_seconds=1e-9
        )
        a = plan_for_graph(channel, space=SMALL_SPACE, settings=settings)
        b = plan_for_graph(channel, space=SMALL_SPACE, settings=settings)
        assert a.record.schedule == b.record.schedule
        # The baseline always runs; the budget chokes everything else to
        # at most one measured candidate per rung.
        assert len(a.trials) < 2 + 2 * FAST.trials

    def test_guard_rejection_falls_back_to_baseline(self, channel):
        # A negative tolerance puts the floor *above* the baseline's own
        # modularity, so no finalist (nor the baseline itself) can pass:
        # the plan must fall back to the paper-default baseline.
        settings = TunerSettings(
            trials=3, rung_phase_caps=(1,), quality_tolerance=-1.0
        )
        report = plan_for_graph(channel, space=SMALL_SPACE, settings=settings)
        rec = report.record
        assert not rec.quality_guard_passed
        assert rec.config.variant == LouvainConfig().variant
        assert rec.ranks == settings.baseline_ranks
        assert rec.tuned_modularity == rec.baseline_modularity
        assert any("falling back" in n for n in report.notes)

    def test_quality_guard_holds_on_default_settings(self, channel):
        rec = plan_for_graph(channel, space=SMALL_SPACE, settings=FAST).record
        assert rec.tuned_modularity >= (
            rec.baseline_modularity - rec.quality_tolerance - 1e-12
        )


class TestTuneGraph:
    def test_miss_searches_then_hit_skips_trials(self, channel):
        db = TuningDB()
        rec, cached = tune_graph(
            channel, db, space=SMALL_SPACE, settings=FAST
        )
        assert not cached
        again, cached2 = tune_graph(
            channel, db, space=SMALL_SPACE, settings=FAST
        )
        assert cached2
        # A DB hit stamps last_used (for LRU GC), so identity is not
        # preserved — the plan itself must be.
        assert again.fingerprint == rec.fingerprint
        assert again.config == rec.config
        assert again.ranks == rec.ranks
        assert again.last_used > 0

    def test_force_reruns(self, channel):
        db = TuningDB()
        tune_graph(channel, db, space=SMALL_SPACE, settings=FAST)
        _, cached = tune_graph(
            channel, db, space=SMALL_SPACE, settings=FAST, force=True
        )
        assert not cached

    def test_persists_through_db(self, channel, tmp_path):
        path = tmp_path / "db.json"
        tune_graph(
            channel, TuningDB(path), space=SMALL_SPACE, settings=FAST
        )
        rec, cached = tune_graph(
            channel, TuningDB(path), space=SMALL_SPACE, settings=FAST
        )
        assert cached
        assert rec.fingerprint == channel.fingerprint()

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            TunerSettings(trials=0)
        with pytest.raises(ValueError):
            TunerSettings(eta=1)
        with pytest.raises(ValueError):
            TunerSettings(budget_seconds=0.0)
        with pytest.raises(ValueError):
            TunerSettings(baseline_ranks=0)


class TestHeuristicCostTerms:
    def test_vertex_following_discount_scales_with_leaves(self):
        from repro.tune import GraphFeatures

        # Leaf-heavy graph, big enough that per-phase savings dominate
        # the one-time pre-coarsening rebuild.
        feats = GraphFeatures(
            num_vertices=100_000,
            num_edges=800_000,
            mean_degree=16.0,
            degree_cv=1.2,
            degree_skew=2.0,
            max_degree_fraction=0.01,
            ghost_fraction={2: 0.2, 4: 0.35, 8: 0.45},
            degree_one_fraction=0.4,
        )
        base = Candidate(config=LouvainConfig(), ranks=4)
        vf = Candidate(
            config=LouvainConfig(vertex_following=True), ranks=4
        )
        plain = predict_cost(feats, base, CORI_HASWELL)
        merged = predict_cost(feats, vf, CORI_HASWELL)
        assert merged.seconds < plain.seconds
        assert merged.breakdown["rebuild"] > plain.breakdown["rebuild"]
        # The input read is unaffected: the file is the same size.
        assert merged.breakdown["io"] == plain.breakdown["io"]

    def test_refine_charges_its_own_breakdown_key(self, channel):
        from repro.tune import compute_features

        feats = compute_features(channel)
        plain = predict_cost(
            feats, Candidate(config=LouvainConfig(), ranks=4), CORI_HASWELL
        )
        refined = predict_cost(
            feats,
            Candidate(config=LouvainConfig(refine="leiden"), ranks=4),
            CORI_HASWELL,
        )
        assert plain.breakdown["refine"] == 0.0
        assert refined.breakdown["refine"] > 0.0
        assert refined.seconds > plain.seconds

    def test_coloring_never_predicted_cheaper(self, channel):
        # Coloring buys modularity, never time: the measured simulator
        # runs colored sweeps 1.5-4x slower even at one rank, so the
        # model must rank coloring strictly more expensive at every
        # rank count — a mis-signed discount here floods the screening
        # cohort with colored candidates that lose every measured rung.
        from repro.tune import compute_features

        feats = compute_features(channel)
        for p in (1, 4, 8):
            plain = predict_cost(
                feats, Candidate(config=LouvainConfig(), ranks=p),
                CORI_HASWELL,
            )
            colored = predict_cost(
                feats,
                Candidate(config=LouvainConfig(use_coloring=True), ranks=p),
                CORI_HASWELL,
            )
            assert colored.seconds > plain.seconds
            # Per-color sweep rounds cost compute even without comm.
            assert colored.breakdown["compute"] > plain.breakdown["compute"]
            if p > 1:
                assert (
                    colored.breakdown["ghost_comm"]
                    > plain.breakdown["ghost_comm"]
                )


class TestParetoFrontier:
    def test_frontier_shape_and_order(self, channel):
        report = plan_for_graph(channel, space=SMALL_SPACE, settings=FAST)
        frontier = report.record.frontier
        assert len(frontier) >= 1
        elapsed = [pt["elapsed"] for pt in frontier]
        quality = [pt["modularity"] for pt in frontier]
        assert elapsed == sorted(elapsed)
        # Strictly increasing modularity: no dominated point survives.
        assert all(b > a for a, b in zip(quality, quality[1:]))

    def test_frontier_contains_best_quality_run(self, channel):
        report = plan_for_graph(channel, space=SMALL_SPACE, settings=FAST)
        full = [t for t in report.trials if t.max_phases is None]
        best_q = max(t.modularity for t in full)
        assert report.record.frontier[-1]["modularity"] == best_q

    def test_frontier_round_trips_through_db(self, channel, tmp_path):
        db = TuningDB(str(tmp_path / "db.json"))
        record, cached = tune_graph(
            channel, db, space=SMALL_SPACE, settings=FAST
        )
        assert not cached
        reloaded = TuningDB(str(tmp_path / "db.json")).get(record.fingerprint)
        assert reloaded.frontier == record.frontier

    def test_pre_frontier_records_load_empty(self):
        from repro.tune.db import TuningRecord

        record = plan_for_graph(
            make_graph("channel", scale="tiny", seed=0),
            space=SMALL_SPACE,
            settings=FAST,
        ).record
        legacy = record.to_dict()
        del legacy["frontier"]
        assert TuningRecord.from_dict(legacy).frontier == ()

    def test_format_lists_frontier(self, channel):
        report = plan_for_graph(channel, space=SMALL_SPACE, settings=FAST)
        assert "pareto frontier" in report.format()
