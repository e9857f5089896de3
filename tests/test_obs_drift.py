"""Drift-monitor tests: EWMA determinism, calibration, the closed loop.

The last class is the acceptance scenario for the observability PR: a
deliberately mis-calibrated machine model drives the simulated/predicted
ratio over the threshold, the engine fires a forced background re-tune
against the recalibrated model, and the prediction error shrinks —
while detection outputs stay bit-identical to an engine without any
observability attached.
"""

import math
import time

import numpy as np
import pytest

from repro.obs import DriftConfig, DriftMonitor, MetricsRegistry
from repro.runtime.perfmodel import CORI_HASWELL, FREE


class TestDriftConfigValidation:
    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            DriftConfig(ewma_alpha=0.0)
        with pytest.raises(ValueError):
            DriftConfig(ewma_alpha=1.5)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            DriftConfig(ratio_threshold=1.0)

    def test_bad_min_observations(self):
        with pytest.raises(ValueError):
            DriftConfig(min_observations=0)


class TestEwmaDecisions:
    def test_accurate_predictions_never_retune(self):
        mon = DriftMonitor()
        for _ in range(50):
            decision = mon.observe("fam", predicted=1.0, simulated=1.0)
            assert not decision.retune
            assert decision.ratio == pytest.approx(1.0)

    def test_sustained_underprediction_triggers(self):
        mon = DriftMonitor(
            config=DriftConfig(ratio_threshold=1.5, min_observations=3)
        )
        fired_at = None
        for i in range(20):
            if mon.observe("fam", predicted=1.0, simulated=3.0).retune:
                fired_at = i
                break
        assert fired_at is not None
        assert fired_at >= 2  # respects min_observations

    def test_overprediction_also_triggers(self):
        # Drift is symmetric: a model predicting 3x reality drifts too.
        mon = DriftMonitor()
        decisions = [
            mon.observe("fam", predicted=3.0, simulated=1.0) for _ in range(20)
        ]
        assert any(d.retune for d in decisions)
        trigger = next(d for d in decisions if d.retune)
        assert trigger.calibration < 1.0

    def test_single_spike_does_not_trigger(self):
        mon = DriftMonitor(
            config=DriftConfig(
                ewma_alpha=0.2, ratio_threshold=2.0, min_observations=5
            )
        )
        decision = mon.observe("fam", predicted=1.0, simulated=100.0)
        assert not decision.retune
        for _ in range(30):
            decision = mon.observe("fam", predicted=1.0, simulated=1.0)
        assert not decision.retune

    def test_deterministic_trigger_point(self):
        # Same simulated sequence => same re-tune trigger index, always.
        seq = [1.4, 2.1, 1.9, 2.5, 2.2, 3.0, 2.8, 2.6, 2.9, 3.1]

        def trigger_index():
            mon = DriftMonitor()
            for i, simulated in enumerate(seq):
                if mon.observe("fam", 1.0, simulated).retune:
                    return i
            return None

        first = trigger_index()
        assert first is not None
        assert all(trigger_index() == first for _ in range(5))

    def test_families_independent(self):
        mon = DriftMonitor()
        for _ in range(20):
            mon.observe("drifting", 1.0, 4.0)
            ok = mon.observe("healthy", 1.0, 1.0)
            assert not ok.retune
        snap = mon.snapshot()
        assert snap["families"]["drifting"]["retunes"] >= 1
        assert snap["families"]["healthy"]["retunes"] == 0

    def test_state_resets_after_trigger(self):
        mon = DriftMonitor()
        retunes = 0
        for _ in range(12):
            if mon.observe("fam", 1.0, 3.0).retune:
                retunes += 1
                # Immediately after a trigger the EWMA restarts: the
                # next observation alone cannot re-trigger.
                assert not mon.observe("fam", 1.0, 3.0).retune
        assert retunes >= 1


class TestMachineCalibration:
    def test_calibrated_scales_cost_terms(self):
        cal = CORI_HASWELL.calibrated(2.0)
        assert cal.alpha == pytest.approx(CORI_HASWELL.alpha * 2)
        assert cal.beta == pytest.approx(CORI_HASWELL.beta * 2)
        assert cal.compute_rate == pytest.approx(
            CORI_HASWELL.compute_rate / 2
        )
        assert cal.name == "cori-haswell~cal2"

    def test_recalibration_replaces_previous_suffix(self):
        twice = CORI_HASWELL.calibrated(2.0).calibrated(3.0)
        assert twice.name == "cori-haswell~cal3"

    def test_invalid_factor_rejected(self):
        with pytest.raises(ValueError):
            CORI_HASWELL.calibrated(0.0)
        with pytest.raises(ValueError):
            CORI_HASWELL.calibrated(math.inf)

    def test_monitor_calibrates_its_machine_on_trigger(self):
        mon = DriftMonitor(machine=CORI_HASWELL)
        for _ in range(20):
            decision = mon.observe("fam", 1.0, 3.0)
            if decision.retune:
                break
        assert decision.retune
        assert mon.machine is not None
        assert mon.machine.name.startswith("cori-haswell~cal")
        # Calibration moves the model toward the simulated seconds.
        assert decision.calibration == pytest.approx(
            math.exp(math.log(3.0) * 1.0), rel=0.5
        )

    def test_registry_series_updated(self):
        reg = MetricsRegistry()
        mon = DriftMonitor(registry=reg)
        for _ in range(10):
            mon.observe("fam", 1.0, 2.0)
        names = {f.name for f in reg.families()}
        assert "repro_drift_ratio" in names
        assert "repro_drift_observations_total" in names


class TestClosedLoop:
    """Mis-calibrated model -> drift -> forced re-tune -> smaller error."""

    @pytest.fixture()
    def graph(self):
        from repro.generators import make_graph

        return make_graph("soc-friendster", scale="tiny")

    def test_drift_fires_forced_retune_and_shrinks_error(
        self, graph, tmp_path
    ):
        from repro.obs import EventLog, read_events
        from repro.service import DetectionRequest, Engine
        from repro.tune import TuningDB
        from repro.tune.search import TunerSettings, tune_graph

        db = TuningDB(str(tmp_path / "tuning.json"))
        # Seed a tuning record with a model that underestimates cost
        # 8x: every served job will simulate ~8x the prediction.
        wrong = CORI_HASWELL.calibrated(1 / 8)
        settings = TunerSettings(
            trials=2, rung_phase_caps=(1,), machine=wrong
        )
        tune_graph(graph, db, settings=settings)
        record = db.get(graph.fingerprint())
        assert record is not None

        events_path = tmp_path / "events.jsonl"
        log = EventLog(events_path)
        drift = DriftMonitor(machine=wrong)
        with Engine(
            workers=1,
            tuning_db=db,
            tune_settings=settings,
            event_log=log,
            drift=drift,
        ) as engine:
            request = DetectionRequest(
                graph=graph, nranks=2, machine=CORI_HASWELL
            )
            for _ in range(10):
                response = engine.detect(request, timeout=300)
                assert response.result is not None
            # Wait for the forced background re-tune to land.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                counters = engine.metrics.snapshot()["counters"]
                if counters.get("background_tunes", 0) >= 1:
                    break
                time.sleep(0.05)
        log.close()

        counters = engine.metrics.snapshot()["counters"]
        assert counters["drift_observations"] >= 1
        assert counters["drift_retunes"] >= 1
        retunes = read_events(events_path, event="drift_retune")
        assert retunes
        # The forced tune job actually ran against the calibrated model.
        forced = read_events(events_path, event="tune_spawned", forced=True)
        assert forced
        assert drift.machine is not None
        assert drift.machine.name != wrong.name

        # Prediction error shrinks: the calibrated model's error on the
        # simulated runtime is smaller than the mis-calibrated model's.
        observed = read_events(events_path, event="drift_observed")
        simulated = observed[-1]["simulated"]
        from repro.tune.costmodel import predict_cost
        from repro.tune.features import compute_features
        from repro.tune.space import Candidate

        features = compute_features(graph)
        cand = Candidate(config=request.config, ranks=2)
        err_before = abs(
            math.log(
                max(simulated, 1e-12)
                / predict_cost(features, cand, wrong).seconds
            )
        )
        err_after = abs(
            math.log(
                max(simulated, 1e-12)
                / predict_cost(features, cand, drift.machine).seconds
            )
        )
        assert err_after < err_before

    def test_observability_is_passive(self, graph, tmp_path):
        """Detection results are bit-identical with obs on and off."""
        from repro.service import DetectionRequest, Engine
        from repro.obs import EventLog

        request = DetectionRequest(graph=graph, nranks=2, machine=FREE)
        with Engine(workers=1) as plain:
            bare = plain.detect(request, timeout=300)
        log = EventLog(tmp_path / "events.jsonl")
        with Engine(
            workers=1, event_log=log, drift=DriftMonitor(machine=CORI_HASWELL)
        ) as observed:
            dressed = observed.detect(request, timeout=300)
        log.close()
        assert bare.result is not None and dressed.result is not None
        np.testing.assert_array_equal(
            bare.result.assignment, dressed.result.assignment
        )
        assert bare.result.modularity == dressed.result.modularity
        assert bare.result.phases == dressed.result.phases
