"""Unit tests for LouvainConfig validation and variant semantics."""

from dataclasses import fields

import pytest

from repro.core import PAPER_VARIANTS, LouvainConfig, Variant
from repro.core.config import CACHE_KEY_EXCLUSIONS


class TestVariant:
    def test_et_flags(self):
        assert Variant.ET.uses_early_termination
        assert not Variant.ET.uses_threshold_cycling
        assert not Variant.ET.uses_inactive_exit

    def test_etc_flags(self):
        assert Variant.ETC.uses_early_termination
        assert Variant.ETC.uses_inactive_exit

    def test_tc_flags(self):
        assert Variant.THRESHOLD_CYCLING.uses_threshold_cycling
        assert not Variant.THRESHOLD_CYCLING.uses_early_termination

    def test_et_tc_combines(self):
        assert Variant.ET_TC.uses_early_termination
        assert Variant.ET_TC.uses_threshold_cycling
        # Table VI pairs TC with plain ET, not with the ETC exit.
        assert not Variant.ET_TC.uses_inactive_exit

    def test_baseline_flags(self):
        v = Variant.BASELINE
        assert not (
            v.uses_early_termination
            or v.uses_threshold_cycling
            or v.uses_inactive_exit
        )


class TestLouvainConfig:
    def test_paper_defaults(self):
        cfg = LouvainConfig()
        assert cfg.tau == 1e-6
        assert cfg.et_inactive_floor == 0.02
        assert cfg.etc_exit_fraction == 0.90

    @pytest.mark.parametrize("bad", [0.0, 1.0, -1e-3, 2.0])
    def test_tau_validated(self, bad):
        with pytest.raises(ValueError):
            LouvainConfig(tau=bad)

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_alpha_validated(self, bad):
        with pytest.raises(ValueError):
            LouvainConfig(alpha=bad)

    def test_alpha_bounds_inclusive(self):
        LouvainConfig(alpha=0.0)
        LouvainConfig(alpha=1.0)

    def test_exit_fraction_validated(self):
        with pytest.raises(ValueError):
            LouvainConfig(etc_exit_fraction=0.0)
        LouvainConfig(etc_exit_fraction=1.0)

    def test_cycle_validated(self):
        with pytest.raises(ValueError):
            LouvainConfig(threshold_cycle=())
        with pytest.raises(ValueError):
            LouvainConfig(threshold_cycle=((1e-3, 0),))

    def test_caps_validated(self):
        with pytest.raises(ValueError):
            LouvainConfig(max_phases=0)
        with pytest.raises(ValueError):
            LouvainConfig(max_iterations=0)

    def test_min_cycle_tau(self):
        cfg = LouvainConfig(threshold_cycle=((1e-2, 1), (1e-7, 2)))
        assert cfg.min_cycle_tau == 1e-7

    def test_with_variant(self):
        cfg = LouvainConfig().with_variant(Variant.ET, alpha=0.75)
        assert cfg.variant is Variant.ET
        assert cfg.alpha == 0.75

    def test_labels_match_paper_legends(self):
        assert LouvainConfig().label() == "Baseline"
        assert (
            LouvainConfig(variant=Variant.THRESHOLD_CYCLING).label()
            == "Threshold Cycling"
        )
        assert LouvainConfig(variant=Variant.ET, alpha=0.25).label() == "ET(0.25)"
        assert LouvainConfig(variant=Variant.ETC, alpha=0.75).label() == "ETC(0.75)"
        assert (
            LouvainConfig(variant=Variant.ET_TC, alpha=0.25).label()
            == "ET(0.25)+TC"
        )

    def test_paper_variant_set(self):
        labels = [c.label() for c in PAPER_VARIANTS]
        assert labels == [
            "Baseline",
            "Threshold Cycling",
            "ET(0.25)",
            "ET(0.75)",
            "ETC(0.25)",
            "ETC(0.75)",
        ]

    def test_frozen(self):
        cfg = LouvainConfig()
        with pytest.raises(AttributeError):
            cfg.tau = 0.5


class TestConfigSerialization:
    def test_round_trip_defaults(self):
        cfg = LouvainConfig()
        assert LouvainConfig.from_dict(cfg.to_dict()) == cfg

    def test_round_trip_nondefault(self):
        cfg = LouvainConfig(
            variant=Variant.ET_TC,
            alpha=0.25,
            tau=1e-4,
            threshold_cycle=((1e-2, 2), (1e-5, 4)),
            seed=9,
            use_coloring=True,
        )
        assert LouvainConfig.from_dict(cfg.to_dict()) == cfg

    def test_to_dict_is_json_serializable(self):
        import json

        blob = json.dumps(LouvainConfig(variant=Variant.ETC).to_dict())
        assert '"etc"' in blob

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            LouvainConfig.from_dict({"tau": 1e-6, "warp_speed": True})

    def test_from_dict_rejects_removed_fields(self):
        # No retired-name allow-list: a removed knob is a typo like any
        # other, even at the value that used to be its default.
        with pytest.raises(ValueError, match="unknown.*repartition"):
            LouvainConfig.from_dict({"repartition": "none"})
        with pytest.raises(ValueError, match="unknown.*ghost_delta_updates"):
            LouvainConfig.from_dict({"ghost_delta_updates": False})
        with pytest.raises(ValueError, match="unknown.*community_push_updates"):
            LouvainConfig.from_dict({"community_push_updates": False})

    def test_from_dict_partial_uses_defaults(self):
        cfg = LouvainConfig.from_dict({"seed": 42})
        assert cfg.seed == 42
        assert cfg.tau == LouvainConfig().tau


class TestCacheKey:
    def test_stable_across_instances(self):
        assert LouvainConfig().cache_key() == LouvainConfig().cache_key()

    def test_key_value_pinned(self):
        # Result-store entries and checkpoint manifests persist this
        # hash; removing a field outside CACHE_KEY_FIELDS must not move it.
        assert LouvainConfig().cache_key() == (
            "6d96408f274135326f87d19d6c2d497e"
            "6dee840821de7fc447ba8d9bc10e2b18"
        )

    def test_default_equal_configs_equal_keys(self):
        explicit = LouvainConfig(tau=LouvainConfig().tau, seed=LouvainConfig().seed)
        assert explicit.cache_key() == LouvainConfig().cache_key()

    def test_variant_changes_key(self):
        assert (
            LouvainConfig(variant=Variant.ET).cache_key()
            != LouvainConfig(variant=Variant.ETC).cache_key()
        )

    def test_alpha_changes_key(self):
        a = LouvainConfig(variant=Variant.ET, alpha=0.25)
        b = LouvainConfig(variant=Variant.ET, alpha=0.75)
        assert a.cache_key() != b.cache_key()

    def test_seed_changes_key(self):
        assert LouvainConfig(seed=1).cache_key() != LouvainConfig(seed=2).cache_key()

    def test_exclusions_name_fields_and_carry_a_kind(self):
        # The key hashes every field not excluded, so what is left to
        # get wrong is a stale exclusion or an untagged reason (SPMD302
        # reads the kind).
        names = {f.name for f in fields(LouvainConfig)}
        for name, reason in CACHE_KEY_EXCLUSIONS.items():
            assert name in names, name
            kind, sep, why = reason.partition(":")
            assert kind.strip() and sep and why.strip(), reason

    def test_validate_invariants_does_not_change_key(self):
        assert (
            LouvainConfig(validate_invariants=True).cache_key()
            == LouvainConfig(validate_invariants=False).cache_key()
        )
