"""Unit tests for the declarative search space (repro.tune.space)."""

import hashlib
import json

import pytest

from repro.core import LouvainConfig, Variant
from repro.core.config import DEFAULT_THRESHOLD_CYCLE
from repro.tune import THRESHOLD_CYCLES, Candidate, SearchSpace, default_space


class TestEnumeration:
    def test_deterministic(self):
        space = default_space(max_ranks=4)
        a = [c.key() for c in space.candidates(seed=0)]
        b = [c.key() for c in space.candidates(seed=0)]
        assert a == b

    def test_no_duplicates(self):
        keys = [c.key() for c in default_space().candidates(seed=0)]
        assert len(keys) == len(set(keys))

    def test_seed_stamped_on_every_config(self):
        for cand in default_space(max_ranks=2).candidates(seed=7):
            assert cand.config.seed == 7

    def test_all_candidates_valid(self):
        # Materialising as LouvainConfig already validated; spot-check
        # that non-applicable axes stay pinned to defaults.
        for cand in default_space(max_ranks=2).candidates(seed=0):
            cfg = cand.config
            if not cfg.variant.uses_early_termination:
                assert cfg.alpha == LouvainConfig().alpha
            if not cfg.variant.uses_threshold_cycling:
                assert cfg.threshold_cycle == DEFAULT_THRESHOLD_CYCLE

    def test_covers_every_variant(self):
        variants = {
            c.config.variant for c in default_space().candidates(seed=0)
        }
        assert variants == {
            Variant("baseline"), Variant("threshold-cycling"),
            Variant("et"), Variant("etc"), Variant("et+tc"),
        }

    def test_rank_axis_respects_cap(self):
        ranks = {c.ranks for c in default_space(max_ranks=4).candidates()}
        assert ranks == {1, 2, 4}

    def test_default_space_order_pinned(self):
        # The digest is that of PR 18's candidate list (the one with
        # the push and coloring axes) filtered to pull, uncolored
        # candidates and with the push field dropped from every config
        # dict: the product must enumerate the survivors in that order.
        cands = default_space().candidates()
        assert default_space().size() == len(cands) == 336
        assert cands[0].describe() == "Baseline x1"
        assert cands[-1].describe() == (
            "ET(0.75)+TC x8 cycle=custom vf refine=leiden"
        )
        digest = hashlib.sha256()
        for c in cands:
            digest.update(
                json.dumps(
                    {"config": c.config.to_dict(), "ranks": c.ranks},
                    sort_keys=True,
                ).encode()
            )
            digest.update(b"\n")
        assert digest.hexdigest() == (
            "959e756754422857f192328f341e8804ca46891c3da8cc28340ec70aa8eb816f"
        )


class TestValidation:
    def test_unknown_cycle_rejected(self):
        with pytest.raises(ValueError, match="unknown threshold cycle"):
            SearchSpace(threshold_cycles=("nope",))

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace(variants=())
        with pytest.raises(ValueError):
            SearchSpace(rank_counts=())

    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace(rank_counts=(0,))

    def test_bad_max_ranks_rejected(self):
        with pytest.raises(ValueError):
            default_space(max_ranks=0)

    def test_named_cycles_exist(self):
        assert THRESHOLD_CYCLES["paper"] == DEFAULT_THRESHOLD_CYCLE
        assert set(THRESHOLD_CYCLES) >= {"paper", "aggressive", "gentle"}


class TestCandidate:
    def test_key_stable_and_content_addressed(self):
        a = Candidate(config=LouvainConfig(), ranks=4)
        b = Candidate(config=LouvainConfig(), ranks=4)
        c = Candidate(config=LouvainConfig(), ranks=8)
        assert a.key() == b.key()
        assert a.key() != c.key()

    def test_describe_mentions_ranks(self):
        assert "x4" in Candidate(config=LouvainConfig(), ranks=4).describe()


class TestHeuristicAxes:
    def test_space_covers_heuristic_combinations(self):
        # Coloring is not an axis: like the resolution, every candidate
        # takes it from the caller's base config.
        for coloring in (False, True):
            cands = SearchSpace(
                variants=("baseline",),
                rank_counts=(2,),
                base=LouvainConfig(use_coloring=coloring),
            ).candidates()
            combos = [
                (
                    c.config.use_coloring,
                    c.config.vertex_following,
                    c.config.refine,
                )
                for c in cands
            ]
            assert sorted(combos) == sorted(
                (coloring, vf, ref)
                for vf in (False, True)
                for ref in ("none", "leiden")
            )

    def test_describe_tags_heuristics(self):
        from dataclasses import replace

        from repro.core import LouvainConfig

        cfg = replace(
            LouvainConfig(),
            use_coloring=True,
            vertex_following=True,
            refine="leiden",
        )
        text = Candidate(config=cfg, ranks=2).describe()
        assert "coloring" in text
        assert "vf" in text
        assert "refine=leiden" in text

    def test_heuristics_change_candidate_key(self):
        from dataclasses import replace

        from repro.core import LouvainConfig

        base = Candidate(config=LouvainConfig(), ranks=2)
        vf = Candidate(
            config=replace(LouvainConfig(), vertex_following=True), ranks=2
        )
        assert base.key() != vf.key()
