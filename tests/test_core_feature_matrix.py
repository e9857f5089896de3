"""Cross-feature matrix: every variant x extension combination must
produce a valid result AND pass the full distributed-state audits."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import LouvainConfig, Variant, modularity, run_louvain
from repro.runtime import FREE

from .conftest import assert_valid_partition, random_graph

FEATURES = [
    {},
    {"use_coloring": True},
]


@pytest.mark.parametrize(
    "variant",
    [Variant.BASELINE, Variant.THRESHOLD_CYCLING, Variant.ET, Variant.ETC],
)
@pytest.mark.parametrize(
    "features", FEATURES, ids=lambda f: "+".join(sorted(f)) or "plain"
)
def test_variant_feature_matrix(planted_blocks, variant, features):
    cfg = LouvainConfig(
        variant=variant, alpha=0.5, validate_invariants=True, **features
    )
    r = run_louvain(planted_blocks, 4, cfg, machine=FREE)
    assert_valid_partition(r.assignment, planted_blocks.num_vertices)
    assert r.modularity > 0.75
    assert r.modularity == pytest.approx(
        modularity(planted_blocks, r.assignment), abs=1e-9
    )


@pytest.mark.parametrize("features", FEATURES,
                         ids=lambda f: "+".join(sorted(f)) or "plain")
def test_features_do_not_change_baseline_results(planted_blocks, features):
    """A repeated plain run is bit-identical; coloring is an
    algorithmic change and only needs equal-quality output."""
    base = run_louvain(planted_blocks, 4, machine=FREE)
    cfg = LouvainConfig(**features)
    r = run_louvain(planted_blocks, 4, cfg, machine=FREE)
    if features.get("use_coloring"):
        assert r.modularity >= base.modularity - 0.02
    else:
        np.testing.assert_array_equal(base.assignment, r.assignment)


@given(
    params=st.tuples(
        st.integers(4, 24), st.integers(3, 60), st.integers(0, 2**16)
    ),
    p=st.integers(1, 4),
    feature=st.sampled_from(range(len(FEATURES))),
)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_graphs_random_features_audited(params, p, feature):
    """Hypothesis sweep: arbitrary multigraphs, any rank count, any
    feature set — the audits must hold and the result must be valid."""
    n, m, seed = params
    g = random_graph(np.random.default_rng(seed), n, m, weighted=True)
    cfg = LouvainConfig(validate_invariants=True, **FEATURES[feature])
    r = run_louvain(g, p, cfg, machine=FREE)
    assert_valid_partition(r.assignment, n)
    assert r.modularity == pytest.approx(
        modularity(g, r.assignment), abs=1e-9
    )
