"""Property-based tests of the distributed building blocks (hypothesis).

These close the loop on the distributed/serial equivalences that the
fixed-input unit tests spot-check:

* distributed graph reconstruction == serial coarsening, for arbitrary
  graphs, assignments and rank counts;
* distributed coloring is always proper and partition-invariant;
* incremental warm starts never corrupt the result invariants.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import coarsen_csr, modularity
from repro.core.coarsen import rebuild_distributed
from repro.core.coloring import color_world
from repro.core.dynamic import incremental_louvain
from repro.graph import DistGraph
from repro.runtime import FREE, run_spmd

from .conftest import (
    assert_proper_coloring, assert_valid_partition, random_graph, world_of,
)

COMMON = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

graph_params = st.tuples(
    st.integers(4, 28),     # n
    st.integers(2, 80),     # m
    st.integers(0, 2**16),  # seed
)


@given(params=graph_params, p=st.integers(1, 4), k=st.integers(1, 6),
       pseed=st.integers(0, 99))
@settings(**COMMON)
def test_distributed_rebuild_matches_serial(params, p, k, pseed):
    n, m, seed = params
    g = random_graph(np.random.default_rng(seed), n, m, weighted=True)
    assignment = np.random.default_rng(pseed).integers(0, k, n).astype(
        np.int64
    )
    # Community ids must live in the vertex-id space for the distributed
    # algorithm: map label -> smallest member vertex.
    from repro.core.distlouvain import _labels_to_vertex_space

    assignment = _labels_to_vertex_space(assignment)

    def prog(comm):
        dg = DistGraph.distribute(comm, g, partition="even_vertex")
        plan = dg.build_ghost_plan(comm)
        local = assignment[dg.vbegin:dg.vend]
        ghost = assignment[plan.ghost_ids]
        new_dg, local_new = rebuild_distributed(comm, dg, local, ghost)
        return (
            new_dg.num_global_vertices,
            float(new_dg.weights.sum()),
            local_new.tolist(),
        )

    results = run_spmd(p, prog, machine=FREE, timeout=30.0)
    meta, v2m = coarsen_csr(g, assignment)
    combined = [x for v in results.values for x in v[2]]
    np.testing.assert_array_equal(combined, v2m)
    for n_new, _, _ in results.values:
        assert n_new == meta.num_vertices
    assert sum(v[1] for v in results.values) == pytest.approx(
        meta.total_weight
    )


@given(params=graph_params, p=st.integers(1, 4), seed2=st.integers(0, 9))
@settings(**COMMON)
def test_distributed_coloring_always_proper(params, p, seed2):
    n, m, seed = params
    g = random_graph(np.random.default_rng(seed), n, m)
    colors, _ = color_world(*world_of(g, p, "even_vertex"), seed=seed2)
    assert_proper_coloring(g, colors)


@given(params=graph_params, seed2=st.integers(0, 9))
@settings(**COMMON)
def test_coloring_partition_invariant(params, seed2):
    n, m, seed = params
    g = random_graph(np.random.default_rng(seed), n, m)

    def collect(p):
        return color_world(*world_of(g, p, "even_vertex"), seed=seed2)[0]

    np.testing.assert_array_equal(collect(1), collect(3))


@given(params=graph_params, p=st.integers(1, 4),
       labels_seed=st.integers(0, 99))
@settings(**COMMON)
def test_warm_start_any_labels_valid(params, p, labels_seed):
    n, m, seed = params
    g = random_graph(np.random.default_rng(seed), n, m)
    labels = np.random.default_rng(labels_seed).integers(-5, 5, n)

    r = incremental_louvain(g, labels, nranks=p, machine=FREE)
    assert_valid_partition(r.assignment, n)
    assert r.modularity == pytest.approx(
        modularity(g, r.assignment), abs=1e-9
    )
