"""Unit tests for the hierarchical (intra-/inter-node) latency model.

The nonblocking point-to-point API this file was named for
(``isend``/``irecv``/``Request``/``wait_all``) had no caller and was
deleted together with its tests; the latency-model tests keep their
ids here.
"""

import pytest

from repro.runtime import CORI_HASWELL, run_spmd
from repro.runtime.perfmodel import MachineModel


class TestHierarchicalLatency:
    def test_node_of(self):
        m = MachineModel(ranks_per_node=4)
        assert m.node_of(0) == 0
        assert m.node_of(3) == 0
        assert m.node_of(4) == 1

    def test_intra_node_cheaper(self):
        m = MachineModel(ranks_per_node=4, intra_node_alpha_fraction=0.25)
        assert m.p2p_alpha(0, 1) == pytest.approx(m.alpha * 0.25)
        assert m.p2p_alpha(0, 5) == pytest.approx(m.alpha)

    def test_single_node_run_cheaper_than_spread(self):
        # Same communication pattern; co-located ranks pay less latency.
        def prog(comm):
            for _ in range(20):
                comm.send(1, (comm.rank + 1) % comm.size)
                comm.recv((comm.rank - 1) % comm.size)
            return None

        packed = MachineModel(ranks_per_node=8)
        spread = MachineModel(ranks_per_node=1)
        t_packed = run_spmd(4, prog, machine=packed, timeout=10.0).elapsed
        t_spread = run_spmd(4, prog, machine=spread, timeout=10.0).elapsed
        assert t_packed < t_spread

    def test_scaled_model_keeps_hierarchy(self):
        m = CORI_HASWELL.scaled(100.0)
        assert m.p2p_alpha(0, 1) < m.p2p_alpha(0, 100)
