"""The top-level ``repro`` namespace: service names plus the library
entry points, which are the ``repro.core`` functions themselves."""

import numpy as np
import pytest

import repro
from repro.core import LouvainConfig
from repro.core import distlouvain as core_distlouvain
from repro.core.dynamic import incremental_louvain as core_incremental
from repro.generators import make_graph
from tests.conftest import disk_checkpoints


@pytest.fixture(scope="module")
def tiny():
    return make_graph("soc-friendster", scale="tiny")


class TestRunLouvain:
    def test_is_core_run_louvain(self):
        assert repro.run_louvain is core_distlouvain.run_louvain

    def test_resume_round_trip(self, tiny, tmp_path):
        cfg = LouvainConfig(seed=5)
        ckpt = disk_checkpoints(tmp_path / "ckpt", cfg, every_iterations=2)
        baseline = core_distlouvain.run_louvain(tiny, 2, cfg, checkpoints=ckpt)
        resumed = repro.run_louvain(
            None, 2, cfg, checkpoints=ckpt, resume=True
        )
        assert np.array_equal(resumed.assignment, baseline.assignment)
        assert resumed.modularity == baseline.modularity


class TestDistributedLouvain:
    def test_is_core_distributed_louvain(self):
        assert (
            repro.distributed_louvain is core_distlouvain.distributed_louvain
        )


class TestIncrementalLouvain:
    def test_is_core_incremental_louvain(self):
        assert repro.incremental_louvain is core_incremental


class TestFacadeExports:
    def test_service_names_exported(self):
        for name in (
            "DetectionRequest",
            "DetectionResponse",
            "Engine",
            "JobState",
            "ResultStore",
            "AdmissionError",
            "detect",
        ):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_core_imports_stay_warning_free(self, tiny, recwarn):
        repro.run_louvain(tiny, 2, LouvainConfig())
        deprecations = [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]
        assert deprecations == []
