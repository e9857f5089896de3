"""Benchmark harness utilities (sweeps, speedups, table formatting)."""

from .ascii_plot import ascii_plot, sparkline
from .extrapolate import RunObservables, ScalingModel, calibrate, observe_run
from .harness import (
    CheckpointOverhead,
    SweepResultSet,
    measure_checkpoint_overhead,
    run_trial,
    run_variant_sweep,
    speedup_table,
    strong_scaling_curve,
)
from .record import (
    BENCH_FORMAT_VERSION,
    append_bench_record,
    find_repo_root,
    read_bench_records,
)
from .tables import format_series, format_table

__all__ = [
    "BENCH_FORMAT_VERSION",
    "CheckpointOverhead",
    "RunObservables",
    "ascii_plot",
    "sparkline",
    "ScalingModel",
    "SweepResultSet",
    "append_bench_record",
    "calibrate",
    "find_repo_root",
    "observe_run",
    "format_series",
    "format_table",
    "measure_checkpoint_overhead",
    "read_bench_records",
    "run_trial",
    "run_variant_sweep",
    "speedup_table",
    "strong_scaling_curve",
]
