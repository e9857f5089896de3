"""Self-tests of the end-to-end benchmark (``--quick``: tiny graphs, < 30 s).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_bench.py``;
not part of the tier-1 suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_contract_matches_the_tables(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert contract["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in contract["workloads"]] == list(workloads.WORKLOADS)
    for w in contract["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    shared = [m for m in metrics.END_TO_END if m.driver]
    assert contract["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in shared
    ]
    assert contract["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER
    ]
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    names += [w["name"] for w in contract["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": 0.25} in contract["end_to_end"]
    runs = 4 + 22 * len(contract["workloads"])
    assert 1 <= contract["run_seconds"] <= 60
    assert runs * (contract["run_seconds"] + 10) < 3420


@pytest.fixture(scope="module")
def quick_run():
    """The one command, ``--quick``: stdout and the latest.json it wrote."""
    proc = subprocess.run(
        RUN + ["--quick", "--seed", "5"], capture_output=True, text=True,
        cwd=ROOT, timeout=120,
    )
    with open(os.path.join(HERE, "results", "latest.json")) as fh:
        return proc, json.load(fh)


def test_quick_run_prints_every_metric_with_its_unit(quick_run, contract):
    proc, latest = quick_run
    assert proc.returncode == 0, proc.stdout + proc.stderr
    printed: dict[str, set[str]] = {}
    for line in proc.stdout.splitlines():
        found = re.match(r"(\S+) = (\S+) (\S+)\Z", line)
        if found:
            float(found.group(2))
            printed.setdefault(found.group(1), set()).add(found.group(3))
    for m in contract["end_to_end"] + contract["per_layer"]:
        assert printed.get(m["name"]) == {m["unit"]}, m["name"]
    assert printed["hit_cal_s"] == {"s"} and printed["incr_cal_s"] == {"s"}
    for name in workloads.WORKLOADS:
        assert os.path.exists(
            os.path.join(HERE, "results", f"trace_{name}.json")
        )
    stamp = latest["stamp"]
    assert stamp["seed"] == 5 and stamp["quick"] is True
    assert {"nproc", "python", "numpy", "git_commit", "seconds"} <= set(stamp)


def test_passes_agree_on_exact_counters_and_nothing_failed(quick_run):
    _, latest = quick_run
    exact = ("hash", "modelled_s", "modularity", "messages", "bytes",
             "collective_calls", "phases", "iterations")
    for name, (run,) in latest["workloads"].items():
        assert run["failed"] == 0 and run["traced_failed"] == 0, name
        assert run["attempted"] > 0 and run["samples"]["detect"]
        assert len(run["samples"]["detect"]) == run["inputs"]
        traced = {c["input"]: c for c in run["traced_cold"]}
        assert traced, name
        for cold in run["cold"]:
            if cold["input"] in traced:
                for key in exact:
                    assert cold[key] == traced[cold["input"]][key], (name, key)
        layers = run["per_layer"]
        assert layers["trace.attributed_fraction"] > 0.9, name
        assert (layers["resilience.checkpoint_calls"] > 0) == (
            name == "service_mix"
        )


def test_traced_pass_restores_every_wrapped_attribute(tmp_path):
    def originals():
        return [(o, a, vars(o)[a]) for o, a, _ in
                spans.patch_points(spans.Recorder())]

    before = originals()
    out = workloads.run(
        workloads.WORKLOADS["service_mix"], seed=2, seconds=8.0, trace=True,
        quick=True, corrupt=False, work_dir=str(tmp_path),
    )
    assert out["failed"] == 0, out["failures"]
    for (o, a, x), (_, _, y) in zip(before, originals()):
        assert x is y, f"{o.__name__}.{a} was not restored"

    recorded = out["recorder"].spans
    assert spans.tree_errors(recorded) == []
    names = {s.name for s in recorded}
    assert {"core.sweep", "core.rank_main", "runtime.run_spmd",
            "runtime.alltoall", "service.submit", "service.execute",
            "service.store_get", "resilience.checkpoint", "core.dynamic",
            "graph.fingerprint", "graph.binio_read"} <= names
    selfs = spans.self_times(recorded)
    assert min(selfs.values()) >= 0


def test_end_to_end_numbers_are_refused_from_a_traced_pass():
    import run as runner

    with pytest.raises(ValueError, match="untraced"):
        runner.summarise({"seed": 0, "traced": None, "untraced": {"trace": 1}})


def test_corrupted_assignment_fails_the_run():
    proc = subprocess.run(
        RUN + ["--workload", "social_p1", "--trace", "0", "--quick",
               "--corrupt"],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
    )
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode != 0
    assert last["correct"] is False and last["failed"] > 0
    assert "FAILED" in proc.stdout


def test_no_result_where_the_program_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("results", ".work", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "mesh_p8",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_compare_verdicts():
    wall = next(m for m in metrics.END_TO_END if m.name == "detect_wall_s")
    steady = [1.00, 1.01, 0.99, 1.02, 1.00]
    assert compare.verdict(wall, steady, steady, False)[0] == "same"
    assert compare.verdict(wall, steady, [x * 1.3 for x in steady], False)[0] == "worse"
    assert compare.verdict(wall, steady, [x * 0.7 for x in steady], False)[0] == "better"
    noisy = [1.0, 1.4, 0.7, 1.2, 0.9]
    assert compare.verdict(wall, noisy, noisy[::-1], False)[0] == "unresolved"
    modelled = next(m for m in metrics.END_TO_END if m.name == "modelled_s")
    assert compare.verdict(modelled, [0.5], [0.5], True)[0] == "same"
    assert compare.verdict(modelled, [0.5], [0.5 + 1e-6], True)[0] == "worse"
