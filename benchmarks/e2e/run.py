#!/usr/bin/env python3
"""Two-clock end-to-end benchmark: wall and modelled time, layer by layer.

One workload, one pass, in this process (what the CI driver calls)::

    python3 benchmarks/e2e/run.py --workload mesh_p8 --seed 3 --seconds 16 --trace 0

prints every metric of the pass by name with its unit and, as the last
line, ``{"correct": ..., "attempted": ..., "failed": ..., "metrics": ...}``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.

Everything (no ``--trace``)::

    python3 benchmarks/e2e/run.py [--seed N] [--workload NAME] [--quick] [--runs R]

runs each workload in a fresh subprocess -- an untraced pass, then a
separate traced pass -- checks every output, prints every metric and
writes ``benchmarks/e2e/results/latest.json`` plus one Chrome trace
``trace_<workload>.json`` per workload.  Both forms exit non-zero when a
check fails.  ``--compare A.json B.json`` judges two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, ".work")
#: Seconds per pass under --quick (tiny graphs; a smoke run, not numbers).
QUICK_SECONDS = 2.0


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run only this workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float,
                   help="length of one pass (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1),
                   help="run one pass of --workload in this process")
    p.add_argument("--quick", action="store_true",
                   help="tiny graphs, 2-second passes")
    p.add_argument("--runs", type=int, default=1,
                   help="full mode: repeat with seeds seed..seed+runs-1")
    p.add_argument("--corrupt", action="store_true",
                   help="flip a label in every result; the run must fail")
    p.add_argument("--detail", help=argparse.SUPPRESS)
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    return p.parse_args(argv)


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def pass_seconds(args: argparse.Namespace) -> float:
    if args.seconds is not None:
        return args.seconds
    return QUICK_SECONDS if args.quick else float(load_contract()["run_seconds"])


# ----------------------------------------------------------------------
# One pass, in this process
# ----------------------------------------------------------------------
def one_pass(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import repro from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    import metrics
    import spans
    import workloads

    import_s = time.perf_counter() - started
    try:
        w = workloads.WORKLOADS[args.workload]
    except KeyError:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as work_dir:
        detail = workloads.run(
            w, seed=args.seed, seconds=pass_seconds(args),
            trace=bool(args.trace), quick=args.quick, corrupt=args.corrupt,
            work_dir=work_dir,
        )
    rec = detail.pop("recorder", None)
    if args.trace:
        detail["metrics"]["setup.import_s"] = import_s
        table = metrics.PER_LAYER
    else:
        table = metrics.end_to_end_for(w.name)

    values = detail["metrics"]
    print(f"# {w.name} seed={args.seed} inputs={detail['inputs']} "
          f"scale={detail['scale']} trace={args.trace}")
    for m in table:
        print(f"{m.name} = {values[m.name]!r} {m.unit}")
    for line in detail["failures"]:
        print(f"FAILED {line}")

    if args.detail:
        with open(args.detail, "w") as fh:
            json.dump(detail, fh)
        if rec is not None:
            shown = {op for op, _, i in rec.ops if i < 3}
            trace_path = os.path.join(
                os.path.dirname(args.detail), f"trace_{w.name}.json"
            )
            with open(trace_path, "w") as fh:
                json.dump(spans.chrome_trace(
                    [s for s in rec.spans if s.op in shown]), fh)

    # The driver's contract: exactly the BENCHMARK.json metrics.
    listed = {m["name"] for m in load_contract()[
        "per_layer" if args.trace else "end_to_end"]}
    correct = detail["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit}
            for m in table if m.name in listed
        },
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Everything: each workload in fresh subprocesses, untraced then traced
# ----------------------------------------------------------------------
def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def child(args: argparse.Namespace, workload: str, seed: int, trace: int,
          detail_path: str) -> tuple[int, dict | None]:
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(pass_seconds(args)), "--trace", str(trace),
           "--detail", detail_path]
    cmd += ["--quick"] if args.quick else []
    cmd += ["--corrupt"] if args.corrupt else []
    code = subprocess.run(cmd, cwd=ROOT).returncode
    if not os.path.exists(detail_path):
        return code, None
    with open(detail_path) as fh:
        detail = json.load(fh)
    os.unlink(detail_path)
    return code, detail


def everything(args: argparse.Namespace) -> int:
    import numpy

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    os.makedirs(RESULTS, exist_ok=True)
    out = {
        "stamp": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_commit": git_commit(),
            "seed": args.seed,
            "runs": args.runs,
            "seconds": pass_seconds(args),
            "quick": args.quick,
            "written": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        },
        "workloads": {name: [] for name in names},
    }
    status = 0
    for r in range(args.runs):
        for name in names:
            run: dict = {"seed": args.seed + r}
            for trace, key in ((0, "untraced"), (1, "traced")):
                code, detail = child(
                    args, name, args.seed + r, trace,
                    os.path.join(RESULTS, f".{name}.{trace}.json"),
                )
                status = status or code
                run[key] = detail
            out["workloads"][name].append(summarise(run))
    path = os.path.join(RESULTS, "latest.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
    print(f"# wrote {path}; exit {status}")
    return status


def timings(samples: dict[str, list[float]]) -> dict:
    """Median, sample count and the highest percentile with >= 10 beyond."""
    import metrics

    out = {}
    for kind, walls in samples.items():
        high = metrics.high_percentile(walls)
        out[kind] = {
            "n": len(walls),
            "median_s": metrics.quartiles(walls)[1],
            "high_percentile": None if high is None else
            {"percentile": high[0], "value_s": high[1]},
        }
    return out


def summarise(run: dict) -> dict:
    """One run of one workload as ``latest.json`` stores it."""
    untraced, traced = run["untraced"], run["traced"]
    out: dict = {"seed": run["seed"]}
    if untraced is not None:
        if untraced["trace"] != 0:
            raise ValueError("end-to-end numbers must come from an untraced pass")
        out.update(
            inputs=untraced["inputs"], scale=untraced["scale"],
            nranks=untraced["nranks"], end_to_end=untraced["metrics"],
            timings=timings(untraced["samples"]),
            samples=untraced["samples"],
            host_slowdown=untraced["host_slowdown"], cold=untraced["cold"],
            attempted=untraced["attempted"], failed=untraced["failed"],
            failures=untraced["failures"],
        )
    if traced is not None:
        out.update(
            per_layer=traced["metrics"], traced_inputs=traced["inputs"],
            traced_cold=traced["cold"],
            traced_attempted=traced["attempted"],
            traced_failed=traced["failed"],
            traced_failures=traced["failures"],
        )
    return out


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    if args.compare:
        import compare

        return compare.main(*args.compare)
    if args.trace is not None:
        if not args.workload:
            print("--trace needs --workload", file=sys.stderr)
            return 2
        return one_pass(args)
    return everything(args)


if __name__ == "__main__":
    sys.exit(main())
