"""``run.py --compare A.json B.json``: judge B against A, metric by metric.

One row per workload x end-to-end metric: both medians with quartiles
over the runs in each file, the ratio with its base, the bound, and a
verdict.  With four or more runs a side the rule is the one the
choosing-metrics guide gives: *unresolved* when the run-to-run spread is
wider than the bound (unless every B run beats every A run), *worse*
when B's median is worse by more than the bound, *better* when it is
better by more than the spread.  With fewer runs there is no spread to
measure, so only the bound decides.  Exact metrics (same seeds and inputs
on both sides) must match to 1e-9, run for run.
"""

from __future__ import annotations

import json

import metrics

EXACT_RTOL = 1e-9
MIN_RUNS_FOR_SPREAD = 4


def _values(runs: list[dict], name: str) -> list[float]:
    return [r["end_to_end"][name] for r in runs if name in r.get("end_to_end", {})]


def _same_inputs(a: list[dict], b: list[dict]) -> bool:
    return [(r["seed"], r.get("inputs")) for r in a] == [
        (r["seed"], r.get("inputs")) for r in b
    ]


def verdict(m: metrics.Metric, a: list[float], b: list[float],
            same_inputs: bool) -> tuple[str, float, float]:
    """(verdict, signed relative gain of B over A, relative spread)."""
    qa, qb = metrics.quartiles(a), metrics.quartiles(b)
    sign = 1.0 if m.better == "higher" else -1.0
    gain = sign * (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
    spread = max(
        (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb)
    )
    if m.exact and same_inputs and len(a) == len(b):
        if all(abs(x - y) <= EXACT_RTOL * max(abs(x), abs(y)) for x, y in zip(a, b)):
            return "same", 0.0, 0.0
        return ("better" if gain > 0 else "worse"), gain, 0.0
    if min(len(a), len(b)) < MIN_RUNS_FOR_SPREAD:
        if gain < -m.bound:
            return "worse", gain, spread
        return ("better" if gain > m.bound else "same"), gain, spread
    if all(sign * (y - x) > 0 for x in a for y in b):
        return "better", gain, spread
    if spread > m.bound:
        return "unresolved", gain, spread
    if gain < -m.bound:
        return "worse", gain, spread
    return ("better" if gain > spread else "same"), gain, spread


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    print(f"A = {path_a} (commit {a['stamp']['git_commit'][:12]}, "
          f"seed {a['stamp']['seed']}, {a['stamp']['runs']} run(s))")
    print(f"B = {path_b} (commit {b['stamp']['git_commit'][:12]}, "
          f"seed {b['stamp']['seed']}, {b['stamp']['runs']} run(s))")
    header = (f"{'workload':14s} {'metric':22s} {'unit':5s} "
              f"{'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s} "
              f"{'B/A':>8s} {'bound':>6s} {'spread':>7s}  verdict")
    print(header)
    bad = 0
    for name, runs_a in a["workloads"].items():
        runs_b = b["workloads"].get(name)
        if runs_b is None:
            print(f"{name:14s} missing from B")
            bad += 1
            continue
        same_inputs = _same_inputs(runs_a, runs_b)
        for m in metrics.end_to_end_for(name):
            va, vb = _values(runs_a, m.name), _values(runs_b, m.name)
            if not va or not vb:
                print(f"{name:14s} {m.name:22s} missing")
                bad += 1
                continue
            word, _, spread = verdict(m, va, vb, same_inputs)
            qa, qb = metrics.quartiles(va), metrics.quartiles(vb)
            bound = "exact" if m.exact and same_inputs else f"{m.bound:.2f}"
            print(
                f"{name:14s} {m.name:22s} {m.unit:5s} "
                f"{qa[1]:12.6g} [{qa[0]:9.4g},{qa[2]:9.4g}] "
                f"{qb[1]:12.6g} [{qb[0]:9.4g},{qb[2]:9.4g}] "
                f"{qb[1] / qa[1] if qa[1] else float('nan'):8.4f} {bound:>6s} "
                f"{spread:7.4f}  {word}"
            )
            bad += word in ("worse", "unresolved")
    print(f"# B/A is B's median over A's median (the base); "
          f"{bad} row(s) worse, unresolved or missing")
    return 1 if bad else 0
