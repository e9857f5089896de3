"""Mutant matrix for the SPMD linter: which nets kill which defects.

Each mutant is one text substitution at a real call site, in the shape
a lint rule names.  For every mutant the script copies the tree into a
temporary directory (the tree passed in is never written), applies the
substitution there and asks three nets whether they see it:

* **lint** — does ``repro-louvain lint src/ --select RULE`` report more
  findings than on the unmutated copy?  (A mutant outside ``src/``, the
  tag mutants in the tests, has its own file linted with ``src/``.)
  ``null`` when the tree's linter no longer has the rule;
* **tier-1** — does the test suite, minus the linter's own two test
  files, fail?  First failing test id and seconds are kept; for the
  process-level rules below the killing test is rerun, since a defect
  that depends on addresses or thread timing may fail it by chance;
* **hash seed** (SPMD101/103/104 mutants only) — does the fingerprint
  table differ between ``PYTHONHASHSEED=0`` and ``1``?

A mutant must be a real defect: behaviour changes on some input, rank
count or hash seed.  One that provably changes nothing carries its
reason in ``equivalent`` and does not count for or against its rule.
One record per mutant is appended to ``BENCH_analysis_mutants.json``
at the repository root this script lives in.

Usage (from the repository root; about an hour on two CPUs)::

    PYTHONPATH=src python benchmarks/analysis_mutants.py TREE
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import append_bench_record  # noqa: E402

#: The linter's own tests: with them the tree's lint-clean test would
#: report every lint-flagged mutant as a tier-1 kill.
LINTER_TESTS = (
    "tests/test_analysis_spmdlint.py",
    "tests/test_analysis_summaries.py",
)
TIER1 = (
    "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider",
    *(f"--ignore={path}" for path in LINTER_TESTS),
)
#: Rules whose hazard is a separate process's: a hash seed, an address
#: or thread timing.
HASH_SEED_RULES = frozenset({"SPMD101", "SPMD103", "SPMD104"})
#: Reruns of the test that killed such a mutant: a defect that depends on
#: addresses or timing may fail a test by chance, which is no kill.
RERUNS = 5
#: A green tier-1 takes ~2.7 min; anything past this is a hang.
TIMEOUT_S = 1200


class Mutant(NamedTuple):
    id: str
    rule: str
    path: str
    old: str
    new: str
    what: str
    equivalent: str | None = None


_DL = "src/repro/core/distlouvain.py"
_CK = "src/repro/resilience/checkpoint.py"
_SNAP = "src/repro/resilience/snapshots.py"
_REFINE = "src/repro/core/refine.py"
_DG = "src/repro/graph/distgraph.py"
_VAL = "src/repro/core/validate.py"
_CFG = "src/repro/core/config.py"
_COMM_TEST = "tests/test_runtime_comm.py"

_ALLREDUCE = '    total = comm.allreduce(partial, category="allreduce")\n'
_BARRIER = (
    '        comm.barrier(category="checkpoint")\n'
    "        return manifest\n"
)
_COLLIDE = (
    '    return bool(comm.allreduce(conflict, op="lor", category="other"))\n'
)
_EXCLUSIONS = "CACHE_KEY_EXCLUSIONS = {\n"

MUTANTS: tuple[Mutant, ...] = (
    # SPMD001: rank-dependent control flow around a collective.
    Mutant(
        "m1", "SPMD001", _DL, _ALLREDUCE,
        "    total = partial\n    if comm.rank != 1:\n    " + _ALLREDUCE,
        "rank 1 skips _global_modularity's allreduce",
    ),
    Mutant(
        "m2", "SPMD001", _DL, _ALLREDUCE,
        "    total = partial\n    if dg.num_local_entries:\n    "
        + _ALLREDUCE,
        "_global_modularity skips its allreduce on a rank with no entries",
    ),
    Mutant(
        "ckpt_barrier", "SPMD001", _CK, _BARRIER,
        "        if comm.rank == 0:\n    " + _BARRIER,
        "only rank 0 enters the checkpoint's closing barrier",
    ),
    Mutant(
        "collide_rank0", "SPMD001", _REFINE, _COLLIDE,
        "    if comm.rank == 0:\n"
        '        conflict = comm.allreduce(conflict, op="lor", '
        'category="other")\n'
        "    return bool(conflict)\n",
        "only rank 0 reduces _labels_collide's conflict flag",
    ),
    # SPMD002: an early return under a rank-local condition.
    Mutant(
        "a", "SPMD002", "src/repro/core/coarsen.py",
        "    query_ids = np.asarray(query_ids, dtype=np.int64)\n",
        "    query_ids = np.asarray(query_ids, dtype=np.int64)\n"
        "    if len(query_ids) == 0:\n"
        "        return query_ids.copy()\n",
        "remote_lookup returns early on an empty query",
    ),
    Mutant(
        "ghost_plan_empty", "SPMD002", _DG,
        "        ghosts, _ = self._scan_targets()\n",
        "        ghosts, _ = self._scan_targets()\n"
        "        if len(ghosts) == 0:\n"
        "            none = np.zeros(comm.size + 1, dtype=np.int64)\n"
        "            self._plan = GhostPlan(ghost_ids=ghosts, "
        "ghost_cuts=none, send_ids=ghosts, send_cuts=none)\n"
        "            return self._plan\n",
        "build_ghost_plan returns an empty plan on a rank with no ghosts",
    ),
    Mutant(
        "ghost_exchange_empty", "SPMD002", _DG,
        "        received = comm.alltoall(\n            np.split(\n",
        "        if len(plan.ghost_ids) == 0:\n"
        "            return local_values[:0]\n"
        "        received = comm.alltoall(\n            np.split(\n",
        "exchange_ghost_values returns early on a rank with no ghosts",
    ),
    Mutant(
        "collide_empty", "SPMD002", _REFINE,
        "    pairs = np.unique(np.stack([refined, original], axis=1), "
        "axis=0)\n",
        "    if len(refined) == 0:\n"
        "        return False\n"
        "    pairs = np.unique(np.stack([refined, original], axis=1), "
        "axis=0)\n",
        "_labels_collide returns early on a rank with no vertices",
    ),
    # SPMD003: a point-to-point tag no peer uses (src/ has no send/recv).
    Mutant(
        "tag_send_a", "SPMD003", _COMM_TEST,
        'comm.send("a", 1, tag=1)', 'comm.send("a", 1, tag=3)',
        "the first tagged send uses a tag no recv names",
    ),
    Mutant(
        "tag_send_b", "SPMD003", _COMM_TEST,
        'comm.send("b", 1, tag=2)', 'comm.send("b", 1, tag=4)',
        "the second tagged send uses a tag no recv names",
    ),
    Mutant(
        "tag_recv", "SPMD003", _COMM_TEST,
        "second = comm.recv(0, tag=2)", "second = comm.recv(0, tag=5)",
        "a tagged recv waits on a tag no send names",
    ),
    # SPMD101: iteration over a set.
    Mutant(
        "merge_failures_set", "SPMD101", _VAL,
        "        merged = [f for sub in all_failures for f in sub]\n",
        "        merged = [f for sub in all_failures for f in set(sub)]\n",
        "merge_global iterates each rank's failures as a set "
        "(hash-seed order, duplicates lost)",
    ),
    Mutant(
        "manifest_shards_set", "SPMD101", _CK,
        "                    for r, f, n, d in sorted(infos)\n",
        "                    for r, f, n, d in set(infos)\n",
        "the manifest lists shards in set order (hash seed: the "
        "filenames and digests are strings)",
    ),
    Mutant(
        "shard_arrays_set", "SPMD101", _CK,
        "            arrays = {**base_arrays, **arrays}\n",
        "            arrays = {k: {**base_arrays, **arrays}[k] "
        "for k in set(base_arrays) | set(arrays)}\n",
        "a full checkpoint's arrays are written in set order (zip "
        "member order, so the shard's bytes and digest, follow the "
        "hash seed)",
    ),
    Mutant(
        "snapshot_ranks_set", "SPMD101", _SNAP,
        "for rank in sorted(parts)", "for rank in set(parts)",
        "a snapshot's shards in set order of their ranks",
        equivalent="the keys are the ranks 0..p-1: a set of small "
        "non-negative ints iterates in ascending order",
    ),
    # SPMD102: an unseeded random generator.
    Mutant(
        "b", "SPMD102", "src/repro/core/heuristics.py",
        "    return np.random.default_rng(\n"
        "        np.random.SeedSequence(entropy=seed, "
        "spawn_key=(rank, phase))\n"
        "    )\n",
        "    return np.random.default_rng()\n",
        "make_rank_rng draws ET's coins from OS entropy",
    ),
    Mutant(
        "fault_plan_rng", "SPMD102", "src/repro/resilience/faults.py",
        "        rng = np.random.default_rng(seed)\n"
        "        victim = int(rng.integers(size))\n",
        "        rng = np.random.default_rng()\n"
        "        victim = int(rng.integers(size))\n",
        "FaultPlan.from_seed picks its victim and step from OS entropy",
    ),
    Mutant(
        "corrupt_rng", "SPMD102", "src/repro/resilience/faults.py",
        "    rng = np.random.default_rng(seed)\n"
        "    nbytes = min(nbytes, size)\n",
        "    rng = np.random.default_rng()\n"
        "    nbytes = min(nbytes, size)\n",
        "corrupt_file flips bytes at an offset from OS entropy",
    ),
    Mutant(
        "churn_rng", "SPMD102", "src/repro/core/dynamic.py",
        "        rng = np.random.default_rng(seed)\n"
        "        eu, ev, _ = g.edge_array()\n",
        "        rng = np.random.default_rng()\n"
        "        eu, ev, _ = g.edge_array()\n",
        "EdgeChurn.random draws its churn from OS entropy",
    ),
    # SPMD103: an order or key taken from id().
    Mutant(
        "trace_merge_id", "SPMD103", "src/repro/runtime/tracing.py",
        "sorted(traces, key=lambda t: t.rank)", "sorted(traces, key=id)",
        "TraceReport.merge orders the ranks' traces by address",
    ),
    Mutant(
        "latest_manifest_id", "SPMD103", _CK,
        "sorted(entries, key=lambda m: -m.seq)",
        "sorted(entries, key=lambda m: -id(m))",
        "latest_valid_manifest tries checkpoints newest-address first",
    ),
    Mutant(
        "manifest_shards_id", "SPMD103", _CK,
        "                    for r, f, n, d in sorted(infos)\n",
        "                    for r, f, n, d in sorted(infos, key=id)\n",
        "the manifest lists shards in address order",
    ),
    # SPMD104: dict-ordered iteration where the insertion order varies.
    Mutant(
        "snapshot_shards_arrival", "SPMD104", _SNAP,
        "shards = tuple(parts[rank][0] for rank in sorted(parts))",
        "shards = tuple(part[0] for part in parts.values())",
        "a snapshot lists its shards in the ranks' arrival order",
    ),
    Mutant(
        "failed_ranks_arrival", "SPMD104", "src/repro/runtime/executor.py",
        'failed_ranks=sorted(failures)',
        'failed_ranks=[r for r in failures.keys()]',
        "spmd_run_failed lists the failed ranks in failure-time order",
    ),
    Mutant(
        "first_failure_arrival", "SPMD104", "src/repro/runtime/errors.py",
        "        self.rank = min(self.causes) if self.causes else -1\n",
        "        self.rank = next((r for r in self.causes.keys()), -1)\n",
        "RankFailedError.rank names the first rank to fail in wall "
        "time, not the lowest",
    ),
    # SPMD201: a payload with no deterministic wire image.
    Mutant(
        "d", "SPMD201", _VAL,
        "comm.allgather(self.failures, category=\"other\")",
        "comm.allgather(set(self.failures), category=\"other\")",
        "AuditReport.merge_global allgathers set(self.failures)",
    ),
    Mutant(
        "collide_generator", "SPMD201", _REFINE,
        "        [(lab[a:b], orig[a:b]) for a, b in zip(cuts[:-1], "
        "cuts[1:])],\n",
        "        ((lab[a:b], orig[a:b]) for a, b in zip(cuts[:-1], "
        "cuts[1:])),\n",
        "_labels_collide's alltoall sends a generator",
    ),
    Mutant(
        "load_generator", "SPMD201", _DG,
        "            [(u[k], v[k], w[k]) for k in keeps], category=\"io\"\n",
        "            ((u[k], v[k], w[k]) for k in keeps), category=\"io\"\n",
        "DistGraph.load_binary's alltoall sends a generator",
    ),
    Mutant(
        "manifest_gather_set", "SPMD201", _CK,
        "            (comm.rank, filename, len(blob), digest),\n",
        "            {comm.rank, filename, len(blob), digest},\n",
        "a checkpoint's shard record is gathered as a set",
    ),
    # SPMD302: a schedule-guarding field left out of cache_key().
    Mutant(
        "c", "SPMD302", _CFG, _EXCLUSIONS,
        _EXCLUSIONS + '    "vertex_following": "perf: pre-merges leaves",\n',
        "vertex_following added to CACHE_KEY_EXCLUSIONS",
    ),
    Mutant(
        "exclude_coloring", "SPMD302", _CFG, _EXCLUSIONS,
        _EXCLUSIONS + '    "use_coloring": "perf: orders the sweep",\n',
        "use_coloring added to CACHE_KEY_EXCLUSIONS",
    ),
    Mutant(
        "exclude_refine", "SPMD302", _CFG, _EXCLUSIONS,
        _EXCLUSIONS + '    "refine": "quality: splits communities",\n',
        "refine added to CACHE_KEY_EXCLUSIONS",
    ),
    Mutant(
        "exclude_tracking", "SPMD302", _CFG, _EXCLUSIONS,
        _EXCLUSIONS + '    "track_assignments": "output: per-phase maps",\n',
        "track_assignments added to CACHE_KEY_EXCLUSIONS",
    ),
    Mutant(
        "audit_kind", "SPMD302", _CFG,
        '        "audit: adds replicated verification collectives; '
        'detection "\n',
        '        "perf: adds replicated verification collectives; '
        'detection "\n',
        "validate_invariants' exclusion kind relabelled audit -> perf",
        equivalent="only the linter reads the kind: cache_key() and "
        "every run are unchanged",
    ),
    # SPMD303: a LouvainConfig attribute that does not exist.
    Mutant(
        "typo_resolution", "SPMD303", _DL,
        "float(total[0] / w - config.resolution * total[1] / (w * w))",
        "float(total[0] / w - config.resolutoin * total[1] / (w * w))",
        "_global_modularity reads config.resolutoin",
    ),
    Mutant(
        "typo_etc_exit", "SPMD303", _DL,
        "and inactive_fraction >= config.etc_exit_fraction",
        "and inactive_fraction >= config.etc_exit_frac",
        "_exit_tests reads config.etc_exit_frac (ETC only)",
    ),
    Mutant(
        "typo_refine", "SPMD303", _DL,
        '    if config.refine == "leiden":\n        _refine_phase',
        '    if config.refinement == "leiden":\n        _refine_phase',
        "_finish_phase reads config.refinement",
    ),
    Mutant(
        "typo_et_floor", "SPMD303", "src/repro/core/heuristics.py",
        "self.floor = config.et_inactive_floor",
        "self.floor = config.et_floor",
        "ETState reads config.et_floor (ET variants only)",
    ),
)


def apply(tree: Path, m: Mutant) -> int:
    """Substitute ``m`` in ``tree``; returns the line it lands on."""
    path = tree / m.path
    text = path.read_text(encoding="utf-8")
    if text.count(m.old) != 1:
        raise ValueError(
            f"{m.id}: {m.path} holds {text.count(m.old)} copies of the site"
        )
    path.write_text(text.replace(m.old, m.new), encoding="utf-8")
    return text[: text.index(m.old)].count("\n") + 1


def _run(tree: Path, args: list[str], env: dict[str, str] | None = None):
    full_env = {**os.environ, "PYTHONPATH": str(tree / "src"), **(env or {})}
    return subprocess.run(
        [sys.executable, *args], cwd=tree, env=full_env, capture_output=True,
        text=True, timeout=TIMEOUT_S,
    )


def lint_count(tree: Path, m: Mutant) -> int | None:
    """Findings of ``m.rule`` over ``src/`` (and ``m.path``); ``None``
    when the tree's linter has no such rule (or no linter)."""
    targets = ["src/"] + ([] if m.path.startswith("src/") else [m.path])
    proc = _run(tree, [
        "-m", "repro.cli", "lint", *targets, "--select", m.rule,
        "--format", "json", "--fail-on", "never",
    ])
    if proc.returncode != 0:
        return None
    return len(json.loads(proc.stdout)["findings"])


def tier1(tree: Path) -> dict:
    t0 = time.perf_counter()
    try:
        proc = _run(tree, list(TIER1))
    except subprocess.TimeoutExpired:
        return {"killed": True, "first_failure": "timeout",
                "seconds": round(time.perf_counter() - t0, 1)}
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return {
        "killed": proc.returncode != 0,
        "first_failure": failed.group(1) if failed else (
            None if proc.returncode == 0 else f"exit {proc.returncode}"
        ),
        "seconds": round(time.perf_counter() - t0, 1),
    }


def reruns_failed(tree: Path, test_id: str) -> int:
    return sum(
        _run(tree, ["-m", "pytest", "-q", "-p", "no:cacheprovider", test_id])
        .returncode != 0
        for _ in range(RERUNS)
    )


def hash_seed(tree: Path) -> dict:
    outs = []
    for seed in ("0", "1"):
        try:
            proc = _run(tree, ["-m", "tests.fingerprints"],
                        env={"PYTHONHASHSEED": seed})
            outs.append(proc.stdout if proc.returncode == 0
                        else f"exit {proc.returncode}")
        except subprocess.TimeoutExpired:
            outs.append("timeout")
    return {"differs": outs[0] != outs[1],
            "failed": any(o.startswith(("exit", "timeout")) for o in outs)}


def _copy(src: Path, dst: Path) -> None:
    shutil.copytree(src, dst, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", "*.egg-info", ".pytest_cache", "BENCH_*.json",
    ))


def _tree_label(tree: Path) -> str:
    proc = subprocess.run(
        ["git", "-C", str(tree), "describe", "--always", "--dirty"],
        capture_output=True, text=True,
    )
    return proc.stdout.strip() or "unversioned"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree", type=Path, help="checkout to mutate (a copy)")
    tree = parser.parse_args(argv).tree.resolve()
    label = _tree_label(tree)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy(tree, clean)
        baseline: dict[tuple[str, str], int | None] = {}
        for m in MUTANTS:
            key = (m.rule, m.path if not m.path.startswith("src/") else "")
            if key not in baseline:
                baseline[key] = lint_count(clean, m)
            work = Path(tmp) / m.id
            _copy(clean, work)
            line = apply(work, m)
            found = lint_count(work, m)
            before = baseline[key]
            verdict = tier1(work)
            if m.rule in HASH_SEED_RULES and "::" in (
                verdict["first_failure"] or ""
            ):
                verdict["reruns_failed"] = (
                    f"{reruns_failed(work, verdict['first_failure'])}/{RERUNS}"
                )
            record = {
                "kind": "analysis_mutant",
                "tree": label,
                "mutant": m.id,
                "rule": m.rule,
                "site": f"{m.path}:{line}",
                "what": m.what,
                "equivalent": m.equivalent,
                "lint": {
                    "flagged": None if found is None or before is None
                    else found > before,
                    "findings": found,
                },
                "tier1": verdict,
                "hash_seed": hash_seed(work) if m.rule in HASH_SEED_RULES
                else None,
                "host": f"{platform.machine()} x{os.cpu_count()}",
            }
            shutil.rmtree(work)
            append_bench_record("analysis_mutants", record, root=REPO_ROOT)
            print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
