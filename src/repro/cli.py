"""Command-line interface: the paper's workflow as four subcommands.

::

    repro-louvain generate soc-friendster graph.bin --scale small
    repro-louvain convert  native.txt graph.bin
    repro-louvain info     graph.bin
    repro-louvain detect   graph.bin --ranks 8 --variant etc --alpha 0.25 \\
                           --out communities.txt --checkpoint-dir ckpts/
    repro-louvain submit   graph.bin --ranks 8 --variant etc \\
                           --cache-dir cache/
    repro-louvain serve    jobs.json --workers 4 --cache-dir cache/
    repro-louvain tune     graph.bin --db tuning.json --trials 8
    repro-louvain ckpt     validate ckpts/
    repro-louvain compare  communities.txt ground_truth.txt
    repro-louvain lint     src/repro --fail-on error

``generate`` produces the synthetic stand-ins from the dataset registry,
``convert`` runs the paper's native-format-to-binary step, ``detect``
does the distributed ingest + Louvain run (optionally writing resilience
checkpoints, or resuming from them with ``--resume``), ``submit`` runs
one job through the detection service (with a persistent result cache,
so a repeated submission is served without recomputing), ``serve``
drives a whole job file concurrently through the service engine, ``tune``
searches for the best (config, ranks) plan for a graph and stores it in
a persistent tuning database (see ``docs/TUNING.md``), ``ckpt``
inspects/validates a checkpoint directory, ``compare`` scores a result
against ground truth with the §V-D metrics, ``lint`` runs the spmdlint
determinism and payload rules (see ``docs/ANALYSIS.md``).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Any, Callable, Sequence

import numpy as np


def _start_exporters(
    stack: contextlib.ExitStack,
    args: argparse.Namespace,
    collect: Callable[[], Any],
) -> None:
    """Wire ``--prometheus`` / ``--metrics-port`` onto a collect callback."""
    if getattr(args, "prometheus", None):
        from .obs import PeriodicExporter

        stack.enter_context(
            PeriodicExporter(collect, prometheus_path=args.prometheus)
        )
        print(f"metrics exported to {args.prometheus}")
    if getattr(args, "metrics_port", None) is not None:
        from .obs import MetricsServer

        server = stack.enter_context(
            MetricsServer(collect, port=args.metrics_port)
        )
        print(f"metrics served on http://127.0.0.1:{server.port}/metrics")


def build_parser() -> argparse.ArgumentParser:
    from .generators import SCALES

    parser = argparse.ArgumentParser(
        prog="repro-louvain",
        description="Distributed Louvain community detection "
                    "(IPDPS 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate", help="generate a named dataset stand-in as a binary file"
    )
    gen.add_argument("dataset", help="registry name, e.g. soc-friendster")
    gen.add_argument("output", help="binary edge-list file to write")
    gen.add_argument("--scale", default="small", choices=tuple(SCALES))
    gen.add_argument("--seed", type=int, default=0)

    conv = sub.add_parser(
        "convert", help="convert a text graph (SNAP/METIS) to binary"
    )
    conv.add_argument("input", help=".txt/.tsv (SNAP) or .graph/.metis")
    conv.add_argument("output", help="binary edge-list file to write")

    info = sub.add_parser("info", help="describe a binary graph file")
    info.add_argument("input")

    # Config flags shared by every job-running subcommand — one
    # registration instead of the historical per-command duplicates.
    config_flags = argparse.ArgumentParser(add_help=False)
    config_flags.add_argument(
        "--variant",
        default="baseline",
        choices=("baseline", "threshold-cycling", "et", "etc", "et+tc"),
    )
    config_flags.add_argument("--alpha", type=float, default=0.25)
    config_flags.add_argument("--tau", type=float, default=1e-6)
    config_flags.add_argument("--resolution", type=float, default=1.0,
                              help="resolution parameter gamma (zoom "
                                   "level; >1 favours smaller communities)")
    config_flags.add_argument("--refine", default="none",
                              choices=("none", "leiden"),
                              help="post-phase refinement: 'leiden' splits "
                                   "internally disconnected communities")
    config_flags.add_argument("--vertex-following", action="store_true",
                              help="Grappolo heuristic: merge single-degree "
                                   "vertices before phase 1")
    config_flags.add_argument("--seed", type=int, default=0)

    det = sub.add_parser(
        "detect",
        help="run distributed Louvain on a binary graph file",
        parents=[config_flags],
    )
    det.add_argument("input")
    det.add_argument("--ranks", type=int, default=4)
    det.add_argument("--resolutions", metavar="G1,G2,...",
                     help="zoom-level sweep: run once per resolution and "
                          "emit one assignment per level (overrides "
                          "--resolution)")
    det.add_argument("--coloring", action="store_true",
                     help="distance-1 coloring (§VI future work)")
    det.add_argument("--out", help="write 'vertex community' text file")
    det.add_argument("--save", help="write .npz result file")
    det.add_argument("--trace", action="store_true",
                     help="print the time breakdown")
    det.add_argument("--chrome-trace",
                     help="write a Perfetto/chrome://tracing JSON timeline")
    det.add_argument("--prometheus", metavar="FILE",
                     help="write the run's modelled-time/traffic breakdown "
                          "in Prometheus text exposition format")
    det.add_argument("--checkpoint-dir",
                     help="write resilience checkpoints under this directory")
    det.add_argument("--checkpoint-every", type=int, default=1,
                     metavar="PHASES",
                     help="checkpoint every N phase boundaries (default 1)")
    det.add_argument("--checkpoint-every-iterations", type=int,
                     metavar="ITERS",
                     help="also checkpoint every K iterations inside a phase")
    det.add_argument("--resume", action="store_true",
                     help="resume from the latest valid checkpoint in "
                          "--checkpoint-dir instead of starting fresh")

    smt = sub.add_parser(
        "submit",
        help="run one job through the detection service",
        parents=[config_flags],
    )
    smt.add_argument("input", help="binary graph file")
    smt.add_argument("--ranks", type=int, default=4)
    smt.add_argument("--priority", type=int, default=0)
    smt.add_argument("--timeout", type=float,
                     help="job deadline in wall-clock seconds")
    smt.add_argument("--max-retries", type=int, default=1)
    smt.add_argument("--cache-dir",
                     help="persistent result cache directory (repeat "
                          "submissions are served from it)")
    smt.add_argument("--no-cache", action="store_true",
                     help="bypass the result cache for this job")
    smt.add_argument("--out", help="write 'vertex community' text file")
    smt.add_argument("--save", help="write .npz result file")
    smt.add_argument("--tune-db", metavar="FILE",
                     help="tuning database: plan (config, ranks) from it "
                          "instead of the flags above (tune=\"auto\")")
    smt.add_argument("--prometheus", metavar="FILE",
                     help="write the engine's metrics in Prometheus text "
                          "exposition format")
    smt.add_argument("--event-log", metavar="FILE",
                     help="append structured JSON-lines events "
                          "(submission, run, cache, drift) to FILE")

    srv = sub.add_parser(
        "serve", help="drive a JSON job file through the service engine"
    )
    srv.add_argument(
        "jobs",
        help="JSON job file: [{\"graph\": path, \"ranks\": n, "
             "\"config\": {...}, \"priority\": p, \"repeat\": k}, ...]",
    )
    srv.add_argument("--workers", type=int, default=4,
                     help="concurrent jobs (default 4); with --shards, "
                          "workers per shard")
    srv.add_argument("--queue-depth", type=int, default=64,
                     help="admission bound on pending jobs (default 64)")
    srv.add_argument("--shards", type=int, default=0,
                     help="route jobs across N engine worker processes "
                          "by graph fingerprint (0 = in-process engine, "
                          "the default)")
    srv.add_argument("--cache-dir",
                     help="persistent result cache directory")
    srv.add_argument("--metrics", metavar="FILE",
                     help="write the metrics snapshot as JSON")
    srv.add_argument("--prometheus", metavar="FILE",
                     help="write metrics in Prometheus text exposition "
                          "format, refreshed periodically and on exit")
    srv.add_argument("--metrics-port", type=int, metavar="PORT",
                     help="serve /metrics (Prometheus) and /metrics.json "
                          "on this port while jobs run (0 = ephemeral)")
    srv.add_argument("--event-log", metavar="FILE",
                     help="append structured JSON-lines events to FILE "
                          "(shards share the file, tagged by origin)")

    tnt = sub.add_parser(
        "tenant",
        help="drive a multi-tenant streaming workload through a "
             "sharded serving tier",
    )
    tnt.add_argument(
        "workload",
        help="JSON workload: {\"tenants\": [{\"name\", \"graph\"|"
             "\"generate\", \"ranks\", \"max_queued\", "
             "\"churn_absolute\", \"churn_fraction\", \"config\"}], "
             "\"events\": [{\"op\": \"detect\"|\"add\"|\"remove\"|"
             "\"flush\"|\"wait\"|\"kill-shard\"|\"health\", ...}]}",
    )
    tnt.add_argument("--shards", type=int, default=2,
                     help="engine worker processes (default 2)")
    tnt.add_argument("--workers", type=int, default=2,
                     help="concurrent jobs per shard (default 2)")
    tnt.add_argument("--queue-depth", type=int, default=64,
                     help="per-shard admission bound (default 64)")
    tnt.add_argument("--cache-dir",
                     help="shared persistent result cache directory")
    tnt.add_argument("--tune-db", metavar="FILE",
                     help="shared tuning database file")
    tnt.add_argument("--metrics", metavar="FILE",
                     help="write the fleet metrics snapshot as JSON")
    tnt.add_argument("--prometheus", metavar="FILE",
                     help="write the fleet metrics (per-shard registries "
                          "merged with a shard label, plus tier-level "
                          "series) in Prometheus text exposition format")
    tnt.add_argument("--event-log", metavar="FILE",
                     help="append structured JSON-lines events to FILE "
                          "(tier and shards share it, tagged by origin)")
    tnt.add_argument("--drift", action="store_true",
                     help="enable the simulated-vs-predicted drift monitor "
                          "in every shard engine")
    tnt.add_argument("--drain", choices=("complete", "cancel"),
                     default="complete",
                     help="on exit, run queued jobs to completion or "
                          "cancel them (default complete)")

    tune = sub.add_parser(
        "tune",
        help="plan the best (config, ranks) for a graph and store it "
             "in a persistent tuning database",
    )
    tune.add_argument("input", help="binary graph file")
    tune.add_argument("--db", default="tuning.json", metavar="FILE",
                      help="tuning database file (default tuning.json); "
                           "a prior plan for the same graph is served "
                           "without re-running trials")
    tune.add_argument("--trials", type=int, default=8,
                      help="candidates admitted to measured trials after "
                           "cost-model screening (default 8)")
    tune.add_argument("--budget", type=float, metavar="SECONDS",
                      help="cap on cumulative modelled seconds spent in "
                           "measured trials")
    tune.add_argument("--max-ranks", type=int, default=8,
                      help="largest rank count in the search space "
                           "(default 8)")
    tune.add_argument("--tolerance", type=float, default=0.02,
                      help="quality guard: tuned modularity may fall at "
                           "most this far below the paper-default "
                           "baseline (default 0.02)")
    tune.add_argument("--seed", type=int, default=0,
                      help="search seed (the whole search is "
                           "deterministic given it)")
    tune.add_argument("--machine", default="cori-haswell",
                      help="machine model preset (default cori-haswell)")
    tune.add_argument("--format", choices=("text", "json"), default="text",
                      help="report format on stdout (default text)")
    tune.add_argument("--report", metavar="FILE",
                      help="also write the full JSON report here")
    tune.add_argument("--force", action="store_true",
                      help="re-run the search even on a database hit")

    ckpt = sub.add_parser(
        "ckpt", help="inspect or validate a checkpoint directory"
    )
    ckpt.add_argument("action", choices=("list", "validate"))
    ckpt.add_argument("directory", help="checkpoint directory to inspect")

    cmp_ = sub.add_parser(
        "compare", help="score detected communities against ground truth"
    )
    cmp_.add_argument("detected", help="'vertex community' text file")
    cmp_.add_argument("truth", help="'vertex community' text file")

    lint = sub.add_parser(
        "lint", help="static SPMD determinism and payload checks (spmdlint)"
    )
    lint.add_argument(
        "paths", nargs="+", help="files or directories to analyse"
    )
    lint.add_argument(
        "--format", choices=("text", "json", "github"), default="text",
        help="output format (default text; github emits workflow "
             "annotation commands)",
    )
    lint.add_argument(
        "--exclude", metavar="GLOBS",
        help="comma-separated path globs to skip (matched against the "
             "posix path and the basename, e.g. 'tests/data/*')",
    )
    lint.add_argument(
        "--fail-on",
        choices=("info", "warning", "error", "never"),
        default="warning",
        help="exit nonzero if any finding is at least this severe "
             "(default warning)",
    )
    lint.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--ignore", metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _cmd_generate(args) -> int:
    from .generators import dataset
    from .graph import write_edgelist

    spec = dataset(args.dataset)
    el = spec.generate(scale=args.scale, seed=args.seed)
    nbytes = write_edgelist(args.output, el)
    print(
        f"wrote {args.output}: {el.num_vertices} vertices, "
        f"{el.num_edges} edges ({nbytes} bytes) — stand-in for "
        f"{spec.name} ({spec.paper_edges} edges in the paper)"
    )
    return 0


def _cmd_convert(args) -> int:
    from .graph.textio import convert_to_binary

    el = convert_to_binary(args.input, args.output)
    print(
        f"converted {args.input} -> {args.output}: "
        f"{el.num_vertices} vertices, {el.num_edges} edges"
    )
    return 0


def _cmd_info(args) -> int:
    from .graph import read_edgelist
    from .graph.metrics import graph_stats

    el = read_edgelist(args.input)
    stats = graph_stats(el.to_csr())
    print(f"{args.input}: {stats.format()}")
    return 0


def _cmd_detect(args) -> int:
    from .core import distributed_louvain
    from .core.resultio import save_result, write_communities_text
    from .graph import DistGraph
    from .resilience import CheckpointManager
    from .runtime import run_spmd

    config = _config_from_args(args, use_coloring=args.coloring)
    if args.resolutions:
        if args.resume or args.checkpoint_dir:
            print(
                "error: --resolutions runs batch jobs; it cannot be "
                "combined with --resume/--checkpoint-dir",
                file=sys.stderr,
            )
            return 1
        return _detect_resolutions(args, config)
    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 1
    checkpoints = None
    if args.checkpoint_dir:
        checkpoints = CheckpointManager(
            args.checkpoint_dir,
            every_phases=args.checkpoint_every,
            every_iterations=args.checkpoint_every_iterations,
            label=config.label(),
            config_key=config.cache_key(),
        )
    if args.resume and checkpoints.latest(args.ranks) is None:
        print(
            f"error: no valid checkpoint for {args.ranks} rank(s) "
            f"under {args.checkpoint_dir!r}",
            file=sys.stderr,
        )
        return 1

    def main_spmd(comm):
        # A resumed run rebuilds its graph slice from the checkpoint,
        # so the (possibly long) distributed ingest is skipped entirely.
        dg = None if args.resume else DistGraph.load_binary(comm, args.input)
        return distributed_louvain(
            comm, dg, config, checkpoints=checkpoints, resume=args.resume
        )

    spmd = run_spmd(
        args.ranks, main_spmd, trace_events=bool(args.chrome_trace)
    )
    result = spmd.value
    result.elapsed = spmd.elapsed
    result.trace = spmd.trace
    print(f"{config.label()} on {args.ranks} ranks: {result.summary()}")
    if args.trace:
        print(spmd.trace.format())
    if args.out:
        write_communities_text(args.out, result.assignment)
        print(f"communities written to {args.out}")
    if args.save:
        save_result(args.save, result)
        print(f"result saved to {args.save}")
    if args.chrome_trace:
        import json

        with open(args.chrome_trace, "w", encoding="utf-8") as fh:
            json.dump(spmd.trace.to_chrome_trace(), fh)
        print(f"timeline written to {args.chrome_trace} "
              "(open in Perfetto / chrome://tracing)")
    if args.prometheus:
        from .obs import trace_to_registry, write_prometheus

        write_prometheus(args.prometheus, trace_to_registry(spmd.trace))
        print(f"metrics written to {args.prometheus}")
    return 0


def _leveled_path(path: str, resolution: float) -> str:
    """``communities.txt`` at resolution 0.5 -> ``communities.r0.5.txt``."""
    import os

    root, ext = os.path.splitext(path)
    return f"{root}.r{resolution:g}{ext}"


def _detect_resolutions(args, config) -> int:
    """Zoom-level sweep: one cached detection per resolution."""
    from .core.resultio import save_result, write_communities_text
    from .service import DetectionRequest, Engine

    try:
        levels = [float(tok) for tok in args.resolutions.split(",") if tok]
    except ValueError:
        print(f"error: bad --resolutions {args.resolutions!r}",
              file=sys.stderr)
        return 2
    if not levels:
        print("error: --resolutions needs at least one value",
              file=sys.stderr)
        return 2
    request = DetectionRequest(
        graph_path=args.input, config=config, nranks=args.ranks
    )
    with Engine(workers=1) as engine:
        responses = engine.detect_at_resolutions(request, levels)
    failed = 0
    for level, response in zip(levels, responses):
        print(f"resolution {level:g}: {response.summary()}")
        result = response.result
        if result is None:
            failed += 1
            continue
        if args.out:
            path = _leveled_path(args.out, level)
            write_communities_text(path, result.assignment)
            print(f"communities written to {path}")
        if args.save:
            path = _leveled_path(args.save, level)
            save_result(path, result)
            print(f"result saved to {path}")
    return 1 if failed else 0


def _config_from_args(args, use_coloring: bool = False):
    from .core import LouvainConfig, Variant

    return LouvainConfig(
        variant=Variant(args.variant),
        alpha=args.alpha,
        tau=args.tau,
        resolution=args.resolution,
        refine=args.refine,
        vertex_following=args.vertex_following,
        use_coloring=use_coloring,
        seed=args.seed,
    )


def _cmd_submit(args) -> int:
    from .core.resultio import save_result, write_communities_text
    from .service import DetectionRequest, Engine, ResultStore

    request = DetectionRequest(
        graph_path=args.input,
        config=_config_from_args(args),
        nranks=args.ranks,
        priority=args.priority,
        timeout=args.timeout,
        max_retries=args.max_retries,
        use_cache=not args.no_cache,
        tune="auto" if args.tune_db else "off",
    )
    store = (
        ResultStore(directory=args.cache_dir)
        if args.cache_dir
        else None
    )
    tuning_db = None
    if args.tune_db:
        from .tune import TuningDB

        tuning_db = TuningDB(args.tune_db)
    event_log = None
    if args.event_log:
        from .obs import EventLog

        event_log = EventLog(args.event_log, origin="cli-submit")
    try:
        with Engine(
            workers=1, store=store, tuning_db=tuning_db, event_log=event_log
        ) as engine:
            response = engine.detect(request, timeout=args.timeout)
            if args.prometheus:
                from .obs import write_prometheus

                write_prometheus(args.prometheus, engine.metrics.registry)
                print(f"metrics written to {args.prometheus}")
    finally:
        if event_log is not None:
            event_log.close()
    print(response.summary())
    result = response.result
    if result is None:
        return 1
    if args.out:
        write_communities_text(args.out, result.assignment)
        print(f"communities written to {args.out}")
    if args.save:
        save_result(args.save, result)
        print(f"result saved to {args.save}")
    return 0


def _cmd_serve(args) -> int:
    import json

    from .core import LouvainConfig
    from .service import AdmissionError, DetectionRequest, Engine, ResultStore

    with open(args.jobs, "r", encoding="utf-8") as fh:
        specs = json.load(fh)
    if not isinstance(specs, list):
        print("error: job file must hold a JSON list", file=sys.stderr)
        return 2
    if args.shards > 0:
        return _serve_sharded(args, specs)

    store = (
        ResultStore(directory=args.cache_dir)
        if args.cache_dir
        else ResultStore()
    )
    failed = 0
    event_log = None
    if args.event_log:
        from .obs import EventLog

        event_log = EventLog(args.event_log, origin="cli-serve")
    with contextlib.ExitStack() as stack, Engine(
        workers=args.workers,
        queue_depth=args.queue_depth,
        store=store,
        event_log=event_log,
    ) as engine:
        if event_log is not None:
            stack.callback(event_log.close)
        _start_exporters(stack, args, lambda: engine.metrics.registry.snapshot())
        job_ids = []
        for i, spec in enumerate(specs):
            try:
                request = DetectionRequest(
                    graph_path=spec["graph"],
                    config=LouvainConfig.from_dict(spec.get("config", {})),
                    nranks=int(spec.get("ranks", 4)),
                    priority=int(spec.get("priority", 0)),
                    timeout=spec.get("timeout"),
                    max_retries=int(spec.get("max_retries", 1)),
                    tag=str(spec.get("tag", f"jobs[{i}]")),
                )
            except (KeyError, TypeError, ValueError) as exc:
                print(f"error: jobs[{i}]: {exc}", file=sys.stderr)
                return 2
            for _ in range(int(spec.get("repeat", 1))):
                try:
                    job_ids.append(engine.submit(request))
                except AdmissionError as exc:
                    # Backpressure: report the shed job and keep going.
                    print(f"rejected jobs[{i}]: {exc}")
                    failed += 1
        for job_id in job_ids:
            response = engine.wait(job_id)
            print(response.summary())
            if response.result is None:
                failed += 1
        print(engine.metrics.format())
        if args.metrics:
            with open(args.metrics, "w", encoding="utf-8") as fh:
                json.dump(engine.metrics.snapshot(), fh, indent=1)
            print(f"metrics written to {args.metrics}")
    return 1 if failed else 0


def _serve_sharded(args, specs) -> int:
    """``serve --shards N``: fan the job file across shard processes."""
    import json

    from .core import LouvainConfig
    from .service import AdmissionError, DetectionRequest
    from .serving import ShardConfig, ShardDeadError, ShardRouter

    router = ShardRouter(
        [
            ShardConfig(
                shard_id=i,
                workers=args.workers,
                queue_depth=args.queue_depth,
                cache_dir=args.cache_dir,
                event_log_path=args.event_log,
            )
            for i in range(args.shards)
        ]
    )

    def collect_fleet():
        from .obs import merge_snapshots

        snaps = {}
        for s in router.live_shards():
            try:
                snaps[str(s.shard_id)] = s.registry_snapshot()
            except ShardDeadError:
                continue
        return merge_snapshots(snaps, labelname="shard")

    failed = 0
    stack = contextlib.ExitStack()
    try:
        _start_exporters(stack, args, collect_fleet)
        submitted = []  # (shard, job_id)
        for i, spec in enumerate(specs):
            try:
                request = DetectionRequest(
                    graph_path=spec["graph"],
                    config=LouvainConfig.from_dict(spec.get("config", {})),
                    nranks=int(spec.get("ranks", 4)),
                    priority=int(spec.get("priority", 0)),
                    timeout=spec.get("timeout"),
                    max_retries=int(spec.get("max_retries", 1)),
                    tenant=str(spec.get("tenant", "")),
                    tag=str(spec.get("tag", f"jobs[{i}]")),
                )
            except (KeyError, TypeError, ValueError) as exc:
                print(f"error: jobs[{i}]: {exc}", file=sys.stderr)
                return 2
            key = request.graph_fingerprint()
            for _ in range(int(spec.get("repeat", 1))):
                shard = router.route(key)
                try:
                    submitted.append((shard, shard.submit(request)))
                except AdmissionError as exc:
                    print(f"rejected jobs[{i}]: {exc}")
                    failed += 1
        for shard, job_id in submitted:
            try:
                response = shard.wait(job_id)
            except ShardDeadError as exc:
                print(f"lost {job_id}: {exc}")
                failed += 1
                continue
            print(f"[shard {shard.shard_id}] {response.summary()}")
            if response.result is None:
                failed += 1
        if args.metrics:
            snapshot = {
                str(s.shard_id): s.metrics() for s in router.live_shards()
            }
            with open(args.metrics, "w", encoding="utf-8") as fh:
                json.dump(snapshot, fh, indent=1)
            print(f"metrics written to {args.metrics}")
    finally:
        stack.close()  # final exporter write while shards are still live
        router.shutdown()
    return 1 if failed else 0


def _cmd_tenant(args) -> int:
    """Drive a multi-tenant streaming workload through a serving tier."""
    import json

    from .core import LouvainConfig
    from .generators import make_graph
    from .graph.binio import read_edgelist
    from .service import AdmissionError
    from .serving import ChurnPolicy, ServingTier, TenantQuota

    with open(args.workload, "r", encoding="utf-8") as fh:
        workload = json.load(fh)
    if not isinstance(workload, dict) or "tenants" not in workload:
        print(
            "error: workload must be an object with a \"tenants\" list",
            file=sys.stderr,
        )
        return 2

    tier = ServingTier(
        shards=args.shards,
        workers_per_shard=args.workers,
        queue_depth=args.queue_depth,
        cache_dir=args.cache_dir,
        tuning_db_path=args.tune_db,
        event_log_path=args.event_log,
        drift=args.drift,
    )
    failed = 0
    pending = []
    stack = contextlib.ExitStack()
    try:
        _start_exporters(stack, args, tier.registry_snapshot)
        for spec in workload["tenants"]:
            name = spec["name"]
            churn_kwargs = {}
            if "churn_absolute" in spec:
                churn_kwargs["absolute"] = int(spec["churn_absolute"])
            if "churn_fraction" in spec:
                churn_kwargs["fraction"] = float(spec["churn_fraction"])
            tier.create_tenant(
                name,
                quota=TenantQuota(
                    max_queued=int(spec.get("max_queued", 8)),
                    max_ranks=int(spec.get("max_ranks", 8)),
                    edge_budget=spec.get("edge_budget"),
                ),
                config=LouvainConfig.from_dict(spec.get("config", {})),
                nranks=int(spec.get("ranks", 4)),
                churn=ChurnPolicy(**churn_kwargs),
            )
            if "generate" in spec:
                gen = spec["generate"]
                graph = make_graph(
                    gen["name"],
                    scale=gen.get("scale", "tiny"),
                    seed=int(gen.get("seed", 0)),
                )
            else:
                graph = read_edgelist(spec["graph"]).to_csr()
            tier.load_graph(name, graph)
            print(tier.registry.get(name).describe())

        def wait_pending():
            nonlocal failed
            while pending:
                handle = pending.pop(0)
                response = tier.wait(handle)
                state = response.state.value
                print(
                    f"[{handle.tenant}] {handle.kind} job "
                    f"{handle.job_id} on shard {handle.shard_id}: {state}"
                )
                if response.result is None:
                    failed += 1

        for i, event in enumerate(workload.get("events", [])):
            op = event["op"]
            try:
                if op == "detect":
                    pending.append(tier.detect(event["tenant"]))
                elif op == "add":
                    handle = tier.add_edges(
                        event["tenant"],
                        event["u"],
                        event["v"],
                        event.get("w"),
                    )
                    if handle is not None:
                        print(
                            f"[{event['tenant']}] churn threshold "
                            f"crossed (net {handle.net_churn}); "
                            "incremental re-detection submitted"
                        )
                        pending.append(handle)
                elif op == "remove":
                    handle = tier.remove_edges(
                        event["tenant"], event["u"], event["v"]
                    )
                    if handle is not None:
                        pending.append(handle)
                elif op == "flush":
                    handle = tier.flush(event["tenant"])
                    if handle is not None:
                        pending.append(handle)
                elif op == "wait":
                    wait_pending()
                elif op == "kill-shard":
                    tier.kill_shard(int(event["shard"]))
                    print(f"shard {event['shard']} killed")
                elif op == "health":
                    print(f"health: {tier.health_check()}")
                else:
                    print(f"error: events[{i}]: unknown op {op!r}",
                          file=sys.stderr)
                    return 2
            except AdmissionError as exc:
                print(f"rejected events[{i}]: {exc}")
                failed += 1
        wait_pending()

        report = tier.drain(cancel_pending=args.drain == "cancel")
        for sid in sorted(report):
            states = [state for _, state in report[sid]]
            print(f"shard {sid} drained: {len(states)} job(s)")
        for name in tier.registry.names():
            print(tier.registry.get(name).describe())
        if args.metrics:
            with open(args.metrics, "w", encoding="utf-8") as fh:
                json.dump(tier.metrics(), fh, indent=1)
            print(f"metrics written to {args.metrics}")
    finally:
        stack.close()  # final exporter write while shards are still live
        tier.shutdown()
    return 1 if failed else 0


def _cmd_tune(args) -> int:
    import json

    from .graph import read_edgelist
    from .runtime.perfmodel import PRESETS
    from .tune import (
        TunerSettings,
        TuningDB,
        default_space,
        plan_for_graph,
    )

    machine = PRESETS.get(args.machine)
    if machine is None:
        print(
            f"error: unknown machine {args.machine!r}; "
            f"available: {sorted(PRESETS)}",
            file=sys.stderr,
        )
        return 2
    try:
        settings = TunerSettings(
            trials=args.trials,
            budget_seconds=args.budget,
            quality_tolerance=args.tolerance,
            seed=args.seed,
            machine=machine,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    g = read_edgelist(args.input).to_csr()
    db = TuningDB(args.db)
    cached = db.get(g.fingerprint())
    if cached is not None and not args.force:
        record, report = cached, None
    else:
        space = default_space(max_ranks=args.max_ranks)
        full = plan_for_graph(g, space=space, settings=settings)
        db.put(full.record)
        record, report = full.record, full

    payload = {
        "input": args.input,
        "db": args.db,
        "cached": report is None,
        "record": record.to_dict(),
    }
    if report is not None:
        payload["candidates_total"] = report.candidates_total
        payload["candidates_screened"] = report.candidates_screened
        payload["notes"] = list(report.notes)
    if args.format == "json":
        print(json.dumps(payload, indent=1, sort_keys=True))
    elif report is None:
        print(
            f"database hit for {args.input} "
            f"(fingerprint {record.fingerprint[:12]}…) — no trials run"
        )
        print(record.summary())
        for pt in record.frontier:
            print(
                f"  frontier: {pt['elapsed']:.4f}s "
                f"Q={pt['modularity']:.4f}  {pt['describe']}"
            )
    else:
        print(report.format())
        print(f"plan stored in {args.db}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        print(f"report written to {args.report}")
    return 0


def _cmd_ckpt(args) -> int:
    from .resilience import scan_checkpoints, verify_manifest

    entries = scan_checkpoints(args.directory)
    if not entries:
        print(f"{args.directory}: no checkpoints found")
        return 1 if args.action == "validate" else 0
    bad = 0
    for name, manifest, err in entries:
        if manifest is None:
            print(f"{name}: INVALID ({err})")
            bad += 1
            continue
        problems = verify_manifest(manifest) if args.action == "validate" else []
        if problems:
            print(f"{name}: INVALID ({'; '.join(problems)})")
            bad += 1
        else:
            print(f"{name}: {manifest.describe()}")
    if args.action == "validate":
        good = len(entries) - bad
        print(f"{good}/{len(entries)} checkpoint(s) valid")
        return 1 if bad else 0
    return 0


def _cmd_compare(args) -> int:
    from .core.resultio import read_communities_text
    from .quality import best_match_scores, normalized_mutual_information

    detected = read_communities_text(args.detected)
    truth = read_communities_text(args.truth)
    if len(detected) != len(truth):
        print(
            f"error: {args.detected} covers {len(detected)} vertices, "
            f"{args.truth} covers {len(truth)}",
            file=sys.stderr,
        )
        return 1
    scores = best_match_scores(truth, detected)
    nmi = normalized_mutual_information(truth, detected)
    print(scores.format())
    print(f"NMI={nmi:.6f}")
    print(
        f"detected {len(np.unique(detected))} communities vs "
        f"{len(np.unique(truth))} in ground truth"
    )
    return 0


def _cmd_lint(args) -> int:
    from .analysis import RULES, SEVERITY_ORDER, lint_paths

    if args.list_rules:
        for r in RULES.values():
            print(f"{r.id}  [{r.severity:7s}]  {r.summary}")
        return 0
    def split(spec: str) -> list[str]:
        return [x.strip() for x in spec.split(",") if x.strip()]

    try:
        result = lint_paths(
            args.paths,
            select=split(args.select) if args.select else None,
            ignore=split(args.ignore) if args.ignore else None,
            exclude=split(args.exclude) if args.exclude else [],
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(result.to_json())
    elif args.format == "github":
        print(result.format_github())
    else:
        print(result.format_text())

    if result.parse_errors:
        return 2
    if args.fail_on == "never":
        return 0
    threshold = SEVERITY_ORDER[args.fail_on]
    gating = sum(
        1
        for f in result.findings
        if SEVERITY_ORDER[f.severity] >= threshold
    )
    return 1 if gating else 0


_COMMANDS = {
    "generate": _cmd_generate,
    "convert": _cmd_convert,
    "info": _cmd_info,
    "detect": _cmd_detect,
    "submit": _cmd_submit,
    "serve": _cmd_serve,
    "tenant": _cmd_tenant,
    "tune": _cmd_tune,
    "ckpt": _cmd_ckpt,
    "compare": _cmd_compare,
    "lint": _cmd_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
