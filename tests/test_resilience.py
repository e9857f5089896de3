"""Tests for the resilience subsystem: checkpoint/restore + fault injection.

The headline guarantee: kill a run mid-phase, resume it from its last
valid checkpoint, and the final labels and modularity are bit-identical
to an uninterrupted run.
"""

import dataclasses
import json
import os
import shutil
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    EarlyTermination,
    IterationState,
    IterationStats,
    LouvainConfig,
    PhaseStats,
    RunState,
    Variant,
    make_rank_rng,
    run_louvain,
)
from repro.core.distlouvain import _save_checkpoint
from repro.graph import DistGraph, EdgeList
from repro.resilience import (
    CheckpointManager,
    CorruptShardError,
    FaultPlan,
    ManifestError,
    NoCheckpointError,
    RunSnapshots,
    corrupt_checkpoint_shard,
    latest_valid_manifest,
    load_shard,
    pack_iteration_state,
    pack_phase_state,
    read_manifest,
    scan_checkpoints,
    unpack_rank_state,
    verify_manifest,
)
from repro.resilience.checkpoint import _deserialize_shard, _serialize_shard
from repro.runtime import (
    FREE,
    CommTimeoutError,
    InjectedFault,
    RankFailedError,
    run_spmd,
)
from tests.conftest import disk_checkpoints, planted_blocks_graph


def _graph():
    return planted_blocks_graph(
        blocks=4, per_block=12, p_in=0.7, inter_edges=10, seed=3
    )


def _config():
    return LouvainConfig(variant=Variant.ET_TC, alpha=0.25, seed=1)


def _snapshots(**kwargs):
    """In-memory snapshots keyed to :func:`_config`."""
    return RunSnapshots(config_key=_config().cache_key(), **kwargs)


def _crash(g, p, cfg, ckpt_dir, plan, **cadence):
    """Run a job checkpointing to ``ckpt_dir`` that is expected to die
    from the plan."""
    return _crash_with(
        g, p, cfg, disk_checkpoints(ckpt_dir, cfg, **cadence), plan
    )


def _crash_with(g, p, cfg, checkpoints, plan):
    with pytest.raises((RankFailedError, InjectedFault)) as exc:
        run_louvain(g, p, cfg, checkpoints=checkpoints, fault_plan=plan)
    return exc.value


def _injected_fault(exc):
    """Unwrap the InjectedFault whether or not the executor wrapped it."""
    if isinstance(exc, InjectedFault):
        return exc
    for cause in exc.causes.values():
        if isinstance(cause, InjectedFault):
            return cause
    raise AssertionError(f"no InjectedFault among causes: {exc.causes}")


class TestCheckpointResume:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_resume_is_bit_identical(self, tmp_path, p):
        """Crash mid-run, resume, and match the uninterrupted run."""
        g, cfg = _graph(), _config()
        ref = run_louvain(g, p, cfg)
        d = str(tmp_path / "ck")
        plan = FaultPlan(kills={p - 1: 25})
        _crash(g, p, cfg, d, plan, every_iterations=1)
        res = run_louvain(
            g, p, cfg, checkpoints=disk_checkpoints(d, cfg), resume=True
        )
        np.testing.assert_array_equal(ref.assignment, res.assignment)
        assert res.modularity == ref.modularity

    def test_reused_manager_resumes_like_a_fresh_one(self, tmp_path):
        """One manager serves every attempt: handed back to the resumed
        attempt, it cuts a full checkpoint first, as a fresh manager
        over a copy of the directory does, and the two directories end
        up listing the same checkpoints."""
        g, cfg, p = _graph(), _config(), 4
        # (Names of one length: a resume broadcasts the step's path, and
        # its size moves the modelled clock each checkpoint records.)
        same, fresh = (
            disk_checkpoints(tmp_path / name, cfg, every_iterations=1, keep=0)
            for name in ("same", "copy")
        )
        # Dies in phase 0's last iteration, before its checkpoint.
        _crash_with(g, p, cfg, same, FaultPlan(kills={p - 1: 48}))
        shutil.copytree(same.directory, fresh.directory)
        dead = len(scan_checkpoints(same.directory))
        listed = []
        for manager in (same, fresh):
            run_louvain(g, p, cfg, checkpoints=manager, resume=True)
            listed.append([
                (name, m.describe())
                for name, m, _ in scan_checkpoints(manager.directory)
            ])
        assert listed[0] == listed[1]
        (_, first, _), *_ = scan_checkpoints(same.directory)[dead:]
        # Mid-phase, where a manager that remembered the dead attempt's
        # full checkpoint of this phase would cut a delta of it.
        assert (first.kind, first.base) == ("iteration", None)

    def test_resume_from_phase_boundary_only(self, tmp_path):
        """Phase-boundary cadence alone (no mid-phase checkpoints)."""
        g, cfg = _graph(), _config()
        ref = run_louvain(g, 2, cfg)
        d = str(tmp_path / "ck")
        _crash(g, 2, cfg, d, FaultPlan(kills={1: 40}))
        res = run_louvain(
            g, 2, cfg, checkpoints=disk_checkpoints(d, cfg), resume=True
        )
        np.testing.assert_array_equal(ref.assignment, res.assignment)
        assert res.modularity == ref.modularity

    def test_resume_without_checkpoint_raises(self, tmp_path):
        g, cfg = _graph(), _config()
        with pytest.raises((RankFailedError, NoCheckpointError)):
            run_louvain(
                g, 1, cfg, checkpoints=disk_checkpoints(tmp_path / "empty", cfg),
                resume=True,
            )

    def test_checkpointing_does_not_perturb_result(self, tmp_path):
        """Checkpoint writes must never change the algorithm's output."""
        g, cfg = _graph(), _config()
        ref = run_louvain(g, 2, cfg)
        res = run_louvain(
            g, 2, cfg,
            checkpoints=disk_checkpoints(
                tmp_path / "ck", cfg, every_iterations=2
            ),
        )
        np.testing.assert_array_equal(ref.assignment, res.assignment)
        assert res.modularity == ref.modularity

    def test_trace_includes_checkpoint_category(self, tmp_path):
        g, cfg = _graph(), _config()
        res = run_louvain(
            g, 2, cfg, checkpoints=disk_checkpoints(tmp_path / "ck", cfg)
        )
        assert res.trace is not None
        seconds = res.trace.seconds_by_category()
        assert seconds.get("checkpoint", 0.0) > 0.0


class TestCorruption:
    def _checkpointed_run(self, tmp_path):
        g, cfg = _graph(), _config()
        d = str(tmp_path / "ck")
        ref = run_louvain(
            g, 2, cfg, checkpoints=disk_checkpoints(d, cfg, every_iterations=2)
        )
        return g, cfg, d, ref

    def test_corrupt_shard_detected(self, tmp_path):
        g, cfg, d, ref = self._checkpointed_run(tmp_path)
        manifest = latest_valid_manifest(d, expect_size=2)
        assert manifest is not None
        shard = manifest.shard_path(1)
        corrupt_checkpoint_shard(shard, seed=0)
        assert verify_manifest(manifest)  # non-empty problem list
        with pytest.raises(CorruptShardError):
            load_shard(manifest, 1)

    def test_resume_falls_back_to_older_checkpoint(self, tmp_path):
        g, cfg, d, ref = self._checkpointed_run(tmp_path)
        steps = sorted(
            name for name in os.listdir(d) if name.startswith("step-")
        )
        assert len(steps) >= 2  # keep=2 retains the two newest
        newest = read_manifest(os.path.join(d, steps[-1]))
        corrupt_checkpoint_shard(newest.shard_path(0), seed=1)
        survivor = latest_valid_manifest(d, expect_size=2)
        assert survivor is not None
        assert survivor.seq < newest.seq
        res = run_louvain(
            g, 2, cfg, checkpoints=disk_checkpoints(d, cfg), resume=True
        )
        np.testing.assert_array_equal(ref.assignment, res.assignment)
        assert res.modularity == ref.modularity

    def test_all_corrupt_raises_no_checkpoint(self, tmp_path):
        g, cfg, d, ref = self._checkpointed_run(tmp_path)
        for name, manifest, err in scan_checkpoints(d):
            assert manifest is not None and err is None
            for rank in range(manifest.size):
                corrupt_checkpoint_shard(manifest.shard_path(rank), seed=rank)
        with pytest.raises(RankFailedError) as exc:
            run_louvain(
                g, 2, cfg, checkpoints=disk_checkpoints(d, cfg), resume=True
            )
        assert any(
            isinstance(c, NoCheckpointError) for c in exc.value.causes.values()
        )


class TestFaultInjection:
    def test_seeded_plan_is_deterministic(self):
        a = FaultPlan.seeded(7, size=4)
        b = FaultPlan.seeded(7, size=4)
        assert a.kill_point() == b.kill_point()
        assert FaultPlan.seeded(8, size=4).kill_point() != a.kill_point() or (
            # different seeds may collide; at minimum the API is stable
            a.kill_point() is not None
        )

    @pytest.mark.parametrize("p", [1, 2])
    def test_same_seed_same_kill_point(self, tmp_path, p):
        """Two runs under the same plan die at the same operation."""
        g, cfg = _graph(), _config()
        plan = FaultPlan.seeded(11, size=p, min_step=10, max_step=30)
        faults = []
        for attempt in range(2):
            d = str(tmp_path / f"ck{attempt}")
            exc = _crash(g, p, cfg, d, plan, every_iterations=1)
            faults.append(_injected_fault(exc))
        assert faults[0].rank == faults[1].rank
        assert faults[0].op_index == faults[1].op_index
        assert faults[0].op_name == faults[1].op_name

    def test_single_rank_kill_propagates_natively(self, tmp_path):
        """The size==1 fast path raises InjectedFault unwrapped."""
        g, cfg = _graph(), _config()
        with pytest.raises(InjectedFault):
            run_louvain(
                g, 1, cfg,
                checkpoints=disk_checkpoints(tmp_path / "ck", cfg),
                fault_plan=FaultPlan(kills={0: 5}),
            )

    def test_dropped_send_times_out(self):
        def program(comm):
            if comm.rank == 0:
                comm.send({"x": 1}, 1)
                return None
            return comm.recv(0)

        plan = FaultPlan(drops={(0, 1)})
        with pytest.raises(RankFailedError) as exc:
            run_spmd(2, program, fault_plan=plan, timeout=0.5)
        assert any(
            isinstance(c, CommTimeoutError) for c in exc.value.causes.values()
        )

    def test_delay_increases_elapsed(self):
        def program(comm):
            if comm.rank == 0:
                comm.send({"x": 1}, 1)
                return None
            return comm.recv(0)

        plain = run_spmd(2, program)
        delayed = run_spmd(
            2, program, fault_plan=FaultPlan(delays={(0, 1): 2.5})
        )
        assert delayed.elapsed >= plain.elapsed + 2.5

    def test_invalid_seeded_args(self):
        with pytest.raises(ValueError):
            FaultPlan.seeded(0, size=0)
        with pytest.raises(ValueError):
            FaultPlan.seeded(0, size=2, min_step=5, max_step=4)


class TestKillInsideFusedExchange:
    """A sweep round closes with one message per peer (deltas to
    owners + labels to ghosting ranks).  A rank that dies entering it
    leaves its peers inside the exchange with the round's moves made
    locally but delivered nowhere; the resumed run must not see any of
    that.  The same holds for a death at the round's community-info
    request or reply leg, which share one rendezvous: each leg is its
    own ``alltoall`` op to the fault plan."""

    @pytest.mark.parametrize("p,seed", [(2, 5), (4, 6)])
    def test_resumes_bit_identically(self, tmp_path, monkeypatch, p, seed):
        from repro.runtime.comm import Communicator

        g = _graph()
        cfg = LouvainConfig(variant=Variant.ETC, alpha=0.25, seed=1)
        # Every rank issues the same operations: log rank 0's.
        ops = []
        real = Communicator._fault_hook

        def logging_hook(self, op_name, category):
            if self.rank == 0:
                ops.append((op_name, category))
            return real(self, op_name, category)

        with monkeypatch.context() as patch:
            patch.setattr(Communicator, "_fault_hook", logging_hook)
            ref = run_louvain(
                g, p, cfg, checkpoints=disk_checkpoints(
                    tmp_path / "ref", cfg, every_iterations=1
                ),
            )
        # Request, reply, then the fused exchange: the third
        # ``community_comm`` alltoall in a row (op indices are 1-based).
        round_ops = [("alltoall", "community_comm")] * 3
        fused = [
            i + 1 for i in range(2, len(ops)) if ops[i - 2:i + 1] == round_ops
        ]
        assert len(fused) == ref.total_iterations
        # A mid-run round's request leg, reply leg and delta leg.
        for op in range(fused[len(fused) // 2] - 2, fused[len(fused) // 2] + 1):
            plan = FaultPlan.seeded(seed, size=p, min_step=op, max_step=op)
            d = str(tmp_path / f"ck{op}")
            fault = _injected_fault(
                _crash(g, p, cfg, d, plan, every_iterations=1)
            )
            assert (fault.op_index, fault.op_name) == (op, "alltoall")
            res = run_louvain(
                g, p, cfg, resume=True,
                checkpoints=disk_checkpoints(d, cfg, every_iterations=1),
            )
            np.testing.assert_array_equal(ref.assignment, res.assignment)
            assert res.modularity == ref.modularity
            assert res.iterations == ref.iterations
            assert res.phases == ref.phases


class TestKillAtCheckpointCollectives:
    """Each rank in turn killed at each op of a mid-run disk save
    (``bcast``, ``gather``, ``barrier``) and of the gather to rank 0
    and ``bcast`` back that bracket the gathered tail: the victim's
    ``InjectedFault`` is the only primary cause, every other rank raises
    ``RankAborted``, and a resume equals the unkilled run."""

    P = 3

    @pytest.fixture(scope="class")
    def schedule(self, tmp_path_factory):
        """The graph, config, unkilled run and the five ops' ``(op
        index, op name)`` (every rank makes the same ops)."""
        from repro.runtime.comm import Communicator

        g, cfg = _graph(), _config()
        ops = []
        real = Communicator._fault_hook

        def logging_hook(comm, op_name, category):
            if comm.rank == 0 and comm.size == self.P:
                ops.append((op_name, category))
            return real(comm, op_name, category)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Communicator, "_fault_hook", logging_hook)
            ref = run_louvain(g, self.P, cfg, checkpoints=disk_checkpoints(
                tmp_path_factory.mktemp("ref"), cfg, every_iterations=1,
            ))
        saves = [
            i + 1 for i, op in enumerate(ops) if op == ("bcast", "checkpoint")
        ]
        tail = ops.index(("gather", "rebuild")) + 1
        assert ops[tail] == ("bcast", "rebuild")
        mid = saves[len(saves) // 2]
        picked = [mid, mid + 1, mid + 2, tail, tail + 1]
        return g, cfg, ref, [(i, ops[i - 1][0]) for i in picked]

    @pytest.mark.parametrize("at", range(5))
    @pytest.mark.parametrize("victim", range(P))
    def test_victim_alone_fails_and_the_run_resumes(
        self, tmp_path, monkeypatch, schedule, victim, at
    ):
        from repro.core import distlouvain
        from repro.runtime import RankAborted

        g, cfg, ref, ops = schedule
        op, name = ops[at]
        assert name == ["bcast", "gather", "barrier", "gather", "bcast"][at]
        seen: dict[int, BaseException] = {}
        real = distlouvain.distributed_louvain

        def detect(comm, *args, **kwargs):
            try:
                return real(comm, *args, **kwargs)
            except BaseException as exc:
                seen[comm.rank] = exc
                raise

        d = tmp_path / "ck"
        with monkeypatch.context() as patch:
            patch.setattr(distlouvain, "distributed_louvain", detect)
            with pytest.raises(RankFailedError) as excinfo:
                run_louvain(
                    g, self.P, cfg,
                    checkpoints=disk_checkpoints(d, cfg, every_iterations=1),
                    fault_plan=FaultPlan(kills={victim: op}),
                )
        assert set(excinfo.value.causes) == {victim}
        cause = excinfo.value.causes[victim]
        assert isinstance(cause, InjectedFault)
        assert (cause.rank, cause.op_index, cause.op_name) == (victim, op, name)
        assert sorted(seen) == list(range(self.P))
        for rank, exc in seen.items():
            if rank != victim:
                assert isinstance(exc, RankAborted), (rank, exc)
        res = run_louvain(
            g, self.P, cfg, resume=True,
            checkpoints=disk_checkpoints(d, cfg, every_iterations=1),
        )
        np.testing.assert_array_equal(ref.assignment, res.assignment)
        assert res.modularity == ref.modularity
        assert res.iterations == ref.iterations
        assert res.phases == ref.phases


class TestKillAtTheTrackingGather:
    """Each rank in turn killed at phase 1's assignment-tracking gather
    (the original-vertex maps to rank 0), which the detection's world
    makes between the phase's record and the next boundary (on the free
    machine, which never gathers a tail before it): the victim's
    ``InjectedFault`` is the only primary cause, at the op index the
    ranks' own phase loop gave that gather, and a resume equals the
    unkilled run."""

    P = 3
    #: The gather's op index, the same on every rank (pinned: the world
    #: makes every op at the index the per-rank loop made it at).
    OP = 69

    @pytest.fixture(scope="class")
    def schedule(self, tmp_path_factory):
        """The graph, config, unkilled run and the gather's op index."""
        from repro.runtime.comm import Communicator

        g, cfg = _graph(), replace(_config(), track_assignments=True)
        ops = []
        real = Communicator._fault_hook

        def logging_hook(comm, op_name, category):
            if comm.rank == 0 and comm.size == self.P:
                ops.append((op_name, category))
            return real(comm, op_name, category)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Communicator, "_fault_hook", logging_hook)
            ref = run_louvain(
                g, self.P, cfg, machine=FREE,
                checkpoints=disk_checkpoints(
                    tmp_path_factory.mktemp("ref"), cfg, every_iterations=1,
                ),
            )
        gathers = [
            i + 1 for i, op in enumerate(ops) if op == ("gather", "other")
        ]
        assert len(gathers) > 1
        return g, cfg, ref, gathers[1]

    @pytest.mark.parametrize("victim", range(P))
    def test_victim_alone_fails_and_the_run_resumes(
        self, tmp_path, schedule, victim
    ):
        g, cfg, ref, op = schedule
        assert op == self.OP
        d = tmp_path / "ck"
        with pytest.raises(RankFailedError) as excinfo:
            run_louvain(
                g, self.P, cfg, machine=FREE,
                checkpoints=disk_checkpoints(d, cfg, every_iterations=1),
                fault_plan=FaultPlan(kills={victim: op}),
            )
        assert set(excinfo.value.causes) == {victim}
        cause = excinfo.value.causes[victim]
        assert isinstance(cause, InjectedFault)
        assert (cause.rank, cause.op_index, cause.op_name) == (
            victim, op, "gather"
        )
        res = run_louvain(
            g, self.P, cfg, machine=FREE, resume=True,
            checkpoints=disk_checkpoints(d, cfg, every_iterations=1),
        )
        np.testing.assert_array_equal(ref.assignment, res.assignment)
        assert res.modularity == ref.modularity
        assert res.iterations == ref.iterations
        assert res.phases == ref.phases
        assert len(res.phase_assignments) == len(ref.phase_assignments)
        for a, b in zip(res.phase_assignments, ref.phase_assignments):
            np.testing.assert_array_equal(a, b)


class TestConfigKeyGuard:
    def test_cross_config_resume_refused(self, tmp_path):
        """A checkpoint written under one config must not seed a resume
        under semantically different settings."""
        g, cfg = _graph(), _config()
        d = str(tmp_path / "ck")
        _crash(g, 2, cfg, d, FaultPlan(kills={1: 40}))
        other = LouvainConfig(variant=Variant.BASELINE, seed=99)
        with pytest.raises((ValueError, RankFailedError), match="config"):
            run_louvain(
                g, 2, other, checkpoints=disk_checkpoints(d, other),
                resume=True,
            )

    def test_excluded_field_change_still_resumes(self, tmp_path):
        """Auditing is outside the config key: resuming an unaudited
        checkpoint with ``validate_invariants`` on is legal."""
        g, cfg = _graph(), _config()
        ref = run_louvain(g, 2, cfg)
        d = str(tmp_path / "ck")
        _crash(g, 2, cfg, d, FaultPlan(kills={1: 40}))
        audited = replace(cfg, validate_invariants=True)
        res = run_louvain(
            g, 2, audited, checkpoints=disk_checkpoints(d, audited),
            resume=True,
        )
        np.testing.assert_array_equal(ref.assignment, res.assignment)

    def test_manifest_records_config_key(self, tmp_path):
        g, cfg = _graph(), _config()
        d = str(tmp_path / "ck")
        run_louvain(g, 2, cfg, checkpoints=disk_checkpoints(d, cfg))
        manifest = latest_valid_manifest(d, expect_size=2)
        assert manifest.config_key == cfg.cache_key()

    def test_keyless_manager_and_manifest_refused(self, tmp_path):
        with pytest.raises(TypeError, match="config_key"):
            CheckpointManager(str(tmp_path))
        with pytest.raises(TypeError, match="config_key"):
            RunSnapshots()
        g, cfg = _graph(), _config()
        d = str(tmp_path / "ck")
        run_louvain(g, 2, cfg, checkpoints=disk_checkpoints(d, cfg))
        step = latest_valid_manifest(d, expect_size=2).directory
        path = os.path.join(step, "manifest.json")
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        del raw["config_key"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        with pytest.raises(ManifestError, match="config_key"):
            read_manifest(step)

    def test_shard_without_offsets_refused(self, tmp_path):
        """Shards of the removed community-placed layout carry an owner
        map instead of ``offsets``; the unpacker itself refuses them by
        name."""
        g, cfg = _graph(), _config()
        d = str(tmp_path / "ck")
        run_louvain(g, 2, cfg, checkpoints=disk_checkpoints(d, cfg))
        manifest = latest_valid_manifest(d, expect_size=2)
        meta, arrays = load_shard(manifest, 0)
        unpack_rank_state(0, meta, arrays, cfg)  # as written: loads
        del arrays["offsets"]
        with pytest.raises(
            ValueError, match="removed community-placed layout"
        ):
            unpack_rank_state(0, meta, arrays, cfg)


PHASE_ARRAYS = {"index", "edges", "weights", "offsets", "orig_slice"}


def _leafy_graph():
    """``_graph()`` with a pendant vertex hung on every fifth vertex, so
    the vertex-following pre-merge has something to fold."""
    g = _graph()
    n = g.num_vertices
    rows = np.repeat(np.arange(n), np.diff(g.index))
    upper = rows < g.edges
    hosts = np.arange(0, n, 5)
    return EdgeList.from_arrays(
        n + len(hosts),
        np.concatenate([rows[upper], hosts]),
        np.concatenate([g.edges[upper], n + np.arange(len(hosts))]),
    ).to_csr()


def _any(pred):
    return lambda shards: any(pred(meta, arrays) for _, meta, arrays in shards)


#: name -> (config, graph, ``run_louvain`` keywords of the first run, a
#: predicate over the run's ``(manifest, meta, arrays)`` shards proving
#: the state field the case is there for is live in some checkpoint).
#: Together the cases exercise every field of the run state.  A
#: ``machine`` keyword rides every run of its case (:func:`_again`).
RESUME_CASES = {
    "baseline": (LouvainConfig(seed=1), _graph, {}, None),
    "etc": (
        LouvainConfig(variant=Variant.ETC, alpha=0.25, seed=1), _graph, {},
        _any(lambda meta, arrays: "et_rng_state" in meta),
    ),
    # Reaches threshold cycling's forced final pass with ET's RNG live.
    # On a free machine: on Cori the final pass of this graph runs in
    # the tail gathered to rank 0, which cuts no checkpoint.
    "et+tc": (
        LouvainConfig(variant=Variant.ET_TC, alpha=0.25, seed=1), _graph,
        {"machine": FREE},
        _any(
            lambda meta, arrays: meta["in_final_pass"]
            and "et_rng_state" in meta
        ),
    ),
    "tracked": (
        LouvainConfig(seed=1, track_assignments=True), _graph, {},
        lambda shards: {
            meta["rank"] for _, meta, _ in shards
            if meta.get("num_phase_assignments")
        } == {0},
    ),
    # ``orig_slice`` folded through the pre-merge before phase 0.
    "vf+leiden": (
        LouvainConfig(seed=1, vertex_following=True, refine="leiden"),
        _leafy_graph, {},
        _any(
            lambda meta, arrays: meta["phase"] == 0
            and arrays["offsets"][-1] < _leafy_graph().num_vertices
        ),
    ),
    # ``initial_assignment`` rides the phase-0 checkpoint.
    "warm": (
        LouvainConfig(seed=1), _graph,
        {"initial_assignment": np.arange(48) // 2},
        _any(lambda meta, arrays: "seed_assignment" in arrays),
    ),
}


def _again(first_run):
    """The keywords of a case's first run that its resumed runs repeat:
    the machine (a resumed run gathers where its machine says)."""
    return {k: v for k, v in first_run.items() if k == "machine"}


def _flip(path):
    corrupt_checkpoint_shard(path, seed=0)


def _assert_same_run(ref, res, cfg):
    """``res`` — a resumed run — is ``ref`` down to its history."""
    np.testing.assert_array_equal(ref.assignment, res.assignment)
    assert res.modularity == ref.modularity
    assert res.iterations == ref.iterations
    assert res.phases == ref.phases
    if cfg.track_assignments:
        assert len(res.phase_assignments) == len(ref.phase_assignments)
        for got, want in zip(res.phase_assignments, ref.phase_assignments):
            np.testing.assert_array_equal(got, want)


def _point(snaps, size):
    """The save point of a snapshot object's newest generation."""
    newest = snaps.latest(size)
    return newest.kind, newest.phase, newest.iteration


class _DyingSnapshots(RunSnapshots):
    """Snapshots whose world dies the moment generation ``last`` is
    complete (``None``: never) — the in-memory counterpart of copying
    the step directories up to ``last``."""

    last = None

    def save(self, comm, **kwargs):
        super().save(comm, **kwargs)
        newest = self.latest(comm.size)
        if self.last is not None and newest and newest.seq >= self.last:
            raise InjectedFault(comm.rank, newest.seq, "save")


class TestDeltaCheckpoints:
    """The first checkpoint of a phase is full; the ones after it store
    only the iteration state and pin the full one's shards."""

    @pytest.fixture
    def keep_all(self, monkeypatch):
        """Every manager keeps every checkpoint (``keep=0``)."""
        monkeypatch.setitem(
            CheckpointManager.__init__.__kwdefaults__, "keep", 0
        )

    def _run(self, tmp_path, p=2, cfg=None, g=None, **kwargs):
        """One checkpoint per iteration, none pruned (needs keep_all)."""
        g, cfg = g or _graph(), cfg or _config()
        d = tmp_path / "all"
        ref = run_louvain(
            g, p, cfg, checkpoints=disk_checkpoints(d, cfg, every_iterations=1),
            **kwargs,
        )
        manifests = [m for _, m, _ in scan_checkpoints(str(d))]
        assert None not in manifests
        return g, cfg, d, ref, manifests

    def _upto(self, tmp_path, src, manifests, last):
        """Copy of ``src`` as a crash right after step ``last`` left it."""
        d = tmp_path / f"upto{last}"
        for m in manifests[: last + 1]:
            name = os.path.basename(m.directory)
            shutil.copytree(src / name, d / name)
        return d

    @pytest.mark.parametrize("variant", list(RESUME_CASES))
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_resume_from_every_checkpoint(self, tmp_path, keep_all, p, variant):
        cfg, graph, first_run, live = RESUME_CASES[variant]
        g, cfg, src, ref, manifests = self._run(
            tmp_path, p, cfg, graph(), **first_run
        )
        kinds = {(m.kind, m.base is None) for m in manifests}
        assert kinds == {("phase", True), ("iteration", False)}
        if live is not None:
            assert live([
                (m, *load_shard(m, rank))
                for m in manifests for rank in range(p)
            ])
        reopened = 0
        for k, m in enumerate(manifests):
            d = self._upto(tmp_path, src, manifests, k)
            assert latest_valid_manifest(str(d), expect_size=p).seq == m.seq
            res = run_louvain(
                g, p, cfg, resume=True,
                checkpoints=disk_checkpoints(d, cfg, every_iterations=1),
                **_again(first_run),
            )
            _assert_same_run(ref, res, cfg)
            # A resumed run cannot lean on the dead run's base: whatever
            # it cuts first is full, even mid-phase.
            cut = [x for _, x, _ in scan_checkpoints(str(d))][k + 1:]
            if cut:
                assert cut[0].base is None
            if (
                not reopened
                and len(cut) > 1
                and cut[0].kind == "iteration"
                and cut[1].base is not None
            ):
                # Crash a second time, on a delta of that mid-phase
                # full checkpoint.
                reopened += 1
                for later in cut[2:]:
                    shutil.rmtree(later.directory)
                res = run_louvain(
                    g, p, cfg, checkpoints=disk_checkpoints(d, cfg), resume=True,
                    **_again(first_run),
                )
                np.testing.assert_array_equal(ref.assignment, res.assignment)
                assert res.modularity == ref.modularity
                assert res.iterations == ref.iterations
        assert reopened
        # The other medium: the same save points, each resumed from memory.
        self._resume_from_every_snapshot(
            g, p, cfg, first_run, ref,
            [(m.kind, m.phase, m.iteration) for m in manifests],
        )

    def _resume_from_every_snapshot(self, g, p, cfg, first_run, ref, points):
        reopened = 0
        for k, point in enumerate(points):
            snaps = _DyingSnapshots(
                every_iterations=1, config_key=cfg.cache_key()
            )
            snaps.last = k
            with pytest.raises((RankFailedError, InjectedFault)):
                run_louvain(g, p, cfg, checkpoints=snaps, **first_run)
            assert _point(snaps, p) == point
            if not reopened and k + 2 < len(points):
                # Die a second time, two generations into the resumed run.
                reopened += 1
                snaps.last = k + 2
                with pytest.raises((RankFailedError, InjectedFault)):
                    run_louvain(
                        g, p, cfg, checkpoints=snaps, resume=True,
                        **_again(first_run),
                    )
                assert _point(snaps, p) == points[k + 2]
            snaps.last = None
            res = run_louvain(
                g, p, cfg, checkpoints=snaps, resume=True, **_again(first_run)
            )
            _assert_same_run(ref, res, cfg)
            # It saved on: the last generation is the run's last save point.
            assert _point(snaps, p) == points[-1]
        assert reopened

    def test_delta_shard_holds_no_phase_state(self, tmp_path, keep_all):
        g, cfg, d, ref, manifests = self._run(tmp_path)
        self._assert_forms(manifests)

    def test_shared_manager_under_thread_churn(self, tmp_path, keep_all):
        """One manager serves all eight rank threads (more than the
        cores), switching every few microseconds: each rank still
        decides full or delta for itself, as the manifest says."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _, _, _, _, manifests = self._run(tmp_path, p=8, machine=FREE)
        finally:
            sys.setswitchinterval(interval)
        assert {m.size for m in manifests} == {8}
        assert sum(m.base is None for m in manifests) > 1
        self._assert_forms(manifests)

    @staticmethod
    def _assert_forms(manifests):
        for m in manifests:
            for rank in range(m.size):
                with np.load(m.shard_path(rank)) as shard:
                    stored = set(shard.files)
                if m.base is None:
                    assert PHASE_ARRAYS <= stored
                else:
                    assert not PHASE_ARRAYS & stored
                    assert "local_comm" in stored
                    base = read_manifest(m.base_directory)
                    assert base.base is None and base.phase == m.phase
                    assert base.shards == m.base.shards
                # ... and a reader never learns the difference.
                _, arrays = load_shard(m, rank)
                assert PHASE_ARRAYS <= set(arrays)

    def test_sparse_phase_cadence_opens_phase_with_full_iteration(
        self, tmp_path, keep_all
    ):
        """every_phases=2 skips phase 1's boundary checkpoint, so its
        first iteration checkpoint carries the phase state.  (On a free
        machine: on Cori the run gathers phase 1 to rank 0, whose tail
        cuts no checkpoint.)"""
        g, cfg = _graph(), _config()
        d = str(tmp_path / "ck")
        run_louvain(
            g, 2, cfg, machine=FREE, checkpoints=disk_checkpoints(
                d, cfg, every_phases=2, every_iterations=1
            ),
        )
        phase1 = [
            m for _, m, _ in scan_checkpoints(d) if m.phase == 1
        ]
        assert [m.kind for m in phase1] == ["iteration"] * len(phase1)
        assert phase1[0].base is None
        assert all(m.base is not None for m in phase1[1:])

    def test_corrupt_delta_falls_back_to_previous(self, tmp_path, keep_all):
        g, cfg, src, ref, manifests = self._run(tmp_path)
        d = self._upto(tmp_path, src, manifests, 3)  # full + three deltas
        newest = read_manifest(str(d / "step-000003"))
        assert newest.base is not None
        _flip(newest.shard_path(1))
        assert latest_valid_manifest(str(d), expect_size=2).seq == 2
        res = run_louvain(
            g, 2, cfg, checkpoints=disk_checkpoints(d, cfg), resume=True
        )
        np.testing.assert_array_equal(ref.assignment, res.assignment)
        assert res.modularity == ref.modularity

    @pytest.mark.parametrize("damage", [_flip, os.unlink])
    def test_damaged_base_invalidates_its_deltas(
        self, tmp_path, keep_all, damage
    ):
        # A free machine runs phase 1 on both ranks (Cori gathers it to
        # rank 0, where nothing is checkpointed), so it has a delta.
        g, cfg, src, ref, manifests = self._run(tmp_path, machine=FREE)
        second_full = [m.seq for m in manifests if m.base is None][1]
        # ... full, deltas, second full, one delta of it.
        d = self._upto(tmp_path, src, manifests, second_full + 1)
        delta = read_manifest(str(d / f"step-{second_full + 1:06d}"))
        base = read_manifest(delta.base_directory)
        assert base.seq == second_full
        damage(base.shard_path(1))
        problems = verify_manifest(delta)
        assert problems and all(p.startswith("base step-") for p in problems)
        # The delta's own shard still verifies; the pair must not load.
        with pytest.raises(CorruptShardError):
            load_shard(delta, 1)
        survivor = latest_valid_manifest(str(d), expect_size=2)
        assert survivor.seq == second_full - 1  # last delta of phase 0
        res = run_louvain(
            g, 2, cfg, checkpoints=disk_checkpoints(d, cfg), resume=True
        )
        np.testing.assert_array_equal(ref.assignment, res.assignment)
        assert res.modularity == ref.modularity

    def test_damaged_only_base_leaves_no_checkpoint(self, tmp_path, keep_all):
        g, cfg, src, ref, manifests = self._run(tmp_path)
        d = self._upto(tmp_path, src, manifests, 3)
        _flip(read_manifest(str(d / "step-000000")).shard_path(0))
        assert latest_valid_manifest(str(d), expect_size=2) is None
        with pytest.raises(RankFailedError) as exc:
            run_louvain(
                g, 2, cfg, checkpoints=disk_checkpoints(d, cfg), resume=True
            )
        assert any(
            isinstance(c, NoCheckpointError) for c in exc.value.causes.values()
        )

    def test_swapped_base_is_refused(self, tmp_path, keep_all):
        """The delta pins its base by digest, not by name: another valid
        checkpoint sitting in the base's directory does not complete it."""
        g, cfg, src, ref, manifests = self._run(tmp_path)
        fulls = [m for m in manifests if m.base is None]
        d = self._upto(tmp_path, src, manifests, fulls[1].seq)
        shutil.rmtree(d / "step-000000")
        shutil.copytree(fulls[1].directory, d / "step-000000")
        assert not verify_manifest(read_manifest(str(d / "step-000000")))
        delta = read_manifest(str(d / "step-000001"))
        assert verify_manifest(delta)
        with pytest.raises(CorruptShardError):
            load_shard(delta, 0)

    def test_prune_keeps_bases_of_retained_deltas(self, tmp_path):
        d = str(tmp_path / "ck")
        packed = []

        def phase_state():
            packed.append(1)
            return {"graph": "g", "clock": 0.0}, {"edges": np.arange(5)}

        def program(comm):
            manager = CheckpointManager(
                d, every_iterations=1, keep=2, config_key="k"
            )
            seen = []
            for phase, it in [(0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]:
                manager.save(
                    comm, kind="iteration", phase=phase, iteration=it,
                    phase_state=phase_state,
                    iteration_state=({"clock": float(it)}, {"y": np.full(2, it)}),
                )
                seen.append(sorted(os.listdir(d)))
            return seen

        seen = run_spmd(1, program).values[0]
        step = "step-{:06d}".format
        assert seen == [
            [step(0)],
            [step(0), step(1)],
            [step(0), step(1), step(2)],  # 1 and 2 both lean on 0
            [step(0), step(2), step(3)],  # 2 is retained, so its base is
            [step(3), step(4)],
            [step(3), step(4), step(5)],
        ]
        assert len(packed) == 2  # phase state built once per phase
        newest = latest_valid_manifest(d, expect_size=1)
        assert newest.seq == 5 and newest.base.step == step(3)
        meta, arrays = load_shard(newest, 0)
        assert meta == {"graph": "g", "clock": 1.0}
        assert sorted(arrays) == ["edges", "y"]

    def test_v1_manifest_refused(self, tmp_path):
        g, cfg = _graph(), _config()
        d = str(tmp_path / "ck")
        run_louvain(g, 2, cfg, checkpoints=disk_checkpoints(d, cfg))
        for name, manifest, _ in scan_checkpoints(d):
            path = os.path.join(d, name, "manifest.json")
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
            raw["version"] = 1
            raw.pop("base", None)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(raw, fh)
            with pytest.raises(ManifestError, match="format version 1"):
                read_manifest(os.path.join(d, name))
        assert latest_valid_manifest(d, expect_size=2) is None
        with pytest.raises(RankFailedError) as exc:
            run_louvain(
                g, 2, cfg, checkpoints=disk_checkpoints(d, cfg), resume=True
            )
        assert any(
            isinstance(c, NoCheckpointError) for c in exc.value.causes.values()
        )


def _same(a, b):
    """Field-value equality strict enough for bit-identical resumes."""
    if isinstance(a, np.ndarray):
        return (
            isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and np.array_equal(a, b)
        )
    if isinstance(a, list):
        return (
            isinstance(b, list)
            and len(a) == len(b)
            and all(_same(x, y) for x, y in zip(a, b))
        )
    if isinstance(a, np.random.Generator):
        return a.random(8).tolist() == b.random(8).tolist()
    if isinstance(a, DistGraph):
        return type(b) is DistGraph and all(
            _same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
            if not f.name.startswith("_")
        )
    if isinstance(a, EarlyTermination):
        return type(b) is EarlyTermination and vars(a).keys() == vars(
            b
        ).keys() and all(_same(v, vars(b)[k]) for k, v in vars(a).items())
    return type(a) is type(b) and a == b


class TestStateRoundTrip:
    """Every field of the two state classes has its place in a shard: a
    field added to the state but not to ``louvain_state`` fails here,
    not in a resumed run."""

    CFG = LouvainConfig(variant=Variant.ET, alpha=0.4, et_inactive_floor=0.05, seed=5)

    def _populated(self):
        """A (run, iteration) state pair with no field at its default."""
        rank, phase = 1, 3
        dg = DistGraph(
            offsets=np.array([0, 3, 7]),
            rank=rank,
            index=np.array([0, 2, 3, 5, 6]),
            edges=np.array([0, 4, 3, 1, 6, 5]),
            weights=np.array([1.5, 2.0, 0.25, 1.0, 3.0, 0.125]),
            total_weight=15.75,
        )
        iteration = IterationStats(
            phase=2, iteration=0, modularity=0.1 + 0.2, moves=7,
            active_fraction=1 / 3, inactive_fraction=0.0,
        )
        run = RunState(
            dg=dg,
            orig_slice=np.array([2, 2, 0, 1, 1]),
            phase=phase,
            prev_mod=0.1 + 0.7,
            final_mod=1 / 7,
            phases=[PhaseStats(
                phase=2, tau=1e-3, num_iterations=1, modularity=0.1 + 0.2,
                num_vertices=9, num_edges=14, exited_by_inactive=True,
                ghost_fraction=2 / 9,
            )],
            iterations=[iteration],
            in_final_pass=True,
            seed_assignment=np.array([3, 3, 5, 6]),
            phase_assignments=[np.array([0, 0, 1, 2, 2, 1, 0])],
        )
        et = EarlyTermination(4, self.CFG, make_rank_rng(self.CFG.seed, rank, phase))
        et.update(et.draw_active())
        state = IterationState(
            local_comm=np.array([3, 3, 5, 3]),
            tot_owned=np.array([6.5, 0.0, 3.125, 0.0]),
            size_owned=np.array([3, 0, 1, 0]),
            et=et,
            iteration=4,
            prev_q=1 / 3,
            q=0.1 + 0.25,
            stats=[replace(iteration, phase=phase, iteration=i)
                   for i in range(5)],
        )
        return run, state

    def _round_trip(self, run, state, clock):
        meta, arrays = pack_phase_state(run)
        it_meta, it_arrays = pack_iteration_state(clock, state)
        # (merged as CheckpointManager.save merges a full checkpoint)
        blob = _serialize_shard({**meta, **it_meta}, {**arrays, **it_arrays})
        return unpack_rank_state(
            run.dg.rank, *_deserialize_shard(blob), self.CFG
        )

    def test_every_field_comes_back(self):
        run, state = self._populated()
        run2, state2, clock = self._round_trip(run, state, 0.1 + 0.02)
        assert clock == 0.1 + 0.02
        for obj, back in ((run, run2), (state, state2)):
            for f in dataclasses.fields(obj):
                value = getattr(obj, f.name)
                if f.default is not dataclasses.MISSING:
                    assert not _same(value, f.default), (
                        f"{f.name}: populate it with a non-default value"
                    )
                elif f.default_factory is not dataclasses.MISSING:
                    assert not _same(value, f.default_factory()), f.name
                assert _same(value, getattr(back, f.name)), (
                    f"{type(obj).__name__}.{f.name} did not survive "
                    "pack -> serialize -> deserialize -> unpack"
                )

    def test_fresh_state_comes_back(self):
        """The defaults too: -inf, no seed, no tracking, no ET, and no
        iteration state at a phase boundary."""
        populated, _ = self._populated()
        run = RunState(dg=populated.dg, orig_slice=populated.orig_slice)
        run2, state2, clock = self._round_trip(run, None, 0.0)
        assert state2 is None and clock == 0.0
        for f in dataclasses.fields(run):
            assert _same(getattr(run, f.name), getattr(run2, f.name)), f.name
        assert run2.prev_mod == -np.inf
        state = IterationState(
            local_comm=np.arange(3, 7),
            tot_owned=np.ones(4),
            size_owned=np.ones(4, dtype=np.int64),
            iteration=0,
        )
        _, state2, _ = self._round_trip(run, state, 0.0)
        for f in dataclasses.fields(state):
            assert _same(getattr(state, f.name), getattr(state2, f.name)), f.name
        assert state2.prev_q == -np.inf and state2.et is None


def _rank_state(comm, g):
    """A phase-0 state after one iteration in which nothing moved."""
    dg = DistGraph.distribute(comm, g)
    run = RunState(dg=dg, orig_slice=np.arange(dg.vbegin, dg.vend))
    state = IterationState(
        local_comm=dg.local_vertex_ids().copy(),
        tot_owned=dg.local_degrees().copy(),
        size_owned=np.ones(dg.num_local, dtype=np.int64),
        iteration=0,
    )
    return run, state


class _FreezingSnapshots(_DyingSnapshots):
    """Flags read-only everything a save keeps by reference, so a later
    write to it anywhere in the run raises."""

    def save(self, comm, **kwargs):
        try:
            super().save(comm, **kwargs)
        finally:
            _, held = self._phase_state[comm.rank][1]
            for name in sorted(held):
                held[name].setflags(write=False)


class TestRunSnapshots:
    """The in-memory medium: what a save copies and what it references,
    when a generation counts, what the modelled clock is charged."""

    def test_shares_the_managers_cadence(self):
        for test in ("should_checkpoint_phase", "should_checkpoint_iteration"):
            assert getattr(RunSnapshots, test) is getattr(CheckpointManager, test)
        with pytest.raises(ValueError, match="every_iterations"):
            _snapshots(every_iterations=-1)

    @pytest.mark.parametrize("p", [1, 2])
    def test_saves_enter_through_the_managers_save(self, p, monkeypatch):
        """One entry point for both media — what ``benchmarks/e2e``
        wraps to time a save — and each rank gets back a manifest of
        the shard it deposited, without waiting for its peers."""
        returned = []
        save = CheckpointManager.save

        def spy(self, comm, **kwargs):
            manifest = save(self, comm, **kwargs)
            returned.append((comm.rank, manifest))
            return manifest

        monkeypatch.setattr(CheckpointManager, "save", spy)
        snaps = _snapshots(every_iterations=1)
        run_louvain(_graph(), p, _config(), checkpoints=snaps)
        newest = snaps.latest(p)
        assert len(returned) == p * (newest.seq + 1)
        assert [s.rank for s in newest.shards] == list(range(p))
        for rank, manifest in returned:
            (shard,) = manifest.shards
            assert shard.rank == rank and manifest.directory == "<memory>"
            assert (shard.nbytes > 0) == (manifest.kind == "iteration")
        last = {rank: m.shards[0] for rank, m in returned}
        assert newest.shards == tuple(last[r] for r in range(p))

    def test_references_phase_state_copies_iteration_state(self):
        snaps = _snapshots(every_iterations=1)

        def prog(comm):
            run, state = _rank_state(comm, _graph())
            _save_checkpoint(snaps, comm, run, state)
            _, _, first = snaps.load_latest(comm)
            for name in sorted(PHASE_ARRAYS - {"orig_slice"}):
                assert first[name] is getattr(run.dg, name), name
            assert first["orig_slice"] is run.orig_slice
            labels = state.local_comm.copy()
            for name in ("local_comm", "tot_owned", "size_owned"):
                assert not np.shares_memory(first[name], getattr(state, name))
            # Neither the run going on nor a resumed attempt's writes
            # reach the snapshot.
            state.local_comm[:] = -1
            first["local_comm"][:] = -2
            _, meta, again = snaps.load_latest(comm)
            np.testing.assert_array_equal(again["local_comm"], labels)
            assert meta["kind"] == "iteration" and meta["iteration"] == 0

        run_spmd(1, prog)

    def test_generation_counts_once_every_rank_deposited(self):
        """A fault between two ranks' deposits of one generation leaves
        the previous generation the one restored."""
        g = _graph()
        snaps = _snapshots(every_iterations=1)

        def dies_between_deposits(comm):
            run, state = _rank_state(comm, g)
            _save_checkpoint(snaps, comm, run, state)
            comm.barrier()
            state.iteration, state.local_comm[:] = 1, 7
            # (a deposit is rank-local: no peer waits for it)
            if comm.rank == 0:
                _save_checkpoint(snaps, comm, run, state)
            comm.barrier()
            if comm.rank == 1:
                raise InjectedFault(1, 0, "between deposits")
            comm.barrier()

        with pytest.raises(RankFailedError):
            run_spmd(2, dies_between_deposits)
        assert _point(snaps, 2) == ("iteration", 0, 0)
        snaps.begin_attempt(resume=True)

        def next_attempt(comm):
            _, meta, arrays = snaps.load_latest(comm)
            run, state = _rank_state(comm, g)
            assert meta["iteration"] == 0
            np.testing.assert_array_equal(arrays["local_comm"], state.local_comm)
            if comm.rank == 1:
                # Rank 0's half of the dead attempt is gone: rank 1's
                # alone completes nothing.
                state.iteration = 1
                _save_checkpoint(snaps, comm, run, state)
            comm.barrier()

        run_spmd(2, next_attempt)
        assert _point(snaps, 2) == ("iteration", 0, 0)

    @pytest.mark.parametrize("p", [1, 2])
    def test_charges_the_words_it_copies_and_no_collective(self, p):
        snaps = _snapshots(every_iterations=1)

        def prog(comm):
            run, state = _rank_state(comm, _graph())
            copied = 3 * run.dg.num_local
            _save_checkpoint(snaps, comm, run)       # references only
            at_boundary = comm.trace.seconds["checkpoint"]
            _save_checkpoint(snaps, comm, run, state)
            saved = comm.trace.seconds["checkpoint"]
            comm.barrier()
            calls = dict(comm.trace.collectives)
            snaps.load_latest(comm)
            assert comm.trace.collectives == calls == {"barrier": 1}
            assert comm.trace.bytes_written == 0
            cost = comm.machine.compute_cost(copied)
            assert cost > 0
            return at_boundary, saved, comm.trace.seconds["checkpoint"], cost

        for at_boundary, saved, restored, cost in run_spmd(p, prog).values:
            assert at_boundary == 0.0
            assert saved == cost
            assert restored == cost + cost

    def test_resume_needs_a_complete_generation(self):
        with pytest.raises(NoCheckpointError, match="no complete snapshot"):
            run_louvain(_graph(), 1, _config(), checkpoints=_snapshots(), resume=True)

    def test_cross_config_resume_refused(self):
        g, cfg = _graph(), _config()
        snaps = _DyingSnapshots(config_key=cfg.cache_key())
        snaps.last = 0
        with pytest.raises(InjectedFault):
            run_louvain(g, 1, cfg, checkpoints=snaps)
        snaps.last = None
        with pytest.raises(ValueError, match="would corrupt the run"):
            run_louvain(g, 1, replace(cfg, alpha=0.5), checkpoints=snaps, resume=True)

    @pytest.mark.parametrize("variant", list(RESUME_CASES))
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_nothing_held_by_reference_is_written_again(self, p, variant):
        """The audit behind keeping the phase state by reference: with
        every such array read-only from the save on, a whole detection —
        and one killed mid-way and resumed — runs clean and unchanged."""
        cfg, graph, first_run, _ = RESUME_CASES[variant]
        g = graph()
        ref = run_louvain(g, p, cfg, **first_run)
        snaps = _FreezingSnapshots(every_iterations=1, config_key=cfg.cache_key())
        _assert_same_run(
            ref, run_louvain(g, p, cfg, checkpoints=snaps, **first_run), cfg
        )
        snaps.last = snaps.latest(p).seq // 2
        with pytest.raises((RankFailedError, InjectedFault)):
            run_louvain(g, p, cfg, checkpoints=snaps, **first_run)
        snaps.last = None
        _assert_same_run(
            ref,
            run_louvain(
                g, p, cfg, checkpoints=snaps, resume=True, **_again(first_run)
            ),
            cfg,
        )


class TestOneResumePath:
    """``manager.load_latest(comm)`` is the only way state comes back."""

    def test_run_spmd_takes_no_restore_from(self, tmp_path):
        with pytest.raises(TypeError, match="restore_from"):
            run_spmd(1, lambda comm: None, restore_from=str(tmp_path))

    def test_removed_names_do_not_import(self):
        with pytest.raises(ImportError):
            from repro.resilience import RestoredRank  # noqa: F401
        with pytest.raises(ImportError):
            from repro.runtime import split_communicator  # noqa: F401
