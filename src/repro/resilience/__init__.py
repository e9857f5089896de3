"""Resilience subsystem: checkpoint/restore + deterministic fault injection.

Long multi-phase runs (hours on billion-edge inputs on the real machine)
must survive rank failures without losing completed phases.  A run's
save points go through one object, a :class:`CheckpointManager`: whoever
builds it chooses the medium and the cadence, once, and every layer
below — ``run_louvain``, ``distributed_louvain``, the phase loop —
passes it on (one storage level chosen at set-up, as in SCR).  This
subpackage provides:

* **checkpointing** (:mod:`.checkpoint`) — the disk medium: versioned,
  checksummed, per-rank-sharded snapshots of the distributed state at
  phase boundaries (and optionally every K iterations), written
  atomically so a crash never leaves a half-valid checkpoint; the first
  checkpoint of a phase is full, later ones are deltas that store only
  the iteration state and pin the full one's shards by size and SHA-256;
* **snapshots** (:mod:`.snapshots`) — the memory medium: the same state
  at the same cadence, by reference where a phase never writes it and
  copied where it does: what an ``Engine`` retry resumes from, with no
  file and no collective;
* **fault injection** (:mod:`.faults`) — seeded, deterministic failure
  schedules (kill a rank at operation N, delay/drop messages, corrupt a
  shard on disk) so recovery can be exercised and *proven* in tests;
* **recovery** — ``run_louvain(..., checkpoints=manager, resume=True)``
  restarts the run from the manager's latest valid save point, every
  rank loading its state through :meth:`CheckpointManager.load_latest`
  — the one way state comes back; a resumed run reproduces the
  uninterrupted run's final labels and modularity bit for bit.  The
  state itself — what a run carries from one synchronisation point to
  the next — is defined in :mod:`repro.core.state`;
  :mod:`.louvain_state` packs it into shards.

Checkpoint overhead is charged to the ``checkpoint`` trace category, so
the bench harness reports it alongside the paper's §V-A breakdown.
"""

from .checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    BaseRef,
    CheckpointError,
    CheckpointManager,
    CorruptShardError,
    Manifest,
    ManifestError,
    NoCheckpointError,
    ShardInfo,
    latest_valid_manifest,
    load_shard,
    read_manifest,
    scan_checkpoints,
    verify_manifest,
)
from .faults import FaultPlan, corrupt_checkpoint_shard
from .louvain_state import (
    pack_iteration_state,
    pack_phase_state,
    unpack_rank_state,
)
from .snapshots import RunSnapshots

__all__ = [
    "BaseRef",
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointError",
    "CheckpointManager",
    "CorruptShardError",
    "FaultPlan",
    "Manifest",
    "ManifestError",
    "NoCheckpointError",
    "RunSnapshots",
    "ShardInfo",
    "corrupt_checkpoint_shard",
    "latest_valid_manifest",
    "load_shard",
    "pack_iteration_state",
    "pack_phase_state",
    "read_manifest",
    "scan_checkpoints",
    "unpack_rank_state",
    "verify_manifest",
]
