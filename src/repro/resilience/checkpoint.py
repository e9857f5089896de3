"""Phase-level checkpoint/restore for the simulated SPMD runtime.

On-disk layout (one directory per checkpoint under the user's root)::

    <root>/
        step-000000/
            shard-00000.npz     per-rank state (arrays + JSON meta)
            shard-00001.npz
            manifest.json       written last; its presence + checksums
                                define a *valid* checkpoint
        step-000001/
            ...

A checkpoint is either *full* — its shards hold the whole state — or a
*delta*: its shards hold only the state that changes from iteration to
iteration, and its manifest's ``base`` record names the full checkpoint
of the same phase it extends, by step directory and by the size and
SHA-256 of every base shard.  A manager writes a full checkpoint the
first time an attempt saves in a phase and deltas until the phase
changes, so the phase-invariant state (the graph slice) is serialized
once per phase.  :func:`load_shard` is the only reader that knows: it
verifies both shards against the delta's manifest and hands back the
merged payload.

Shards are written to a temp file and atomically renamed; the manifest
(rank 0 only) likewise, after a gather of every shard's SHA-256 digest.
A crash mid-save therefore never produces a half-valid checkpoint: either
the manifest exists and names checksummed shards, or the step directory
is garbage to be ignored.  Corruption after the fact (bit rot, truncated
writes, an injected ``corrupt_checkpoint_shard``) is caught by digest
verification at restore time — of the base's shards as much as the
delta's — and restore falls back to the newest *older* checkpoint whose
whole chain verifies.

Checkpoint traffic and file I/O are charged to the ``checkpoint`` trace
category so the bench harness can attribute the overhead (§V-A style).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import shutil
import tempfile
import zipfile
from dataclasses import asdict, dataclass
from typing import Any, Callable

import numpy as np

from ..runtime.comm import Communicator

#: Version of the on-disk checkpoint format.  Bump on layout changes;
#: restore refuses manifests written by a different version.  Version 2
#: introduced delta checkpoints (the manifest's ``base`` record).
CHECKPOINT_FORMAT_VERSION = 2

MANIFEST_NAME = "manifest.json"
_STEP_RE = re.compile(r"^step-(\d{6,})$")
_META_KEY = "_meta"
#: zlib level of every shard member.  Level 1 packs a 283 kB shard in
#: 2.2 ms where numpy's default (6) takes 9.1 ms, for 12 % more bytes.
_DEFLATE_LEVEL = 1

#: One rank's checkpoint payload: JSON-able scalars and named arrays.
ShardPayload = tuple[dict[str, Any], dict[str, np.ndarray]]


class CheckpointError(Exception):
    """Base class for checkpoint/restore failures."""


class ManifestError(CheckpointError):
    """A manifest is missing, unreadable, or from an unknown format."""


class CorruptShardError(CheckpointError):
    """A shard file does not match its manifest checksum."""


class NoCheckpointError(CheckpointError):
    """No valid checkpoint exists in the directory."""


@dataclass(frozen=True)
class ShardInfo:
    """Integrity record of one rank's shard within a manifest."""

    rank: int
    filename: str
    nbytes: int
    sha256: str


@dataclass(frozen=True)
class BaseRef:
    """The full checkpoint a delta extends, as the delta's manifest pins it.

    The delta carries its own copy of the base shards' sizes and
    digests, so restoring it trusts nothing in the base directory that
    the delta's manifest did not vouch for.
    """

    step: str                        # step directory name, beside the delta's
    shards: tuple[ShardInfo, ...]


@dataclass(frozen=True)
class Manifest:
    """One checkpoint's metadata (contents of ``manifest.json``)."""

    seq: int
    kind: str            # "phase" (boundary) or "iteration" (mid-phase)
    phase: int
    iteration: int       # -1 for a phase-boundary checkpoint
    size: int            # world size the checkpoint was taken at
    version: int
    label: str           # free-form application tag (e.g. config label)
    shards: tuple[ShardInfo, ...]
    directory: str       # absolute path of the checkpoint directory
    #: ``LouvainConfig.cache_key()`` of the run that wrote the
    #: checkpoint.  Resume refuses manifests whose key differs from the
    #: resuming config: continuing a run under different semantics would
    #: silently produce garbage.
    config_key: str
    #: ``None`` for a full checkpoint; for a delta, the full checkpoint
    #: whose shards complete this one's.
    base: BaseRef | None = None

    @property
    def base_directory(self) -> str | None:
        if self.base is None:
            return None
        return os.path.join(os.path.dirname(self.directory), self.base.step)

    def shard_path(self, rank: int) -> str:
        """Path of the shard *this* checkpoint wrote for ``rank``."""
        return os.path.join(
            self.directory, self._info(self.shards, rank).filename
        )

    def parts(self) -> list[tuple[str, tuple[ShardInfo, ...]]]:
        """``(directory, shard records)`` of the files this checkpoint
        is made of: its base's, if it is a delta, then its own."""
        own = (self.directory, self.shards)
        if self.base is None:
            return [own]
        return [(self.base_directory, self.base.shards), own]

    def chain(self, rank: int) -> list[tuple[str, ShardInfo]]:
        """``(directory, record)`` of every file holding ``rank``'s
        state, base first."""
        return [(d, self._info(shards, rank)) for d, shards in self.parts()]

    def _info(self, shards: tuple[ShardInfo, ...], rank: int) -> ShardInfo:
        for s in shards:
            if s.rank == rank:
                return s
        raise ManifestError(
            f"manifest {self.directory} has no shard for rank {rank}"
        )

    def describe(self) -> str:
        where = (
            f"phase {self.phase}"
            if self.iteration < 0
            else f"phase {self.phase} iteration {self.iteration}"
        )
        total = sum(s.nbytes for s in self.shards)
        form = "full" if self.base is None else f"delta of {self.base.step}"
        return (
            f"step {self.seq:06d}: {self.kind} checkpoint at {where}, "
            f"{self.size} rank(s), {total} bytes, {form}"
            + (f" [{self.label}]" if self.label else "")
        )


# ----------------------------------------------------------------------
# Low-level helpers
# ----------------------------------------------------------------------
def _atomic_write_bytes(path: str, data: bytes) -> None:
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _shard_filename(rank: int) -> str:
    return f"shard-{rank:05d}.npz"


def _step_dirname(seq: int) -> str:
    return f"step-{seq:06d}"


def _step_names(root: str) -> list[str]:
    """Step directories under ``root``, oldest first."""
    if not os.path.isdir(root):
        return []
    return sorted(
        (n for n in os.listdir(root) if _STEP_RE.match(n)),
        key=lambda n: int(_STEP_RE.match(n).group(1)),
    )


def _serialize_shard(meta: dict[str, Any], arrays: dict[str, np.ndarray]) -> bytes:
    """``np.savez_compressed``'s container, at :data:`_DEFLATE_LEVEL`."""
    if _META_KEY in arrays:
        raise ValueError(f"array key {_META_KEY!r} is reserved")
    payload = dict(arrays)
    payload[_META_KEY] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    buf = io.BytesIO()
    with zipfile.ZipFile(
        buf, "w", zipfile.ZIP_DEFLATED, compresslevel=_DEFLATE_LEVEL
    ) as zf:
        for name, value in payload.items():
            with zf.open(name + ".npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array(
                    fh, np.asanyarray(value), allow_pickle=False
                )
    return buf.getvalue()


def _deserialize_shard(blob: bytes) -> ShardPayload:
    with np.load(io.BytesIO(blob), allow_pickle=False) as data:
        meta = json.loads(data[_META_KEY].tobytes())
        arrays = {k: data[k] for k in data.files if k != _META_KEY}
    return meta, arrays


def _read_verified(directory: str, info: ShardInfo) -> bytes:
    """A shard's bytes, checked against its manifest record."""
    path = os.path.join(directory, info.filename)
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CorruptShardError(f"shard {path} is missing ({exc})") from exc
    if len(blob) != info.nbytes:
        raise CorruptShardError(
            f"shard {path}: size {len(blob)} != manifest {info.nbytes}"
        )
    if hashlib.sha256(blob).hexdigest() != info.sha256:
        raise CorruptShardError(
            f"shard {path} fails its manifest checksum (corrupt or "
            "partially written)"
        )
    return blob


def _shards_from_json(raw: list[dict]) -> tuple[ShardInfo, ...]:
    return tuple(
        ShardInfo(
            rank=int(s["rank"]),
            filename=str(s["filename"]),
            nbytes=int(s["nbytes"]),
            sha256=str(s["sha256"]),
        )
        for s in raw
    )


def _manifest_to_json(manifest: Manifest) -> bytes:
    raw = asdict(manifest)
    del raw["directory"]  # where the file sits, not what it says
    return json.dumps(raw, indent=1).encode("utf-8")


def read_manifest(step_dir: str) -> Manifest:
    """Parse ``<step_dir>/manifest.json``; raises :class:`ManifestError`."""
    path = os.path.join(step_dir, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    try:
        version = int(raw["version"])
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ManifestError(
                f"{path}: checkpoint format version {version} is not "
                f"supported (this build reads version "
                f"{CHECKPOINT_FORMAT_VERSION}); re-run without --resume"
            )
        base = raw["base"]
        if base is not None:
            if not _STEP_RE.match(str(base["step"])):
                raise ValueError(f"bad base step {base['step']!r}")
            base = BaseRef(
                step=str(base["step"]),
                shards=_shards_from_json(base["shards"]),
            )
        return Manifest(
            seq=int(raw["seq"]),
            kind=str(raw["kind"]),
            phase=int(raw["phase"]),
            iteration=int(raw["iteration"]),
            size=int(raw["size"]),
            version=version,
            label=str(raw.get("label", "")),
            shards=_shards_from_json(raw["shards"]),
            directory=os.path.abspath(step_dir),
            config_key=str(raw["config_key"]),
            base=base,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(f"malformed manifest {path}: {exc}") from exc


def verify_manifest(manifest: Manifest) -> list[str]:
    """Return integrity problems ([] when the checkpoint is fully valid).

    A delta is valid only together with its base: every base shard is
    checked against the record the delta's own manifest keeps of it.
    """
    problems: list[str] = []
    for directory, shards in manifest.parts():
        prefix = (
            ""
            if directory == manifest.directory
            else f"base {manifest.base.step}: "
        )
        if len(shards) != manifest.size:
            problems.append(
                f"{prefix}{len(shards)} shard(s) listed for world size "
                f"{manifest.size}"
            )
        for s in shards:
            try:
                _read_verified(directory, s)
            except CorruptShardError as exc:
                problems.append(f"{prefix}{exc}")
    return problems


def scan_checkpoints(root: str) -> list[tuple[str, Manifest | None, str | None]]:
    """Every step directory under ``root`` with its manifest or error.

    Returns ``[(dirname, manifest-or-None, error-or-None)]`` ordered by
    ascending sequence number; directories whose manifest is missing or
    unreadable appear with ``manifest=None`` and the error string.
    """
    out = []
    for name in _step_names(root):
        step_dir = os.path.join(root, name)
        try:
            out.append((name, read_manifest(step_dir), None))
        except ManifestError as exc:
            out.append((name, None, str(exc)))
    return out


def latest_valid_manifest(
    root: str,
    expect_size: int | None = None,
    verify_shards: bool = True,
) -> Manifest | None:
    """Newest checkpoint that parses, matches the size, and verifies.

    Scans sequence numbers in descending order and skips invalid or
    corrupt checkpoints — a delta whose base is missing or damaged
    among them — so restore degrades gracefully to the last good state.
    """
    entries = [m for _, m, _ in scan_checkpoints(root) if m is not None]
    for manifest in sorted(entries, key=lambda m: -m.seq):
        if expect_size is not None and manifest.size != expect_size:
            continue
        if verify_shards and verify_manifest(manifest):
            continue
        return manifest
    return None


# ----------------------------------------------------------------------
# The manager
# ----------------------------------------------------------------------
class CheckpointManager:
    """Where a run's save points go, and the cadence it cuts them at.

    One object serves every rank of the run, and every attempt of it:
    whoever builds it chooses the medium (this class: disk;
    :class:`~.snapshots.RunSnapshots`: memory) and the layers below
    hand it on.  :meth:`save` and :meth:`load_latest` are collective:
    all ranks must call them together, in the same order.
    ``run_louvain`` calls :meth:`begin_attempt` before it opens each
    attempt's world.

    Parameters
    ----------
    directory:
        Root of the checkpoint tree (created on first save).
    every_phases:
        Take a phase-boundary checkpoint every K phases (0 disables).
    every_iterations:
        Additionally checkpoint every K Louvain iterations inside a
        phase (None/0 disables).
    keep:
        Retain at most this many newest checkpoints, plus the full
        checkpoints they extend; older step directories are pruned
        after each successful save (0 keeps all).
    label:
        Free-form tag recorded in manifests (e.g. the config label).
    config_key:
        ``LouvainConfig.cache_key()`` of the run (required), recorded in
        every manifest so resume can refuse a cross-config mismatch.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        every_phases: int = 1,
        every_iterations: int | None = None,
        keep: int = 2,
        label: str = "",
        config_key: str,
    ):
        if every_phases < 0:
            raise ValueError(f"every_phases must be >= 0, got {every_phases}")
        if every_iterations is not None and every_iterations < 0:
            raise ValueError(
                f"every_iterations must be >= 0, got {every_iterations}"
            )
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        self.directory = os.fspath(directory)
        self.every_phases = every_phases
        self.every_iterations = every_iterations or 0
        self.keep = keep
        self.label = label
        self.config_key = config_key
        self._seq: int | None = None
        #: Phase of each rank's last save, whose first checkpoint was
        #: full, and that checkpoint as deltas cite it (rank 0 only).
        self._base_phase: dict[int, int] = {}
        self._base: BaseRef | None = None

    def begin_attempt(self, *, resume: bool) -> None:
        """Forget what the last attempt left in this object, so the
        next one cuts what a fresh manager would: a full checkpoint
        first.  On disk ``resume`` changes nothing: the directory keeps
        its checkpoints, and a fresh attempt numbers its steps after
        them."""
        self._seq = None
        self._base_phase.clear()
        self._base = None

    def latest(self, size: int) -> Manifest | None:
        """The newest valid checkpoint for a world of ``size`` ranks
        (``None``: a resume would find nothing)."""
        return latest_valid_manifest(self.directory, expect_size=size)

    # -- cadence --------------------------------------------------------
    def should_checkpoint_phase(self, phase: int) -> bool:
        return self.every_phases > 0 and phase % self.every_phases == 0

    def should_checkpoint_iteration(self, iteration: int) -> bool:
        return (
            self.every_iterations > 0
            and (iteration + 1) % self.every_iterations == 0
        )

    # -- plumbing -------------------------------------------------------
    def _next_seq(self) -> int:
        """Next sequence number (continues past existing checkpoints).

        Only rank 0 calls this (inside :meth:`save`): a directory scan
        on every rank would race with rank 0 creating the new step
        directory, scattering one logical checkpoint across two seqs.
        """
        if self._seq is None:
            steps = _step_names(self.directory)
            self._seq = (
                int(_STEP_RE.match(steps[-1]).group(1)) + 1 if steps else 0
            )
        seq = self._seq
        self._seq = seq + 1
        return seq

    # -- save -----------------------------------------------------------
    def save(
        self,
        comm: Communicator,
        *,
        kind: str,
        phase: int,
        iteration: int,
        phase_state: Callable[[], ShardPayload],
        iteration_state: ShardPayload,
    ) -> Manifest | None:
        """Cut one checkpoint in this manager's medium.

        ``iteration_state`` is what changes between two saves of one
        phase; ``phase_state()`` builds the rest, and is called only
        for the first save of ``phase``.  Every save of every medium
        enters here (:class:`~.snapshots.RunSnapshots` replaces
        :meth:`_write`, not this), so whatever times or counts what
        resumability costs a run wraps this one method.
        """
        return self._write(
            comm,
            kind=kind,
            phase=phase,
            iteration=iteration,
            phase_state=phase_state,
            iteration_state=iteration_state,
        )

    def _write(
        self,
        comm: Communicator,
        *,
        kind: str,
        phase: int,
        iteration: int,
        phase_state: Callable[[], ShardPayload],
        iteration_state: ShardPayload,
    ) -> Manifest | None:
        """Write the checkpoint to disk (collective over ``comm``).

        The first one of ``phase`` is full, the ones after it are
        deltas citing it.  Each rank serializes its shard and writes it
        atomically; rank 0 gathers the digests, writes the manifest
        last, prunes old checkpoints, and returns the manifest of the
        shards this call wrote (other ranks return ``None``).  All time
        (modelled file I/O plus the digest gather and closing barrier)
        is charged to the ``checkpoint`` trace category.
        """
        full = self._base_phase.get(comm.rank) != phase
        self._base_phase[comm.rank] = phase
        meta, arrays = iteration_state
        if full:
            base_meta, base_arrays = phase_state()
            meta = {**base_meta, **meta}
            arrays = {**base_arrays, **arrays}

        seq = comm.bcast(
            self._next_seq() if comm.rank == 0 else None,
            root=0,
            category="checkpoint",
        )
        step_dir = os.path.join(self.directory, _step_dirname(seq))
        os.makedirs(step_dir, exist_ok=True)

        blob = _serialize_shard(meta, arrays)
        filename = _shard_filename(comm.rank)
        _atomic_write_bytes(os.path.join(step_dir, filename), blob)
        digest = hashlib.sha256(blob).hexdigest()
        comm.charge("checkpoint", comm.machine.io_cost(len(blob)))
        comm.trace.bytes_written += len(blob)

        infos = comm.gather(
            (comm.rank, filename, len(blob), digest),
            root=0,
            category="checkpoint",
        )
        manifest: Manifest | None = None
        if comm.rank == 0:
            manifest = Manifest(
                seq=seq,
                kind=kind,
                phase=phase,
                iteration=iteration,
                size=comm.size,
                version=CHECKPOINT_FORMAT_VERSION,
                label=self.label,
                shards=tuple(
                    ShardInfo(rank=r, filename=f, nbytes=n, sha256=d)
                    for r, f, n, d in sorted(infos)
                ),
                directory=os.path.abspath(step_dir),
                config_key=self.config_key,
                base=None if full else self._base,
            )
            _atomic_write_bytes(
                os.path.join(step_dir, MANIFEST_NAME),
                _manifest_to_json(manifest),
            )
            if full:
                self._base = BaseRef(
                    step=_step_dirname(seq), shards=manifest.shards
                )
            self._prune()
        # No rank may race past the manifest write (a fault right after
        # the barrier must still find a fully valid checkpoint on disk).
        comm.barrier(category="checkpoint")
        return manifest

    def _prune(self) -> None:
        """Drop all but the ``keep`` newest checkpoints and their bases."""
        if not self.keep:
            return
        steps = _step_names(self.directory)
        kept = set(steps[-self.keep:])
        for name in sorted(kept):
            try:
                base = read_manifest(os.path.join(self.directory, name)).base
            except ManifestError:
                continue  # a torn step holds nothing worth protecting
            if base is not None:
                kept.add(base.step)
        for name in steps:
            if name not in kept:
                shutil.rmtree(
                    os.path.join(self.directory, name), ignore_errors=True
                )

    # -- load -----------------------------------------------------------
    def load_latest(
        self, comm: Communicator
    ) -> tuple[Manifest, dict[str, Any], dict[str, np.ndarray]]:
        """Restore this rank's state from the newest valid checkpoint.

        Collective: rank 0 scans for the latest manifest whose shards
        all verify, broadcasts its directory, and every rank loads (and
        re-verifies) its own shard.  Raises :class:`NoCheckpointError`
        when nothing valid exists.
        """
        step_dir: str | None = None
        if comm.rank == 0:
            manifest = self.latest(comm.size)
            step_dir = manifest.directory if manifest is not None else None
        step_dir = comm.bcast(step_dir, root=0, category="checkpoint")
        if step_dir is None:
            raise NoCheckpointError(
                f"no valid checkpoint for {comm.size} rank(s) under "
                f"{self.directory!r}"
            )
        manifest = read_manifest(step_dir)
        meta, arrays = load_shard(manifest, comm.rank)
        comm.charge(
            "checkpoint",
            comm.machine.io_cost(
                sum(info.nbytes for _, info in manifest.chain(comm.rank))
            ),
        )
        return manifest, meta, arrays


def load_shard(manifest: Manifest, rank: int) -> ShardPayload:
    """Load and integrity-check one rank's state from a checkpoint.

    The one place that knows about deltas: every file of the rank's
    chain is verified against ``manifest`` before any is parsed, then
    the delta's entries are laid over the base's, so callers always see
    the payload a full checkpoint at the same point would hold.
    """
    blobs = [
        _read_verified(directory, info)
        for directory, info in manifest.chain(rank)
    ]
    meta: dict[str, Any] = {}
    arrays: dict[str, np.ndarray] = {}
    for blob in blobs:
        shard_meta, shard_arrays = _deserialize_shard(blob)
        meta.update(shard_meta)
        arrays.update(shard_arrays)
    return meta, arrays
