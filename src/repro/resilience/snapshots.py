"""In-memory snapshots of a run's state: what an engine retry resumes from.

A checkpoint on disk (:mod:`.checkpoint`) survives the process.  A retry
inside the process that ran the dead attempt needs less: the state
(:mod:`repro.core.state`) as it stood at the last save point, somewhere
the next attempt's ranks can reach.  :class:`RunSnapshots` is that
place — node-local memory as the first checkpoint level (Moody et al.,
SCR, SC'10) — a :class:`~.checkpoint.CheckpointManager` whose medium is
memory: the same ``save`` entry point and cadence, the same payloads
(:mod:`.louvain_state`), so a restore is ``unpack_rank_state`` on the
very ``(meta, arrays)`` a disk checkpoint would have round-tripped.

What a save costs:

* the **phase state** (graph slice, original-vertex map, history) is
  kept *by reference*, once per phase: a phase replaces these objects
  when it ends and writes none of them before;
* the **iteration state** (labels, ``C_info``, ET's arrays) is
  *copied*: the sweep mutates it in place.  A restore copies it again,
  so a resumed attempt that dies before its first save leaves the
  snapshot as it found it.

As on disk, one object serves every rank of the job, and every attempt
of it.  No collective and no file: every rank reaches a save point
on the same replicated decision and deposits its own part; a
*generation* counts — becomes what :meth:`RunSnapshots.load_latest`
hands back — only once all ranks of the world have deposited it, so a
fault between two ranks' deposits leaves the previous generation in
place.  The modelled clock is charged what happens:
``machine.compute_cost(words copied)`` to ``checkpoint``, on save and
on restore, and nothing for what is held by reference.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Any, Callable

import numpy as np

from ..runtime.comm import Communicator
from .checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointManager,
    Manifest,
    NoCheckpointError,
    ShardInfo,
    ShardPayload,
)

#: Where a snapshot's manifest says it is.
MEMORY = "<memory>"

#: One rank's part of a generation: its record in the generation's
#: manifest (``nbytes`` copied), the phase state, the iteration state.
_Deposit = tuple[ShardInfo, ShardPayload, ShardPayload]


def _copied(comm: Communicator, arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """A copy of every array, charged to ``checkpoint`` by the word."""
    names = sorted(arrays)
    comm.charge_compute(
        sum(arrays[name].size for name in names), category="checkpoint"
    )
    return {name: arrays[name].copy() for name in names}


class RunSnapshots(CheckpointManager):
    """The snapshots of one run, owned by whoever may retry it.

    The same one object per run as a disk manager, with memory for the
    medium.  ``label`` and ``config_key`` are recorded with every
    generation, as a manifest records them, so a resume under another
    config is refused the same way.
    """

    def __init__(
        self,
        *,
        every_phases: int = 1,
        every_iterations: int | None = None,
        label: str = "",
        config_key: str,
    ):
        super().__init__(
            MEMORY,
            every_phases=every_phases,
            every_iterations=every_iterations,
            keep=1,
            label=label,
            config_key=config_key,
        )
        self._lock = threading.Lock()
        #: rank -> (phase, its phase state as first packed in that phase)
        self._phase_state: dict[int, tuple[int, ShardPayload]] = {}
        #: (phase, iteration) -> rank -> deposit, for the save points
        #: some rank has yet to reach.  Ranks save in the same order, so
        #: these are all later than :attr:`_latest`.
        self._deposits: dict[tuple[int, int], dict[int, _Deposit]] = {}
        self._latest: tuple[Manifest, dict[int, _Deposit]] | None = None
        self._generations = 0

    def latest(self, size: int) -> Manifest | None:
        """The newest complete generation of a ``size``-rank world
        (``None`` before the first one): a manifest whose shards say
        what each rank copied."""
        with self._lock:
            latest = self._latest
        if latest is None or latest[0].size != size:
            return None
        return latest[0]

    def begin_attempt(self, *, resume: bool) -> None:
        """Forget what a dead attempt left half-deposited — and, for an
        attempt that starts over, everything (no rank is running)."""
        with self._lock:
            self._deposits.clear()
            self._phase_state.clear()
            if not resume:
                self._latest = None

    def _write(
        self,
        comm: Communicator,
        *,
        kind: str,
        phase: int,
        iteration: int,
        phase_state: Callable[[], ShardPayload],
        iteration_state: ShardPayload,
    ) -> Manifest:
        """Deposit this rank's part of the generation at ``(phase,
        iteration)`` and return a manifest of that part alone: no rank
        waits to learn what its peers deposited.  ``phase_state()`` is
        called for the rank's first save of ``phase`` only, like a disk
        manager's full checkpoint."""
        meta, arrays = iteration_state
        copied = _copied(comm, arrays)
        mine = ShardInfo(
            rank=comm.rank,
            filename="",
            nbytes=sum(copied[name].nbytes for name in sorted(copied)),
            sha256="",
        )
        with self._lock:
            held = self._phase_state.get(comm.rank)
            if held is None or held[0] != phase:
                held = self._phase_state[comm.rank] = (phase, phase_state())
            point = (phase, iteration)
            parts = self._deposits.setdefault(point, {})
            parts[comm.rank] = (mine, held[1], (meta, copied))
            deposit = Manifest(
                seq=self._generations,
                kind=kind,
                phase=phase,
                iteration=iteration,
                size=comm.size,
                version=CHECKPOINT_FORMAT_VERSION,
                label=self.label,
                shards=(mine,),
                directory=MEMORY,
                config_key=self.config_key,
            )
            if len(parts) == comm.size:
                del self._deposits[point]
                shards = tuple(parts[rank][0] for rank in sorted(parts))
                self._latest = (replace(deposit, shards=shards), parts)
                self._generations += 1
        return deposit

    def load_latest(
        self, comm: Communicator
    ) -> tuple[Manifest, dict[str, Any], dict[str, np.ndarray]]:
        """This rank's state as of the newest complete generation, in
        the merged form :func:`~.checkpoint.load_shard` returns.  Raises
        :class:`NoCheckpointError` when there is none for this world."""
        with self._lock:
            latest = self._latest
        if latest is None or latest[0].size != comm.size:
            raise NoCheckpointError(
                f"no complete snapshot for {comm.size} rank(s)"
            )
        manifest, parts = latest
        _, (phase_meta, phase_arrays), (meta, arrays) = parts[comm.rank]
        return (
            manifest,
            {**phase_meta, **meta},
            {**phase_arrays, **_copied(comm, arrays)},
        )
