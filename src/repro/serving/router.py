"""Routing graph fingerprints onto shards: rendezvous hashing.

The serving tier spreads tenants over N :class:`ShardProcess` workers.
Placement must be (a) deterministic — every submission of the same
tenant graph lands on the same shard so its warm engine-level state
(memory cache tier, running jobs) is reused — and (b) stable under
failure: when a shard dies, only the keys it owned should move.

**Rendezvous (highest-random-weight) hashing** gives both: each key
scores every live shard as ``sha256(key "|" shard_id)`` and routes to
the maximum.  Removing a shard re-routes exactly that shard's keys
(each to its second-highest scorer) and perturbs nothing else — the
property consistent placement needs, without maintaining a ring.

The router also owns the health-check/drain/shutdown sweep over the
fleet, so the tier above deals in tenants and the router deals in
processes.
"""

from __future__ import annotations

import hashlib

from .shard import ShardConfig, ShardDeadError, ShardProcess

__all__ = ["NoLiveShards", "ShardRouter"]


class NoLiveShards(RuntimeError):
    """Every shard in the fleet is dead; nothing can be routed."""


def _score(key: str, shard_id: int) -> int:
    digest = hashlib.sha256(f"{key}|{shard_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class ShardRouter:
    """Own a fleet of shard processes and route keys onto the live ones.

    ``key`` is any stable string — the serving tier uses the tenant's
    graph fingerprint, so a tenant follows its graph, and replacing the
    graph (new fingerprint) may legitimately move the tenant.
    """

    def __init__(self, configs: list[ShardConfig], *, start_method: str = "spawn"):
        if not configs:
            raise ValueError("need at least one shard config")
        ids = [c.shard_id for c in configs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate shard ids: {sorted(ids)}")
        self.shards: dict[int, ShardProcess] = {
            c.shard_id: ShardProcess(c, start_method=start_method)
            for c in configs
        }

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def live_shards(self) -> list[ShardProcess]:
        """Shards believed alive (no RPC; see :meth:`health_check`)."""
        return [s for s in self.shards.values() if s.alive]

    def route(self, key: str) -> ShardProcess:
        """The live shard that owns ``key`` under rendezvous hashing."""
        live = self.live_shards()
        if not live:
            raise NoLiveShards("all shards are dead")
        return max(live, key=lambda s: (_score(key, s.shard_id), s.shard_id))

    def placement(self, keys: list[str]) -> dict[str, int]:
        """Shard id each key routes to right now (for introspection)."""
        return {k: self.route(k).shard_id for k in keys}

    # ------------------------------------------------------------------
    # Fleet health
    # ------------------------------------------------------------------
    def health_check(self, timeout: float = 5.0) -> dict[int, bool]:
        """Actively ping every non-dead shard; returns id -> healthy.

        A shard that fails its ping is marked dead, so subsequent
        :meth:`route` calls skip it — this is the rebalancing step:
        after a shard death, one health check re-homes its keys onto
        the survivors.
        """
        return {
            sid: shard.ping(timeout=timeout)
            for sid, shard in sorted(self.shards.items())
        }

    def broadcast_tenant(self, name: str, max_queued: int | None) -> None:
        """Register a tenant quota on every live shard (keys can move
        to any shard after a death, so all of them must know it)."""
        for shard in self.live_shards():
            try:
                shard.register_tenant(name, max_queued)
            except ShardDeadError:
                continue  # died mid-broadcast; route() will skip it

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(
        self, *, cancel_pending: bool = False, timeout: float = 600.0
    ) -> dict[int, list[tuple[str, str]]]:
        """Drain every live shard; id -> its ``(job_id, state)`` report
        of the jobs not fetched yet."""
        report: dict[int, list[tuple[str, str]]] = {}
        for sid, shard in sorted(self.shards.items()):
            if not shard.alive:
                continue
            try:
                report[sid] = shard.drain(
                    cancel_pending=cancel_pending, timeout=timeout
                )
            except ShardDeadError:
                continue
        return report

    def shutdown(self, *, cancel_pending: bool = True) -> None:
        for shard in self.shards.values():
            shard.shutdown(cancel_pending=cancel_pending)

    def __len__(self) -> int:
        return len(self.shards)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        live = sum(1 for s in self.shards.values() if s.alive)
        return f"ShardRouter({live}/{len(self.shards)} shards live)"
