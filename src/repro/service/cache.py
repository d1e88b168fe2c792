"""The service's tiered cache: exact memoization and warm family pools.

Tier 1 — :class:`ExactCache`: finished result payloads keyed by the
request spec's :func:`~repro.spec.spec_key` structural hash.  A repeat of
a byte-identical request (same curves, bounds, options — everything) is
answered from memory without touching a solver; the stored payload *is*
the payload a fresh solve would produce, so exact hits are bit-identical
by construction.  Bounded LRU.

Tier 2 — :class:`WarmPools`: one :class:`~repro.reuse.SolveFamily` per
*reuse channel* (the structural hash of a request's curves, objective,
layout and solver configuration — see
:func:`repro.service.engine.reuse_channel`).  Requests that are not exact
repeats but share a channel — a what-if ladder arriving as separate
requests, many users tuning the same machine at different job sizes —
solve against the channel's accumulated warm state: carried OA cuts,
re-certified incumbents, root bases, pseudocosts.  The reuse
engine's contract keeps warm answers bit-identical to cold ones; only the
work to find them shrinks.  Bounded LRU over channels.

Tier 3 is not in this module: a request that misses both tiers is a cold
solve dispatched by the engine, and its result then populates both tiers.

The wide-ladder guard: a long-lived channel family that has only seen
tightly clustered budgets carries every reuse feature, but once the
channel's observed node-count spread exceeds
:data:`~repro.reuse.SolveFamily.PSEUDOCOST_SPREAD`, the pool flips the
family to the unconditionally safe subset (incumbent seeding + basis
reuse) — the same fallback :meth:`SolveFamily.for_counts` applies to wide
what-if ladders, applied dynamically as the spread reveals itself.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.exceptions import ConfigurationError
from repro.resilience.events import EventKind
from repro.reuse import SolveFamily
from repro import telemetry
from repro.telemetry import names as metric

__all__ = ["ExactCache", "WarmPools"]


class ExactCache:
    """Thread-safe LRU of result payloads keyed by request spec_key."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ConfigurationError("ExactCache capacity must be >= 1")
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()

    def get(self, key: str) -> dict | None:
        """The cached result payload, or None.  Counts the hit/miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                telemetry.count(metric.EXACT_MISSES)
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            telemetry.count(metric.EXACT_HITS)
            return entry

    def put(self, key: str, payload: dict) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = payload
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                telemetry.count(metric.EXACT_EVICTIONS)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


class _Pool:
    """One channel's warm state plus its observed budget range."""

    __slots__ = ("family", "solves", "lo", "hi")

    def __init__(self, family: SolveFamily):
        self.family = family
        self.solves = 0          # successful solves absorbed so far
        self.lo: int | None = None
        self.hi: int | None = None

    def widen(self, total_nodes: int) -> bool:
        """Fold a budget into the observed range; True if now over-spread."""
        n = int(total_nodes)
        self.lo = n if self.lo is None else min(self.lo, n)
        self.hi = n if self.hi is None else max(self.hi, n)
        return self.hi > SolveFamily.PSEUDOCOST_SPREAD * self.lo


class WarmPools:
    """LRU map of reuse channel -> live :class:`SolveFamily` warm pool.

    Not thread-safe by design: the engine touches warm pools only from
    its single solver thread (the exact tier, which *is* accessed from
    the event loop, has its own lock).
    """

    def __init__(self, capacity: int = 32, events=None):
        if capacity < 1:
            raise ConfigurationError("WarmPools capacity must be >= 1")
        self.capacity = int(capacity)
        self.events = events
        self.evictions = 0
        self.downgrades = 0
        self._pools: OrderedDict = OrderedDict()

    def lease(self, channel: str, total_nodes: int) -> tuple:
        """``(family, warm)`` for one solve on ``channel`` at ``total_nodes``.

        ``warm`` is True when the channel already absorbed at least one
        solve — the tier label for requests answered through this family.
        Creates (and possibly evicts) pools as needed, and applies the
        wide-spread downgrade before handing the family out.
        """
        pool = self._pools.get(channel)
        if pool is None:
            pool = _Pool(SolveFamily())
            self._pools[channel] = pool
            while len(self._pools) > self.capacity:
                evicted_channel, _ = self._pools.popitem(last=False)
                self.evictions += 1
                telemetry.count(metric.WARM_POOL_EVICTED)
                if self.events is not None:
                    self.events.record(
                        EventKind.WARM_POOL_EVICTED,
                        "service",
                        f"channel {evicted_channel[:24]}... dropped (LRU, "
                        f"capacity {self.capacity})",
                    )
        else:
            self._pools.move_to_end(channel)
        warm = pool.solves > 0
        telemetry.count(metric.WARM_POOL_LEASES, tier="warm" if warm else "cold")
        if pool.widen(total_nodes) and pool.family.enable_cuts:
            # Same rationale as SolveFamily.for_counts: cuts and pseudocosts
            # transfer well between near-identical budgets but can
            # explode trees across a wide ladder; incumbent + basis reuse
            # are unconditionally safe.  Flip the unsafe channels off for
            # the rest of this family's life.
            pool.family.enable_cuts = False
            pool.family.enable_pseudocosts = False
            self.downgrades += 1
            telemetry.count(metric.WARM_POOL_DOWNGRADED)
            if self.events is not None:
                self.events.record(
                    EventKind.WARM_POOL_DOWNGRADED,
                    "service",
                    f"budget spread {pool.lo}-{pool.hi} exceeds "
                    f"{SolveFamily.PSEUDOCOST_SPREAD}x; family kept to the "
                    "incumbent+basis safe subset",
                )
        return pool.family, warm

    def note_solved(self, channel: str, count: int = 1) -> None:
        """Record that ``count`` solves were absorbed into ``channel``."""
        pool = self._pools.get(channel)
        if pool is not None:
            pool.solves += int(count)

    def __len__(self) -> int:
        return len(self._pools)

    def __contains__(self, channel: str) -> bool:
        return channel in self._pools

    def stats(self) -> dict:
        return {
            "channels": len(self._pools),
            "capacity": self.capacity,
            "evictions": self.evictions,
            "downgrades": self.downgrades,
            "solves": sum(p.solves for p in self._pools.values()),
        }
