"""WarmPools LRU eviction and wide-spread downgrade, cross-checked three ways.

Each lifecycle event has three observers that must agree: the pool's own
counters (``evictions``/``downgrades``), the :class:`EventLog` records the
service surfaces to operators, and the ``WARM_POOL_*`` telemetry metrics.
A disagreement means an instrumentation point drifted off the real event.
"""

import pytest

from repro import telemetry
from repro.resilience import EventLog
from repro.resilience.events import EventKind
from repro.reuse import SolveFamily
from repro.service.cache import WarmPools
from repro.telemetry import MetricsRegistry, names


@pytest.fixture
def registry():
    reg = telemetry.enable(MetricsRegistry())
    yield reg
    telemetry.disable()


class TestLRUEviction:
    def test_eviction_metric_matches_events_and_counter(self, registry):
        events = EventLog()
        pools = WarmPools(capacity=2, events=events)
        for i in range(5):
            pools.lease(f"channel-{i}", total_nodes=128)
        assert len(pools) == 2
        assert pools.evictions == 3
        assert len(events.of_kind(EventKind.WARM_POOL_EVICTED)) == 3
        assert registry.get_count(names.WARM_POOL_EVICTED) == 3

    def test_reuse_keeps_a_channel_alive(self, registry):
        pools = WarmPools(capacity=2, events=EventLog())
        pools.lease("a", 128)
        pools.lease("b", 128)
        pools.lease("a", 128)          # refresh a
        pools.lease("c", 128)          # evicts b, not a
        assert "a" in pools and "c" in pools and "b" not in pools
        assert registry.get_count(names.WARM_POOL_EVICTED) == 1

    def test_lease_tier_labels(self, registry):
        pools = WarmPools(capacity=4)
        pools.lease("a", 128)                       # cold: no solves yet
        pools.note_solved("a")
        pools.lease("a", 128)                       # warm now
        assert registry.get_count(names.WARM_POOL_LEASES, tier="cold") == 1
        assert registry.get_count(names.WARM_POOL_LEASES, tier="warm") == 1


class TestWideSpreadDowngrade:
    def test_downgrade_metric_matches_events_and_counter(self, registry):
        events = EventLog()
        pools = WarmPools(capacity=4, events=events)
        lo = 64
        hi = int(SolveFamily.PSEUDOCOST_SPREAD * lo) + 1
        family, _ = pools.lease("wide", lo)
        assert family.enable_cuts            # narrow so far: full feature set
        pools.lease("wide", hi)              # spread now exceeds the guard
        assert not family.enable_cuts
        assert not family.enable_pseudocosts
        assert pools.downgrades == 1
        assert len(events.of_kind(EventKind.WARM_POOL_DOWNGRADED)) == 1
        assert registry.get_count(names.WARM_POOL_DOWNGRADED) == 1

    def test_downgrade_fires_once_per_family(self, registry):
        pools = WarmPools(capacity=4, events=EventLog())
        pools.lease("wide", 64)
        pools.lease("wide", 64 * 100)
        pools.lease("wide", 64 * 1000)       # already downgraded: no re-fire
        assert pools.downgrades == 1
        assert registry.get_count(names.WARM_POOL_DOWNGRADED) == 1

    def test_no_events_log_still_counts_metrics(self, registry):
        pools = WarmPools(capacity=1)
        pools.lease("a", 128)
        pools.lease("b", 128)
        assert registry.get_count(names.WARM_POOL_EVICTED) == 1
