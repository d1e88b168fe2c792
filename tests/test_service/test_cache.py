"""Tiered cache mechanics: exact LRU and warm family pools."""

import pytest

from repro.exceptions import ConfigurationError
from repro.resilience.events import EventKind, EventLog
from repro.reuse import SolveFamily
from repro.service import ExactCache, WarmPools


class TestExactCache:
    def test_miss_then_hit(self):
        cache = ExactCache(capacity=4)
        assert cache.get("a") is None
        cache.put("a", {"v": 1})
        assert cache.get("a") == {"v": 1}
        assert cache.stats() == {
            "entries": 1, "capacity": 4, "hits": 1, "misses": 1, "evictions": 0,
        }

    def test_lru_eviction_order(self):
        cache = ExactCache(capacity=2)
        cache.put("a", {})
        cache.put("b", {})
        assert cache.get("a") is not None   # refresh a; b is now oldest
        cache.put("c", {})
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats()["evictions"] == 1

    def test_put_refreshes_existing_key(self):
        cache = ExactCache(capacity=2)
        cache.put("a", {"v": 1})
        cache.put("b", {})
        cache.put("a", {"v": 2})            # refresh, not a new entry
        cache.put("c", {})                  # evicts b, not a
        assert cache.get("a") == {"v": 2}
        assert "b" not in cache

    def test_len(self):
        cache = ExactCache(capacity=8)
        for key in "abc":
            cache.put(key, {})
        assert len(cache) == 3

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            ExactCache(capacity=0)


class TestWarmPools:
    def test_first_lease_is_cold(self):
        pools = WarmPools(capacity=4)
        family, warm = pools.lease("ch", 128)
        assert isinstance(family, SolveFamily)
        assert not warm

    def test_lease_after_solve_is_warm_and_same_family(self):
        pools = WarmPools(capacity=4)
        family, _ = pools.lease("ch", 128)
        pools.note_solved("ch")
        again, warm = pools.lease("ch", 120)
        assert again is family
        assert warm

    def test_channels_are_independent(self):
        pools = WarmPools(capacity=4)
        fam_a, _ = pools.lease("a", 128)
        pools.note_solved("a")
        fam_b, warm_b = pools.lease("b", 128)
        assert fam_b is not fam_a
        assert not warm_b

    def test_lru_eviction_records_event(self):
        events = EventLog()
        pools = WarmPools(capacity=2, events=events)
        pools.lease("a", 10)
        pools.lease("b", 10)
        pools.lease("a", 10)                # refresh a; b is oldest
        pools.lease("c", 10)                # evicts b
        assert "b" not in pools
        assert "a" in pools and "c" in pools
        assert pools.stats()["evictions"] == 1
        assert len(events.of_kind(EventKind.WARM_POOL_EVICTED)) == 1

    def test_wide_spread_downgrades_to_safe_subset(self):
        events = EventLog()
        pools = WarmPools(capacity=4, events=events)
        family, _ = pools.lease("ch", 100)
        assert family.enable_cuts and family.enable_pseudocosts
        # within the spread guard: everything stays on
        pools.lease("ch", 110)
        assert family.enable_cuts
        # beyond PSEUDOCOST_SPREAD (1.2x): unsafe channels flip off for good
        pools.lease("ch", 1000)
        assert not family.enable_cuts
        assert not family.enable_pseudocosts
        assert family.enable_incumbent and family.enable_basis
        assert pools.stats()["downgrades"] == 1
        assert len(events.of_kind(EventKind.WARM_POOL_DOWNGRADED)) == 1
        # already downgraded: widening further is not a second event
        pools.lease("ch", 5000)
        assert pools.stats()["downgrades"] == 1

    def test_solves_counted_in_stats(self):
        pools = WarmPools(capacity=4)
        pools.lease("a", 10)
        pools.note_solved("a", 3)
        pools.lease("b", 10)
        pools.note_solved("b")
        assert pools.stats()["solves"] == 4
        assert len(pools) == 2

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            WarmPools(capacity=0)
