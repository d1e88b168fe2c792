"""ServiceEngine behavior: tiers, dedup, batching semantics, fault typing."""

from unittest import mock

import pytest

import repro.service.engine as engine_module

from repro.exceptions import ConfigurationError, ProtocolError
from repro.service import (
    ServiceConfig,
    ServiceEngine,
    ServiceRequest,
    group_compatible,
    reuse_channel,
)
from tests.test_service._util import direct_payload, point_specs, request_for


@pytest.fixture(scope="module")
def specs(calibrated):
    return point_specs(calibrated, (128, 120, 112))


class TestParse:
    def test_solve_point_identities(self, calibrated, specs):
        engine = ServiceEngine()
        parsed = engine.parse(request_for(specs[0], id="r1"))
        assert parsed.id == "r1"
        assert parsed.key == specs[0].spec_key()
        assert parsed.budget == 128
        assert parsed.compat == reuse_channel(specs[0].to_dict())
        assert parsed.channel == parsed.compat

    def test_ladder_shares_a_channel(self, specs):
        engine = ServiceEngine()
        channels = {engine.parse(request_for(s)).compat for s in specs}
        assert len(channels) == 1

    def test_methods_get_distinct_channels(self, calibrated):
        engine = ServiceEngine()
        lp = point_specs(calibrated, (128,), method="lpnlp")[0]
        bnb = point_specs(calibrated, (128,), method="bnb")[0]
        assert (engine.parse(request_for(lp)).compat
                != engine.parse(request_for(bnb)).compat)

    def test_oracle_has_no_family_channel(self, calibrated):
        engine = ServiceEngine()
        oracle = point_specs(calibrated, (128,), method="oracle")[0]
        parsed = engine.parse(request_for(oracle))
        assert parsed.channel is None
        assert parsed.compat is not None    # still batchable with its kin

    def test_control_kinds_not_parseable(self):
        engine = ServiceEngine()
        with pytest.raises(ProtocolError, match="not a solvable"):
            engine.parse(ServiceRequest(kind="ping"))

    def test_bad_spec_payload(self):
        engine = ServiceEngine()
        with pytest.raises(Exception):
            engine.parse(request_for_bad())


def request_for_bad():
    return {"kind": "solve_point", "spec": {"kind": "solve_point",
                                            "problem": {}}, "id": "bad"}


class TestTiers:
    def test_cold_then_exact(self, specs):
        engine = ServiceEngine()
        first = engine.handle(request_for(specs[0], id="a"))
        repeat = engine.handle(request_for(specs[0], id="b"))
        assert first.tier == "cold" and repeat.tier == "exact"
        assert repeat.result == first.result
        assert repeat.id == "b"
        counters = engine.stats()["counters"]
        assert counters["cold_solves"] == 1
        assert counters["exact_hits"] == 1

    def test_warm_on_second_channel_member(self, specs):
        engine = ServiceEngine()
        assert engine.handle(request_for(specs[0])).tier == "cold"
        warm = engine.handle(request_for(specs[1]))
        assert warm.tier == "warm"
        assert engine.stats()["counters"]["warm_hits"] == 1
        assert engine.stats()["warm"]["channels"] == 1

    def test_exact_hit_never_hashes_the_channel(self, specs):
        """An exact hit is answered from the spec's key alone; the reuse
        channel is hashed once per miss."""
        engine = ServiceEngine()
        engine.handle(request_for(specs[0]))
        with mock.patch.object(engine_module, "reuse_channel",
                               wraps=reuse_channel) as channel:
            parsed = engine.parse(request_for(specs[0]))
            assert engine.handle(request_for(specs[0])).tier == "exact"
            assert channel.call_count == 0
            assert engine.handle(request_for(specs[1])).tier == "warm"
            assert channel.call_count == 1
        assert parsed.key == specs[0].spec_key()

    def test_oracle_requests_answered_without_family(self, calibrated):
        engine = ServiceEngine()
        oracle = point_specs(calibrated, (128, 120), method="oracle")
        r0 = engine.handle(request_for(oracle[0]))
        r1 = engine.handle(request_for(oracle[1]))
        assert r0.tier == "cold" and r1.tier == "cold"
        assert "solver" not in r0.result
        assert engine.stats()["warm"]["channels"] == 0


class TestSolveGroup:
    def test_duplicates_deduped(self, specs):
        engine = ServiceEngine()
        group = [engine.parse(request_for(specs[0], id=f"r{i}"))
                 for i in range(3)]
        responses = engine.solve_group(group)
        assert [r.id for r in responses] == ["r0", "r1", "r2"]
        assert all(r.ok for r in responses)
        assert responses[0].result == responses[1].result == responses[2].result
        counters = engine.stats()["counters"]
        assert counters["cold_solves"] == 1
        assert counters["dedup_hits"] == 2

    def test_batch_counters(self, specs):
        engine = ServiceEngine()
        group = [engine.parse(request_for(s, id=s.spec_key()[:12]))
                 for s in specs]
        engine.solve_group(group)
        counters = engine.stats()["counters"]
        assert counters["batches"] == 1
        assert counters["batched_requests"] == 3
        assert counters["cold_solves"] == 3

    def test_exact_recheck_inside_group(self, specs):
        engine = ServiceEngine()
        engine.handle(request_for(specs[0]))
        group = [engine.parse(request_for(specs[0], id="again"))]
        responses = engine.solve_group(group)
        assert responses[0].tier == "exact"

    def test_defective_member_isolated(self, calibrated, specs):
        # A spec whose model cannot be built (N below every lower bound)
        # shares the good spec's channel; its failure must come back as a
        # typed error on ITS response while the good member solves fine.
        bad = point_specs(calibrated, (2,))[0]
        engine = ServiceEngine()
        group = [engine.parse(request_for(specs[0], id="good")),
                 engine.parse(request_for(bad, id="bad"))]
        responses = engine.solve_group(group)
        by_id = {r.id: r for r in responses}
        assert by_id["good"].ok
        assert by_id["good"].result == direct_payload_cached(specs[0])
        assert by_id["bad"].status == "error"
        assert by_id["bad"].error["type"] == "ConfigurationError"
        assert engine.stats()["counters"]["errors"] == 1
        # the poisoned member never touched the family: a follow-up warm
        # solve matches the direct sequential comparator
        follow = engine.handle(request_for(specs[1], id="after"))
        assert follow.ok and follow.tier == "warm"

    def test_empty_group(self):
        assert ServiceEngine().solve_group([]) == []


_direct_cache = {}


def direct_payload_cached(spec):
    from repro.reuse import SolveFamily

    key = spec.spec_key()
    if key not in _direct_cache:
        _direct_cache[key] = direct_payload(spec, SolveFamily())
    return _direct_cache[key]


class TestHandle:
    def test_ping_and_stats(self):
        engine = ServiceEngine()
        assert engine.handle({"kind": "ping", "id": "p"}).result == {"pong": True}
        stats = engine.handle({"kind": "stats"}).result
        assert stats["backend"] == "serial"
        assert "counters" in stats and "exact" in stats and "warm" in stats

    def test_shutdown_refused_in_process(self):
        response = ServiceEngine().handle({"kind": "shutdown"})
        assert response.status == "error"
        assert response.error["type"] == "ProtocolError"

    def test_malformed_request_is_typed(self):
        response = ServiceEngine().handle({"kind": "nope"})
        assert response.status == "error"
        assert response.error["type"] == "ProtocolError"

    def test_bad_spec_is_typed_and_counted(self):
        engine = ServiceEngine()
        response = engine.handle(request_for_bad())
        assert response.status == "error"
        assert engine.stats()["counters"]["errors"] == 1


class TestGroupCompatible:
    def test_orders_and_partitions(self):
        items = [("a", 1), ("b", 2), ("a", 3), (None, 4), ("b", 5), (None, 6)]
        groups = group_compatible(items, compat=lambda it: it[0])
        assert groups == [
            [("a", 1), ("a", 3)],
            [("b", 2), ("b", 5)],
            [(None, 4)],
            [(None, 6)],
        ]


class TestServiceConfig:
    def test_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="backend"):
            ServiceConfig(backend="gpu")

    @pytest.mark.parametrize("field,value", [
        ("max_queue", 0), ("max_batch", 0), ("max_retries", 0),
        ("exact_capacity", 0), ("warm_capacity", 0),
        ("batch_window", -0.1), ("default_deadline", 0.0),
    ])
    def test_bounds_validated(self, field, value):
        with pytest.raises(ConfigurationError):
            ServiceConfig(**{field: value})
