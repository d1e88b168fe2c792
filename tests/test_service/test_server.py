"""Daemon-over-TCP behavior: admission, deadlines, batching, lifecycle.

Everything here goes through a real socket against a daemon on a
background thread (:func:`serve_in_thread`) — the same embedding the CLI
and the benchmark harness use.  The invariants:

- answers through the wire are bit-identical to direct library solves;
- malformed lines get a typed refusal and never wedge the connection;
- admission control rejects (typed, immediate) instead of queueing
  without bound; expired deadlines answer ``expired`` instead of hanging;
- concurrent compatible requests land in one batched family solve;
- ``shutdown`` is honored only when the daemon opted in.
"""

import socket
import threading
import time
from unittest import mock

import pytest

import repro.service.engine as engine_module
from repro.exceptions import AdmissionError, DeadlineExceededError
from repro.resilience.events import EventKind, EventLog
from repro.reuse import SolveFamily
from repro.service import ServiceConfig, decode_line, encode_line, serve_in_thread
from tests.test_service._util import (
    assert_bit_identical,
    direct_payload,
    point_specs,
)


@pytest.fixture(scope="module")
def specs(calibrated):
    return point_specs(calibrated, (128, 120))


@pytest.fixture(scope="module")
def direct(specs):
    """Fresh-family direct payloads for each spec (the cold-tier oracle)."""
    return [direct_payload(s, SolveFamily()) for s in specs]


def raw_exchange(address, lines, expect):
    """Write raw request lines on one connection, read ``expect`` responses."""
    host, port = address
    with socket.create_connection((host, port), timeout=30) as sock:
        stream = sock.makefile("rwb")
        for line in lines:
            stream.write(line if isinstance(line, bytes) else encode_line(line))
        stream.flush()
        responses = [decode_line(stream.readline()) for _ in range(expect)]
        stream.close()
    return responses


def wait_for(predicate, timeout=5.0):
    horizon = time.monotonic() + timeout
    while time.monotonic() < horizon:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestControlPlane:
    def test_ping_and_stats_over_socket(self):
        with serve_in_thread(ServiceConfig()) as handle:
            with handle.client(client_id="t") as client:
                assert client.ping().result == {"pong": True}
                stats = client.stats()
                assert stats["backend"] == "serial"
                assert stats["service"]["max_queue"] == 64
                assert stats["service"]["stopping"] is False

    def test_malformed_line_typed_and_connection_survives(self):
        with serve_in_thread(ServiceConfig()) as handle:
            responses = raw_exchange(
                handle.address,
                [b"{nope\n", {"kind": "ping", "id": "after"}],
                expect=2,
            )
            by_id = {r.get("id", ""): r for r in responses}
            assert by_id[""]["status"] == "error"
            assert by_id[""]["error"]["type"] == "ProtocolError"
            assert by_id["after"]["status"] == "ok"
            assert by_id["after"]["result"] == {"pong": True}

    def test_unknown_fields_refused_over_socket(self):
        with serve_in_thread(ServiceConfig()) as handle:
            (response,) = raw_exchange(
                handle.address,
                [{"kind": "ping", "id": "x", "surprise": 1}],
                expect=1,
            )
            assert response["status"] == "error"
            assert response["error"]["type"] == "ProtocolError"


class TestSolvesOverSocket:
    def test_cold_then_exact_bit_identical(self, specs, direct):
        with serve_in_thread(ServiceConfig()) as handle:
            with handle.client(client_id="t") as client:
                cold = client.solve_point(specs[0])
                repeat = client.solve_point(specs[0])
        assert cold.ok and cold.tier == "cold"
        assert_bit_identical(cold.result, direct[0])
        assert repeat.ok and repeat.tier == "exact"
        assert repeat.result == cold.result

    def test_exact_hit_never_hashes_the_channel(self, specs):
        with serve_in_thread(ServiceConfig()) as handle:
            with handle.client(client_id="t") as client:
                client.solve_point(specs[0])
                with mock.patch.object(engine_module, "reuse_channel",
                                       wraps=engine_module.reuse_channel) as channel:
                    repeat = client.solve_point(specs[0])
                    hashed_on_hit = channel.call_count
                    miss = client.solve_point(specs[1])
        assert repeat.tier == "exact" and hashed_on_hit == 0
        assert miss.tier == "warm" and channel.call_count == 1

    def test_pipelined_requests_matched_by_id(self, specs, direct):
        config = ServiceConfig(batch_window=0.05)
        with serve_in_thread(config) as handle:
            responses = raw_exchange(
                handle.address,
                [
                    {"kind": "solve_point", "spec": specs[0].to_dict(), "id": "a"},
                    {"kind": "solve_point", "spec": specs[1].to_dict(), "id": "b"},
                    {"kind": "ping", "id": "p"},
                ],
                expect=3,
            )
        by_id = {r["id"]: r for r in responses}
        assert set(by_id) == {"a", "b", "p"}
        assert by_id["p"]["result"] == {"pong": True}
        for request_id, want in (("a", direct[0]), ("b", direct[1])):
            assert by_id[request_id]["status"] == "ok"
            assert_bit_identical(by_id[request_id]["result"], want)

    def test_concurrent_compatible_clients_are_batched(self, specs, direct):
        events = EventLog()
        config = ServiceConfig(batch_window=1.0)
        with serve_in_thread(config, events=events) as handle:
            responses = {}

            def ask(index):
                with handle.client(client_id=f"c{index}") as client:
                    responses[index] = client.solve_point(specs[index])

            threads = [threading.Thread(target=ask, args=(i,)) for i in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            counters = handle.daemon.engine.stats()["counters"]

        for index in (0, 1):
            assert responses[index].ok
            # batch members solve against the pre-batch (empty) snapshot:
            # both are bit-identical to fresh direct solves
            assert responses[index].tier == "cold"
            assert_bit_identical(responses[index].result, direct[index])
        assert counters["batches"] == 1
        assert counters["batched_requests"] == 2
        assert len(events.of_kind(EventKind.BATCH_DISPATCHED)) == 1


class TestAdmissionControl:
    def test_overflow_rejected_typed_and_counted(self, specs, direct):
        events = EventLog()
        config = ServiceConfig(max_queue=1, batch_window=1.0)
        with serve_in_thread(config, events=events) as handle:
            first = {}

            def ask():
                with handle.client(client_id="slow") as client:
                    first["response"] = client.solve_point(specs[0])

            thread = threading.Thread(target=ask)
            thread.start()
            with handle.client(client_id="probe") as probe:
                assert wait_for(
                    lambda: probe.stats()["service"]["in_flight"] == 1)
                rejected = probe.solve_point(specs[1])
            thread.join(30)
            counters = handle.daemon.engine.stats()["counters"]

        assert rejected.status == "rejected"
        assert rejected.error["type"] == "AdmissionError"
        assert rejected.meta["in_flight"] == 1
        with pytest.raises(AdmissionError):
            probe.result(rejected)
        assert counters["rejected"] == 1
        assert len(events.of_kind(EventKind.REQUEST_REJECTED)) == 1
        # the admitted request was never disturbed
        assert first["response"].ok
        assert_bit_identical(first["response"].result, direct[0])

    def test_expired_deadline_answered_not_hung(self, specs):
        events = EventLog()
        config = ServiceConfig(batch_window=0.5)
        with serve_in_thread(config, events=events) as handle:
            with handle.client(client_id="t") as client:
                start = time.monotonic()
                expired = client.solve_point(specs[0], deadline=0.001)
                elapsed = time.monotonic() - start
            counters = handle.daemon.engine.stats()["counters"]

        assert expired.status == "expired"
        assert expired.error["type"] == "DeadlineExceededError"
        assert elapsed < 10.0     # answered promptly, never hung
        with pytest.raises(DeadlineExceededError):
            client.result(expired)
        assert counters["expired"] == 1
        assert counters["cold_solves"] == 0   # the solver never ran
        assert len(events.of_kind(EventKind.REQUEST_EXPIRED)) == 1


class TestLifecycle:
    def test_shutdown_refused_by_default(self):
        with serve_in_thread(ServiceConfig()) as handle:
            with handle.client() as client:
                refused = client.shutdown()
                assert refused.status == "error"
                assert refused.error["type"] == "ProtocolError"
                assert client.ping().ok    # daemon is still alive

    def test_shutdown_honored_when_allowed(self):
        handle = serve_in_thread(ServiceConfig(), allow_shutdown=True)
        with handle.client() as client:
            accepted = client.shutdown()
        assert accepted.ok and accepted.result == {"stopping": True}
        handle.thread.join(10)
        assert not handle.thread.is_alive()
        with pytest.raises(OSError):
            socket.create_connection(handle.address, timeout=1)

    def test_stop_is_idempotent(self):
        handle = serve_in_thread(ServiceConfig())
        handle.stop()
        handle.stop()
        assert not handle.thread.is_alive()
