"""Wire-protocol typing: every malformed message is a typed refusal."""

import gc
import tracemalloc

import pytest

from repro.exceptions import ProtocolError
from repro.service import (
    REQUEST_KINDS,
    ServiceClient,
    ServiceRequest,
    ServiceResponse,
    decode_line,
    encode_line,
)
from repro.service.protocol import error_response

from tests.test_service._util import point_specs

#: A 1/8-degree ``solve_point`` answer as the daemon writes it.
ANSWER_LINE = (
    b'{"id":"bench1-1204","status":"ok","tier":"exact","result":{"kind":"layout_point",'
    b'"method":"lpnlp","total_nodes":8192,"objective":3432.56210437463,'
    b'"allocation":{"atm":5056,"ice":4933,"lnd":123,"ocn":3136},'
    b'"solver":{"status":"optimal","nodes":8,"cuts_added":8,"nlp_solves":2,'
    b'"lp_iterations":26,"best_bound":3432.56210437463}}}\n'
)


class TestLineCodec:
    def test_roundtrip(self):
        payload = {"kind": "ping", "id": "r1", "n": 1.5}
        line = encode_line(payload)
        assert line.endswith(b"\n")
        assert b"\n" not in line[:-1]
        assert decode_line(line) == payload

    def test_accepts_str(self):
        assert decode_line('{"kind":"ping"}') == {"kind": "ping"}

    def test_rejects_bad_utf8(self):
        with pytest.raises(ProtocolError, match="UTF-8"):
            decode_line(b"\xff\xfe{}\n")

    def test_rejects_bad_json(self):
        with pytest.raises(ProtocolError, match="JSON"):
            decode_line(b"{nope\n")

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="object"):
            decode_line(b"[1, 2]\n")


class TestServiceRequest:
    def test_roundtrip(self):
        request = ServiceRequest(
            kind="solve_point", spec={"kind": "solve_point"}, id="r1",
            client="c1", deadline=2.5,
        )
        assert ServiceRequest.from_dict(request.to_dict()) == request

    def test_control_roundtrip_drops_empty_fields(self):
        request = ServiceRequest(kind="ping", id="p")
        out = request.to_dict()
        assert out == {"kind": "ping", "id": "p"}
        assert ServiceRequest.from_dict(out) == request

    def test_unknown_kind(self):
        with pytest.raises(ProtocolError, match="unknown request kind"):
            ServiceRequest(kind="frobnicate")

    def test_solve_kinds_need_spec(self):
        for kind in ("solve_point", "tune"):
            with pytest.raises(ProtocolError, match="needs a 'spec'"):
                ServiceRequest(kind=kind)

    def test_control_kinds_refuse_spec(self):
        with pytest.raises(ProtocolError, match="carries no 'spec'"):
            ServiceRequest(kind="ping", spec={})

    def test_deadline_must_be_positive(self):
        for bad in (0, -1.0):
            with pytest.raises(ProtocolError, match="deadline"):
                ServiceRequest(kind="ping", deadline=bad)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ProtocolError, match="unknown request fields"):
            ServiceRequest.from_dict({"kind": "ping", "surprise": 1})

    def test_from_dict_rejects_non_numeric_deadline(self):
        with pytest.raises(ProtocolError, match="deadline"):
            ServiceRequest.from_dict({"kind": "ping", "deadline": "soon"})

    def test_all_kinds_constructible(self):
        for kind in REQUEST_KINDS:
            spec = {"k": 1} if kind in ("solve_point", "tune") else None
            assert ServiceRequest(kind=kind, spec=spec).kind == kind


class TestServiceResponse:
    def test_roundtrip(self):
        response = ServiceResponse(
            id="r1", status="ok", tier="warm", result={"objective": 1.0},
            meta={"batched": 2},
        )
        assert ServiceResponse.from_dict(response.to_dict()) == response

    def test_unknown_status(self):
        with pytest.raises(ProtocolError, match="unknown response status"):
            ServiceResponse(id="r", status="meh")

    def test_unknown_tier(self):
        with pytest.raises(ProtocolError, match="unknown response tier"):
            ServiceResponse(id="r", status="ok", tier="lukewarm")

    def test_ok_property(self):
        assert ServiceResponse(id="r", status="ok").ok
        for status in ("rejected", "expired", "poisoned", "error"):
            assert not ServiceResponse(id="r", status=status).ok

    def test_decoded_responses_share_keys_and_short_strings(self):
        """A client keeps every response it decodes; separate lines must
        not each carry their own copies of the same keys and tags."""
        result = {
            "kind": "layout_point", "method": "lpnlp", "objective": 350.78,
            "allocation": {"atm": 96, "ice": 24, "lnd": 8, "ocn": 16},
            "solver": {"status": "optimal", "nodes": 16},
        }
        first, second = (
            ServiceResponse.from_dict(decode_line(encode_line(
                ServiceResponse(id=rid, status="ok", tier="exact", result=result).to_dict()
            )))
            for rid in ("r1", "r2")
        )

        def strings(value):
            if isinstance(value, dict):
                for key, item in value.items():
                    yield key
                    yield from strings(item)
            elif isinstance(value, str):
                yield value

        pairs = list(zip(strings(first.result), strings(second.result)))
        assert len(pairs) == 14  # 11 keys, 3 string values
        assert all(a is b for a, b in pairs)
        assert first.status is second.status and first.tier is second.tier
        assert ServiceResponse.from_dict(first.to_dict()) == first

    def test_decoded_answer_keeps_under_1100_bytes(self):
        """A client may keep every answer it decodes.  A kept answer has no
        ``__dict__``, shares one empty ``meta`` and shares its strings and
        ints with every other decoded answer."""
        first = ServiceResponse.from_dict(decode_line(ANSWER_LINE))
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            kept = [ServiceResponse.from_dict(decode_line(ANSWER_LINE)) for _ in range(2000)]
            per_answer = (tracemalloc.get_traced_memory()[0] - start) / len(kept)
        finally:
            tracemalloc.stop()
        assert per_answer < 1100
        last = kept[-1]
        assert last.meta == {} and last.meta is first.meta
        assert last.result["allocation"]["atm"] is first.result["allocation"]["atm"]
        assert ServiceResponse.from_dict(decode_line(encode_line(last.to_dict()))) == last

    def test_shared_ints_keep_bools(self):
        response = ServiceResponse.from_dict(decode_line(
            b'{"id":"r","status":"ok","result":{"flag":true,"count":1000}}'
        ))
        assert response.result["flag"] is True
        assert response.result == {"flag": True, "count": 1000}

    def test_error_response_shape(self):
        response = error_response("r9", "rejected", "AdmissionError",
                                  "queue full", in_flight=7)
        assert response.id == "r9"
        assert response.status == "rejected"
        assert response.error == {"type": "AdmissionError",
                                  "detail": "queue full"}
        assert response.meta == {"in_flight": 7}
        assert not response.ok


class _Wire:
    """A client connection's file: keeps what is written, answers ok."""

    def __init__(self):
        self.sent = []

    def write(self, line):
        self.sent.append(line)

    def flush(self):
        pass

    def readline(self):
        return encode_line({"id": "r1", "status": "ok", "result": {}})


class TestEncodeOnce:
    def test_spec_object_line_decodes_like_its_dict(self, calibrated):
        """A spec object goes out as its canonical text, spliced into the
        line; the server must decode what the dict path sent."""
        spec = point_specs(calibrated, (2048,))[0]
        client = ServiceClient.__new__(ServiceClient)
        client.client_id, client.retry_rejected, client._counter = "c", None, 0
        client._file = wire = _Wire()
        for body in (spec, spec.to_dict()):
            assert client.solve_point(body, deadline=30.0, id="r1").ok
        spliced, encoded = wire.sent
        assert spec.canonical_text.encode() in spliced
        assert decode_line(spliced) == decode_line(encoded)
