"""Wire-protocol typing: every malformed message is a typed refusal."""

import pytest

from repro.exceptions import ProtocolError
from repro.service import (
    REQUEST_KINDS,
    ServiceRequest,
    ServiceResponse,
    decode_line,
    encode_line,
)
from repro.service.protocol import error_response


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

    def test_error_response_shape(self):
        response = error_response("r9", "rejected", "AdmissionError",
                                  "queue full", in_flight=7)
        assert response.id == "r9"
        assert response.status == "rejected"
        assert response.error == {"type": "AdmissionError",
                                  "detail": "queue full"}
        assert response.meta == {"in_flight": 7}
        assert not response.ok
