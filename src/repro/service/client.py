"""Synchronous client for the tuning daemon.

One TCP connection, newline-delimited JSON, blocking calls: the shape a
batch script or CLI wants.  Responses are typed
(:class:`~repro.service.protocol.ServiceResponse`); a non-``ok`` status
is returned, not raised — callers branch on ``response.status`` exactly
like the daemon produced it.  :meth:`ServiceClient.result` is the
raise-on-failure convenience for callers that only want answers.

Admission retries are **opt-in**: pass ``retry_rejected`` (a
:class:`~repro.resilience.RetryPolicy`) and solve calls answered
``rejected`` by admission control are re-sent after the policy's capped
deterministic backoff, up to ``max_attempts`` total sends.  Only
``rejected`` retries — an ``expired``/``error``/``poisoned`` answer is a
property of the request, not of daemon load, and re-sending it would
just repeat the failure.  The default (``None``) preserves the original
one-shot behavior exactly.
"""

from __future__ import annotations

import functools
import socket

from repro.exceptions import (
    AdmissionError,
    DeadlineExceededError,
    ProtocolError,
    ServiceError,
)
from repro.resilience.retry import RetryPolicy
from repro.service.protocol import (
    ServiceRequest,
    ServiceResponse,
    decode_line,
    encode_line,
)
from repro import telemetry
from repro.telemetry import names as metric

__all__ = ["ServiceClient"]


class ServiceClient:
    """Blocking request/response client over one daemon connection.

    Not thread-safe: one client per thread (connections are cheap; the
    daemon handles each on its own task).  Usable as a context manager.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 300.0,
        client_id: str = "",
        retry_rejected: RetryPolicy | None = None,
        retry_seed: int = 0,
    ):
        self.client_id = client_id
        self.retry_rejected = retry_rejected
        self.retry_seed = int(retry_seed)
        self._counter = 0
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    # -- transport ---------------------------------------------------------------

    def call(self, request: ServiceRequest | dict) -> ServiceResponse:
        """Send one request and block for its response."""
        if isinstance(request, ServiceRequest):
            payload = request.to_dict()
        else:
            payload = dict(request)
        return self._exchange(encode_line(payload))

    def _exchange(self, line: bytes) -> ServiceResponse:
        self._file.write(line)
        self._file.flush()
        reply = self._file.readline()
        if not reply:
            raise ServiceError("connection closed before a response arrived")
        return ServiceResponse.from_dict(decode_line(reply))

    def _next_id(self) -> str:
        self._counter += 1
        prefix = self.client_id or "req"
        return f"{prefix}-{self._counter}"

    def _solve(self, kind: str, spec, deadline=None, id: str = "") -> ServiceResponse:
        raw = isinstance(spec, dict)
        request = ServiceRequest(
            kind=kind,
            spec=spec if raw else {},
            id=id or self._next_id(),
            client=self.client_id,
            deadline=deadline,
        )
        if raw:
            send = functools.partial(self.call, request)
        else:
            # A spec object builds its canonical text once; it is spliced
            # into the line as it is (the empty dict above only stands in
            # for it while the request is validated).
            payload = request.to_dict()
            del payload["spec"]
            send = functools.partial(
                self._exchange, encode_line(payload, spec_text=spec.canonical_text)
            )
        policy = self.retry_rejected
        if policy is None:
            return send()
        # Admission backoff: re-send the SAME request (same id) while the
        # daemon sheds load.  Delays come from the policy's deterministic
        # capped-exponential schedule keyed by (seed, request id, attempt),
        # so a retry trace replays exactly.
        attempt = 1
        while True:
            response = send()
            if response.status != "rejected" or attempt >= policy.max_attempts:
                return response
            telemetry.count(metric.CLIENT_REJECTED_RETRIES)
            policy.pause(
                policy.delay_for(attempt, self.retry_seed, "client", request.id)
            )
            attempt += 1

    # -- request helpers ---------------------------------------------------------

    def solve_point(self, spec, deadline=None, id: str = "") -> ServiceResponse:
        """Solve one layout point (:class:`~repro.spec.SolvePointSpec` or dict)."""
        return self._solve("solve_point", spec, deadline=deadline, id=id)

    def tune(self, spec, deadline=None, id: str = "") -> ServiceResponse:
        """Run one full tuning pipeline (:class:`~repro.spec.TuneSpec` or dict)."""
        return self._solve("tune", spec, deadline=deadline, id=id)

    def ping(self) -> ServiceResponse:
        return self.call(ServiceRequest(kind="ping", id=self._next_id()))

    def stats(self) -> dict:
        response = self.call(ServiceRequest(kind="stats", id=self._next_id()))
        return response.result or {}

    def shutdown(self) -> ServiceResponse:
        return self.call(ServiceRequest(kind="shutdown", id=self._next_id()))

    @staticmethod
    def result(response: ServiceResponse) -> dict:
        """The result payload, or a typed exception for non-``ok`` statuses."""
        if response.ok:
            return response.result
        detail = (response.error or {}).get("detail", "no detail")
        if response.status == "rejected":
            raise AdmissionError(detail)
        if response.status == "expired":
            raise DeadlineExceededError(detail)
        if response.status == "poisoned":
            raise ServiceError(f"request poisoned: {detail}")
        if (response.error or {}).get("type") == "ProtocolError":
            raise ProtocolError(detail)
        raise ServiceError(detail)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
