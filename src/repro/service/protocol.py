"""Wire protocol for the tuning service: typed requests and responses.

The daemon speaks newline-delimited JSON over a stream socket — one
request object per line in, one response object per line out, matched by
the client-chosen ``id``.  Both sides of the conversation are *typed*
dataclasses here, so every failure mode the service can produce — queue
rejection, deadline expiry, a poisoned worker, a malformed spec — arrives
as a distinct ``status`` the client can branch on, never as a hang or a
bare connection reset.

Request kinds:

- ``solve_point`` — one :class:`~repro.spec.SolvePointSpec` payload: a
  Table I layout MINLP plus solver method/options.  Cacheable at every
  tier and batchable with compatible in-flight requests.
- ``tune`` — one :class:`~repro.spec.TuneSpec` payload: a full
  gather/fit/solve/execute pipeline run.  Cacheable at the exact tier.
- ``ping`` / ``stats`` — liveness and counter introspection.
- ``shutdown`` — stop the daemon (only honored when the server was
  started with ``allow_shutdown=True``; the CLI daemon refuses it).

Response statuses:

- ``ok`` — ``result`` holds the answer; ``tier`` says which cache tier
  produced it (``exact`` | ``warm`` | ``cold``).
- ``rejected`` — admission control refused the request (bounded queue
  full, or the service is shutting down).  Retry later.
- ``expired`` — the request's :class:`~repro.resilience.Deadline` ran out
  before its solve started.
- ``poisoned`` — the request's worker crashed/hung repeatedly and the
  retry budget is spent; ``error`` carries the last failure.  Other
  clients' requests are unaffected (per-client fault isolation).
- ``error`` — the request itself is defective (malformed spec, infeasible
  model, unknown kind); deterministic, so it is not retried.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.exceptions import ProtocolError

__all__ = [
    "REQUEST_KINDS",
    "SOLVE_KINDS",
    "STATUSES",
    "TIERS",
    "ServiceRequest",
    "ServiceResponse",
    "decode_line",
    "encode_line",
]

SOLVE_KINDS = ("solve_point", "tune")
CONTROL_KINDS = ("ping", "stats", "shutdown")
REQUEST_KINDS = SOLVE_KINDS + CONTROL_KINDS

STATUSES = ("ok", "rejected", "expired", "poisoned", "error")
TIERS = ("exact", "warm", "cold")

#: Decoded response strings up to this length are interned (see _interned).
_INTERN_MAX_LEN = 32
#: Distinct ints the decoded responses share (see _interned); once the
#: table is full, further ints are kept as decoded.  Decoding threads do
#: not lock it: a race can only overshoot the cap by a few entries.
_SHARED_INTS_MAX = 4096
_shared_ints: dict = {}


class _EmptyMeta(Mapping):
    """The ``meta`` of every response that carries none: one shared
    read-only mapping instead of an empty dict per response.  It compares
    equal to ``{}``, and copies and pickles as the one instance."""

    __slots__ = ()

    def __getitem__(self, key):
        raise KeyError(key)

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "{}"

    def __reduce__(self) -> str:
        return "_NO_META"


_NO_META = _EmptyMeta()


def encode_line(payload: dict, spec_text: str | None = None) -> bytes:
    """One protocol message as a single JSON line (newline-terminated).

    ``spec_text`` is the JSON text of a ``"spec"`` member that ``payload``
    leaves out.  It is spliced in as it is: a spec object's canonical text
    is built once per object, so re-encoding it per request would be
    wasted work.
    """
    text = json.dumps(payload, separators=(",", ":"))
    if spec_text is not None:
        text = f'{text[:-1]},"spec":{spec_text}}}'
    return text.encode("utf-8") + b"\n"


def _interned(value):
    """``value`` with every dict key, at every depth, and every short string
    interned, and every int shared.

    Each ``json.loads`` builds fresh copies of the same keys, enum-like
    strings (``status``, ``kind``, ``method``, component names) and counts
    (node budgets, allocations, B&B statistics), and a client that keeps
    its answers keeps every copy.  Interning makes all decoded responses
    share one copy, which roughly halves a kept ``solve_point`` answer.
    Ints above 256 are not cached by Python, so a bounded table shares them
    (exact type ``int`` only: ``True`` must stay a bool).  Only responses
    are interned: requests carry large specs, so interning them would cost
    time on every request.
    """
    if isinstance(value, dict):
        return {sys.intern(key): _interned(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_interned(item) for item in value]
    if isinstance(value, str) and len(value) <= _INTERN_MAX_LEN:
        return sys.intern(value)
    if type(value) is int:
        if len(_shared_ints) < _SHARED_INTS_MAX:
            return _shared_ints.setdefault(value, value)
        return _shared_ints.get(value, value)
    return value


def decode_line(line: bytes | str) -> dict:
    """Parse one protocol line; raises :class:`ProtocolError` on bad input."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"message is not valid UTF-8: {exc}") from None
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"message is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"message must be a JSON object, got {type(payload).__name__}"
        )
    return payload


@dataclass(frozen=True)
class ServiceRequest:
    """One client request, as validated data.

    ``spec`` is the stamped canonical payload of a
    :class:`~repro.spec.SolvePointSpec` (``kind="solve_point"``) or
    :class:`~repro.spec.TuneSpec` (``kind="tune"``); control kinds carry
    no spec.  ``deadline`` is a per-request wall-clock budget in seconds,
    measured from admission (:class:`~repro.resilience.Deadline`).
    """

    kind: str
    spec: dict | None = None
    id: str = ""
    client: str = ""
    deadline: float | None = None

    def __post_init__(self):
        if self.kind not in REQUEST_KINDS:
            raise ProtocolError(
                f"unknown request kind {self.kind!r}; known: {REQUEST_KINDS}"
            )
        if self.kind in SOLVE_KINDS:
            if not isinstance(self.spec, dict):
                raise ProtocolError(f"a {self.kind!r} request needs a 'spec' object")
        elif self.spec is not None:
            raise ProtocolError(f"a {self.kind!r} request carries no 'spec'")
        if self.deadline is not None and not self.deadline > 0:
            raise ProtocolError("request 'deadline' must be a positive number")

    @classmethod
    def from_dict(cls, payload: dict) -> "ServiceRequest":
        unknown = set(payload) - {"kind", "spec", "id", "client", "deadline"}
        if unknown:
            raise ProtocolError(f"unknown request fields {sorted(unknown)}")
        deadline = payload.get("deadline")
        try:
            deadline = None if deadline is None else float(deadline)
        except (TypeError, ValueError):
            raise ProtocolError("request 'deadline' must be a number") from None
        return cls(
            kind=str(payload.get("kind", "")),
            spec=payload.get("spec"),
            id=str(payload.get("id", "")),
            client=str(payload.get("client", "")),
            deadline=deadline,
        )

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "id": self.id}
        if self.client:
            out["client"] = self.client
        if self.spec is not None:
            out["spec"] = self.spec
        if self.deadline is not None:
            out["deadline"] = self.deadline
        return out


@dataclass(frozen=True, slots=True)
class ServiceResponse:
    """One daemon answer: a status, and (when ``ok``) a tier plus result.

    ``error`` is ``{"type": <exception class name>, "detail": <message>}``
    for every non-``ok`` status, so clients always get a machine-readable
    reason.  ``meta`` carries small extras (batch size, attempts, queue
    depth) that never affect the result bits; a response without any
    shares one read-only empty mapping.  Clients keep their answers, so a
    response has slots and no ``__dict__``.
    """

    id: str
    status: str
    tier: str | None = None
    result: dict | None = None
    error: dict | None = None
    meta: Mapping = field(default_factory=lambda: _NO_META)

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ProtocolError(
                f"unknown response status {self.status!r}; known: {STATUSES}"
            )
        if self.tier is not None and self.tier not in TIERS:
            raise ProtocolError(
                f"unknown response tier {self.tier!r}; known: {TIERS}"
            )

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @classmethod
    def from_dict(cls, payload: dict) -> "ServiceResponse":
        if not isinstance(payload, dict):
            raise ProtocolError("response must be a JSON object")
        return cls(
            id=str(payload.get("id", "")),
            status=_interned(str(payload.get("status", ""))),
            tier=_interned(payload.get("tier")),
            result=_interned(payload.get("result")),
            error=payload.get("error"),
            meta=dict(payload["meta"]) if payload.get("meta") else _NO_META,
        )

    def to_dict(self) -> dict:
        out: dict = {"id": self.id, "status": self.status}
        if self.tier is not None:
            out["tier"] = self.tier
        if self.result is not None:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        if self.meta:
            out["meta"] = self.meta
        return out


def error_response(
    request_id: str,
    status: str,
    error_type: str,
    detail: str,
    **meta,
) -> ServiceResponse:
    """A typed non-``ok`` response (module-internal convenience)."""
    return ServiceResponse(
        id=request_id,
        status=status,
        error={"type": error_type, "detail": detail},
        meta=dict(meta),
    )
