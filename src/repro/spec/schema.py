"""Canonical JSON encoding and structural hashing for problem specs.

Every spec in :mod:`repro.spec` serializes to *canonical JSON* — sorted
keys, compact separators, no NaN/Infinity — so that two structurally equal
specs produce byte-identical text in any process on any machine.  That
text is what :func:`spec_key` hashes, in the spirit of
``Expr.struct_key``: the key is a pure function of the spec's *content*,
never of object identity, construction order, or interpreter session.

This module is deliberately dependency-free (stdlib only): the reuse
engine keys its warm pools with :func:`spec_key`, and pulling model or
solver modules in here would create import cycles.
"""

from __future__ import annotations

import hashlib
import json

from repro.exceptions import ConfigurationError

#: Version stamped into every JSON payload this library writes.  Bump it
#: when a payload's meaning changes; loaders reject files from the future
#: (see :func:`check_schema`) instead of misreading them.
SCHEMA_VERSION = 1


def canonical_json(payload) -> str:
    """Deterministic JSON text for ``payload``.

    Keys are sorted, separators are compact, and non-finite floats are
    rejected (``allow_nan=False``): Python's ``repr``-based float emission
    round-trips every finite double exactly, so equal payloads — including
    their float bits — produce equal text.
    """
    try:
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except ValueError as exc:
        raise ConfigurationError(
            f"spec payloads must be finite and JSON-serializable: {exc}"
        ) from exc
    except TypeError as exc:
        raise ConfigurationError(
            f"spec payloads must contain only JSON types: {exc}"
        ) from exc


def spec_key(payload) -> str:
    """Structural hash of ``payload``: sha256 over its canonical JSON.

    Two payloads share a key iff their canonical JSON is byte-identical —
    the dict/list/str/number structure is equal, with floats compared by
    bits.  Keys are plain hex strings, stable across processes and
    machines, which is what lets warm pools, caches and checkpoint files
    survive serialization boundaries.
    """
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
    return f"spec:{digest}"


def stamp(payload: dict, kind: str) -> dict:
    """Add the ``format``/``schema_version`` header to ``payload``."""
    out = dict(payload)
    out["format"] = f"repro/{kind}"
    out["schema_version"] = SCHEMA_VERSION
    return out


def check_schema(payload: dict, kind: str) -> dict:
    """Validate a loaded payload's header; returns the payload.

    The header must be exactly what :func:`stamp` writes: the
    ``repro/<kind>`` format tag and an integer ``schema_version``.  A
    payload whose ``schema_version`` is *newer* than this library's is
    rejected with a clear error instead of surfacing as a ``KeyError``
    three layers down.
    """
    if not isinstance(payload, dict):
        raise ConfigurationError(f"not a repro/{kind} payload: expected a JSON object")
    fmt = payload.get("format")
    expected = f"repro/{kind}"
    if fmt != expected:
        raise ConfigurationError(
            f"not a {expected} file (format={fmt!r})"
        )
    version = payload.get("schema_version")
    if not isinstance(version, int) or version < 1:
        raise ConfigurationError(
            f"{expected}: invalid schema_version {version!r}"
        )
    if version > SCHEMA_VERSION:
        raise ConfigurationError(
            f"{expected}: file has schema_version {version}, but this "
            f"library reads up to {SCHEMA_VERSION} — it was written by a "
            "newer version of repro; upgrade to load it"
        )
    return payload
