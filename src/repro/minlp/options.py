"""Shared MINLP solver options."""

from __future__ import annotations

import dataclasses
import enum
import warnings
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError
from repro.lp.simplex import SimplexOptions
from repro.nlp.barrier import BarrierOptions


class BranchRule(enum.Enum):
    """How to branch when the relaxation is fractional.

    ``SOS_FIRST`` prefers splitting a violated SOS1 set (the paper's
    special-ordered-set branching); ``INTEGER_ONLY`` ignores SOS structure
    and branches on the most fractional binary/integer variable — the
    configuration the paper reports as two orders of magnitude slower.
    """

    SOS_FIRST = "sos_first"
    INTEGER_ONLY = "integer_only"


class NodeSelection(enum.Enum):
    BEST_BOUND = "best_bound"
    DEPTH_FIRST = "depth_first"


class VarBranchRule(enum.Enum):
    """How to pick *which* fractional integer variable to branch on."""

    MOST_FRACTIONAL = "most_fractional"
    PSEUDO_COST = "pseudo_cost"


@dataclass
class MINLPOptions:
    """Tuning knobs shared by both branch-and-bound solvers."""

    rel_gap: float = 1e-6          # stop when (incumbent - bound) / |incumbent| below
    abs_gap: float = 1e-7
    int_tol: float = 1e-6          # integrality tolerance on relaxation values
    max_nodes: int = 200_000
    time_limit: float = 120.0      # seconds, wall clock
    branch_rule: BranchRule = BranchRule.SOS_FIRST
    var_branch_rule: VarBranchRule = VarBranchRule.PSEUDO_COST
    node_selection: NodeSelection = NodeSelection.BEST_BOUND
    require_convex: bool = True    # refuse non-certified models (global optimality)
    check_hook: object = None      # callable() -> bool polled each node; truthy stops
                                   # the search with a TIME_LIMIT status (the
                                   # resilience layer passes Deadline.as_hook())
    max_cut_rounds: int = 40       # OA cut passes per node before forced branch
    use_warm_start: bool = True    # dual-simplex warm starts for node LPs
    evaluator: str = "kernel"      # NLP evaluation back-end: kernel | tree
    reuse: object = None           # optional repro.reuse.SolveFamily (duck-typed:
                                   # the solvers only call .plan()/.absorb(), so
                                   # repro.minlp never imports repro.reuse)
    lp_options: SimplexOptions = field(default_factory=SimplexOptions)
    nlp_options: BarrierOptions = field(default_factory=BarrierOptions)

    def to_dict(self) -> dict:
        """Canonical serializable form (see :func:`minlp_options_to_dict`)."""
        return minlp_options_to_dict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "MINLPOptions":
        """Rebuild options written by :meth:`to_dict`; rejects unknown keys."""
        return minlp_options_from_dict(payload)


# -- canonical (de)serialization ---------------------------------------------------
#
# Options cross process boundaries (repro.parallel workers) and land in
# TuneSpec payloads (repro.spec), so they need a canonical dict form:
# stable field ordering (dataclass declaration order), enums by value,
# nested solver options as nested dicts, and unknown keys rejected on load.
# Two fields are live Python objects, not configuration, and are therefore
# documented as non-serializable: ``check_hook`` (a callable installed by
# the resilience layer) and ``reuse`` (a SolveFamily).  Serializing options
# that carry either drops the field with a warning; a round-trip is
# field-equal iff both were None.

#: Fields excluded from the canonical dict form, with the reason.
NON_SERIALIZABLE_FIELDS = {
    "check_hook": "a live callable (rebuild it from the deadline instead)",
    "reuse": "a live SolveFamily (re-attach it after deserialization)",
}

_ENUM_FIELDS = {
    "branch_rule": BranchRule,
    "var_branch_rule": VarBranchRule,
    "node_selection": NodeSelection,
}
_NESTED_FIELDS = {"lp_options": SimplexOptions, "nlp_options": BarrierOptions}


def _plain_options_to_dict(options) -> dict:
    """A flat float/int dataclass (SimplexOptions/BarrierOptions) as a dict."""
    return {f.name: getattr(options, f.name) for f in dataclasses.fields(options)}


def _plain_options_from_dict(cls, payload: dict):
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - known
    if unknown:
        raise ConfigurationError(
            f"{cls.__name__}: unknown option keys {sorted(unknown)}"
        )
    return cls(**payload)


def minlp_options_to_dict(options: MINLPOptions) -> dict:
    """Canonical dict form of ``options``.

    Keys follow the dataclass's declared field order; enums serialize by
    value; the nested LP/NLP option blocks become nested dicts.  The two
    live-object fields (:data:`NON_SERIALIZABLE_FIELDS`) are excluded —
    with a warning when they are actually set, silently when None.
    """
    out: dict = {}
    for f in dataclasses.fields(options):
        value = getattr(options, f.name)
        if f.name in NON_SERIALIZABLE_FIELDS:
            if value is not None:
                warnings.warn(
                    f"MINLPOptions.{f.name} is {NON_SERIALIZABLE_FIELDS[f.name]}; "
                    "it is not serialized and will be None after a round-trip",
                    stacklevel=2,
                )
            continue
        if f.name in _ENUM_FIELDS:
            out[f.name] = value.value
        elif f.name in _NESTED_FIELDS:
            out[f.name] = _plain_options_to_dict(value)
        else:
            out[f.name] = value
    return out


def minlp_options_from_dict(payload: dict) -> MINLPOptions:
    """Rebuild :class:`MINLPOptions` from :func:`minlp_options_to_dict` output.

    Unknown keys are rejected (a typo'd option silently falling back to its
    default is the worst failure mode a tuning service can have), as are
    attempts to smuggle the non-serializable fields back in.
    """
    if not isinstance(payload, dict):
        raise ConfigurationError("MINLPOptions payload must be a dict")
    known = {
        f.name
        for f in dataclasses.fields(MINLPOptions)
        if f.name not in NON_SERIALIZABLE_FIELDS
    }
    unknown = set(payload) - known
    if unknown:
        raise ConfigurationError(
            f"MINLPOptions: unknown option keys {sorted(unknown)}"
        )
    kwargs: dict = {}
    for name, value in payload.items():
        if name in _ENUM_FIELDS:
            try:
                kwargs[name] = _ENUM_FIELDS[name](value)
            except ValueError:
                raise ConfigurationError(
                    f"MINLPOptions.{name}: unknown value {value!r}"
                ) from None
        elif name in _NESTED_FIELDS:
            kwargs[name] = _plain_options_from_dict(_NESTED_FIELDS[name], value)
        else:
            kwargs[name] = value
    return MINLPOptions(**kwargs)
