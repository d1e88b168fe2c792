"""Serializable problem descriptions: the :class:`TuneSpec` family.

Every layer of the library used to pass *live* Python objects by
reference — fitted :class:`~repro.fitting.PerfModel` curves, built
:class:`~repro.model.Model` instances, :class:`~repro.minlp.MINLPOptions`
with nested solver options.  That blocks a tuning service: a request that
is an object graph cannot be hashed, cached, checkpointed, or shipped to a
worker on another machine.  The specs here are the data-only equivalents:

- :class:`MachineSpec` / :class:`CaseSpec` — the machine partition and the
  CESM tuning case (resolution, job size, layout, noise seed),
- :class:`CurveSpec` — one fitted performance curve ``a/n + b n^c + d``,
- :class:`LayoutProblemSpec` — everything
  :func:`repro.hslb.layout_models.build_layout_model` needs to rebuild one
  Table I MINLP, bit for bit,
- :class:`SolvePointSpec` — a layout problem plus solver method and
  canonical options: one member of a what-if sweep, ready to cross a
  process boundary,
- :class:`TuneSpec` — a full tuning request (case + curves-or-benchmark
  data + objective + options + budget), the unit a service layer would
  accept, with :class:`BudgetSpec` carrying deadline/retry limits.

All specs round-trip through canonical JSON (:mod:`repro.spec.schema`)
with exact float fidelity, expose a :meth:`spec_key` structural hash, and
rebuild their live counterpart through the builder registry
(:mod:`repro.spec.registry`) in any process.  The contract, enforced by
``tests/test_spec``: a solve rebuilt from a round-tripped spec is
bit-identical to the in-memory build — same optimum, same branch-and-bound
node counts.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass

from repro.cesm.components import ComponentId
from repro.cesm.layouts import Layout
from repro.exceptions import ConfigurationError
from repro.fitting.perfmodel import PerfModel
from repro.machine import Machine
from repro.minlp.options import (
    MINLPOptions,
    minlp_options_from_dict,
    minlp_options_to_dict,
)
from repro.spec.schema import canonical_json, check_schema, key_of_canonical, stamp

_OBJECTIVES = ("min_max", "max_min", "min_sum")
_METHODS = ("lpnlp", "bnb", "oracle")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _component(key: str) -> ComponentId:
    try:
        return ComponentId(key)
    except ValueError:
        raise ConfigurationError(f"unknown component {key!r}") from None


def _spec_payload(payload: dict, kind: str) -> dict:
    """Validate the header and ``kind`` of a spec payload."""
    check_schema(payload, "spec")
    if payload.get("kind") != kind:
        raise ConfigurationError(
            f"expected a {kind!r} spec, got kind={payload.get('kind')!r}"
        )
    return payload


class _SpecBase:
    """JSON/text/hash plumbing shared by every spec dataclass."""

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))

    @functools.cached_property
    def canonical_text(self) -> str:
        """The canonical JSON text of :meth:`to_dict`, built once per object.

        Specs are values: frozen, and nothing mutates the dicts they hold,
        so the text cannot go stale.  It lives in the instance
        ``__dict__``, outside the fields that ``==``, ``repr`` and ``hash``
        read.
        """
        return canonical_json(self.to_dict())

    def spec_key(self) -> str:
        """Structural hash: equal keys iff byte-equal canonical payloads."""
        return key_of_canonical(self.canonical_text)


# -- machine / case ----------------------------------------------------------------


@dataclass(frozen=True)
class MachineSpec(_SpecBase):
    """Serializable form of :class:`repro.machine.Machine`."""

    name: str
    nodes: int
    cores_per_node: int = 4
    mpi_tasks_per_node: int = 1
    threads_per_task: int = 4
    relative_speed: float = 1.0

    @classmethod
    def from_machine(cls, machine: Machine) -> "MachineSpec":
        return cls(
            name=machine.name,
            nodes=machine.nodes,
            cores_per_node=machine.cores_per_node,
            mpi_tasks_per_node=machine.mpi_tasks_per_node,
            threads_per_task=machine.threads_per_task,
            relative_speed=float(machine.relative_speed),
        )

    def to_machine(self) -> Machine:
        return Machine(
            name=self.name,
            nodes=int(self.nodes),
            cores_per_node=int(self.cores_per_node),
            mpi_tasks_per_node=int(self.mpi_tasks_per_node),
            threads_per_task=int(self.threads_per_task),
            relative_speed=float(self.relative_speed),
        )

    def to_dict(self) -> dict:
        return stamp({"kind": "machine", **dataclasses.asdict(self)}, "spec")

    @classmethod
    def from_dict(cls, payload: dict) -> "MachineSpec":
        body = dict(_spec_payload(payload, "machine"))
        for key in ("format", "schema_version", "kind"):
            body.pop(key, None)
        return cls(**body)


@dataclass(frozen=True)
class CaseSpec(_SpecBase):
    """Serializable form of :class:`repro.cesm.CESMCase`."""

    resolution: str
    total_nodes: int
    layout: int = 1
    unconstrained_ocean: bool = False
    seed: int = 0
    machine: MachineSpec | None = None  # None -> the Intrepid default

    @classmethod
    def from_case(cls, case) -> "CaseSpec":
        from repro.machine import INTREPID

        machine = None
        if case.machine != INTREPID:
            machine = MachineSpec.from_machine(case.machine)
        return cls(
            resolution=case.resolution,
            total_nodes=int(case.total_nodes),
            layout=int(case.layout.value),
            unconstrained_ocean=bool(case.unconstrained_ocean),
            seed=int(case.seed),
            machine=machine,
        )

    def to_case(self):
        from repro.cesm.case import make_case
        from repro.machine import INTREPID

        machine = self.machine.to_machine() if self.machine is not None else INTREPID
        return make_case(
            self.resolution,
            int(self.total_nodes),
            layout=Layout(int(self.layout)),
            unconstrained_ocean=bool(self.unconstrained_ocean),
            seed=int(self.seed),
            machine=machine,
        )

    def to_dict(self) -> dict:
        return stamp(
            {
                "kind": "case",
                "resolution": self.resolution,
                "total_nodes": int(self.total_nodes),
                "layout": int(self.layout),
                "unconstrained_ocean": bool(self.unconstrained_ocean),
                "seed": int(self.seed),
                "machine": None if self.machine is None else self.machine.to_dict(),
            },
            "spec",
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "CaseSpec":
        body = _spec_payload(payload, "case")
        machine = body.get("machine")
        return cls(
            resolution=body["resolution"],
            total_nodes=int(body["total_nodes"]),
            layout=int(body.get("layout", 1)),
            unconstrained_ocean=bool(body.get("unconstrained_ocean", False)),
            seed=int(body.get("seed", 0)),
            machine=None if machine is None else MachineSpec.from_dict(machine),
        )


# -- curves ------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveSpec(_SpecBase):
    """One fitted performance curve ``T(n) = a/n + b n^c + d`` as data."""

    a: float
    b: float = 0.0
    c: float = 1.0
    d: float = 0.0

    @classmethod
    def from_perf(cls, perf) -> "CurveSpec":
        """From a :class:`PerfModel` or a ``FitResult`` carrying one."""
        model = perf.model if hasattr(perf, "model") else perf
        return cls(a=float(model.a), b=float(model.b), c=float(model.c), d=float(model.d))

    def to_perf(self) -> PerfModel:
        return PerfModel(a=self.a, b=self.b, c=self.c, d=self.d)

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d}

    @classmethod
    def from_dict(cls, payload: dict) -> "CurveSpec":
        unknown = set(payload) - {"a", "b", "c", "d"}
        _require(not unknown, f"curve spec: unknown keys {sorted(unknown)}")
        return cls(**{k: float(v) for k, v in payload.items()})


def curves_to_dict(perf: dict) -> dict:
    """``{ComponentId: PerfModel | FitResult} -> {str: curve dict}``."""
    return {
        comp.value: CurveSpec.from_perf(model).to_dict()
        for comp, model in perf.items()
    }


def curves_from_dict(payload: dict) -> dict:
    """Inverse of :func:`curves_to_dict`: ``{ComponentId: PerfModel}``."""
    return {
        _component(key): CurveSpec.from_dict(entry).to_perf()
        for key, entry in payload.items()
    }


@dataclass(frozen=True)
class PinnedFit:
    """A curve supplied *by a spec* rather than fitted from data.

    Quacks like a ``FitResult`` where the pipeline needs it (``.model``,
    ``.r_squared``); the fit quality is unknown by construction, so
    ``r_squared`` is NaN.
    """

    model: PerfModel
    r_squared: float = float("nan")


# -- the Table I layout problem ----------------------------------------------------


@dataclass(frozen=True)
class LayoutProblemSpec(_SpecBase):
    """Everything needed to rebuild one Table I layout MINLP, as data.

    Mirrors the signature of
    :func:`repro.hslb.layout_models.build_layout_model`; curves and bounds
    are keyed by component value strings so the payload is pure JSON.  The
    builder registry maps ``kind="layout_model"`` back to that function,
    and the rebuild is bit-identical: the model is constructed through the
    exact same code path as a direct call.
    """

    layout: int
    total_nodes: int
    curves: dict                      # comp value -> {"a","b","c","d"}
    bounds: dict                      # comp value -> (lo, hi)
    ocn_allowed: tuple | None = None
    atm_allowed: dict | None = None   # {"values": tuple|None, "lo", "hi"}
    objective: str = "min_max"
    tsync: float | None = None
    fine_tuning: bool = False
    name: str = "hslb"

    kind = "layout_model"

    def __post_init__(self):
        _require(
            self.objective in _OBJECTIVES,
            f"unknown objective {self.objective!r}; known: {_OBJECTIVES}",
        )

    @classmethod
    def from_args(
        cls,
        layout,
        total_nodes: int,
        perf: dict,
        bounds: dict,
        ocn_allowed=None,
        atm_allowed: dict | None = None,
        objective="min_max",
        tsync: float | None = None,
        fine_tuning: bool = False,
        name: str = "hslb",
    ) -> "LayoutProblemSpec":
        """From :func:`build_layout_model`-style live arguments."""
        layout = layout.value if isinstance(layout, Layout) else int(layout)
        objective = getattr(objective, "value", objective)
        atm = None
        if atm_allowed is not None:
            values = atm_allowed.get("values")
            atm = {
                "values": None if values is None else tuple(int(v) for v in values),
                "lo": int(atm_allowed["lo"]),
                "hi": int(atm_allowed["hi"]),
            }
        return cls(
            layout=layout,
            total_nodes=int(total_nodes),
            curves={
                comp.value: CurveSpec.from_perf(model).to_dict()
                for comp, model in perf.items()
            },
            bounds={
                comp.value: (int(lo), int(hi)) for comp, (lo, hi) in bounds.items()
            },
            ocn_allowed=(
                tuple(int(v) for v in ocn_allowed) if ocn_allowed is not None else None
            ),
            atm_allowed=atm,
            objective=objective,
            tsync=None if tsync is None else float(tsync),
            fine_tuning=bool(fine_tuning),
            name=str(name),
        )

    # -- live-object views (used by the registered builder) ----------------------

    def perf(self) -> dict:
        """``{ComponentId: PerfModel}`` reconstructed from the curves."""
        return curves_from_dict(self.curves)

    def component_bounds(self) -> dict:
        return {
            _component(key): (int(lo), int(hi))
            for key, (lo, hi) in self.bounds.items()
        }

    def ocn_allowed_list(self) -> list | None:
        return None if self.ocn_allowed is None else [int(v) for v in self.ocn_allowed]

    def atm_allowed_dict(self) -> dict | None:
        if self.atm_allowed is None:
            return None
        values = self.atm_allowed.get("values")
        return {
            "values": None if values is None else [int(v) for v in values],
            "lo": int(self.atm_allowed["lo"]),
            "hi": int(self.atm_allowed["hi"]),
        }

    def build(self):
        """The live :class:`~repro.model.Model`, via the builder registry."""
        from repro.spec.registry import build_from_spec

        return build_from_spec(self)

    def to_dict(self) -> dict:
        atm = None
        if self.atm_allowed is not None:
            values = self.atm_allowed.get("values")
            atm = {
                "values": None if values is None else [int(v) for v in values],
                "lo": int(self.atm_allowed["lo"]),
                "hi": int(self.atm_allowed["hi"]),
            }
        return stamp(
            {
                "kind": self.kind,
                "layout": int(self.layout),
                "total_nodes": int(self.total_nodes),
                "curves": {k: dict(v) for k, v in sorted(self.curves.items())},
                "bounds": {
                    k: [int(lo), int(hi)] for k, (lo, hi) in sorted(self.bounds.items())
                },
                "ocn_allowed": (
                    None if self.ocn_allowed is None
                    else [int(v) for v in self.ocn_allowed]
                ),
                "atm_allowed": atm,
                "objective": self.objective,
                "tsync": self.tsync,
                "fine_tuning": bool(self.fine_tuning),
                "name": self.name,
            },
            "spec",
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "LayoutProblemSpec":
        body = _spec_payload(payload, "layout_model")
        atm = body.get("atm_allowed")
        if atm is not None:
            values = atm.get("values")
            atm = {
                "values": None if values is None else tuple(int(v) for v in values),
                "lo": int(atm["lo"]),
                "hi": int(atm["hi"]),
            }
        ocn = body.get("ocn_allowed")
        return cls(
            layout=int(body["layout"]),
            total_nodes=int(body["total_nodes"]),
            curves={k: dict(v) for k, v in body["curves"].items()},
            bounds={k: (int(lo), int(hi)) for k, (lo, hi) in body["bounds"].items()},
            ocn_allowed=None if ocn is None else tuple(int(v) for v in ocn),
            atm_allowed=atm,
            objective=body.get("objective", "min_max"),
            tsync=body.get("tsync"),
            fine_tuning=bool(body.get("fine_tuning", False)),
            name=body.get("name", "hslb"),
        )


# -- one sweep member --------------------------------------------------------------


@dataclass(frozen=True)
class SolvePointSpec(_SpecBase):
    """A layout problem plus solver selection: one shippable solve request.

    This is the payload :mod:`repro.analysis.whatif` fans out to
    :mod:`repro.parallel` process workers — pure data; the worker rebuilds
    the :class:`~repro.model.Model` through the registry and the
    :class:`~repro.minlp.MINLPOptions` from their canonical dict.
    """

    problem: LayoutProblemSpec
    method: str = "lpnlp"
    options: dict | None = None       # canonical MINLPOptions dict

    kind = "solve_point"

    def __post_init__(self):
        _require(
            self.method in _METHODS,
            f"unknown method {self.method!r}; known: {_METHODS}",
        )

    @classmethod
    def for_problem(cls, problem: LayoutProblemSpec, method: str = "lpnlp",
                    options=None) -> "SolvePointSpec":
        """Normalize ``options`` (live object or dict) into canonical form."""
        if isinstance(options, MINLPOptions):
            options = minlp_options_to_dict(options)
        return cls(problem=problem, method=method, options=options)

    def minlp_options(self) -> MINLPOptions | None:
        return None if self.options is None else minlp_options_from_dict(self.options)

    def build(self):
        """The live model for this point's problem."""
        return self.problem.build()

    def to_dict(self) -> dict:
        return stamp(
            {
                "kind": self.kind,
                "problem": self.problem.to_dict(),
                "method": self.method,
                "options": None if self.options is None else dict(self.options),
            },
            "spec",
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "SolvePointSpec":
        body = _spec_payload(payload, "solve_point")
        options = body.get("options")
        return cls(
            problem=LayoutProblemSpec.from_dict(body["problem"]),
            method=body.get("method", "lpnlp"),
            options=None if options is None else dict(options),
        )


# -- the full tuning request -------------------------------------------------------


@dataclass(frozen=True)
class BudgetSpec(_SpecBase):
    """Wall-clock and retry budget for one tuning request."""

    deadline: float | None = None     # seconds for gather+solve
    max_retries: int | None = None    # benchmark retry attempts per point

    def to_dict(self) -> dict:
        return {"deadline": self.deadline, "max_retries": self.max_retries}

    @classmethod
    def from_dict(cls, payload: dict) -> "BudgetSpec":
        unknown = set(payload) - {"deadline", "max_retries"}
        _require(not unknown, f"budget spec: unknown keys {sorted(unknown)}")
        deadline = payload.get("deadline")
        retries = payload.get("max_retries")
        return cls(
            deadline=None if deadline is None else float(deadline),
            max_retries=None if retries is None else int(retries),
        )

    @property
    def empty(self) -> bool:
        return self.deadline is None and self.max_retries is None


@dataclass(frozen=True)
class TuneSpec(_SpecBase):
    """One complete tuning request as data (the service-layer unit).

    ``curves`` and ``benchmarks`` are the "curves-or-benchmark-data" slot:
    with ``curves`` set the request skips gather *and* fit (the paper's
    Sec. III-F shortcut, fully pinned); with ``benchmarks`` set it skips
    gather and refits; with neither the four-step pipeline runs end to end
    against the case's calibrated simulator.
    """

    case: CaseSpec
    points: int = 5
    objective: str = "min_max"
    method: str = "lpnlp"
    fine_tuning: bool = False
    reuse: bool = False
    curves: dict | None = None        # comp value -> {"a","b","c","d"}
    benchmarks: dict | None = None    # comp value -> {"nodes": [...], "seconds": [...]}
    options: dict | None = None       # canonical MINLPOptions dict
    fit_options: dict | None = None
    budget: BudgetSpec | None = None
    fault_profile: dict | None = None

    kind = "tune"

    def __post_init__(self):
        _require(
            self.objective in _OBJECTIVES,
            f"unknown objective {self.objective!r}; known: {_OBJECTIVES}",
        )
        _require(
            self.method in _METHODS,
            f"unknown method {self.method!r}; known: {_METHODS}",
        )
        _require(
            self.curves is None or self.benchmarks is None,
            "a TuneSpec carries curves or benchmark data, not both",
        )

    # -- live-object views -------------------------------------------------------

    def to_pipeline(self):
        """A configured :class:`~repro.hslb.HSLBPipeline` for this request."""
        from repro.spec.registry import build_from_spec

        return build_from_spec(self)

    def pinned_fits(self) -> dict | None:
        """``{ComponentId: PinnedFit}`` when the spec carries curves."""
        if self.curves is None:
            return None
        return {
            comp: PinnedFit(model=model)
            for comp, model in curves_from_dict(self.curves).items()
        }

    def benchmark_data(self):
        """A :class:`~repro.hslb.BenchmarkData` when the spec carries samples."""
        if self.benchmarks is None:
            return None
        from repro.hslb.gather import BenchmarkData

        data = BenchmarkData()
        for key, block in self.benchmarks.items():
            data.add(_component(key), block["nodes"], block["seconds"])
        return data

    def run(self):
        """Execute the request; returns an ``HSLBRunResult``."""
        return self.to_pipeline().run(
            data=self.benchmark_data(), fits=self.pinned_fits()
        )

    def to_dict(self) -> dict:
        budget = self.budget
        if budget is not None and budget.empty:
            budget = None
        return stamp(
            {
                "kind": self.kind,
                "case": self.case.to_dict(),
                "points": int(self.points),
                "objective": self.objective,
                "method": self.method,
                "fine_tuning": bool(self.fine_tuning),
                "reuse": bool(self.reuse),
                "curves": (
                    None if self.curves is None
                    else {k: dict(v) for k, v in sorted(self.curves.items())}
                ),
                "benchmarks": (
                    None if self.benchmarks is None
                    else {
                        k: {
                            "nodes": [int(n) for n in block["nodes"]],
                            "seconds": [float(t) for t in block["seconds"]],
                        }
                        for k, block in sorted(self.benchmarks.items())
                    }
                ),
                "options": None if self.options is None else dict(self.options),
                "fit_options": (
                    None if self.fit_options is None else dict(self.fit_options)
                ),
                "budget": None if budget is None else budget.to_dict(),
                "fault_profile": (
                    None if self.fault_profile is None else dict(self.fault_profile)
                ),
            },
            "spec",
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "TuneSpec":
        body = _spec_payload(payload, "tune")
        budget = body.get("budget")
        return cls(
            case=CaseSpec.from_dict(body["case"]),
            points=int(body.get("points", 5)),
            objective=body.get("objective", "min_max"),
            method=body.get("method", "lpnlp"),
            fine_tuning=bool(body.get("fine_tuning", False)),
            reuse=bool(body.get("reuse", False)),
            curves=body.get("curves"),
            benchmarks=body.get("benchmarks"),
            options=body.get("options"),
            fit_options=body.get("fit_options"),
            budget=None if budget is None else BudgetSpec.from_dict(budget),
            fault_profile=body.get("fault_profile"),
        )


# -- fit options / fault profiles (plain dataclass payloads) -----------------------


def fit_options_to_dict(options) -> dict:
    """Canonical dict of a :class:`repro.fitting.FitOptions`."""
    out = {}
    for f in dataclasses.fields(options):
        value = getattr(options, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def fit_options_from_dict(payload: dict):
    from repro.fitting import FitOptions

    known = {f.name for f in dataclasses.fields(FitOptions)}
    unknown = set(payload) - known
    _require(not unknown, f"FitOptions: unknown keys {sorted(unknown)}")
    kwargs = dict(payload)
    if "c_bounds" in kwargs:
        kwargs["c_bounds"] = tuple(kwargs["c_bounds"])
    return FitOptions(**kwargs)


def fault_profile_to_dict(profile) -> dict:
    """Canonical dict of a :class:`repro.resilience.FaultProfile`."""
    out = {}
    for f in dataclasses.fields(profile):
        value = getattr(profile, f.name)
        if f.name == "hot_components":
            value = [[str(k), float(v)] for k, v in dict(value).items()]
        out[f.name] = value
    return out


def fault_profile_from_dict(payload: dict):
    from repro.resilience import FaultProfile

    known = {f.name for f in dataclasses.fields(FaultProfile)}
    unknown = set(payload) - known
    _require(not unknown, f"FaultProfile: unknown keys {sorted(unknown)}")
    kwargs = dict(payload)
    if "hot_components" in kwargs:
        kwargs["hot_components"] = tuple(
            (str(k), float(v)) for k, v in kwargs["hot_components"]
        )
    return FaultProfile(**kwargs)


def case_from_spec(spec):
    """Registry builder for ``kind="case"``: spec or payload -> CESMCase."""
    if isinstance(spec, dict):
        spec = CaseSpec.from_dict(spec)
    return spec.to_case()


# -- generic dispatch --------------------------------------------------------------

_SPEC_CLASSES = {
    "machine": MachineSpec,
    "case": CaseSpec,
    "layout_model": LayoutProblemSpec,
    "solve_point": SolvePointSpec,
    "tune": TuneSpec,
}


def spec_from_dict(payload: dict):
    """Rebuild any spec from its stamped payload, dispatching on ``kind``."""
    check_schema(payload, "spec")
    kind = payload.get("kind")
    try:
        cls = _SPEC_CLASSES[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown spec kind {kind!r}; known: {sorted(_SPEC_CLASSES)}"
        ) from None
    return cls.from_dict(payload)


def spec_from_json(text: str):
    return spec_from_dict(json.loads(text))
