"""The tuning service's solve core: tiered cache plus batched dispatch.

:class:`ServiceEngine` is the synchronous heart of the daemon — the
asyncio layer (:mod:`repro.service.server`) only does admission,
batching windows and I/O; every decision about *how a request is
answered* lives here, so the whole serving path is testable without a
socket.  One request flows through three tiers:

1. **exact** — the request spec's :func:`~repro.spec.spec_key` hits
   :class:`~repro.service.cache.ExactCache`; the stored payload is
   returned untouched (bit-identical by construction).
2. **warm** — the request's *reuse channel* (curves + objective + layout
   + solver configuration, hashed) has a live
   :class:`~repro.reuse.SolveFamily` in
   :class:`~repro.service.cache.WarmPools`; the solve runs against a
   clone of that warm state (carried cuts, re-certified incumbents, root
   bases).  The reuse engine's contract keeps the *answer* bit-identical
   to a cold solve; only the tree shrinks.
3. **cold** — a fresh family is created for the channel and the solve
   seeds it for every later request.

Batching: the server hands :meth:`solve_group` a set of *compatible*
in-flight requests (same channel — see :func:`group_compatible`).  The
group is deduplicated by spec_key, ordered by **descending budget**
(total node count — the same ordering :mod:`repro.analysis.whatif` uses:
state transfers safely downward), and every member solves against a
clone of the pre-batch family snapshot with deltas merged back in that
order.  Clone-plus-delta-merge is exactly the
:func:`~repro.reuse.family_map` discipline, which makes the backend
unobservable: the ``serial`` loop and the ``supervised`` process pool
produce bit-identical responses.

Fault isolation: each member's outcome is its own — a member that
crashes its worker repeatedly comes back as a typed ``poisoned``
response, a member whose model is defective comes back as ``error``, and
neither touches the other members' results or the shared family (only
successful deltas merge).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import cached_property

from repro.analysis.whatif import _solve_layout_point
from repro.exceptions import ProtocolError, ReproError
from repro.parallel.supervised import PoisonedTask, SupervisedProcessExecutor
from repro.resilience.events import EventLog
from repro.resilience.retry import RetryPolicy
from repro.service.cache import ExactCache, WarmPools
from repro.service.protocol import (
    SOLVE_KINDS,
    ServiceRequest,
    ServiceResponse,
    error_response,
)
from repro.spec import SolvePointSpec, TuneSpec
from repro.spec.schema import spec_key
from repro import telemetry
from repro.telemetry import names as metric

__all__ = [
    "ServiceConfig",
    "ServiceEngine",
    "ParsedRequest",
    "group_compatible",
    "reuse_channel",
    "point_result_payload",
    "tune_result_payload",
]

_BACKENDS = ("serial", "supervised")


@dataclass(frozen=True)
class ServiceConfig:
    """Service knobs: dispatch backend, admission bounds, cache sizes.

    ``backend`` selects how cold/warm solves execute: ``"serial"`` runs
    them inline on the daemon's solver thread; ``"supervised"`` fans each
    batch out over a :class:`~repro.parallel.supervised.SupervisedProcessExecutor`
    (crash/hang detection, respawn, retries, quarantine) with
    ``task_deadline``/``max_retries``/``chaos`` as its knobs.  Admission
    control: at most ``max_queue`` requests may wait for a solver;
    arrivals past that are rejected with a typed response, never queued
    invisibly.  ``batch_window`` is how long (seconds) the server holds
    the first queued request to let compatible ones join its batch.
    """

    backend: str = "serial"
    workers: int | None = None
    max_queue: int = 64
    batch_window: float = 0.02
    max_batch: int = 16
    exact_capacity: int = 4096
    warm_capacity: int = 32
    default_deadline: float | None = None
    task_deadline: float | None = None
    max_retries: int = 4
    seed: int = 0
    chaos: object = None

    def __post_init__(self):
        from repro.exceptions import ConfigurationError

        if self.backend not in _BACKENDS:
            raise ConfigurationError(
                f"unknown service backend {self.backend!r}; known: {_BACKENDS}"
            )
        for name, lo in (
            ("max_queue", 1), ("max_batch", 1), ("max_retries", 1),
            ("exact_capacity", 1), ("warm_capacity", 1),
        ):
            if getattr(self, name) < lo:
                raise ConfigurationError(f"ServiceConfig.{name} must be >= {lo}")
        if self.batch_window < 0:
            raise ConfigurationError("ServiceConfig.batch_window must be >= 0")
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ConfigurationError(
                "ServiceConfig.default_deadline must be > 0 (or None)"
            )


@dataclass(frozen=True)
class ParsedRequest:
    """A validated solve request with its cache/batching identities.

    ``key`` is hashed at parse time.  ``compat`` and ``channel`` hash part
    of the spec again, so they are computed on first use: an exact-tier
    hit never needs them.
    """

    request: ServiceRequest
    spec: object                 # SolvePointSpec | TuneSpec
    key: str                     # exact-tier identity (spec_key of the spec)
    budget: int                  # descending-order sort key (total nodes)
    body: dict | None = field(default=None, repr=False, compare=False)  # solve_point to_dict()

    @property
    def id(self) -> str:
        return self.request.id

    @cached_property
    def compat(self) -> str | None:
        """Batching identity; None -> never co-batched."""
        return None if self.body is None else reuse_channel(self.body)

    @property
    def channel(self) -> str | None:
        """Warm-pool identity; None -> no family (tune and oracle requests)."""
        if self.compat is None or self.spec.method == "oracle":
            return None
        return self.compat


def reuse_channel(point_payload: dict) -> str:
    """The warm-pool / batching channel of a ``solve_point`` payload.

    Hashes exactly the content two requests must share for one
    :class:`~repro.reuse.SolveFamily` to serve both: the performance
    curves, objective, layout topology, fine-tuning/T_sync flags, and the
    solver method + options.  Budgets (total nodes) and component bounds
    are deliberately *excluded* — family members differ in those by
    design (cuts stay valid, incumbents are re-certified).
    """
    problem = point_payload["problem"]
    return spec_key({
        "kind": "service_channel",
        "curves": problem["curves"],
        "objective": problem["objective"],
        "layout": problem["layout"],
        "fine_tuning": problem["fine_tuning"],
        "tsync": problem["tsync"],
        "method": point_payload["method"],
        "options": point_payload["options"],
    })


def group_compatible(items, compat=lambda item: item.compat) -> list:
    """Partition ``items`` into co-batchable groups, preserving order.

    Two items land in one group iff their ``compat`` keys are equal and
    not None; a None key means "never co-batched" and yields a singleton
    group.  Group order follows each group's earliest member.
    """
    groups: list = []
    index: dict = {}
    for item in items:
        key = compat(item)
        if key is None:
            groups.append([item])
            continue
        slot = index.get(key)
        if slot is None:
            slot = []
            index[key] = slot
            groups.append(slot)
        slot.append(item)
    return groups


# -- result payloads ---------------------------------------------------------------


def _finite(value: float) -> float | None:
    value = float(value)
    return value if math.isfinite(value) else None


def _solver_block(result) -> dict:
    return {
        "status": result.status.value,
        "nodes": int(result.nodes),
        "cuts_added": int(result.cuts_added),
        "nlp_solves": int(result.nlp_solves),
        "lp_iterations": int(result.lp_iterations),
        "best_bound": _finite(result.best_bound),
    }


def point_result_payload(spec: SolvePointSpec, point) -> dict:
    """JSON-safe answer for one solved layout point.

    Floats survive JSON exactly (repr round-trip), so comparing two of
    these payloads field-by-field *is* a bit-identity check.
    """
    payload = {
        "kind": "layout_point",
        "method": spec.method,
        "total_nodes": int(point.total_nodes),
        "objective": float(point.makespan),
        "allocation": {
            comp.value: int(n) for comp, n in sorted(
                point.allocation.items(), key=lambda kv: kv[0].value
            )
        },
    }
    if point.solver_result is not None:
        payload["solver"] = _solver_block(point.solver_result)
    return payload


def tune_result_payload(run) -> dict:
    """JSON-safe answer for one full pipeline run (``HSLBRunResult``)."""
    solve = run.solve
    payload = {
        "kind": "tune_result",
        "method": solve.method,
        "allocation": {
            comp.value: int(n) for comp, n in sorted(
                solve.allocation.items(), key=lambda kv: kv[0].value
            )
        },
        "predicted_times": {
            comp.value: float(t) for comp, t in sorted(
                solve.predicted_times.items(), key=lambda kv: kv[0].value
            )
        },
        "predicted_total": float(solve.predicted_total),
        "objective_value": float(solve.objective_value),
        "actual_total": float(run.actual.total),
        "prediction_error": float(run.prediction_error()),
        "fit_r_squared": {
            comp.value: _finite(fit.r_squared) for comp, fit in sorted(
                run.fits.items(), key=lambda kv: kv[0].value
            )
        },
        "events": len(run.events),
    }
    if solve.solver_result is not None:
        payload["solver"] = _solver_block(solve.solver_result)
    return payload


# -- worker tasks (module-level: the supervised pool pickles them by reference) ----


@dataclass
class _PointTask:
    payload: dict                # canonical SolvePointSpec dict
    snapshot: object = None      # SolveFamily snapshot (shared by the batch)
    mark: object = None


def _run_point_task(task: _PointTask) -> tuple:
    """Solve one layout point against a clone of the batch snapshot.

    Returns ``(result_payload, family_delta)``; runs in a worker process
    under the supervised backend and inline under the serial one — the
    clone discipline makes the two produce identical bits.
    """
    spec = SolvePointSpec.from_dict(task.payload)
    family = task.snapshot.clone() if task.snapshot is not None else None
    point = _solve_layout_point(spec, family)
    delta = family.export_delta(task.mark) if family is not None else None
    return point_result_payload(spec, point), delta


@dataclass
class _TuneTask:
    payload: dict                # canonical TuneSpec dict


def _run_tune_task(task: _TuneTask) -> tuple:
    """Run one full tuning pipeline from its spec; returns ``(payload, None)``."""
    spec = TuneSpec.from_dict(task.payload)
    return tune_result_payload(spec.run()), None


@dataclass
class _TaskError:
    """A deterministic task failure caught on the serial path."""

    type: str
    detail: str


def _run_guarded(fn, task):
    try:
        return fn(task)
    except Exception as exc:  # noqa: BLE001 - converted to a typed response
        return _TaskError(type(exc).__name__, str(exc))


# -- the engine --------------------------------------------------------------------


_COUNTER_NAMES = (
    "requests", "exact_hits", "warm_hits", "cold_solves", "dedup_hits",
    "tune_runs", "batches", "batched_requests", "rejected", "expired",
    "errors", "poisoned",
)


@dataclass
class _GroupOutcome:
    """Internal: one unique spec's dispatch outcome."""

    status: str                  # "ok" | "error" | "poisoned"
    payload: dict | None = None
    error: dict | None = None
    meta: dict = field(default_factory=dict)
    delta: object = None         # family delta to merge (ok outcomes only)


class ServiceEngine:
    """Tiered request answering: exact memo -> warm family -> cold solve.

    Thread model: :meth:`parse` and :meth:`try_exact` may run on the
    event-loop thread (they touch only locked state); :meth:`solve_group`
    must run on a single solver thread (warm pools are not shared-state
    safe, and solver determinism wants one writer anyway).
    """

    def __init__(self, config: ServiceConfig | None = None, events: EventLog | None = None):
        self.config = config if config is not None else ServiceConfig()
        self.events = events if events is not None else EventLog()
        self.exact = ExactCache(self.config.exact_capacity)
        self.warm = WarmPools(self.config.warm_capacity, events=self.events)
        self.counters = dict.fromkeys(_COUNTER_NAMES, 0)
        # Always-on dispatch-group size distribution ({size: count}), kept
        # outside telemetry so `hslb stats` can report batching behavior
        # against a daemon that runs with telemetry disabled.
        self.batch_sizes: dict = {}
        self._lock = threading.Lock()
        self._executor: SupervisedProcessExecutor | None = None

    # -- counters ----------------------------------------------------------------

    def note(self, name: str, count: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + count

    # -- request classification --------------------------------------------------

    def parse(self, payload) -> ParsedRequest:
        """Validate one solve request and compute its cache identities.

        ``payload`` is a raw request dict or a :class:`ServiceRequest`.
        Raises :class:`~repro.exceptions.ProtocolError` (bad envelope) or
        :class:`~repro.exceptions.ConfigurationError` (bad spec).
        """
        request = (
            payload if isinstance(payload, ServiceRequest)
            else ServiceRequest.from_dict(payload)
        )
        if request.kind not in SOLVE_KINDS:
            raise ProtocolError(
                f"{request.kind!r} is not a solvable request kind"
            )
        if request.kind == "solve_point":
            spec = SolvePointSpec.from_dict(request.spec)
            body = spec.to_dict()
            return ParsedRequest(
                request=request, spec=spec, key=spec_key(body),
                budget=int(body["problem"]["total_nodes"]), body=body,
            )
        spec = TuneSpec.from_dict(request.spec)
        return ParsedRequest(request=request, spec=spec, key=spec.spec_key(), budget=0)

    # -- tier 1: exact -----------------------------------------------------------

    def try_exact(self, parsed: ParsedRequest) -> ServiceResponse | None:
        """The memoized response for an exact repeat, or None."""
        cached = self.exact.get(parsed.key)
        if cached is None:
            return None
        self.note("requests")
        self.note("exact_hits")
        telemetry.count(metric.SERVICE_REQUESTS, status="ok", tier="exact")
        return ServiceResponse(
            id=parsed.id, status="ok", tier="exact", result=dict(cached)
        )

    # -- tiers 2/3: one compatible group -----------------------------------------

    def solve_group(self, group: list) -> list:
        """Answer one *compatible* group of parsed requests.

        Returns one :class:`ServiceResponse` per input, in input order.
        Dedupes exact repeats within the group, orders unique specs by
        descending budget, solves them against clones of the channel
        family's pre-batch snapshot (serial or supervised), merges deltas
        back in that order, and memoizes every successful answer.
        """
        if not group:
            return []
        self.note("requests", len(group))
        with self._lock:
            self.batch_sizes[len(group)] = self.batch_sizes.get(len(group), 0) + 1
        telemetry.observe(metric.SERVICE_BATCH_SIZE, len(group))
        if len(group) > 1:
            self.note("batches")
            self.note("batched_requests", len(group))
        responses: list = [None] * len(group)

        # Exact tier re-check: an earlier batch may have answered this key
        # between admission and dispatch.
        todo: list = []
        for i, parsed in enumerate(group):
            cached = self.exact.get(parsed.key)
            if cached is not None:
                self.note("exact_hits")
                responses[i] = ServiceResponse(
                    id=parsed.id, status="ok", tier="exact", result=dict(cached)
                )
            else:
                todo.append(i)
        if not todo:
            return self._note_responses(responses)

        # Dedupe by spec_key; solve order is descending budget (ties by
        # arrival), the whatif ladder discipline.
        by_key: dict = {}
        for i in todo:
            by_key.setdefault(group[i].key, []).append(i)
        unique_keys = sorted(by_key, key=lambda k: (-group[by_key[k][0]].budget,
                                                    by_key[k][0]))
        self.note("dedup_hits", len(todo) - len(unique_keys))

        leaders = [group[by_key[k][0]] for k in unique_keys]
        if leaders[0].request.kind == "tune":
            assert len(leaders) == 1, "tune requests are never co-batched"
            self.note("tune_runs")
            tier = "cold"
            outcomes = self._dispatch(_run_tune_task,
                                      [_TuneTask(leaders[0].spec.to_dict())])
        else:
            tier, outcomes = self._dispatch_points(leaders)

        for key, parsed, outcome in zip(unique_keys, leaders, outcomes):
            if outcome.status == "ok":
                self.note("warm_hits" if tier == "warm" else "cold_solves")
                self.exact.put(key, outcome.payload)
            else:
                self.note("errors" if outcome.status == "error" else "poisoned")
            for i in by_key[key]:
                if outcome.status == "ok":
                    responses[i] = ServiceResponse(
                        id=group[i].id, status="ok", tier=tier,
                        result=dict(outcome.payload),
                    )
                else:
                    responses[i] = ServiceResponse(
                        id=group[i].id, status=outcome.status,
                        error=dict(outcome.error), meta=dict(outcome.meta),
                    )
        return self._note_responses(responses)

    def _note_responses(self, responses: list) -> list:
        """Record the per-request status/tier telemetry series; passthrough."""
        if telemetry.enabled():
            for resp in responses:
                telemetry.count(
                    metric.SERVICE_REQUESTS,
                    status=resp.status, tier=resp.tier or "none",
                )
        return responses

    def _dispatch_points(self, leaders: list) -> tuple:
        """Solve unique layout points against the channel's warm family."""
        channel = leaders[0].channel
        family = None
        warm = False
        if channel is not None:
            family, warm = self.warm.lease(
                channel, max(p.budget for p in leaders)
            )
        snapshot = family.snapshot() if family is not None else None
        mark = snapshot.mark() if snapshot is not None else None
        tasks = [
            _PointTask(parsed.spec.to_dict(), snapshot, mark)
            for parsed in leaders
        ]
        outcomes = self._dispatch(_run_point_task, tasks)
        solved = 0
        for outcome in outcomes:
            if outcome.status == "ok" and outcome.delta is not None:
                family.merge_delta(outcome.delta)
                solved += 1
        if channel is not None and solved:
            self.warm.note_solved(channel, solved)
        return ("warm" if warm else "cold"), outcomes

    def _dispatch(self, fn, tasks: list) -> list:
        """Run tasks on the configured backend; outcomes in task order."""
        if self.config.backend == "supervised":
            raw = self._supervised().map_supervised(fn, tasks)
        else:
            raw = [_run_guarded(fn, task) for task in tasks]
        outcomes = []
        for item in raw:
            if isinstance(item, PoisonedTask):
                status = "error" if item.reason == "error" else "poisoned"
                error_type = {
                    "crash": "WorkerCrashError", "hang": "WorkerHangError",
                }.get(item.reason, "TaskError")
                outcomes.append(_GroupOutcome(
                    status=status,
                    error={"type": error_type, "detail": item.detail},
                    meta={"attempts": item.attempts, "reason": item.reason},
                ))
            elif isinstance(item, _TaskError):
                outcomes.append(_GroupOutcome(
                    status="error",
                    error={"type": item.type, "detail": item.detail},
                ))
            else:
                payload, delta = item
                outcomes.append(
                    _GroupOutcome(status="ok", payload=payload, delta=delta)
                )
        return outcomes

    def _supervised(self) -> SupervisedProcessExecutor:
        if self._executor is None:
            self._executor = SupervisedProcessExecutor(
                self.config.workers,
                retry_policy=RetryPolicy(max_attempts=self.config.max_retries),
                task_deadline=self.config.task_deadline,
                chaos=self.config.chaos,
                seed=self.config.seed,
                events=self.events,
            )
        return self._executor

    # -- convenience: one request end to end (no server) -------------------------

    def handle(self, payload) -> ServiceResponse:
        """Answer one raw request dict synchronously (in-process service).

        Control kinds (``ping``/``stats``) are answered inline; solve
        kinds run the full exact -> warm -> cold path.  Never raises for
        request-level problems — they come back as typed responses.
        """
        try:
            request = (
                payload if isinstance(payload, ServiceRequest)
                else ServiceRequest.from_dict(payload)
            )
        except ReproError as exc:
            return error_response("", "error", type(exc).__name__, str(exc))
        if request.kind == "ping":
            return ServiceResponse(id=request.id, status="ok",
                                   result={"pong": True})
        if request.kind == "stats":
            return ServiceResponse(id=request.id, status="ok",
                                   result=self.stats())
        if request.kind == "shutdown":
            return error_response(
                request.id, "error", "ProtocolError",
                "shutdown is only honored by a daemon started with "
                "allow_shutdown=True",
            )
        try:
            parsed = self.parse(request)
            hit = self.try_exact(parsed)
            if hit is not None:
                return hit
            parsed.compat  # hash the reuse channel now that the exact tier missed
        except ReproError as exc:
            self.note("requests")
            self.note("errors")
            return error_response(request.id, "error",
                                  type(exc).__name__, str(exc))
        return self.solve_group([parsed])[0]

    # -- introspection / lifecycle -----------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            counters = dict(self.counters)
            batch_sizes = {
                str(size): self.batch_sizes[size]
                for size in sorted(self.batch_sizes)
            }
        supervision = None
        if self._executor is not None:
            supervision = {
                k: v for k, v in self._executor.stats.items()
                if k != "respawn_seconds"
            }
        registry = telemetry.get_registry()
        return {
            "backend": self.config.backend,
            "counters": counters,
            "batch_sizes": batch_sizes,
            "exact": self.exact.stats(),
            "warm": self.warm.stats(),
            "supervision": supervision,
            "events": len(self.events),
            # Full metric snapshot when the daemon runs with telemetry on;
            # None otherwise.  JSON-safe, so it rides the stats verb as-is.
            "telemetry": None if registry is None else registry.snapshot(),
        }

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
