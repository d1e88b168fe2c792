"""HSLB step 1: gather benchmarking data (paper Sec. III-C).

"CESM should be run on the minimal number of nodes allowed by memory
requirements and on the greatest number of nodes possible.  In addition, a
few simulations should be done in between to capture the curvature of the
scaling. ... the number of benchmarking runs ... should be at least greater
than four for each component."

The benchmark jobs behind those numbers crash, hit queue timeouts, and
return corrupted timings.  Pass a :class:`~repro.resilience.RetryPolicy`
(and optionally an :class:`~repro.resilience.EventLog` / ``deadline``) and
:func:`gather_benchmarks` runs a resilient sweep instead of the bare one:
failed points are retried with capped deterministic backoff, implausible
measurements are rejected by a MAD test and re-measured, exhausted points
are replaced by a neighboring node count or dropped, and the fit proceeds
as long as 3 distinct points per component survive — otherwise a
:class:`~repro.exceptions.GatherError` carries out the partial data.
Without a policy the historical clean path runs unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cesm.case import CESMCase
from repro.cesm.components import OPTIMIZED_COMPONENTS, ComponentId
from repro.cesm.simulator import CoupledRunSimulator
from repro.exceptions import ConfigurationError, GatherError, SimulationError
from repro.parallel.executor import executor_scope
from repro.resilience.events import EventKind, EventLog
from repro.resilience.outliers import worst_outlier
from repro.resilience.retry import Deadline, RetryPolicy


@dataclass
class BenchmarkData:
    """Observed (nodes, seconds) samples per optimized component."""

    samples: dict = field(default_factory=dict)  # ComponentId -> (nodes, times)

    def add(self, component: ComponentId, nodes, times) -> None:
        n = np.asarray(nodes, dtype=float)
        t = np.asarray(times, dtype=float)
        if n.shape != t.shape:
            raise ConfigurationError("nodes/times length mismatch")
        # Mirror fit_component's preconditions here, where corrupted
        # measurements first enter the pipeline: reject them loudly instead
        # of letting NaNs poison the fit three stages later.
        if not np.all(np.isfinite(n)) or np.any(n <= 0):
            raise ConfigurationError(
                f"{component.value}: node counts must be finite and positive"
            )
        if not np.all(np.isfinite(t)) or np.any(t < 0):
            raise ConfigurationError(
                f"{component.value}: times must be finite and nonnegative"
            )
        if component in self.samples:
            n0, t0 = self.samples[component]
            n, t = np.concatenate([n0, n]), np.concatenate([t0, t])
        order = np.argsort(n)
        self.samples[component] = (n[order], t[order])

    def nodes(self, component: ComponentId) -> np.ndarray:
        return self.samples[component][0]

    def times(self, component: ComponentId) -> np.ndarray:
        return self.samples[component][1]

    def components(self) -> list:
        return list(self.samples)

    def point_count(self, component: ComponentId) -> int:
        return int(self.samples[component][0].size)


def gather_benchmarks(
    simulator,
    points: int = 5,
    components: tuple = OPTIMIZED_COMPONENTS,
    policy: RetryPolicy | None = None,
    events: EventLog | None = None,
    deadline=None,
    executor=None,
    workers: int | None = None,
) -> BenchmarkData:
    """Run the benchmark sweeps for ``components`` on ``simulator``.

    ``points`` node counts per component are spread geometrically between
    the memory floor and the job size (the paper's recommendation, with the
    geometric spacing capturing the curvature where it lives).

    With ``policy`` (or ``events``/``deadline``) set, the sweep is fault
    tolerant — see the module docstring.  The clean path is bit-identical
    to the historical behavior.

    ``executor`` (an executor name or instance, see :mod:`repro.parallel`)
    runs the sweeps concurrently: the clean path parallelizes individual
    benchmark points, the resilient path whole component sweeps (each
    sweep's retry/replace/outlier decisions are sequential within the
    component).  Results, events, and errors are merged in submission
    order, so every backend is bit-identical to the default serial run.
    """
    if points < 3:
        raise ConfigurationError(
            "need at least 3 benchmark points per component to fit the model "
            "(the paper recommends more than 4)"
        )
    with executor_scope(executor, workers) as ex:
        if policy is None and events is None and deadline is None:
            if ex.kind == "serial":
                return _gather_plain(simulator, points, components)
            return _gather_plain_parallel(simulator, points, components, ex)
        policy = policy or RetryPolicy()
        events = events if events is not None else EventLog()
        deadline = Deadline.coerce(deadline)
        if ex.kind == "serial":
            return _gather_resilient(
                simulator, points, components, policy, events, deadline
            )
        return _gather_resilient_parallel(
            simulator, points, components, policy, events, deadline, ex
        )


def _sweep_counts(case: CESMCase, comp: ComponentId, points: int) -> list:
    counts = case.benchmark_node_counts(comp, points=points)
    if len(counts) < 3:
        raise ConfigurationError(
            f"component {comp.value}: node range too narrow for "
            f"{points} distinct benchmark sizes"
        )
    return counts


def _gather_plain(
    simulator: CoupledRunSimulator, points: int, components: tuple
) -> BenchmarkData:
    case: CESMCase = simulator.case
    data = BenchmarkData()
    for comp in components:
        counts = _sweep_counts(case, comp, points)
        sweep = simulator.benchmark_sweep(comp, counts)
        data.add(comp, [n for n, _ in sweep], [t for _, t in sweep])
    return data


# -- parallel clean path --------------------------------------------------------


@dataclass
class _PointTask:
    """One clean benchmark measurement (picklable process payload)."""

    simulator: object
    comp: ComponentId
    nodes: int


def _run_point_task(task: _PointTask) -> float:
    return task.simulator.benchmark(task.comp, task.nodes)


def _gather_plain_parallel(
    simulator, points: int, components: tuple, ex
) -> BenchmarkData:
    """Clean sweep with every (component, node count) point as one task.

    Submission order is the serial iteration order, so after the ordered
    merge the assembled :class:`BenchmarkData` — and, when a point fails,
    the raised :class:`~repro.exceptions.SimulationError` — match the
    serial path exactly.
    """
    case: CESMCase = simulator.case
    tasks: list = []
    spans: list = []
    for comp in components:
        counts = _sweep_counts(case, comp, points)
        spans.append((comp, len(counts)))
        tasks.extend(_PointTask(simulator, comp, int(n)) for n in counts)
    values = ex.map_ordered(_run_point_task, tasks)
    data = BenchmarkData()
    offset = 0
    for comp, width in spans:
        chunk = tasks[offset:offset + width]
        data.add(comp, [t.nodes for t in chunk], values[offset:offset + width])
        offset += width
    return data


# -- resilient path -------------------------------------------------------------


def _sweep_component(
    simulator,
    comp: ComponentId,
    counts: list,
    policy: RetryPolicy,
    events: EventLog,
    deadline: Deadline,
) -> dict:
    """One component's full resilient sweep; returns ``{nodes: seconds}``.

    Retries, neighbor replacement, and outlier re-measurement are all
    internal to the component, so this is the unit the parallel gather
    fans out — the decisions inside stay strictly sequential.
    """
    case: CESMCase = simulator.case
    budget = _SweepBudget(policy.sweep_budget)
    survived: dict = {}  # nodes -> seconds
    for n in counts:
        value = _measure_point(
            simulator, comp, n, policy, events, deadline, budget
        )
        if value is None:
            value, n = _replace_point(
                simulator, comp, n, counts, survived, case,
                policy, events, deadline, budget,
            )
        if value is None:
            continue
        survived[n] = value

    _reject_outliers(
        simulator, comp, survived, policy, events, deadline, budget
    )
    return survived


def _finish_component(
    comp: ComponentId,
    requested: int,
    survived: dict,
    data: BenchmarkData,
    partial: BenchmarkData,
    events: EventLog,
) -> None:
    """Fold one component's sweep into the results (or raise GatherError)."""
    if survived:
        ns = sorted(survived)
        partial.add(comp, ns, [survived[n] for n in ns])
    if len(survived) < 3:
        raise GatherError(
            f"component {comp.value}: only {len(survived)} of "
            f"{requested} benchmark points survived (need 3 to fit)",
            partial=partial,
        )
    if len(survived) < requested:
        events.record(
            EventKind.GATHER_DEGRADED,
            stage="gather",
            detail=(
                f"proceeding with {len(survived)}/{requested} points"
            ),
            component=comp.value,
            requested=requested,
            survived=len(survived),
        )
    ns = sorted(survived)
    data.add(comp, ns, [survived[n] for n in ns])


def _gather_resilient(
    simulator,
    points: int,
    components: tuple,
    policy: RetryPolicy,
    events: EventLog,
    deadline: Deadline,
) -> BenchmarkData:
    case: CESMCase = simulator.case
    data = BenchmarkData()
    partial = BenchmarkData()
    for comp in components:
        counts = _sweep_counts(case, comp, points)
        survived = _sweep_component(
            simulator, comp, counts, policy, events, deadline
        )
        _finish_component(comp, len(counts), survived, data, partial, events)
    return data


@dataclass
class _SweepTask:
    """One component's resilient sweep (picklable process payload).

    Thread workers receive the live :class:`Deadline` so all sweeps share
    one budget; process workers get the remaining seconds at submission
    (clock objects do not cross process boundaries) and rebuild one.
    """

    simulator: object
    comp: ComponentId
    counts: list
    policy: RetryPolicy
    deadline: Deadline | None
    deadline_seconds: float | None


@dataclass
class _SweepOutcome:
    comp: ComponentId
    requested: int
    survived: dict
    events: EventLog
    attempts_delta: dict


def _run_sweep_task(task: _SweepTask) -> _SweepOutcome:
    deadline = (
        task.deadline
        if task.deadline is not None
        else Deadline(task.deadline_seconds)
    )
    events = EventLog()
    simulator = task.simulator
    before = (
        simulator.attempt_counts()
        if hasattr(simulator, "attempt_counts")
        else {}
    )
    survived = _sweep_component(
        simulator, task.comp, task.counts, task.policy, events, deadline
    )
    delta = {}
    if hasattr(simulator, "attempt_counts"):
        after = simulator.attempt_counts()
        delta = {
            key: count - before.get(key, 0)
            for key, count in after.items()
            if count != before.get(key, 0)
        }
    return _SweepOutcome(
        comp=task.comp,
        requested=len(task.counts),
        survived=survived,
        events=events,
        attempts_delta=delta,
    )


def _gather_resilient_parallel(
    simulator,
    points: int,
    components: tuple,
    policy: RetryPolicy,
    events: EventLog,
    deadline: Deadline,
    ex,
) -> BenchmarkData:
    """Resilient gather with one task per component sweep.

    Worker event logs and fault-attempt spend are merged back in
    submission order; a failing component raises the same
    :class:`~repro.exceptions.GatherError` (message and partial data) the
    serial loop raises, with later components' events discarded exactly as
    if they had never run.
    """
    case: CESMCase = simulator.case
    # Only thread workers share this process; every other backend runs
    # sweeps on copies, whose attempt counts must be merged back.
    share_deadline = ex.kind == "thread"
    tasks = []
    for comp in components:
        counts = _sweep_counts(case, comp, points)
        tasks.append(
            _SweepTask(
                simulator=simulator,
                comp=comp,
                counts=counts,
                policy=policy,
                deadline=deadline if share_deadline else None,
                deadline_seconds=(
                    None
                    if not deadline.is_limited
                    else max(deadline.remaining(), 1e-3)
                ),
            )
        )
    outcomes = ex.map_ordered(_run_sweep_task, tasks)
    data = BenchmarkData()
    partial = BenchmarkData()
    merge_attempts = not share_deadline and hasattr(simulator, "merge_attempts")
    for outcome in outcomes:
        events.extend(outcome.events)
        if merge_attempts:
            simulator.merge_attempts(outcome.attempts_delta)
        _finish_component(
            outcome.comp, outcome.requested, outcome.survived,
            data, partial, events,
        )
    return data


class _SweepBudget:
    """Counts failed attempts across one component's sweep."""

    def __init__(self, total: int):
        self.remaining = int(total)

    def spend(self) -> None:
        self.remaining -= 1

    @property
    def exhausted(self) -> bool:
        return self.remaining <= 0


def _measure_point(
    simulator,
    comp: ComponentId,
    nodes: int,
    policy: RetryPolicy,
    events: EventLog,
    deadline: Deadline,
    budget: _SweepBudget,
    repeat: int = 0,
) -> float | None:
    """One point with retries; ``None`` when every attempt failed."""
    seed = simulator.case.seed
    for attempt in range(1, policy.max_attempts + 1):
        try:
            value = float(simulator.benchmark(comp, nodes, repeat=repeat))
            if math.isfinite(value) and value > 0.0:
                return value
            reason = f"corrupt measurement ({value!r})"
        except SimulationError as exc:
            reason = str(exc)
        budget.spend()
        # Out of retries for this point, sweep budget spent, or the global
        # deadline has passed: give up on the point (degrade, don't abort).
        if attempt >= policy.max_attempts or budget.exhausted or deadline.expired():
            events.record(
                EventKind.RETRY,
                stage="gather",
                detail=f"attempt {attempt} at {nodes} nodes failed: {reason}; giving up",
                component=comp.value,
                attempt=attempt,
                nodes=int(nodes),
                exhausted=True,
            )
            return None
        delay = policy.delay_for(attempt, seed, "bench", comp.value, str(nodes))
        events.record(
            EventKind.RETRY,
            stage="gather",
            detail=(
                f"attempt {attempt} at {nodes} nodes failed: {reason}; "
                f"retrying after {delay:.3f}s"
            ),
            component=comp.value,
            attempt=attempt,
            nodes=int(nodes),
            delay=round(delay, 6),
        )
        policy.pause(delay)
    return None


def _replace_point(
    simulator,
    comp: ComponentId,
    nodes: int,
    counts: list,
    survived: dict,
    case: CESMCase,
    policy: RetryPolicy,
    events: EventLog,
    deadline: Deadline,
    budget: _SweepBudget,
):
    """Try neighboring node counts for a point that exhausted its retries.

    Returns ``(value, nodes)`` on success, ``(None, nodes)`` when the point
    is dropped for good.
    """
    lo, hi = case.component_bounds(comp)
    taken = set(counts) | set(survived)
    candidates = []
    for distance in range(1, policy.replacement_candidates + 1):
        for cand in (nodes - distance, nodes + distance):
            if lo <= cand <= hi and cand not in taken:
                candidates.append(cand)
    for cand in candidates:
        if deadline.expired():
            break
        try:
            value = float(simulator.benchmark(comp, cand))
        except SimulationError:
            budget.spend()
            continue
        if math.isfinite(value) and value > 0.0:
            events.record(
                EventKind.POINT_REPLACED,
                stage="gather",
                detail=f"{nodes} nodes unusable; substituted neighbor {cand}",
                component=comp.value,
                nodes=int(nodes),
                replacement=int(cand),
            )
            return value, cand
        budget.spend()
    events.record(
        EventKind.POINT_DROPPED,
        stage="gather",
        detail=f"dropped {nodes} nodes (retries and neighbors exhausted)",
        component=comp.value,
        nodes=int(nodes),
    )
    return None, nodes


def _reject_outliers(
    simulator,
    comp: ComponentId,
    survived: dict,
    policy: RetryPolicy,
    events: EventLog,
    deadline: Deadline,
    budget: _SweepBudget,
) -> None:
    """Greedy MAD rejection + re-measurement, one worst point per round."""
    for round_no in range(1, policy.max_outlier_rounds + 1):
        if len(survived) < 4 or deadline.expired():
            return
        ns = sorted(survived)
        ts = [survived[n] for n in ns]
        idx = worst_outlier(ns, ts, policy.outlier_threshold)
        if idx is None:
            return
        bad_n = ns[idx]
        events.record(
            EventKind.OUTLIER_REJECTED,
            stage="gather",
            detail=(
                f"measurement {ts[idx]:.4g}s at {bad_n} nodes is implausible "
                f"against the sweep trend; re-measuring"
            ),
            component=comp.value,
            nodes=int(bad_n),
            value=round(float(ts[idx]), 6),
        )
        fresh = _measure_point(
            simulator, comp, bad_n, policy, events, deadline, budget,
            repeat=round_no,
        )
        if fresh is None:
            del survived[bad_n]
            events.record(
                EventKind.POINT_DROPPED,
                stage="gather",
                detail=f"dropped {bad_n} nodes (re-measurement failed)",
                component=comp.value,
                nodes=int(bad_n),
            )
        else:
            survived[bad_n] = fresh
            events.record(
                EventKind.REMEASURED,
                stage="gather",
                detail=f"re-measured {bad_n} nodes: {fresh:.4g}s",
                component=comp.value,
                nodes=int(bad_n),
                value=round(float(fresh), 6),
            )
