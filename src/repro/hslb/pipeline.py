"""The end-to-end HSLB pipeline (paper Sec. III-F).

Gather -> fit -> solve -> execute over one :class:`~repro.cesm.CESMCase`:

>>> from repro.cesm import make_case
>>> from repro.hslb import HSLBPipeline
>>> result = HSLBPipeline(make_case("1deg", 128)).run()   # doctest: +SKIP
>>> print(result.report())                                # doctest: +SKIP

Resilient mode — pass ``fault_profile`` (chaos injection), ``retry_policy``
and/or ``deadline`` — threads a shared :class:`~repro.resilience.EventLog`
through every step, retries failed benchmarks and coupled runs, and falls
back across solver backends; see :mod:`repro.resilience`.  With none of the
three set, every step runs the historical clean path bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cesm.case import CESMCase
from repro.cesm.components import OPTIMIZED_COMPONENTS
from repro.cesm.simulator import ComponentTimings, CoupledRunSimulator
from repro.exceptions import InjectedFaultError
from repro.fitting import FitOptions
from repro.hslb.fitstep import fit_components
from repro.hslb.gather import BenchmarkData, gather_benchmarks
from repro.hslb.objectives import ObjectiveKind
from repro.hslb.report import format_run_result
from repro.hslb.solve import SolveOutcome, solve_allocation, solve_allocation_resilient
from repro.minlp import MINLPOptions
from repro.resilience import Deadline, EventLog, FaultProfile, FaultySimulator, RetryPolicy
from repro.resilience.events import EventKind


@dataclass
class HSLBRunResult:
    """Everything one HSLB pass produced."""

    case: CESMCase
    benchmarks: BenchmarkData
    fits: dict                    # ComponentId -> FitResult
    solve: SolveOutcome
    actual: ComponentTimings
    events: EventLog = field(default_factory=EventLog)

    @property
    def allocation(self) -> dict:
        return self.solve.allocation

    @property
    def predicted_total(self) -> float:
        return self.solve.predicted_total

    @property
    def actual_total(self) -> float:
        return self.actual.total

    def prediction_error(self) -> float:
        """Relative |predicted - actual| / actual of the total time."""
        return abs(self.predicted_total - self.actual_total) / self.actual_total

    def fit_r_squared(self) -> dict:
        return {c: f.r_squared for c, f in self.fits.items()}

    def report(self) -> str:
        """Table III-style text block for this run."""
        return format_run_result(self)


class HSLBPipeline:
    """Configure once, :meth:`run` to execute all four steps."""

    def __init__(
        self,
        case: CESMCase,
        points: int = 5,
        objective: ObjectiveKind = ObjectiveKind.MIN_MAX,
        method: str = "lpnlp",
        fit_options: FitOptions | None = None,
        minlp_options: MINLPOptions | None = None,
        seed: int | None = None,
        fine_tuning: bool = False,
        fault_profile: FaultProfile | None = None,
        retry_policy: RetryPolicy | None = None,
        deadline: float | Deadline | None = None,
        executor=None,
        workers: int | None = None,
        reuse=None,
    ):
        # A pipeline-level seed overrides the case's (convenience for
        # repeated runs with fresh noise).
        if seed is not None and seed != case.seed:
            case = CESMCase(
                resolution=case.resolution,
                total_nodes=case.total_nodes,
                layout=case.layout,
                unconstrained_ocean=case.unconstrained_ocean,
                machine=case.machine,
                seed=seed,
            )
        self.case = case
        self.points = points
        self.objective = objective
        self.method = method
        self.fit_options = fit_options
        self.minlp_options = minlp_options
        self.fine_tuning = fine_tuning
        self.fault_profile = fault_profile
        # Any resilience knob switches the whole pipeline onto the resilient
        # path; a fault profile without an explicit policy still needs
        # retries to survive its own chaos.
        self.resilient = (
            fault_profile is not None
            or retry_policy is not None
            or deadline is not None
        )
        self.retry_policy = retry_policy or (RetryPolicy() if self.resilient else None)
        self.deadline_seconds = deadline
        # Parallel execution (see repro.parallel): the gather step fans its
        # sweeps out on `executor` with `workers` workers; the MINLP step is
        # one serial tree.  Results stay bit-identical to the serial defaults.
        self.executor = executor
        self.workers = workers
        # Cross-solve reuse (see repro.reuse): pass a SolveFamily to thread
        # warm state through this pipeline's MINLP solve — and, by sharing
        # one family across several pipelines, through a whole sequence of
        # related tuning runs.  ``True`` creates a private family.
        if reuse is True:
            from repro.reuse import SolveFamily

            reuse = SolveFamily()
        self.reuse = reuse or None
        self.events = EventLog()
        self.simulator = CoupledRunSimulator(self.case)
        if fault_profile is not None and fault_profile.active:
            self.simulator = FaultySimulator(self.simulator, fault_profile)

    # individual steps exposed for experimentation ------------------------------

    def gather(self, deadline: Deadline | None = None) -> BenchmarkData:
        """Step 1: benchmark sweeps for the optimized components (plus the
        riding coupler/river components under fine-tuning)."""
        components = OPTIMIZED_COMPONENTS
        if self.fine_tuning:
            from repro.cesm.components import ComponentId

            components = OPTIMIZED_COMPONENTS + (
                ComponentId.RTM,
                ComponentId.CPL,
            )
        if not self.resilient:
            return gather_benchmarks(
                self.simulator, points=self.points, components=components,
                executor=self.executor, workers=self.workers,
            )
        return gather_benchmarks(
            self.simulator,
            points=self.points,
            components=components,
            policy=self.retry_policy,
            events=self.events,
            deadline=deadline if deadline is not None else self.deadline_seconds,
            executor=self.executor,
            workers=self.workers,
        )

    def fit(self, data: BenchmarkData) -> dict:
        """Step 2: least-squares fits."""
        if not self.resilient:
            return fit_components(data, self.fit_options)
        return fit_components(
            data, self.fit_options, policy=self.retry_policy, events=self.events
        )

    def solve(self, fits: dict, deadline: Deadline | None = None) -> SolveOutcome:
        """Step 3: MINLP for the optimal allocation."""
        if not self.resilient:
            return solve_allocation(
                self.case,
                fits,
                objective=self.objective,
                method=self.method,
                options=self.minlp_options,
                fine_tuning=self.fine_tuning,
                reuse=self.reuse,
            )
        return solve_allocation_resilient(
            self.case,
            fits,
            objective=self.objective,
            method=self.method,
            options=self.minlp_options,
            fine_tuning=self.fine_tuning,
            events=self.events,
            deadline=deadline if deadline is not None else self.deadline_seconds,
            reuse=self.reuse,
        )

    def execute(self, outcome: SolveOutcome) -> ComponentTimings:
        """Step 4: coupled run at the chosen allocation."""
        allocation = {c: outcome.allocation[c] for c in OPTIMIZED_COMPONENTS}
        if not self.resilient:
            return self.simulator.run_coupled(allocation)
        policy = self.retry_policy
        for attempt in range(1, policy.max_attempts + 1):
            try:
                return self.simulator.run_coupled(allocation)
            except InjectedFaultError as exc:
                if attempt >= policy.max_attempts:
                    raise
                delay = policy.delay_for(attempt, self.case.seed, "run")
                self.events.record(
                    EventKind.EXECUTE_RETRY,
                    stage="execute",
                    detail=(
                        f"coupled run failed ({exc}); "
                        f"resubmitting after {delay:.3f}s"
                    ),
                    attempt=attempt,
                    delay=round(delay, 6),
                )
                policy.pause(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    def run(self, data: BenchmarkData | None = None, fits: dict | None = None) -> HSLBRunResult:
        """All four steps.

        ``data`` (pre-gathered benchmarks) skips step 1; ``fits``
        (pre-fitted or spec-pinned curves) skips steps 1 *and* 2.  A
        :class:`~repro.spec.TuneSpec` carrying curves or benchmark samples
        lands here, which is what makes spec replays deterministic: nothing
        is re-measured.
        """
        deadline = None
        if self.resilient:
            # Fresh log + fault history per run: two runs of the same
            # pipeline replay the exact same chaos and events.
            self.events = EventLog()
            if isinstance(self.simulator, FaultySimulator):
                self.simulator.reset()
            deadline = Deadline.coerce(self.deadline_seconds)
        if fits is None:
            if data is None:
                data = self.gather(deadline=deadline)
            fits = self.fit(data)
        elif data is None:
            data = BenchmarkData()
        outcome = self.solve(fits, deadline=deadline)
        actual = self.execute(outcome)
        return HSLBRunResult(
            case=self.case,
            benchmarks=data,
            fits=fits,
            solve=outcome,
            actual=actual,
            events=self.events,
        )

    # -- description-driven construction (see docs/specs.md) --------------------

    def to_spec(self, curves: dict | None = None, benchmarks=None):
        """This pipeline's configuration as a :class:`~repro.spec.TuneSpec`.

        ``curves`` (``{ComponentId: PerfModel | FitResult}``) pins fitted
        curves into the spec so replays skip gather+fit; ``benchmarks`` (a
        :class:`BenchmarkData`) pins raw samples so replays skip gather but
        refit.  The *executor* and its worker count (serial, thread,
        supervised) are deliberately not part of the spec — they are
        deployment, not problem description, and results are bit-identical
        across executors by the parallel layer's contract.
        """
        from repro.spec import (
            BudgetSpec,
            CaseSpec,
            TuneSpec,
            curves_to_dict,
            fault_profile_to_dict,
            fit_options_to_dict,
        )
        from repro.minlp.options import minlp_options_to_dict

        deadline = self.deadline_seconds
        if isinstance(deadline, Deadline):
            deadline = deadline.seconds
        max_retries = None
        if self.resilient and self.retry_policy is not None:
            max_retries = self.retry_policy.max_attempts
        budget = None
        if deadline is not None or max_retries is not None:
            budget = BudgetSpec(deadline=deadline, max_retries=max_retries)
        options = self.minlp_options
        bench_payload = None
        if benchmarks is not None:
            bench_payload = {
                comp.value: {
                    "nodes": [int(v) for v in benchmarks.nodes(comp)],
                    "seconds": [float(v) for v in benchmarks.times(comp)],
                }
                for comp in benchmarks.components()
            }
        return TuneSpec(
            case=CaseSpec.from_case(self.case),
            points=self.points,
            objective=self.objective.value,
            method=self.method,
            fine_tuning=self.fine_tuning,
            reuse=self.reuse is not None,
            curves=None if curves is None else curves_to_dict(curves),
            benchmarks=bench_payload,
            options=None if options is None else minlp_options_to_dict(options),
            fit_options=(
                None if self.fit_options is None
                else fit_options_to_dict(self.fit_options)
            ),
            budget=budget,
            fault_profile=(
                None if self.fault_profile is None
                else fault_profile_to_dict(self.fault_profile)
            ),
        )

    @classmethod
    def from_spec(cls, spec, executor=None, workers=None, reuse=None) -> "HSLBPipeline":
        """Rebuild the pipeline a :class:`~repro.spec.TuneSpec` describes.

        ``executor``/``workers`` attach runtime resources (not part of the
        spec); ``reuse`` overrides the spec's boolean with a live
        :class:`~repro.reuse.SolveFamily` to share warm state across specs.
        """
        from repro.spec import (
            TuneSpec,
            fault_profile_from_dict,
            fit_options_from_dict,
        )
        from repro.minlp.options import minlp_options_from_dict

        if isinstance(spec, dict):
            spec = TuneSpec.from_dict(spec)
        budget = spec.budget
        retry_policy = None
        if budget is not None and budget.max_retries is not None:
            retry_policy = RetryPolicy(max_attempts=budget.max_retries)
        if reuse is None:
            reuse = True if spec.reuse else None
        return cls(
            spec.case.to_case(),
            points=spec.points,
            objective=ObjectiveKind(spec.objective),
            method=spec.method,
            fit_options=(
                None if spec.fit_options is None
                else fit_options_from_dict(spec.fit_options)
            ),
            minlp_options=(
                None if spec.options is None
                else minlp_options_from_dict(spec.options)
            ),
            fine_tuning=spec.fine_tuning,
            fault_profile=(
                None if spec.fault_profile is None
                else fault_profile_from_dict(spec.fault_profile)
            ),
            retry_policy=retry_policy,
            deadline=None if budget is None else budget.deadline,
            executor=executor,
            workers=workers,
            reuse=reuse,
        )


def pipeline_from_spec(spec, **kwargs) -> HSLBPipeline:
    """Registry builder for ``kind="tune"`` (see :mod:`repro.spec.registry`)."""
    return HSLBPipeline.from_spec(spec, **kwargs)
