"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch the whole family with a single
``except`` clause while still distinguishing solver-level failures
(infeasible models, iteration limits) from user-level modeling mistakes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ModelError(ReproError):
    """A model is malformed: unknown variables, bad bounds, empty SOS sets."""


class ExpressionError(ReproError):
    """An expression tree is used in an unsupported way (e.g. non-smooth
    operator where a derivative is required)."""


class SolverError(ReproError):
    """Base class for numerical solver failures."""


class InfeasibleError(SolverError):
    """The problem instance has no feasible point.

    Carries an optional certificate/explanation in ``args[0]``.
    """


class UnboundedError(SolverError):
    """The problem instance has an unbounded optimum."""


class IterationLimitError(SolverError):
    """A solver hit its iteration budget before converging."""


class DeadlineExceededError(SolverError):
    """A wall-clock :class:`~repro.resilience.Deadline` expired mid-stage."""


class FittingError(ReproError):
    """Least-squares fitting failed (too few points, degenerate data...)."""


class SimulationError(ReproError):
    """The CESM simulator was asked to run an invalid configuration."""


class InjectedFaultError(SimulationError):
    """A fault deliberately injected by a :class:`~repro.resilience.FaultySimulator`.

    Modeled after the failure modes of real benchmark jobs on Intrepid:
    crashes and queue timeouts abort the run (raised), while corrupted or
    outlying timings come back as bad *values* and must be caught by the
    gather stage's validation and outlier rejection.
    """


class InjectedCrashError(InjectedFaultError):
    """The simulated benchmark job crashed before producing a timing."""


class InjectedTimeoutError(InjectedFaultError):
    """The simulated benchmark job hit its queue time limit.

    ``timeout_seconds`` carries the simulated wall-clock that was lost.
    """

    def __init__(self, message: str, timeout_seconds: float = 0.0):
        super().__init__(message)
        self.timeout_seconds = float(timeout_seconds)


class WorkerLostError(ReproError):
    """A parallel worker process was lost while it held a task.

    Raised (via the ordered merge) when supervision exhausts its retry
    budget for the task, or by the thread backend when its pool breaks.
    ``attempts`` counts how many times the task was dispatched.
    """

    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = int(attempts)


class WorkerCrashError(WorkerLostError):
    """A worker process died abnormally (signal or nonzero exit)."""


class WorkerHangError(WorkerLostError):
    """A worker missed its task deadline or stopped heartbeating."""


class JournalError(ReproError):
    """A run journal is corrupt beyond the recoverable torn tail."""


class GatherError(ReproError):
    """Benchmark gathering degraded past the point of a usable fit.

    ``partial`` carries whatever :class:`~repro.hslb.gather.BenchmarkData`
    survived, so callers can inspect (or persist) the salvaged points.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class ConfigurationError(ReproError):
    """An experiment or pipeline was configured inconsistently."""


class ServiceError(ReproError):
    """Base class for tuning-service failures (see :mod:`repro.service`)."""


class ProtocolError(ServiceError):
    """A service message is malformed: bad JSON, missing fields, unknown kind."""


class AdmissionError(ServiceError):
    """A request was refused admission (queue full or service shutting down)."""
