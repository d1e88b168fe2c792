"""Positivity-constrained least squares for the performance model.

Solves (Table II, line 10)

    min_{a,b,c,d >= 0}  sum_i ( y_i - a/n_i - b*n_i^c - d )^2

with a projected Levenberg–Marquardt iteration: the usual damped normal
equations step, projected onto the box, with the damping parameter adapted
on acceptance/rejection.  Because the problem is nonconvex in ``c`` the
solver restarts from several heuristic + randomized points and keeps the
best local solution — mirroring the paper's observation that different
starts give different parameters but allocations of similar quality.  The
starts run in lockstep, stacked into one set of numpy calls per damping
trial, yet each start's result is bit-identical to fitting it alone.

By default ``c`` is constrained to [1, 3]: the fitted curve is then convex,
which the branch-and-bound layer requires for global optimality.  Pass
``FitOptions(c_bounds=(0.0, 3.0))`` to reproduce the unconstrained-exponent
variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import FittingError
from repro.fitting.perfmodel import PerfModel
from repro.fitting.quality import FitDiagnostics, fit_diagnostics
from repro.util.rng import as_rng


@dataclass
class FitOptions:
    """Tuning knobs for :func:`fit_perf_model`.

    ``loss`` selects the residual weighting: ``"absolute"`` is the paper's
    Table II objective (plain squared seconds — large-time points dominate);
    ``"relative"`` divides each residual by the observation, appropriate when
    the measurement noise is multiplicative (which run-to-run wall-clock
    noise is) and when the sweep spans orders of magnitude.
    """

    c_bounds: tuple = (1.0, 3.0)
    n_starts: int = 8               # heuristic + randomized restarts
    max_iterations: int = 200       # LM iterations per start
    gtol: float = 1e-10             # projected-gradient norm tolerance
    lambda0: float = 1e-3           # initial LM damping
    seed: int | None = 0
    loss: str = "absolute"          # "absolute" (paper) or "relative"


@dataclass
class FitResult:
    """Best fit plus diagnostics."""

    model: PerfModel
    diagnostics: FitDiagnostics
    sse: float
    starts_tried: int
    iterations: int
    local_optima: list = field(default_factory=list)  # (params, sse) per start

    @property
    def r_squared(self) -> float:
        return self.diagnostics.r_squared


def fit_perf_model(
    nodes, times, options: FitOptions | None = None
) -> FitResult:
    """Fit T(n) = a/n + b n^c + d to observed ``(nodes, times)``.

    Needs at least 3 distinct node counts (the paper recommends > 4); with 3
    the nonlinear term is pinned to b = 0.
    """
    opt = options or FitOptions()
    n = np.asarray(nodes, dtype=float)
    y = np.asarray(times, dtype=float)
    if n.shape != y.shape or n.ndim != 1:
        raise FittingError("nodes and times must be matching 1-D arrays")
    if n.size < 3:
        raise FittingError(f"need at least 3 data points, got {n.size}")
    distinct = np.unique(n).size
    if distinct < 3:
        raise FittingError("need at least 3 distinct node counts")
    if np.any(n <= 0):
        raise FittingError("node counts must be positive")
    if np.any(y < 0) or not np.all(np.isfinite(y)) or not np.all(np.isfinite(n)):
        raise FittingError("times must be finite and nonnegative")
    if opt.loss not in ("absolute", "relative"):
        raise FittingError(f"unknown loss {opt.loss!r}")
    weights = None
    if opt.loss == "relative":
        weights = 1.0 / np.maximum(y, 1e-9 * max(1.0, float(y.max(initial=1.0))))

    rng = as_rng(opt.seed)
    lo = np.array([0.0, 0.0, opt.c_bounds[0], 0.0])
    hi = np.array([np.inf, np.inf, opt.c_bounds[1], np.inf])
    # With only 3 distinct node counts (however many repeats), freeze the
    # nonlinear term: four parameters cannot be fitted to three abscissae.
    fit_b = distinct > 3

    fitted = _lockstep_lm(n, y, _starting_points(n, y, opt, rng), lo, hi, fit_b, opt, weights)
    best_theta, best_sse = None, np.inf
    for theta, sse, _ in fitted:
        if sse < best_sse:
            best_theta, best_sse = theta, sse
    locals_found = [(tuple(theta), sse) for theta, sse, _ in fitted]
    total_iters = sum(iters for _, _, iters in fitted)

    model = PerfModel(*[float(v) for v in best_theta])
    predicted = model(n)
    return FitResult(
        model=model,
        diagnostics=fit_diagnostics(y, predicted),
        sse=float(best_sse),
        starts_tried=len(locals_found),
        iterations=total_iters,
        local_optima=locals_found,
    )


# ---------------------------------------------------------------------------


def _starting_points(n, y, opt: FitOptions, rng):
    """Heuristic start plus randomized perturbations."""
    n_min, n_max = float(n.min()), float(n.max())
    y_at_min = float(y[np.argmin(n)])
    y_at_max = float(y[np.argmax(n)])
    d0 = max(0.5 * y_at_max, 1e-6)
    a0 = max((y_at_min - d0) * n_min, 1e-6)
    c_lo, c_hi = opt.c_bounds
    c0 = float(np.clip(1.0, c_lo, c_hi))
    starts = [np.array([a0, 0.0, c0, d0]),
              np.array([a0, 1e-6 * y_at_max, c0, 0.5 * d0])]
    while len(starts) < opt.n_starts:
        scale_a = float(rng.uniform(0.2, 5.0))
        scale_d = float(rng.uniform(0.0, 2.0))
        b0 = float(rng.uniform(0.0, y_at_max / max(n_max, 1.0)))
        c_rand = float(rng.uniform(c_lo, c_hi))
        starts.append(np.array([a0 * scale_a, b0, c_rand, d0 * scale_d]))
    return starts


def _residuals(n, logn, y, theta, fit_b, weights=None):
    """Residuals ``(k, m)`` and Jacobians ``(k, m, 4)``, one row per start."""
    a, b, c, d = (theta[:, j, None] for j in range(4))
    nc = np.power(n, c)
    r = a / n + b * nc + d - y
    J = np.empty(r.shape + (4,))
    J[..., 0] = 1.0 / n
    J[..., 1] = nc
    J[..., 2] = b * logn * nc
    J[..., 3] = 1.0
    if not fit_b:
        J[..., 1] = 0.0
        J[..., 2] = 0.0
    if weights is not None:
        r = r * weights
        J = J * weights[:, None]
    return r, J


def _row_sse(r):
    """``r_i @ r_i`` per row; numpy runs each batch through the same BLAS dot
    as the 1-D product, so the bits match a per-start ``r @ r``."""
    return (r[:, None, :] @ r[:, :, None])[:, 0, 0]


def _damped_steps(A, rhs):
    """``solve(A_i, rhs_i)`` per row; a NaN row where ``A_i`` is singular.

    numpy raises for the whole stack if any member is singular, so that
    round's members are then solved one at a time.
    """
    try:
        return np.linalg.solve(A, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        delta = np.full(rhs.shape, np.nan)
        for i in range(len(A)):
            try:
                delta[i] = np.linalg.solve(A[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
        return delta


def _lockstep_lm(n, y, starts, lo, hi, fit_b, opt: FitOptions, weights=None):
    """Projected LM from every start at once: ``(theta, sse, iterations)`` each.

    All starts advance together, one damping trial per round, so each round
    makes one stacked residual/Jacobian evaluation, one stacked ``J^T r`` and
    ``J^T J`` and one stacked solve.  A start keeps its own iterate, damping
    ``lam``, iteration count and 30-trial damping budget, and leaves the batch
    when it is stationary, when no damping level improves it, or after
    ``max_iterations``.  Stacking changes no start's arithmetic: each start's
    result is bit-identical to running it alone.
    """
    logn = np.log(n)
    theta0 = np.array(starts)
    theta = np.clip(theta0, lo, np.where(np.isfinite(hi), hi, theta0))
    if not fit_b:
        theta[:, 1] = 0.0
    r, J = _residuals(n, logn, y, theta, fit_b, weights)
    sse = _row_sse(r)
    k = len(theta)
    fitted = [None] * k
    # One row per running start; ``ids`` maps the rows back to ``starts``.
    ids = np.arange(k)
    lam = np.full(k, opt.lambda0, dtype=float)
    iters = np.zeros(k, dtype=int)
    trials = np.zeros(k, dtype=int)   # damping trials of the current iteration
    at_top = np.ones(k, dtype=bool)   # about to begin an LM iteration
    while True:
        # J^T r and J^T J are recomputed every round; they only change for
        # the starts whose last step was accepted.
        g = (J.transpose(0, 2, 1) @ r[:, :, None])[:, :, 0]
        stop = at_top & (iters >= opt.max_iterations)
        begin = at_top & ~stop
        iters += begin
        # Projected-gradient stationarity test on the box.
        pg = np.where((theta <= lo) & (g > 0), 0.0, g)
        pg = np.where(np.isfinite(hi) & (theta >= hi) & (pg < 0), 0.0, pg)
        stop |= begin & (np.abs(pg).max(axis=1) <= opt.gtol * (1.0 + sse))
        trials[begin] = 0
        stop |= trials >= 30   # no damping level improves: local optimum
        if stop.any():
            for i in np.flatnonzero(stop):
                fitted[ids[i]] = (theta[i], float(sse[i]), int(iters[i]))
            running = ~stop
            if not running.any():
                return fitted
            ids, theta, r, J, sse, g, lam, iters, trials = (
                v[running] for v in (ids, theta, r, J, sse, g, lam, iters, trials))
        # One damping trial for every running start.  A singular system yields
        # a NaN step, which no SSE comparison accepts, so that start loses the
        # trial exactly as a rejected step does.
        H = J.transpose(0, 2, 1) @ J
        delta = _damped_steps(H + lam[:, None, None] * np.eye(4), -g)
        cand = np.clip(theta + delta, lo, hi)
        if not fit_b:
            cand[:, 1] = 0.0
        r_new, J_new = _residuals(n, logn, y, cand, fit_b, weights)
        sse_new = _row_sse(r_new)
        at_top = sse_new < sse
        theta = np.where(at_top[:, None], cand, theta)
        r = np.where(at_top[:, None], r_new, r)
        J = np.where(at_top[:, None, None], J_new, J)
        sse = np.where(at_top, sse_new, sse)
        lam = np.where(at_top, np.maximum(lam * 0.3, 1e-12), lam * 10.0)
        trials += ~at_top
