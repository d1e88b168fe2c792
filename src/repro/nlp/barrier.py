"""Log-barrier interior-point solver (Boyd & Vandenberghe, ch. 11).

Outer loop: minimize ``t*f(x) + phi(x)`` for increasing ``t``, where ``phi``
is the log barrier of the inequality constraints and the finite box bounds.
Inner loop: infeasible-start Newton on the KKT residual, which keeps linear
equality constraints exactly (their residual contracts with every full
step).  Backtracking line search maintains strict interiority.

A built-in phase 1 minimizes the max inequality violation through an
auxiliary slack variable, so callers do not need to hand in a strictly
feasible point — although the MINLP layer usually can, and then phase 1 is
skipped.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from repro.expr.node import VarRef
from repro.nlp.problem import NLPProblem
from repro.nlp.result import NLPResult, NLPStatus

__all__ = ["BarrierOptions", "solve_nlp"]


@dataclass
class BarrierOptions:
    """Tuning knobs for :func:`solve_nlp`."""

    tol: float = 1e-6            # target duality-gap proxy (m / t)
    t0: float = 1.0              # initial barrier weight
    mu: float = 12.0             # barrier weight growth factor
    max_newton: int = 3000       # total Newton iterations across stages
    max_newton_per_center: int = 250  # per centering stage
    stall_window: int = 12       # centering iterations without residual progress
    inner_tol: float = 1e-9      # Newton decrement threshold (lambda^2 / 2)
    armijo: float = 0.25
    backtrack: float = 0.5
    regularization: float = 1e-10


def solve_nlp(
    problem: NLPProblem,
    x0: np.ndarray | None = None,
    options: BarrierOptions | None = None,
) -> NLPResult:
    """Solve ``problem``; returns a result object (statuses, never raises
    for infeasibility)."""
    opt = options or BarrierOptions()
    solver = _Barrier(problem, opt)

    x = None if x0 is None else np.asarray(x0, dtype=float).copy()
    if x is not None and not solver.strictly_feasible(x):
        x = None
    if x is None:
        x, phase1 = solver.phase1()
        if x is None:
            return phase1  # infeasible (or phase-1 failure) result
    # Starting points routinely sit pressed into a corner of the feasible
    # set (phase 1 minimizes the violation slack; warm starts are clipped
    # projections), where the main barrier's Newton iteration crawls along
    # curved constraint walls.  Pull the point toward the analytic center
    # first (minimize the barrier with a vanishing objective weight); this
    # is best effort — a stall here is fine, and it costs almost nothing
    # when the point is already central.
    x, _, _ = solver._center(x, t=1e-8, stop_idx=None)
    return solver.minimize(x)


class _Barrier:
    def __init__(self, problem: NLPProblem, opt: BarrierOptions):
        self.p = problem
        self.opt = opt
        self.finite_lb = np.isfinite(problem.lb)
        self.finite_ub = np.isfinite(problem.ub)
        # Evaluation plan of the Newton loop, built once per problem.  Per
        # smooth function (the objective, then each inequality row): its
        # compiled value/gradient/Hessian cores, the positions of its
        # support in x, the dense Hessian targets of its entries and whether
        # it is affine (zero Hessian).  Then the finite bounds as
        # (position, bound) pairs.
        n = problem.n
        kernels = problem.kernels()
        self._f_plan, *self._row_plans = [
            (k.core.value, k.core.grad_fn, k.core.hess_fn, k.grad_positions,
             [(a * n + b, b * n + a) for a, b in k.hess_positions],
             k.linear is not None)
            for k in kernels
        ]
        self._lower = [(int(j), float(problem.lb[j])) for j in np.flatnonzero(self.finite_lb)]
        self._upper = [(int(j), float(problem.ub[j])) for j in np.flatnonzero(self.finite_ub)]
        # Evaluation counts of one _grad_hess call: every gradient, and
        # the Hessian of every function that is not affine.
        self._counters = problem.kernel_cache.counters
        self._grad_evals = len(kernels)
        self._hess_evals = sum(k.linear is None for k in kernels)
        self._eye = np.eye(n)
        self.m_barrier = len(problem.inequalities) + int(self.finite_lb.sum()) + int(
            self.finite_ub.sum()
        )
        self.newton_iters = 0

    # -- feasibility -----------------------------------------------------------

    def strictly_feasible(self, x: np.ndarray, margin: float = 1e-9) -> bool:
        """Strict interiority with a small margin — a point microscopically
        inside a constraint is useless to the barrier (its log term explodes),
        so such starts are routed through phase 1 instead.  So are starts
        where a row is undefined (numpy's nan)."""
        lo, hi = self.p.lb, self.p.ub
        fl, fu = self.finite_lb, self.finite_ub
        if np.any(x[fl] <= lo[fl] + margin * (1.0 + np.abs(lo[fl]))):
            return False
        if np.any(x[fu] >= hi[fu] - margin * (1.0 + np.abs(hi[fu]))):
            return False
        if len(self.p.inequalities) and not (self.p.g_values(x) < -margin).all():
            return False
        return True

    def box_interior_point(self) -> np.ndarray:
        """A point strictly inside the box, then projected onto A_eq x = b."""
        lo, hi = self.p.lb, self.p.ub
        x = np.zeros(self.p.n)
        both = self.finite_lb & self.finite_ub
        x[both] = 0.5 * (lo[both] + hi[both])
        only_lo = self.finite_lb & ~self.finite_ub
        x[only_lo] = lo[only_lo] + 1.0
        only_hi = ~self.finite_lb & self.finite_ub
        x[only_hi] = hi[only_hi] - 1.0
        # Project onto the equality subspace, then pull back strictly inside
        # the box if the projection grazed a face (alternate a few rounds).
        for _ in range(20):
            if len(self.p.eq_rows):
                A, b = self.p.A_eq, self.p.b_eq
                resid = A @ x - b
                if np.abs(resid).max(initial=0.0) > 1e-12:
                    correction, *_ = np.linalg.lstsq(A, resid, rcond=None)
                    x = x - correction
            inside = True
            for j in range(self.p.n):
                width = min(
                    1.0,
                    (hi[j] - lo[j]) * 0.25 if both[j] else 1.0,
                )
                if self.finite_lb[j] and x[j] < lo[j] + 1e-9:
                    x[j] = lo[j] + width
                    inside = False
                if self.finite_ub[j] and x[j] > hi[j] - 1e-9:
                    x[j] = hi[j] - width
                    inside = False
            if inside:
                break
        return x

    # -- phase 1 -----------------------------------------------------------------

    def phase1(self):
        """Find a strictly feasible x, or report infeasibility.

        Minimizes s subject to g_i(x) <= s by running the main barrier
        machinery on an augmented problem; stops early once s < 0.
        """
        x_start = self.box_interior_point()
        if self.strictly_feasible(x_start):
            return x_start, None
        if not self.p.inequalities:
            # Only box/equalities: the projected interior point is as good as
            # it gets; failure means the equalities clash with the box.
            return None, NLPResult(
                NLPStatus.INFEASIBLE,
                message="equality rows incompatible with variable bounds",
                max_violation=self.p.max_violation(x_start),
            )

        g0 = self.p.g_values(x_start)
        if np.isnan(g0).any():
            # A row undefined at the box centre gives the slack no finite
            # start; iterating from there only ends at a point that is not
            # feasible, so say so at once.
            return None, NLPResult(
                NLPStatus.NUMERICAL_ERROR,
                message="phase 1 start: a row is undefined at the box centre",
                newton_iterations=self.newton_iters,
                max_violation=math.inf,
            )

        s_name = "_phase1_slack"
        while s_name in self.p.index:
            s_name += "_"
        aug = NLPProblem(
            names=self.p.names + [s_name],
            objective=VarRef(s_name),
            inequalities=[
                (label, body - VarRef(s_name)) for label, body in self.p.inequalities
            ],
            lb=np.concatenate([self.p.lb, [-np.inf]]),
            ub=np.concatenate([self.p.ub, [np.inf]]),
            eq_rows=list(self.p.eq_rows),
            kernel_cache=self.p.kernel_cache,
            evaluator=self.p.evaluator,
        )
        s0 = float(g0.max(initial=0.0)) + 1.0
        z0 = np.concatenate([x_start, [s0]])

        # Stop only once the point is *comfortably* interior: a slack that
        # has merely crossed zero leaves the main barrier starting on a
        # constraint boundary, where Newton crawls.
        stop_below = -(0.05 * abs(s0) + 1e-6)
        sub = _Barrier(aug, self.opt)
        result = sub.minimize(z0, stop_when_negative=s_name, stop_below=stop_below)
        self.newton_iters += sub.newton_iters
        if result.x is None:
            return None, NLPResult(
                NLPStatus.NUMERICAL_ERROR,
                message=f"phase 1 failed: {result.message}",
                newton_iterations=self.newton_iters,
            )
        x, s = result.x[:-1], float(result.x[-1])
        if s >= 0.0:
            return None, NLPResult(
                NLPStatus.INFEASIBLE,
                message=f"phase 1 optimum {s:.3e} >= 0",
                newton_iterations=self.newton_iters,
                max_violation=self.p.max_violation(x),
            )
        return x, None

    # -- main barrier loop ---------------------------------------------------------

    def minimize(
        self,
        x: np.ndarray,
        stop_when_negative: str | None = None,
        stop_below: float = -1e-6,
    ) -> NLPResult:
        opt = self.opt
        t = opt.t0
        stop_idx = (
            self.p.index[stop_when_negative] if stop_when_negative is not None else None
        )
        status = NLPStatus.OPTIMAL
        message = ""
        failed_stages = 0
        # Last cleanly-centered stage: its objective minus its duality-gap
        # proxy is a *certified* lower bound even if later stages stall.
        clean_f, clean_gap, clean_x = None, math.inf, None
        while True:
            x, ok, msg = self._center(x, t, stop_idx, stop_below)
            if stop_idx is not None and x[stop_idx] < stop_below:
                break  # phase-1 early exit: comfortably interior point found
            if not ok:
                # Conditioning at large t can stall centering even though the
                # iterate is already excellent.  If a clean stage certified a
                # small gap, finish there; otherwise escape by raising t a
                # couple of times before giving up.
                failed_stages += 1
                tight_enough = (
                    clean_f is not None
                    and clean_gap <= max(opt.tol * 100.0, 1e-5) * (1.0 + abs(clean_f))
                )
                if tight_enough:
                    # The certificate belongs to the cleanly-centered
                    # iterate; a stalled stage (singular KKT, lstsq step)
                    # may have drifted off the equality manifold.
                    if self.p.max_violation(x) > self.p.max_violation(clean_x) + 1e-9:
                        x = clean_x
                    message = f"finished on stall with certified gap {clean_gap:.2e}"
                    break
                if failed_stages >= 3 or self.newton_iters >= opt.max_newton:
                    status, message = NLPStatus.ITERATION_LIMIT, msg
                    break
            else:
                failed_stages = 0
                clean_f = self.p.f(x)
                clean_gap = self.m_barrier / t if t > 0 else 0.0
                clean_x = x.copy()
                if self.m_barrier == 0 or self.m_barrier / t < opt.tol:
                    break
            t *= opt.mu
            if self.newton_iters >= opt.max_newton:
                status, message = NLPStatus.ITERATION_LIMIT, "Newton budget exhausted"
                break

        f_final = self.p.f(x)
        if clean_f is not None and status is NLPStatus.OPTIMAL:
            # Honest gap: f* >= clean_f - clean_gap, so the distance from the
            # reported objective to that certificate bounds suboptimality.
            mu_report = max(self.m_barrier / t if t > 0 else 0.0,
                            f_final - clean_f + clean_gap)
        else:
            mu_report = self.m_barrier / t if t > 0 else float("nan")
        return NLPResult(
            status=status,
            x=x,
            objective=f_final,
            newton_iterations=self.newton_iters,
            mu_final=mu_report,
            max_violation=self.p.max_violation(x),
            message=message,
        )

    # -- Newton centering ------------------------------------------------------------

    # The three per-step evaluations below run on Python floats: on these
    # 1-7 variable problems numpy's per-call overhead costs more than the
    # arithmetic.  Each performs exactly the float operations, in the same
    # order, of the array code it replaces (docs/solvers.md lists the
    # facts this rests on), so every result is bit-identical to it.

    def _barrier_value(self, x: np.ndarray, t: float) -> float:
        xs = x.tolist()
        # Box interiority first: expressions may be undefined (complex
        # fractional powers, division by zero) outside the box.
        dlo = [xs[j] - lo for j, lo in self._lower]
        dhi = [hi - xs[j] for j, hi in self._upper]
        for d in dlo + dhi:
            if d <= 0.0:
                return math.inf
        # Python floats raise (ZeroDivisionError, OverflowError) or go
        # complex where numpy returns inf or nan: all of them leave the
        # merit infinite, as a non-finite row value did.
        try:
            neg_g = []
            for value, _, _, pos, _, _ in self._row_plans:
                g = value([xs[j] for j in pos])
                if not -math.inf < g < 0.0:  # TypeError when complex
                    return math.inf
                neg_g.append(-g)
            value, _, _, pos, _, _ = self._f_plan
            f = float(value([xs[j] for j in pos]))  # TypeError when complex
        except (TypeError, ArithmeticError):
            return math.inf
        # One np.log over all terms (math.log can differ from it), reduced
        # per group exactly as the three separate arrays were: ndarray.sum
        # is a left fold only up to 7 terms.
        logs = np.log(neg_g + dlo + dhi)
        m, k = len(neg_g), len(neg_g) + len(dlo)
        val = t * f
        if m:
            val -= float(logs[:m].sum())
        val -= float(logs[m:k].sum()) + float(logs[k:].sum())
        return val

    def _grad_hess(self, x: np.ndarray, t: float):
        """Gradient and Hessian of the merit at ``x``.

        Runs at a stage's starting point and at accepted line-search
        trials: points whose merit is finite, where every row value is
        negative and every box distance positive.  Two cases still give a
        derivative Python floats cannot represent where numpy has inf or
        nan: an entry that overflows or a squared row value that underflows
        to zero (an ``ArithmeticError``), and a complex entry, which only a
        row undefined at ``x`` gives (phase 1 answers NUMERICAL_ERROR rather
        than start at such a point, so this is a guard).  Both return an
        all-nan step, which every line-search trial rejects.
        """
        self._counters.incr("kernel_grad_evals", self._grad_evals)
        if self._hess_evals:
            self._counters.incr("kernel_hess_evals", self._hess_evals)
        n = self.p.n
        try:
            grad, H = self._assemble(x.tolist(), t, n)
        except ArithmeticError:
            grad = H = None
        if grad is None or grad.dtype.kind == "c" or H.dtype.kind == "c":
            return np.full(n, np.nan), np.full((n, n), np.nan)
        return grad, H

    def _assemble(self, xs: list, t: float, n: int):
        grad = [0.0] * n
        H = [0.0] * (n * n)
        _, grad_fn, hess_fn, pos, hess_at, affine = self._f_plan
        support = [xs[j] for j in pos]
        # `0.0 + v` is the dense accumulation the entries used to go
        # through: it turns a -0.0 entry into +0.0.
        for j, v in zip(pos, grad_fn(support)):
            grad[j] = t * (0.0 + v)
        if not affine:
            for (ab, ba), entry in zip(hess_at, hess_fn(support)):
                v = entry * t
                if v == 0.0:
                    continue
                H[ab] += v
                if ab != ba:
                    H[ba] += v

        # -log(-g): gradient = gg / (-g); Hessian = gg ggT / g^2 + Hg / (-g).
        # Terms outside a row's support would add +-0.0, which changes only
        # a -0.0 entry: never a Hessian entry (they start at +0.0), and a
        # gradient entry only if the objective's t * v underflowed to it.
        # So they are skipped.
        for value, grad_fn, hess_fn, pos, hess_at, affine in self._row_plans:
            support = [xs[j] for j in pos]
            gval = value(support)
            gg = [0.0 + v for v in grad_fn(support)]
            neg = -gval
            for j, gj in zip(pos, gg):
                grad[j] += gj / neg
            gsq = gval * gval
            for i, gi in zip(pos, gg):
                row = i * n
                for j, gj in zip(pos, gg):
                    H[row + j] += gi * gj / gsq
            if not affine:
                scale = 1.0 / neg
                for (ab, ba), entry in zip(hess_at, hess_fn(support)):
                    v = entry * scale
                    if v == 0.0:
                        continue
                    H[ab] += v
                    if ab != ba:
                        H[ba] += v

        # Box terms; a square is `d * d`, which is what numpy's `** 2` does.
        diag = [0.0] * n
        for j, lo in self._lower:
            d = xs[j] - lo
            grad[j] -= 1.0 / d
            diag[j] += 1.0 / (d * d)
        for j, hi in self._upper:
            d = hi - xs[j]
            grad[j] += 1.0 / d
            diag[j] += 1.0 / (d * d)
        reg = self.opt.regularization
        for j in range(n):
            H[j * n + j] += diag[j] + reg
        return np.array(grad), np.array(H).reshape(n, n)

    def _newton_direction(self, grad: np.ndarray, H: np.ndarray):
        """A guaranteed descent direction: Cholesky with escalating ridge.

        An ill-conditioned barrier Hessian (linear objective, few active
        constraints) can make a naive ``solve`` return a non-descent or
        wildly-scaled direction, which then *masquerades as convergence*
        through a tiny Newton decrement.  Escalating the ridge until the
        factorization succeeds and the direction demonstrably descends
        interpolates between Newton and scaled gradient descent.
        """
        n = grad.shape[0]
        # abs: a negative-trace (indefinite) Hessian must not flip the
        # ridge scale negative — that would poison the last-resort
        # preconditioner below into an ascent direction.
        scale = abs(float(H.trace())) / n + 1.0
        ridge = self.opt.regularization * scale
        for _ in range(24):
            try:
                Lf = np.linalg.cholesky(H + ridge * self._eye)
            except np.linalg.LinAlgError:
                ridge = max(ridge * 100.0, 1e-12 * scale)
                continue
            dx = np.linalg.solve(Lf.T, np.linalg.solve(Lf, -grad))
            dec = float(-grad @ dx)
            if np.isfinite(dx).all() and dec > 0.0:
                return dx, dec
            ridge = max(ridge * 100.0, 1e-12 * scale)
        # Last resort: diagonally preconditioned steepest descent.
        dx = -grad / (np.abs(np.diag(H)) + scale)
        return dx, float(-grad @ dx)

    def _max_box_step(self, x: np.ndarray, dx: np.ndarray) -> float:
        """Largest step keeping ``x + a*dx`` inside the (finite) box.

        ``dx`` is real (see ``_grad_hess``), and at a point whose merit is
        finite every distance to the box is a finite float, so the running
        minimum is exact in any order.
        """
        xs, ds = x.tolist(), dx.tolist()
        step = math.inf
        for j, hi in self._upper:
            d = ds[j]
            if d > 0.0:
                s = (hi - xs[j]) / d
                if s < step:
                    step = s
        for j, lo in self._lower:
            d = ds[j]
            if d < 0.0:
                s = (lo - xs[j]) / d
                if s < step:
                    step = s
        return max(step, 1e-16)

    def _center(self, x: np.ndarray, t: float, stop_idx, stop_below: float = -1e-6):
        """Newton minimization of the barrier objective at weight ``t``.

        Returns ``(x, converged, message)``; ``converged=False`` means the
        stage ran out of budget or stalled — callers must not treat the
        value as a certified stage optimum.

        The merit is evaluated once per line-search trial and nowhere else:
        the accepted trial's value is the next iterate's ``merit_now`` (the
        same ``_barrier_value(x, t)`` call, so the same bits), and only the
        stage's starting point is evaluated on its own.
        """
        opt = self.opt
        p = self.p
        m_eq = len(p.eq_rows)
        nu = np.zeros(m_eq)
        stage_iters = 0
        best_res = np.inf
        best_merit = np.inf
        merit_now = None
        since_progress = 0
        while self.newton_iters < opt.max_newton:
            if stage_iters >= opt.max_newton_per_center:
                return x, False, "per-stage Newton budget exhausted"
            grad, H = self._grad_hess(x, t)
            if m_eq:
                r_dual = grad + p.A_eq.T @ nu
                r_prim = p.A_eq @ x - p.b_eq
                KKT = np.block([[H, p.A_eq.T], [p.A_eq, np.zeros((m_eq, m_eq))]])
                rhs = -np.concatenate([r_dual, r_prim])
                try:
                    sol = np.linalg.solve(KKT, rhs)
                except np.linalg.LinAlgError:
                    sol, *_ = np.linalg.lstsq(KKT, rhs, rcond=None)
                dx, dnu = sol[: p.n], sol[p.n :]
                res_norm = float(np.linalg.norm(np.concatenate([r_dual, r_prim])))
                decrement = res_norm
            else:
                dx, decrement = self._newton_direction(grad, H)
                dnu = np.zeros(0)
                res_norm = float(np.linalg.norm(grad))
                slope = float(grad @ dx)

            # Convergence: a genuinely small decrement together with a
            # gradient that is small relative to the stage weight.
            if not m_eq and decrement / 2.0 <= opt.inner_tol and res_norm <= 1e-4 * (
                1.0 + abs(t)
            ):
                return x, True, ""
            if m_eq and res_norm <= 1e-8 * (1.0 + abs(t)):
                return x, True, ""
            # Stall guard: progress means either the residual or the barrier
            # merit moved meaningfully (a productive crawl keeps lowering the
            # merit long before the residual contracts).
            if merit_now is None:
                merit_now = self._barrier_value(x, t)
            improved = res_norm < best_res * (1.0 - 1e-3) or (
                merit_now < best_merit - 1e-6 * (1.0 + abs(best_merit))
            )
            best_res = min(best_res, res_norm)
            best_merit = min(best_merit, merit_now)
            if improved:
                since_progress = 0
            else:
                since_progress += 1
                if since_progress >= opt.stall_window:
                    return x, False, "centering stalled"

            # Backtracking line search keeping strict interiority and
            # decreasing the merit (barrier value, or KKT residual when
            # equality-infeasible).  Start at the fraction-to-boundary step
            # for the box: a deep-interior start with a weak Hessian yields
            # huge Newton directions, and backtracking from alpha=1 through
            # dozens of infinite-merit trials is what makes cold starts
            # crawl — jumping to 99.5% of the exact box distance first makes
            # those steps land in one or two trials.
            alpha = min(1.0, 0.995 * self._max_box_step(x, dx))
            base_merit = merit_now
            accepted = False
            for _ in range(60):
                x_new = x + alpha * dx
                nu_new = nu + alpha * dnu
                merit = self._barrier_value(x_new, t)
                if math.isfinite(merit):
                    if m_eq:
                        grad_n, _ = self._grad_hess(x_new, t)
                        rd = grad_n + p.A_eq.T @ nu_new
                        rp = p.A_eq @ x_new - p.b_eq
                        new_res = float(np.linalg.norm(np.concatenate([rd, rp])))
                        if new_res <= (1.0 - opt.armijo * alpha) * res_norm + 1e-14:
                            accepted = True
                            break
                    else:
                        if merit <= base_merit + opt.armijo * alpha * slope + 1e-14:
                            accepted = True
                            break
                alpha *= opt.backtrack
            self.newton_iters += 1
            stage_iters += 1
            if not accepted:
                return x, False, "line search stalled"
            x, nu, merit_now = x_new, nu_new, merit
            if stop_idx is not None and x[stop_idx] < stop_below:
                return x, True, ""
        return x, False, "Newton iteration limit"
