"""Two-phase bounded-variable revised simplex.

The implementation keeps an explicit basis index set and re-solves the m×m
basis system with dense LAPACK each iteration — with the tens-of-rows LPs
this library produces, factorization reuse would be noise, and recomputing
keeps the state small and the algorithm easy to verify (tests cross-check
every solve against ``scipy.optimize.linprog``).

Phase 1 appends one artificial column per row and minimizes their sum from
the all-nonbasic starting point; phase 2 then minimizes the true objective
with the artificials pinned to zero.  Dantzig pricing is used until a run of
degenerate pivots suggests cycling, at which point the solver switches to
Bland's rule (which terminates finitely).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import SolverError
from repro.lp.problem import LinearProgram, RowSense
from repro.lp.result import LPResult, LPStatus, WarmStart

__all__ = ["SimplexOptions", "solve_lp"]

_BASIC, _AT_LOWER, _AT_UPPER = 0, 1, 2


@dataclass
class SimplexOptions:
    """Tuning knobs for :func:`solve_lp`."""

    tol: float = 1e-9              # reduced-cost / feasibility tolerance
    max_iterations: int = 20000    # per phase
    bland_after: int = 60          # consecutive degenerate pivots before Bland


def solve_lp(
    lp: LinearProgram,
    options: SimplexOptions | None = None,
    warm: WarmStart | None = None,
) -> LPResult:
    """Solve ``lp``; always returns an :class:`LPResult` (never raises for
    infeasible/unbounded instances — those are statuses).

    ``warm`` re-starts from a previous solve's basis (see
    :class:`~repro.lp.result.WarmStart`): bounds may have changed and rows
    may have been *appended* since; primal feasibility is repaired by the
    dual simplex, typically in a few pivots, skipping phase 1 entirely.
    """
    options = options or SimplexOptions()
    A, b = lp.matrices()
    m, n = A.shape

    if m == 0:
        # Pure bound minimization: each variable sits at the bound its cost
        # prefers; unbounded if a nonzero cost points at an infinite bound.
        x = np.where(lp.c >= 0, lp.lb, lp.ub)
        x = np.where(lp.c == 0, np.clip(0.0, lp.lb, lp.ub), x)
        if not np.all(np.isfinite(x)):
            return LPResult(LPStatus.UNBOUNDED, message="cost on an unbounded variable")
        return LPResult(
            LPStatus.OPTIMAL, x=x, objective=float(lp.c @ x), duals=np.zeros(0)
        )

    if warm is not None and warm.basis.shape[0] <= m and warm.status.shape[0] <= n + m:
        try:
            state = _Tableau(lp, A, b, options, warm=warm)
            return state.solve_warm()
        except (np.linalg.LinAlgError, SolverError):
            pass  # stale/singular warm basis: fall back to a cold solve
    state = _Tableau(lp, A, b, options)
    return state.solve()


class _Tableau:
    """Mutable solver state for one LP solve."""

    def __init__(
        self,
        lp: LinearProgram,
        A: np.ndarray,
        b: np.ndarray,
        options: SimplexOptions,
        warm: WarmStart | None = None,
    ):
        self.lp = lp
        self.opt = options
        self.b = b
        m, n = A.shape
        self.m, self.n_struct = m, n

        # Slack columns: LE -> s in [0, inf); GE -> s in (-inf, 0]; EQ fixed 0.
        slack_lb = np.empty(m)
        slack_ub = np.empty(m)
        for i, sense in enumerate(lp.senses):
            if sense is RowSense.LE:
                slack_lb[i], slack_ub[i] = 0.0, np.inf
            elif sense is RowSense.GE:
                slack_lb[i], slack_ub[i] = -np.inf, 0.0
            else:
                slack_lb[i], slack_ub[i] = 0.0, 0.0

        # Artificial columns get their sign chosen after the initial point.
        self.A = np.hstack([A, np.eye(m), np.zeros((m, m))])
        self.lb = np.concatenate([lp.lb, slack_lb, np.zeros(m)])
        self.ub = np.concatenate([lp.ub, slack_ub, np.full(m, np.inf)])
        self.ncols = n + 2 * m
        self.art_start = n + m

        self.iterations = 0
        self.phase1_iterations = 0
        self.dual_iterations = 0
        self.duals = np.zeros(m)

        if warm is not None:
            self._init_from_warm(warm, n, m)
            return

        # Start with every structural/slack column nonbasic at a finite bound
        # (0 when the box contains it), artificials basic covering residuals.
        self.status = np.full(self.ncols, _AT_LOWER, dtype=np.int8)
        self.values = np.zeros(self.ncols)
        for j in range(n + m):
            lo, hi = self.lb[j], self.ub[j]
            # Nonbasic variables must rest exactly on a finite bound (the
            # bounded-simplex invariant); pick the one nearest zero.  A
            # genuinely free variable sits at 0 and is special-cased in
            # pricing.
            if np.isfinite(lo) and np.isfinite(hi):
                v, stat = (lo, _AT_LOWER) if abs(lo) <= abs(hi) else (hi, _AT_UPPER)
            elif np.isfinite(lo):
                v, stat = lo, _AT_LOWER
            elif np.isfinite(hi):
                v, stat = hi, _AT_UPPER
            else:
                v, stat = 0.0, _AT_LOWER
            self.values[j] = v
            self.status[j] = stat

        residual = b - self.A[:, : n + m] @ self.values[: n + m]
        self.basis = np.empty(m, dtype=int)
        for i in range(m):
            col = self.art_start + i
            sign = 1.0 if residual[i] >= 0 else -1.0
            self.A[i, col] = sign
            self.basis[i] = col
            self.status[col] = _BASIC
            self.values[col] = abs(residual[i])

    def _init_from_warm(self, warm: WarmStart, n: int, m: int) -> None:
        """Adopt a previous basis: old columns keep their status, new rows'
        slacks enter the basis, every nonbasic snaps to its (possibly moved)
        bound, and the basic values are recomputed."""
        # Artificials never participate in a warm start: pin them.
        self.ub[self.art_start:] = 0.0

        self.status = np.full(self.ncols, _AT_LOWER, dtype=np.int8)
        k = warm.status.shape[0]
        self.status[:k] = warm.status
        m_old = warm.basis.shape[0]
        self.basis = np.concatenate(
            [warm.basis.astype(int), np.arange(n + m_old, n + m)]
        )
        self.status[self.basis] = _BASIC

        self.values = np.zeros(self.ncols)
        for j in range(n + m):
            if self.status[j] == _BASIC:
                continue
            lo, hi = self.lb[j], self.ub[j]
            if self.status[j] == _AT_UPPER and np.isfinite(hi):
                self.values[j] = hi
            elif np.isfinite(lo):
                self.values[j] = lo
                self.status[j] = _AT_LOWER
            elif np.isfinite(hi):
                self.values[j] = hi
                self.status[j] = _AT_UPPER
            else:
                self.values[j] = 0.0
        self._recompute_basics(self.b)

    # -- helpers ----------------------------------------------------------------

    def _basic_values(self) -> np.ndarray:
        return self.values[self.basis]

    def _recompute_basics(self, b: np.ndarray) -> None:
        nonbasic_mask = np.ones(self.ncols, dtype=bool)
        nonbasic_mask[self.basis] = False
        rhs = b - self.A[:, nonbasic_mask] @ self.values[nonbasic_mask]
        B = self.A[:, self.basis]
        self.values[self.basis] = np.linalg.solve(B, rhs)

    # -- the core iteration -------------------------------------------------------

    def _iterate(self, cost: np.ndarray, b: np.ndarray, phase: int) -> LPStatus:
        tol = self.opt.tol
        degenerate_run = 0
        for _ in range(self.opt.max_iterations):
            B = self.A[:, self.basis]
            try:
                y = np.linalg.solve(B.T, cost[self.basis])
            except np.linalg.LinAlgError as exc:  # pragma: no cover - safeguarded
                raise SolverError(f"singular basis in simplex: {exc}") from exc
            self.duals = y

            use_bland = degenerate_run >= self.opt.bland_after
            entering, direction = self._price(cost, y, tol, use_bland, phase)
            if entering is None:
                return LPStatus.OPTIMAL

            w = np.linalg.solve(B, self.A[:, entering])
            step, leaving_pos, flip = self._ratio_test(entering, direction, w, tol)
            if step is None:
                return LPStatus.UNBOUNDED

            if step <= tol:
                degenerate_run += 1
            else:
                degenerate_run = 0

            # Apply the move.
            self.values[self.basis] -= direction * step * w
            self.values[entering] += direction * step
            if flip:
                # Land exactly on the opposite bound (no numerical drift).
                if self.status[entering] == _AT_LOWER:
                    self.status[entering] = _AT_UPPER
                    self.values[entering] = self.ub[entering]
                else:
                    self.status[entering] = _AT_LOWER
                    self.values[entering] = self.lb[entering]
            else:
                leaving = self.basis[leaving_pos]
                # Leaving variable exits exactly at the bound it hit.
                lo, hi = self.lb[leaving], self.ub[leaving]
                val = self.values[leaving]
                if np.isfinite(lo) and abs(val - lo) <= abs(val - hi):
                    self.status[leaving] = _AT_LOWER
                    self.values[leaving] = lo
                else:
                    self.status[leaving] = _AT_UPPER
                    self.values[leaving] = hi
                self.basis[leaving_pos] = entering
                self.status[entering] = _BASIC
            self.iterations += 1
            if phase == 1:
                self.phase1_iterations += 1
            # Periodically re-solve the basic system to shed drift from the
            # incremental updates.
            if self.iterations % 100 == 0:
                self._recompute_basics(b)
        return LPStatus.ITERATION_LIMIT

    def _price(self, cost, y, tol, use_bland, phase):
        """Choose an entering column and its movement direction (+1/-1).

        Fully vectorized (Dantzig: most negative effective reduced cost);
        Bland's rule picks the smallest eligible index instead.
        """
        d = cost - y @ self.A  # reduced costs for every column

        nonbasic = self.status != _BASIC
        movable = nonbasic & (self.lb != self.ub)
        if phase == 2:
            movable[self.art_start :] = False
        free = ~np.isfinite(self.lb) & ~np.isfinite(self.ub)

        up = movable & (d < -tol) & ((self.status == _AT_LOWER) | free)
        down = movable & (d > tol) & ((self.status == _AT_UPPER) | free)

        score = np.where(up, -d, np.where(down, d, -np.inf))
        if use_bland:
            eligible = np.flatnonzero(up | down)
            if eligible.size == 0:
                return None, 0.0
            j = int(eligible[0])
        else:
            j = int(np.argmax(score))
            if score[j] == -np.inf:
                return None, 0.0
        return j, (1.0 if up[j] else -1.0)

    def _ratio_test(self, entering, direction, w, tol):
        """Max step ``t >= 0``; returns (t, leaving_basis_pos, is_bound_flip)."""
        best_t = np.inf
        leaving_pos = None
        xB = self.values[self.basis]
        lbB = self.lb[self.basis]
        ubB = self.ub[self.basis]
        delta = direction * w  # basic values change by -delta * t
        for i in range(self.m):
            if delta[i] > tol:
                if np.isfinite(lbB[i]):
                    t = (xB[i] - lbB[i]) / delta[i]
                    if t < best_t - 1e-15:
                        best_t, leaving_pos = max(t, 0.0), i
            elif delta[i] < -tol:
                if np.isfinite(ubB[i]):
                    t = (ubB[i] - xB[i]) / (-delta[i])
                    if t < best_t - 1e-15:
                        best_t, leaving_pos = max(t, 0.0), i
        # Bound flip of the entering variable itself.
        span = self.ub[entering] - self.lb[entering]
        flip = False
        if np.isfinite(span) and span < best_t:
            best_t, leaving_pos, flip = span, None, True
        if not np.isfinite(best_t):
            return None, None, False
        return best_t, leaving_pos, flip

    # -- driver ---------------------------------------------------------------------

    def solve(self) -> LPResult:
        _, b = self.lp.matrices()
        tol = self.opt.tol

        # Phase 1: minimize the artificial sum.
        cost1 = np.zeros(self.ncols)
        cost1[self.art_start :] = 1.0
        status = self._iterate(cost1, b, phase=1)
        if status is LPStatus.ITERATION_LIMIT:
            return LPResult(status, iterations=self.iterations,
                            phase1_iterations=self.phase1_iterations,
                            message="phase 1 iteration limit")
        # Feasibility is judged row by row, as in the warm path: the largest
        # artificial is the worst row violation.  Their sum would call
        # infeasible rows that are each within the tolerance.
        art_sum = float(self.values[self.art_start :].sum())
        art_max = float(self.values[self.art_start :].max(initial=0.0))
        scale = max(1.0, float(np.abs(b).max()) if b.size else 1.0)
        if art_max > 1e-7 * scale:
            return LPResult(LPStatus.INFEASIBLE, iterations=self.iterations,
                            phase1_iterations=self.phase1_iterations,
                            message=f"phase 1 optimum {art_sum:.3e} > 0")
        # Pin artificials so they cannot re-enter or move off zero.
        self.ub[self.art_start :] = 0.0
        self.values[self.art_start :] = np.minimum(self.values[self.art_start :], 0.0)

        # Phase 2: the real objective.
        cost2 = np.zeros(self.ncols)
        cost2[: self.n_struct] = self.lp.c
        status = self._iterate(cost2, b, phase=2)
        if status is LPStatus.ITERATION_LIMIT:
            return LPResult(status, iterations=self.iterations,
                            phase1_iterations=self.phase1_iterations,
                            message="phase 2 iteration limit")
        if status is LPStatus.UNBOUNDED:
            return LPResult(LPStatus.UNBOUNDED, iterations=self.iterations,
                            phase1_iterations=self.phase1_iterations)

        return self._optimal_result()

    def _optimal_result(self) -> LPResult:
        x = self.values[: self.n_struct].copy()
        # Clean tiny bound violations introduced by floating point.
        x = np.clip(x, self.lp.lb, self.lp.ub)
        return LPResult(
            LPStatus.OPTIMAL,
            x=x,
            objective=float(self.lp.c @ x),
            duals=self.duals.copy(),
            iterations=self.iterations,
            phase1_iterations=self.phase1_iterations,
            dual_iterations=self.dual_iterations,
            warm=self._export_warm(),
        )

    def _export_warm(self) -> WarmStart | None:
        """Snapshot the final basis for reuse (None if an artificial is
        still basic — rare degenerate leftovers from phase 1)."""
        if np.any(self.basis >= self.art_start):
            return None
        return WarmStart(
            basis=self.basis.copy(),
            status=self.status[: self.art_start].copy(),
        )

    # -- warm start: dual simplex then primal cleanup --------------------------------

    def solve_warm(self) -> LPResult:
        cost2 = np.zeros(self.ncols)
        cost2[: self.n_struct] = self.lp.c

        status = self._dual_iterate(cost2)
        if status is LPStatus.INFEASIBLE:
            return LPResult(LPStatus.INFEASIBLE, iterations=self.iterations,
                            dual_iterations=self.dual_iterations,
                            message="dual simplex proved primal infeasibility")
        if status is LPStatus.ITERATION_LIMIT:
            raise SolverError("dual simplex iteration limit on a warm start")

        # Primal phase 2 from the now primal-feasible basis (usually 0
        # pivots; also mops up any dual infeasibility the warm basis had).
        status = self._iterate(cost2, self.b, phase=2)
        if status is LPStatus.ITERATION_LIMIT:
            return LPResult(status, iterations=self.iterations,
                            dual_iterations=self.dual_iterations,
                            message="phase 2 iteration limit after warm start")
        if status is LPStatus.UNBOUNDED:
            return LPResult(LPStatus.UNBOUNDED, iterations=self.iterations,
                            dual_iterations=self.dual_iterations)
        return self._optimal_result()

    def _dual_iterate(self, cost: np.ndarray) -> LPStatus:
        """Repair primal feasibility while preserving dual feasibility.

        Classic bounded-variable dual simplex: pick the most-violated basic
        variable, push it to the bound it violates, and let the dual ratio
        test pick the entering column that keeps reduced costs consistent.
        """
        tol = self.opt.tol
        for _ in range(self.opt.max_iterations):
            xB = self.values[self.basis]
            lbB = self.lb[self.basis]
            ubB = self.ub[self.basis]
            below = np.where(np.isfinite(lbB), lbB - xB, -np.inf)
            above = np.where(np.isfinite(ubB), xB - ubB, -np.inf)
            viol = np.maximum(below, above)
            i = int(np.argmax(viol))
            if viol[i] <= tol * (1.0 + float(np.abs(self.b).max(initial=0.0))):
                return LPStatus.OPTIMAL  # primal feasible
            needs_increase = below[i] >= above[i]
            leaving = self.basis[i]

            B = self.A[:, self.basis]
            try:
                y = np.linalg.solve(B.T, cost[self.basis])
                e = np.zeros(self.m)
                e[i] = 1.0
                rho = np.linalg.solve(B.T, e)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"singular basis in dual simplex: {exc}") from exc
            self.duals = y
            d = cost - y @ self.A
            alpha = rho @ self.A  # pivot row over all columns

            nonbasic = self.status != _BASIC
            movable = nonbasic & (self.lb != self.ub)
            movable[self.art_start:] = False
            free = ~np.isfinite(self.lb) & ~np.isfinite(self.ub)
            at_lower = movable & ((self.status == _AT_LOWER) | free)
            at_upper = movable & (self.status == _AT_UPPER) & ~free
            if needs_increase:
                eligible = (at_lower & (alpha < -tol)) | (at_upper & (alpha > tol))
            else:
                eligible = (at_lower & (alpha > tol)) | (at_upper & (alpha < -tol))
            idx = np.flatnonzero(eligible)
            if idx.size == 0:
                return LPStatus.INFEASIBLE  # row proves primal infeasibility

            ratios = np.abs(d[idx] / alpha[idx])
            entering = int(idx[np.argmin(ratios)])

            # Pivot: entering becomes basic, leaving exits at the violated
            # bound; recompute the basic values exactly.
            self.basis[i] = entering
            self.status[entering] = _BASIC
            if needs_increase:
                self.status[leaving] = _AT_LOWER
                self.values[leaving] = self.lb[leaving]
            else:
                self.status[leaving] = _AT_UPPER
                self.values[leaving] = self.ub[leaving]
            self._recompute_basics(self.b)
            self.iterations += 1
            self.dual_iterations += 1
        return LPStatus.ITERATION_LIMIT
