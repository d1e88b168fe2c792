"""Regression tests for barrier-solver internals.

Each test here encodes a failure mode that was actually observed while
building the MINLP stack: corner starts after phase 1, ill-conditioned
Hessians faking convergence, and deep-interior cold starts crawling.
``TestMeritCarry`` holds the Newton loop to its merit evaluation contract,
and its Python-float evaluation to the numpy arrays it replaced, against a
reference loop kept in this module."""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nlp.barrier as barrier
from repro.cesm import ComponentId, Layout, ground_truth, make_case
from repro.expr import var
from repro.fitting import PerfModel
from repro.hslb import layout_model_for_case
from repro.kernels.cache import clear_core_store
from repro.minlp import solve_lpnlp
from repro.minlp.nlpbuild import build_nlp
from repro.nlp import BarrierOptions, NLPProblem, NLPStatus, solve_nlp
from repro.nlp.barrier import _Barrier

I, L, A, O = ComponentId.ICE, ComponentId.LND, ComponentId.ATM, ComponentId.OCN


def coupled_relaxation():
    """The 1-degree full relaxation that used to crawl for 750+ iterations."""
    T, ni, nl, na, no = (var(s) for s in ("T", "n_i", "n_l", "n_a", "n_o"))
    truth = ground_truth("1deg")
    return NLPProblem(
        names=["T", "n_i", "n_l", "n_a", "n_o"],
        objective=T,
        inequalities=[
            ("ci", truth[I].law.expr("n_i") - T),
            ("cl", truth[L].law.expr("n_l") - T),
            ("ca", truth[A].law.expr("n_a") - T),
            ("co", truth[O].law.expr("n_o") - T),
            ("cap", ni + nl + na + no - 2048.0),
        ],
        lb=np.array([0.0, 4.0, 4.0, 8.0, 8.0]),
        ub=np.array([1e5, 2048.0, 2048.0, 2048.0, 2048.0]),
    )


class TestColdStartRobustness:
    def test_coupled_relaxation_converges(self):
        res = solve_nlp(coupled_relaxation())
        assert res.is_optimal
        # balanced optimum around T ~ 64; anything near it is fine
        assert res.objective < 80.0
        assert res.newton_iterations < 500

    def test_corner_start_recovers(self):
        """Explicit corner start (all n at their floors) — the phase-1 exit
        shape that used to trap the crawl."""
        p = coupled_relaxation()
        x0 = np.array([5e4, 4.5, 4.5, 9.0, 9.0])
        res = solve_nlp(p, x0=x0)
        assert res.is_optimal
        assert res.objective < 80.0

    def test_epigraph_with_dominant_component(self):
        """min T with one enormous component: the barrier must push the big
        component's nodes up instead of stalling against its row (the
        no=4.18 regression)."""
        T, a, b = var("T"), var("a"), var("b")
        p = NLPProblem(
            names=["T", "a", "b"],
            objective=T,
            inequalities=[
                ("ca", 50.0 / a - T),
                ("cb", 4241.0 / b - T),
                ("cap", a + b - 8.0),
            ],
            lb=np.array([0.0, 1.0, 1.0]),
            ub=np.array([1e4, 8.0, 8.0]),
        )
        res = solve_nlp(p)
        assert res.is_optimal
        # optimum pushes b near 7: T ~ 4241/7 = 605.9
        assert res.objective == pytest.approx(4241.0 / 7.0 + 50.0 / 1.0 * 0, rel=0.02)


class TestNewtonDirection:
    def test_descent_on_singular_hessian(self):
        p = coupled_relaxation()
        b = _Barrier(p, BarrierOptions())
        grad = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        H = np.zeros((5, 5))  # fully singular
        dx, dec = b._newton_direction(grad, H)
        assert dec > 0.0
        assert np.all(np.isfinite(dx))

    def test_descent_on_indefinite_hessian(self):
        p = coupled_relaxation()
        b = _Barrier(p, BarrierOptions())
        grad = np.ones(5)
        H = -np.eye(5)  # would send a naive solve uphill
        dx, dec = b._newton_direction(grad, H)
        assert dec > 0.0

    def test_newton_on_clean_hessian(self):
        p = coupled_relaxation()
        b = _Barrier(p, BarrierOptions())
        H = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
        grad = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        dx, dec = b._newton_direction(grad, H)
        np.testing.assert_allclose(dx, -np.ones(5), rtol=1e-5)


class TestLinAlgErrorRecovery:
    """The two np.linalg.LinAlgError branches must recover, not crash:
    Cholesky failure in _newton_direction (escalating ridge) and a singular
    KKT system in _center (least-squares fallback)."""

    def test_cholesky_failure_escalates_ridge_to_descent(self):
        p = coupled_relaxation()
        b = _Barrier(p, BarrierOptions())
        # Strongly indefinite: cholesky(H + ridge I) raises LinAlgError for
        # every small ridge, forcing several escalation rounds before the
        # factorization succeeds — the except branch, not the happy path.
        H = -1e6 * np.eye(5)
        grad = np.ones(5)
        dx, dec = b._newton_direction(grad, H)
        assert np.all(np.isfinite(dx))
        assert dec > 0.0  # still a genuine descent direction

    def test_mixed_curvature_hessian_recovers(self):
        p = coupled_relaxation()
        b = _Barrier(p, BarrierOptions())
        H = np.diag([1.0, -50.0, 2.0, -3.0, 0.0])
        dx, dec = b._newton_direction(np.array([1.0, -2.0, 0.5, 1.0, -1.0]), H)
        assert np.all(np.isfinite(dx))
        assert dec > 0.0

    def test_singular_kkt_falls_back_to_lstsq(self):
        """Duplicated equality rows make the KKT matrix exactly singular;
        _center must fall back to the least-squares solve and still
        converge to the constrained optimum."""
        x1, x2 = var("x1"), var("x2")
        p = NLPProblem(
            names=["x1", "x2"],
            objective=(x1 - 2.0) ** 2 + (x2 - 3.0) ** 2,
            inequalities=[],
            lb=np.array([0.0, 0.0]),
            ub=np.array([10.0, 10.0]),
            eq_rows=[
                ({"x1": 1.0, "x2": 1.0}, 4.0),
                ({"x1": 1.0, "x2": 1.0}, 4.0),  # exact duplicate -> singular
            ],
        )
        res = solve_nlp(p, x0=np.array([2.0, 2.0]))
        assert res.is_optimal
        # min (x1-2)^2 + (x2-3)^2 s.t. x1+x2=4 -> (1.5, 2.5)
        vals = res.value_map(["x1", "x2"])
        assert vals["x1"] == pytest.approx(1.5, abs=1e-3)
        assert vals["x2"] == pytest.approx(2.5, abs=1e-3)


class TestMaxBoxStep:
    def test_step_to_upper(self):
        p = coupled_relaxation()
        b = _Barrier(p, BarrierOptions())
        x = np.array([10.0, 100.0, 100.0, 100.0, 100.0])
        dx = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        assert b._max_box_step(x, dx) == pytest.approx(1e5 - 10.0)

    def test_step_to_lower(self):
        p = coupled_relaxation()
        b = _Barrier(p, BarrierOptions())
        x = np.array([10.0, 100.0, 100.0, 100.0, 100.0])
        dx = np.array([-1.0, 0.0, 0.0, 0.0, 0.0])
        assert b._max_box_step(x, dx) == pytest.approx(10.0)

    def test_zero_direction_unbounded(self):
        p = coupled_relaxation()
        b = _Barrier(p, BarrierOptions())
        x = np.array([10.0, 100.0, 100.0, 100.0, 100.0])
        assert b._max_box_step(x, np.zeros(5)) == np.inf


class TestPythonFloatEdges:
    """The merit, box step and Newton step run on Python floats, which raise
    or go complex where numpy returns inf or nan.  None of that may leave
    the solver."""

    def test_undefined_rows_make_the_merit_infinite(self):
        x, y = var("x"), var("y")
        p = NLPProblem(
            names=["x", "y"],
            objective=y,
            inequalities=[("root", x ** 0.5 - y), ("pole", 1.0 / x - y - 10.0)],
            lb=np.array([-1.0, -10.0]),
            ub=np.array([1.0, 10.0]),
        )
        b = _Barrier(p, BarrierOptions())
        assert math.isfinite(b._barrier_value(np.array([0.25, 1.0]), 1.0))
        assert b._barrier_value(np.array([-0.25, 1.0]), 1.0) == math.inf  # complex
        assert b._barrier_value(np.array([0.0, 1.0]), 1.0) == math.inf    # 1 / 0

    def test_unrepresentable_hessian_gives_a_nan_step(self):
        x = var("x")
        p = NLPProblem(
            names=["x"], objective=x, inequalities=[("c", x)],
            lb=np.array([-1.0]), ub=np.array([1.0]),
        )
        b = _Barrier(p, BarrierOptions())
        point = np.array([-1e-200])  # finite merit, but g * g underflows to 0
        assert math.isfinite(b._barrier_value(point, 1.0))
        grad, H = b._grad_hess(point, 1.0)
        assert np.isnan(grad).all() and np.isnan(H).all()

    def test_start_with_undefined_rows_is_answered(self):
        """A start where numpy gives a row value as nan is not strictly
        feasible, so it goes through phase 1 and gets the answer of a solve
        with no start, bit for bit."""
        x, y = var("x"), var("y")
        p = NLPProblem(
            names=["x", "y"], objective=y, inequalities=[("root", x ** 0.5 - y)],
            lb=np.array([-1.0, -5.0]), ub=np.array([4.0, 5.0]),
        )
        start = np.array([-0.5, 1.0])
        with np.errstate(invalid="ignore"):
            assert not _Barrier(p, BarrierOptions()).strictly_feasible(start)
            started = solve_nlp(p, x0=start)
        cold = solve_nlp(p)

        def bits(res):
            return (res.status, res.message, [v.hex() for v in res.x.tolist()],
                    res.objective.hex(), res.newton_iterations,
                    res.mu_final.hex(), res.max_violation.hex())

        assert bits(started) == bits(cold)

    def test_undefined_row_at_phase1_start_is_not_certified(self):
        """Phase 1 starts at the box centre; where a row is undefined there
        it answers NUMERICAL_ERROR at once instead of iterating to a point
        that ``max(0.0, nan)`` would have reported as feasible."""
        x, y = var("x"), var("y")
        p = NLPProblem(
            names=["x", "y"], objective=y, inequalities=[("root", x ** 0.5 - y)],
            lb=np.array([-4.0, -5.0]), ub=np.array([1.0, 5.0]),
        )
        with np.errstate(invalid="ignore"):
            assert p.max_violation(np.array([-1.5, 0.0])) == math.inf
            res = solve_nlp(p)
        assert res.status is NLPStatus.NUMERICAL_ERROR
        assert res.x is None
        assert res.newton_iterations == 0
        assert res.max_violation == math.inf


class TestHonestStatuses:
    def test_unconverged_never_reports_optimal_garbage(self):
        """With a starved budget the solver must degrade its *status*,
        not fabricate an optimum."""
        res = solve_nlp(
            coupled_relaxation(),
            options=BarrierOptions(max_newton=10, max_newton_per_center=5),
        )
        if res.is_optimal:
            assert res.objective < 80.0  # only acceptable if actually there
        else:
            assert res.status in (NLPStatus.ITERATION_LIMIT, NLPStatus.NUMERICAL_ERROR)

    def test_certified_gap_message_on_stall_finish(self):
        """A solve that finishes by stall must carry a meaningful gap."""
        res = solve_nlp(coupled_relaxation())
        assert res.mu_final == res.mu_final  # not NaN
        assert res.mu_final < 1.0


# -- merit evaluation contract -------------------------------------------------------


def _dense_grad(smooth, x: np.ndarray, n: int, counters) -> np.ndarray:
    counters.incr("kernel_grad_evals")
    out = np.zeros(n)
    for pos, val in zip(smooth.grad_positions, smooth.grad_entries(x)):
        out[pos] += val
    return out


def _add_hess(smooth, x: np.ndarray, H: np.ndarray, scale: float, counters) -> None:
    if smooth.linear is not None:
        return  # affine: zero Hessian
    counters.incr("kernel_hess_evals")
    for (ia, ib), entry in zip(smooth.hess_positions, smooth.hess_entries(x)):
        v = entry * scale
        if v == 0.0:
            continue
        H[ia, ib] += v
        if ia != ib:
            H[ib, ia] += v


class _ReferenceBarrier(_Barrier):
    """The Newton loop as it was before the merit carry: it evaluates the
    current point's merit twice per iteration (stall guard, then line-search
    base) on top of one evaluation per line-search trial.  Its merit, box
    step and gradient/Hessian run on numpy arrays, the last one assembling
    dense arrays from each kernel's entries and counting every evaluation
    as it goes.  Kept as the bit-identity reference for ``_Barrier``."""

    def _grad_hess(self, x: np.ndarray, t: float):
        n = self.p.n
        objective, *rows = self.p.kernels()
        counters = self.p.kernel_cache.counters
        grad = t * _dense_grad(objective, x, n, counters)
        H = np.zeros((n, n))
        _add_hess(objective, x, H, t, counters)
        for smooth in rows:
            gval = smooth.value(x)
            gg = _dense_grad(smooth, x, n, counters)
            grad += gg / (-gval)
            H += np.outer(gg, gg) / (gval * gval)
            _add_hess(smooth, x, H, 1.0 / (-gval), counters)
        fl, fu = self.finite_lb, self.finite_ub
        dlo = x[fl] - self.p.lb[fl]
        dhi = self.p.ub[fu] - x[fu]
        grad[fl] -= 1.0 / dlo
        grad[fu] += 1.0 / dhi
        diag = np.zeros(n)
        diag[fl] += 1.0 / dlo ** 2
        diag[fu] += 1.0 / dhi ** 2
        H[np.diag_indices(n)] += diag + self.opt.regularization
        return grad, H

    def _barrier_value(self, x: np.ndarray, t: float) -> float:
        dlo = x[self.finite_lb] - self.p.lb[self.finite_lb]
        dhi = self.p.ub[self.finite_ub] - x[self.finite_ub]
        if np.any(dlo <= 0.0) or np.any(dhi <= 0.0):
            return np.inf
        try:
            g = self.p.g_values(x) if self.p.inequalities else np.zeros(0)
        except (TypeError, ArithmeticError):
            return np.inf
        if g.size and (not np.all(np.isreal(g)) or not np.all(np.isfinite(g))):
            return np.inf
        if g.size and g.max(initial=-np.inf) >= 0.0:
            return np.inf
        val = t * self.p.f(x)
        if g.size:
            val -= float(np.log(-g).sum())
        val -= float(np.log(dlo).sum()) + float(np.log(dhi).sum())
        return val

    def _max_box_step(self, x: np.ndarray, dx: np.ndarray) -> float:
        with np.errstate(divide="ignore", invalid="ignore"):
            to_hi = np.where(
                (dx > 0) & self.finite_ub, (self.p.ub - x) / dx, np.inf
            )
            to_lo = np.where(
                (dx < 0) & self.finite_lb, (self.p.lb - x) / dx, np.inf
            )
        step = min(float(np.min(to_hi)), float(np.min(to_lo)))
        return max(step, 1e-16)

    def _center(self, x: np.ndarray, t: float, stop_idx, stop_below: float = -1e-6):
        opt = self.opt
        p = self.p
        m_eq = len(p.eq_rows)
        nu = np.zeros(m_eq)
        stage_iters = 0
        best_res = np.inf
        best_merit = np.inf
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

            if not m_eq and decrement / 2.0 <= opt.inner_tol and res_norm <= 1e-4 * (
                1.0 + abs(t)
            ):
                return x, True, ""
            if m_eq and res_norm <= 1e-8 * (1.0 + abs(t)):
                return x, True, ""
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

            alpha = min(1.0, 0.995 * self._max_box_step(x, dx))
            base_merit = self._barrier_value(x, t)
            accepted = False
            for _ in range(60):
                x_new = x + alpha * dx
                nu_new = nu + alpha * dnu
                merit = self._barrier_value(x_new, t)
                if np.isfinite(merit):
                    if m_eq:
                        grad_n, _ = self._grad_hess(x_new, t)
                        rd = grad_n + p.A_eq.T @ nu_new
                        rp = p.A_eq @ x_new - p.b_eq
                        new_res = float(np.linalg.norm(np.concatenate([rd, rp])))
                        if new_res <= (1.0 - opt.armijo * alpha) * res_norm + 1e-14:
                            accepted = True
                            break
                    else:
                        if merit <= base_merit + opt.armijo * alpha * float(grad @ dx) + 1e-14:
                            accepted = True
                            break
                alpha *= opt.backtrack
            self.newton_iters += 1
            stage_iters += 1
            if not accepted:
                return x, False, "line search stalled"
            x, nu = x_new, nu_new
            if stop_idx is not None and x[stop_idx] < stop_below:
                return x, True, ""
        return x, False, "Newton iteration limit"


class _Tally:
    """How the barriers of one run got to their results."""

    def __init__(self):
        self.merit_calls = 0  # _barrier_value evaluations
        self.exits = []       # _center exit messages, in order
        self.barriers = 0     # _Barrier objects (one more per phase 1)


@contextlib.contextmanager
def _barrier_class(barrier_cls):
    """Route every ``solve_nlp`` (phase 1 included) through ``barrier_cls``."""
    tally = _Tally()

    class Counted(barrier_cls):
        def __init__(self, *args):
            tally.barriers += 1
            super().__init__(*args)

        def _barrier_value(self, x, t):
            tally.merit_calls += 1
            return super()._barrier_value(x, t)

        def _center(self, *args, **kwargs):
            out = super()._center(*args, **kwargs)
            tally.exits.append(out[2])
            return out

    with mock.patch.object(barrier, "_Barrier", Counted):
        yield tally


def _nlp_bits(result) -> tuple:
    x = None if result.x is None else result.x.tobytes()
    return (
        result.status, x, result.objective.hex(), result.newton_iterations,
        result.mu_final.hex(), result.max_violation.hex(), result.message,
    )


def _assert_same_as_reference(problem, x0=None, options=None):
    """Solve with the current and the reference loop; every bit must agree."""
    runs = []
    for barrier_cls in (_Barrier, _ReferenceBarrier):
        with _barrier_class(barrier_cls) as tally:
            result = solve_nlp(problem, x0=x0, options=options)
        runs.append((_nlp_bits(result), tally))
    (new_bits, new), (ref_bits, ref) = runs
    assert new_bits == ref_bits
    assert new.exits == ref.exits
    assert new.barriers == ref.barriers
    return new_bits, new


def table1_relaxation(layout: Layout) -> NLPProblem:
    """Root relaxation of a 1-degree Table I layout model on the true curves
    (it keeps one equality row, so the equality branch runs)."""
    truth = ground_truth("1deg")
    case = make_case("1deg", 128, layout=layout, seed=0)
    model = layout_model_for_case(case, {c: truth[c].law for c in (I, L, A, O)})
    return build_nlp(model, model.objective.minimization_expr(), fixings={}).problem


#: An Armijo factor above 1 asks for more decrease than a convex merit can
#: give, so every line search runs all its trials and stalls.
STALLING = BarrierOptions(armijo=2.0, backtrack=0.9)


def epigraph_problem(curves, budget, eq_sum=None, start="phase1", options=None,
                     shared=None):
    """``min T`` over curve rows ``T_j(n_j) <= T`` that share a node budget,
    the shape the MINLP layer hands the barrier.  ``eq_sum`` adds the row
    ``n0 + n1 = eq_sum``; ``start`` is ``"phase1"`` (no start point),
    ``"interior"`` (a strictly feasible start) or ``"outside"`` (a start
    outside the box, routed through phase 1).  ``shared``, a curve on
    ``n0``, joins the objective and the last curve row, so the Hessian
    entry of ``n0`` sums curved terms of several functions and the order
    of those terms shows in the bits."""
    k = len(curves)
    T = var("T")
    nodes = [var(f"n{j}") for j in range(k)]
    bodies = [law.expr(f"n{j}") for j, law in enumerate(curves)]
    objective = T
    if shared is not None:
        objective = T + shared.expr("n0")
        bodies[-1] = bodies[-1] + shared.expr("n0")
    problem = NLPProblem(
        names=["T"] + [f"n{j}" for j in range(k)],
        objective=objective,
        inequalities=[(f"c{j}", body - T) for j, body in enumerate(bodies)]
        + [("cap", sum(nodes[1:], nodes[0]) - budget)],
        lb=np.array([0.0] + [1.0] * k),
        ub=np.array([1e6] + [budget] * k),
        eq_rows=[] if eq_sum is None else [({"n0": 1.0, "n1": 1.0}, eq_sum)],
    )
    x0 = None
    if start == "interior":
        share = budget / (2.0 * k)
        top = max(law(share) for law in curves) + (shared(share) if shared else 0.0)
        x0 = np.array([top + 1.0] + [share] * k)
    elif start == "outside":
        x0 = np.array([0.5] + [budget] * k)
    return problem, x0, options


@st.composite
def epigraph_cases(draw):
    laws = st.builds(
        PerfModel,
        a=st.floats(10.0, 1e4),
        b=st.one_of(st.just(0.0), st.floats(1e-6, 1e-2)),
        c=st.floats(1.0, 2.5),
        d=st.floats(0.1, 50.0),
    )
    curves = draw(st.lists(laws, min_size=1, max_size=3))
    budget = draw(st.floats(16.0, 512.0))
    eq_sum = None
    if len(curves) >= 2 and draw(st.booleans()):
        eq_sum = draw(st.floats(3.0, budget / 2.0))
    return epigraph_problem(
        curves, budget, eq_sum,
        start=draw(st.sampled_from(["phase1", "interior", "outside"])),
        options=draw(st.sampled_from([None, STALLING])),
        shared=draw(st.one_of(st.none(), laws)),
    )


class TestMeritCarry:
    """The Newton loop evaluates the merit once per line-search trial and
    carries the accepted trial's value into the next iteration, and it
    evaluates merit, box step, gradient and Hessian on Python floats.  That
    must change no bit of any result or evaluation count, and the carry
    must save the repeated work."""

    def test_coupled_relaxation_bit_identical(self):
        _assert_same_as_reference(coupled_relaxation())

    @pytest.mark.parametrize("layout", list(Layout), ids=lambda v: v.name.lower())
    def test_table1_relaxations_bit_identical(self, layout):
        _assert_same_as_reference(table1_relaxation(layout))

    @given(case=epigraph_cases())
    @settings(max_examples=25, deadline=None)
    def test_drawn_problems_bit_identical(self, case):
        _assert_same_as_reference(*case)

    def test_drawn_family_reaches_equality_phase1_and_stall_paths(self):
        curves = [
            PerfModel(a=900.0, d=5.0),
            PerfModel(a=300.0, b=1e-3, c=1.5, d=2.0),
            PerfModel(a=2000.0, d=1.0),
        ]
        bits, tally = _assert_same_as_reference(
            *epigraph_problem(curves, 64.0, eq_sum=40.0)
        )
        assert tally.barriers == 2  # the box center breaks the budget: phase 1
        assert bits[0] is NLPStatus.OPTIMAL
        x = np.frombuffer(bits[1])
        assert math.isclose(x[1] + x[2], 40.0, abs_tol=1e-6)

        bits, tally = _assert_same_as_reference(
            *epigraph_problem(curves[:1], 64.0, start="interior", options=STALLING)
        )
        assert "line search stalled" in tally.exits
        assert bits[0] is NLPStatus.ITERATION_LIMIT

    def test_shared_curvature_bit_identical(self):
        """Curved terms of the objective and of two rows meet in one
        Hessian entry; their order of summation must not change."""
        curves = [PerfModel(a=900.0, b=1e-3, c=1.5, d=5.0), PerfModel(a=300.0, d=2.0)]
        bits, _ = _assert_same_as_reference(
            *epigraph_problem(curves, 64.0, shared=PerfModel(a=40.0, b=1e-2, c=2.0))
        )
        assert bits[0] is NLPStatus.OPTIMAL

    def test_lpnlp_solves_take_under_half_the_evaluations(self):
        """The NLP subproblems of LP/NLP branch and bound (no equality rows,
        no warm starts: the sweep's traffic) on all three Table I layouts."""
        truth = ground_truth("1deg")
        calls = []
        for barrier_cls in (_Barrier, _ReferenceBarrier):
            # The second pass would otherwise be served the cores the first
            # one admitted to the process-wide store, and count fewer
            # compiles.
            clear_core_store()
            answers = []
            with _barrier_class(barrier_cls) as tally:
                for layout in Layout:
                    case = make_case("1deg", 128, layout=layout, seed=0)
                    model = layout_model_for_case(
                        case, {c: truth[c].law for c in (I, L, A, O)}
                    )
                    res = solve_lpnlp(model)
                    answers.append((res.objective.hex(), res.nodes, res.nlp_solves,
                                    res.kernel_counters))
            calls.append((answers, tally.merit_calls))
        (new_answers, new_calls), (ref_answers, ref_calls) = calls
        assert new_answers == ref_answers
        assert new_calls < ref_calls / 2
