import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelError
from repro.expr import var
from repro.nlp import NLPProblem, NLPStatus, solve_nlp


def qp_1d():
    # min (x-3)^2 s.t. x <= 2  ->  x* = 2
    x = var("x")
    return NLPProblem(
        names=["x"],
        objective=(x - 3.0) * (x - 3.0),
        inequalities=[("cap", x - 2.0)],
        lb=np.array([-10.0]),
        ub=np.array([10.0]),
    )


class TestProblemValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ModelError):
            NLPProblem(["x", "x"], var("x"), [], np.zeros(2), np.ones(2))

    def test_fixed_variable_rejected(self):
        with pytest.raises(ModelError, match="lb < ub"):
            NLPProblem(["x"], var("x"), [], np.array([1.0]), np.array([1.0]))

    def test_unknown_variable_in_constraint(self):
        with pytest.raises(ModelError, match="unknown"):
            NLPProblem(["x"], var("x"), [("c", var("y"))], np.array([0.0]), np.array([1.0]))

    def test_unknown_variable_in_objective(self):
        with pytest.raises(ModelError, match="unknown"):
            NLPProblem(["x"], var("z"), [], np.array([0.0]), np.array([1.0]))

    def test_unknown_variable_in_equality(self):
        with pytest.raises(ModelError, match="unknown"):
            NLPProblem(
                ["x"], var("x"), [], np.array([0.0]), np.array([1.0]),
                eq_rows=[({"ghost": 1.0}, 1.0)],
            )

    def test_max_violation(self):
        p = qp_1d()
        assert p.max_violation(np.array([5.0])) == pytest.approx(3.0)
        assert p.max_violation(np.array([1.0])) == 0.0


class TestUnconstrainedAndBox:
    def test_quadratic_min_inside_box(self):
        x = var("x")
        p = NLPProblem(["x"], (x - 1.5) ** 2, [], np.array([0.0]), np.array([10.0]))
        res = solve_nlp(p)
        assert res.is_optimal
        assert res.x[0] == pytest.approx(1.5, abs=1e-4)

    def test_linear_objective_hits_bound(self):
        x = var("x")
        p = NLPProblem(["x"], x, [], np.array([2.0]), np.array([9.0]))
        res = solve_nlp(p)
        assert res.is_optimal
        assert res.x[0] == pytest.approx(2.0, abs=1e-4)

    def test_two_vars_separable(self):
        x, y = var("x"), var("y")
        p = NLPProblem(
            ["x", "y"], (x - 2) ** 2 + (y + 1) ** 2, [],
            np.array([-5.0, -5.0]), np.array([5.0, 5.0]),
        )
        res = solve_nlp(p)
        assert res.is_optimal
        np.testing.assert_allclose(res.x, [2.0, -1.0], atol=1e-4)

    def test_box_narrower_than_the_interiority_margin(self):
        x = var("x")
        p = NLPProblem(["x"], x, [], np.array([0.0]), np.array([1e-10]))
        res = solve_nlp(p)
        assert res.status is NLPStatus.INFEASIBLE
        assert "narrower than the interiority margin" in res.message


class TestInequalityConstrained:
    def test_active_constraint(self):
        res = solve_nlp(qp_1d())
        assert res.is_optimal
        assert res.x[0] == pytest.approx(2.0, abs=1e-4)
        assert res.objective == pytest.approx(1.0, abs=1e-3)

    def test_inactive_constraint(self):
        x = var("x")
        p = NLPProblem(
            ["x"], (x - 1.0) ** 2, [("cap", x - 100.0)],
            np.array([-10.0]), np.array([1000.0]),
        )
        res = solve_nlp(p)
        assert res.x[0] == pytest.approx(1.0, abs=1e-4)

    def test_perf_model_constraint(self):
        # min T s.t. T >= 100/n + 5, n <= 50: T* = 7 at n = 50.
        T, n = var("T"), var("n")
        p = NLPProblem(
            names=["T", "n"],
            objective=T,
            inequalities=[("curve", 100.0 / n + 5.0 - T)],
            lb=np.array([0.0, 1.0]),
            ub=np.array([1000.0, 50.0]),
        )
        res = solve_nlp(p)
        assert res.is_optimal
        assert res.x[1] == pytest.approx(50.0, abs=1e-2)
        assert res.objective == pytest.approx(7.0, abs=1e-2)

    def test_min_max_epigraph(self):
        # min T s.t. T >= 10/a, T >= 10/b, a + b <= 4 -> a=b=2, T=5.
        T, a, b = var("T"), var("a"), var("b")
        p = NLPProblem(
            names=["T", "a", "b"],
            objective=T,
            inequalities=[
                ("ca", 10.0 / a - T),
                ("cb", 10.0 / b - T),
                ("cap", a + b - 4.0),
            ],
            lb=np.array([0.0, 0.1, 0.1]),
            ub=np.array([1e4, 100.0, 100.0]),
        )
        res = solve_nlp(p)
        assert res.is_optimal
        assert res.objective == pytest.approx(5.0, abs=1e-3)
        assert res.x[1] == pytest.approx(2.0, abs=1e-2)

    def test_infeasible_detected(self):
        x = var("x")
        p = NLPProblem(
            ["x"], x, [("lo", 5.0 - x), ("hi", x - 3.0)],
            np.array([0.0]), np.array([10.0]),
        )
        res = solve_nlp(p)
        assert res.status is NLPStatus.INFEASIBLE

    def test_given_strictly_feasible_start_used(self):
        p = qp_1d()
        res = solve_nlp(p, x0=np.array([0.0]))
        assert res.is_optimal
        assert res.x[0] == pytest.approx(2.0, abs=1e-4)

    def test_infeasible_start_triggers_phase1(self):
        p = qp_1d()
        res = solve_nlp(p, x0=np.array([9.0]))  # violates x <= 2
        assert res.is_optimal
        assert res.x[0] == pytest.approx(2.0, abs=1e-4)


class TestEqualityConstrained:
    def test_projection_objective(self):
        # min (x-3)^2 + (y-3)^2 s.t. x + y = 2 -> x=y=1.
        x, y = var("x"), var("y")
        p = NLPProblem(
            names=["x", "y"],
            objective=(x - 3) ** 2 + (y - 3) ** 2,
            inequalities=[],
            lb=np.array([-10.0, -10.0]),
            ub=np.array([10.0, 10.0]),
            eq_rows=[({"x": 1.0, "y": 1.0}, 2.0)],
        )
        res = solve_nlp(p)
        assert res.is_optimal
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-4)
        assert res.max_violation <= 1e-6

    def test_equality_with_inequalities(self):
        # min x^2+y^2 s.t. x+y=2, x <= 0.5 -> x=0.5, y=1.5
        x, y = var("x"), var("y")
        p = NLPProblem(
            names=["x", "y"],
            objective=x * x + y * y,
            inequalities=[("cap", x - 0.5)],
            lb=np.array([-10.0, -10.0]),
            ub=np.array([10.0, 10.0]),
            eq_rows=[({"x": 1.0, "y": 1.0}, 2.0)],
        )
        res = solve_nlp(p)
        assert res.is_optimal
        np.testing.assert_allclose(res.x, [0.5, 1.5], atol=1e-3)

    def test_relaxed_binaries_like_sos_hull(self):
        # LP-like: min n s.t. sum z = 1, 2 z0 + 8 z1 = n, z in [0,1].
        n, z0, z1 = var("n"), var("z0"), var("z1")
        p = NLPProblem(
            names=["n", "z0", "z1"],
            objective=n,
            inequalities=[],
            lb=np.array([2.0, 0.0, 0.0]),
            ub=np.array([8.0, 1.0, 1.0]),
            eq_rows=[
                ({"z0": 1.0, "z1": 1.0}, 1.0),
                ({"z0": 2.0, "z1": 8.0, "n": -1.0}, 0.0),
            ],
        )
        res = solve_nlp(p)
        assert res.is_optimal
        assert res.objective == pytest.approx(2.0, abs=1e-3)

    @staticmethod
    def _square(eq_rows):
        """min (x-3)^2 + (y-3)^2 over [0, 10]^2 subject to ``eq_rows``."""
        x, y = var("x"), var("y")
        return NLPProblem(
            names=["x", "y"],
            objective=(x - 3) ** 2 + (y - 3) ** 2,
            inequalities=[],
            lb=np.array([0.0, 0.0]),
            ub=np.array([10.0, 10.0]),
            eq_rows=eq_rows,
        )

    def test_contradictory_rows_are_infeasible(self):
        res = solve_nlp(self._square([
            ({"x": 1.0, "y": 1.0}, 2.0),
            ({"x": 1.0, "y": 1.0}, 3.0),
        ]))
        assert res.status is NLPStatus.INFEASIBLE
        assert res.x is None
        assert res.newton_iterations == 0

    def test_row_outside_the_box_is_infeasible(self):
        res = solve_nlp(self._square([({"x": 1.0, "y": 1.0}, 30.0)]))
        assert res.status is NLPStatus.INFEASIBLE
        assert res.x is None
        assert res.newton_iterations == 0

    def test_rows_that_determine_every_variable(self):
        res = solve_nlp(self._square([
            ({"x": 1.0, "y": 1.0}, 2.0),
            ({"x": 1.0, "y": -1.0}, 0.0),
        ]))
        assert res.is_optimal
        np.testing.assert_allclose(res.x, [1.0, 1.0])
        assert res.objective == pytest.approx(8.0)


class TestKKTProperty:
    @given(
        target=st.floats(-5.0, 5.0),
        cap=st.floats(-4.0, 4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_parametric_qp_solution(self, target, cap):
        """min (x-target)^2 s.t. x <= cap has solution min(target, cap)."""
        x = var("x")
        p = NLPProblem(
            ["x"], (x - target) * (x - target), [("cap", x - cap)],
            np.array([-100.0]), np.array([100.0]),
        )
        res = solve_nlp(p)
        assert res.is_optimal
        assert res.x[0] == pytest.approx(min(target, cap), abs=1e-3)
