import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.exceptions import ModelError
from repro.lp import LinearProgram, LPStatus, RowSense, SimplexOptions, solve_lp


def make_lp(c, lb, ub, rows=(), senses=(), rhs=()):
    lp = LinearProgram(np.array(c, float), np.array(lb, float), np.array(ub, float))
    for row, sense, r in zip(rows, senses, rhs):
        lp.add_row(np.array(row, float), sense, r)
    return lp


class TestProblemConstruction:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ModelError):
            LinearProgram(np.zeros(2), np.zeros(3), np.zeros(2))

    def test_crossed_bounds_rejected(self):
        with pytest.raises(ModelError):
            LinearProgram(np.zeros(1), np.array([2.0]), np.array([1.0]))

    def test_bad_row_length_rejected(self):
        lp = make_lp([1, 1], [0, 0], [1, 1])
        with pytest.raises(ModelError):
            lp.add_row(np.array([1.0]), RowSense.LE, 1.0)

    def test_nonfinite_row_rejected(self):
        lp = make_lp([1, 1], [0, 0], [1, 1])
        with pytest.raises(ModelError):
            lp.add_row(np.array([np.inf, 0.0]), RowSense.LE, 1.0)

    def test_copy_is_independent(self):
        lp = make_lp([1, 1], [0, 0], [1, 1], [[1, 1]], [RowSense.LE], [1.0])
        cp = lp.copy()
        cp.lb[0] = 0.5
        cp.add_row(np.array([1.0, 0.0]), RowSense.GE, 0.2)
        assert lp.lb[0] == 0.0 and lp.num_rows == 1

    def test_default_names(self):
        lp = make_lp([1, 2], [0, 0], [1, 1])
        assert lp.names == ["x0", "x1"]


class TestBasicSolves:
    def test_bound_only_problem(self):
        lp = make_lp([1.0, -1.0], [0, 0], [2, 3])
        res = solve_lp(lp)
        assert res.is_optimal
        np.testing.assert_allclose(res.x, [0.0, 3.0])
        assert res.objective == pytest.approx(-3.0)

    def test_bound_only_unbounded(self):
        lp = make_lp([-1.0], [0.0], [np.inf])
        res = solve_lp(lp)
        assert res.status is LPStatus.UNBOUNDED

    def test_simple_le(self):
        # max x+y s.t. x+2y<=4, 3x+y<=6  (classic)
        lp = make_lp(
            [-1.0, -1.0], [0, 0], [np.inf, np.inf],
            [[1, 2], [3, 1]], [RowSense.LE, RowSense.LE], [4.0, 6.0],
        )
        res = solve_lp(lp)
        assert res.is_optimal
        assert res.objective == pytest.approx(-(8 / 5 + 6 / 5))

    def test_equality_row(self):
        lp = make_lp(
            [1.0, 2.0], [0, 0], [10, 10],
            [[1, 1]], [RowSense.EQ], [4.0],
        )
        res = solve_lp(lp)
        assert res.is_optimal
        np.testing.assert_allclose(res.x, [4.0, 0.0], atol=1e-8)

    def test_ge_row(self):
        lp = make_lp(
            [1.0, 1.0], [0, 0], [10, 10],
            [[2, 1]], [RowSense.GE], [4.0],
        )
        res = solve_lp(lp)
        assert res.is_optimal
        assert res.objective == pytest.approx(2.0)  # x=2,y=0

    def test_infeasible(self):
        lp = make_lp(
            [0.0], [0.0], [1.0],
            [[1.0]], [RowSense.GE], [2.0],
        )
        res = solve_lp(lp)
        assert res.status is LPStatus.INFEASIBLE

    def test_unbounded_with_rows(self):
        lp = make_lp(
            [-1.0, 0.0], [0, 0], [np.inf, 1.0],
            [[0.0, 1.0]], [RowSense.LE], [1.0],
        )
        res = solve_lp(lp)
        assert res.status is LPStatus.UNBOUNDED

    def test_negative_rhs_rows(self):
        lp = make_lp(
            [1.0, 1.0], [-5, -5], [5, 5],
            [[1, 1]], [RowSense.EQ], [-3.0],
        )
        res = solve_lp(lp)
        assert res.is_optimal
        assert res.objective == pytest.approx(-3.0)

    def test_free_variable(self):
        lp = make_lp(
            [1.0], [-np.inf], [np.inf],
            [[1.0]], [RowSense.GE], [-7.0],
        )
        res = solve_lp(lp)
        assert res.is_optimal
        assert res.objective == pytest.approx(-7.0)

    def test_fixed_variable(self):
        lp = make_lp(
            [1.0, 1.0], [2.0, 0.0], [2.0, 5.0],
            [[1, 1]], [RowSense.GE], [3.0],
        )
        res = solve_lp(lp)
        assert res.is_optimal
        np.testing.assert_allclose(res.x, [2.0, 1.0], atol=1e-8)

    def test_value_map_and_errors(self):
        lp = make_lp([1.0], [0.0], [1.0])
        res = solve_lp(lp)
        assert res.value_map(["a"]) == {"a": 0.0}
        bad = solve_lp(make_lp([0.0], [0.0], [1.0],
                               [[1.0]], [RowSense.GE], [2.0]))
        with pytest.raises(ValueError):
            bad.value_map(["a"])

    def test_duals_reported(self):
        lp = make_lp(
            [-1.0, -1.0], [0, 0], [np.inf, np.inf],
            [[1, 2], [3, 1]], [RowSense.LE, RowSense.LE], [4.0, 6.0],
        )
        res = solve_lp(lp)
        assert res.duals is not None and res.duals.shape == (2,)
        # complementary-ish: both rows tight, duals negative for a min of -x-y
        assert np.all(res.duals <= 1e-9)


class TestDegenerateAndTricky:
    def test_degenerate_vertex(self):
        # Three constraints through the same vertex.
        lp = make_lp(
            [-1.0, -1.0], [0, 0], [np.inf, np.inf],
            [[1, 0], [0, 1], [1, 1]],
            [RowSense.LE] * 3,
            [1.0, 1.0, 2.0],
        )
        res = solve_lp(lp)
        assert res.is_optimal
        assert res.objective == pytest.approx(-2.0)

    def test_bound_flip_path(self):
        # Optimum at an upper bound without any basis change needed.
        lp = make_lp(
            [-1.0, 0.0], [0, 0], [1.0, 1.0],
            [[1.0, 1.0]], [RowSense.LE], [5.0],
        )
        res = solve_lp(lp)
        assert res.is_optimal
        assert res.x[0] == pytest.approx(1.0)

    def test_redundant_equalities(self):
        lp = make_lp(
            [1.0, 1.0], [0, 0], [10, 10],
            [[1, 1], [2, 2]], [RowSense.EQ, RowSense.EQ], [4.0, 8.0],
        )
        res = solve_lp(lp)
        assert res.is_optimal
        assert res.objective == pytest.approx(4.0)

    def test_iteration_limit_status(self):
        lp = make_lp(
            [-1.0, -1.0], [0, 0], [np.inf, np.inf],
            [[1, 2], [3, 1]], [RowSense.LE, RowSense.LE], [4.0, 6.0],
        )
        res = solve_lp(lp, SimplexOptions(max_iterations=0))
        assert res.status is LPStatus.ITERATION_LIMIT

    def test_rows_each_within_tolerance_are_feasible(self):
        # Each row is violated by 5.96e-08, inside the 1e-7 feasibility
        # tolerance; only their sum exceeds it.
        lp = make_lp(
            [0.0], [-0.5], [-0.5],
            [[1.192092896e-07], [1.192092896e-07]],
            [RowSense.GE, RowSense.GE], [0.0, 0.0],
        )
        res = solve_lp(lp)
        assert res.is_optimal, res.message
        assert res.x[0] == -0.5

    def test_one_row_beyond_tolerance_is_infeasible(self):
        lp = make_lp(
            [0.0], [-0.5], [-0.5],
            [[1.192092896e-07], [4e-07]],
            [RowSense.GE, RowSense.GE], [0.0, 0.0],
        )
        assert solve_lp(lp).status is LPStatus.INFEASIBLE


@st.composite
def random_lp(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    fl = st.floats(-5.0, 5.0, allow_nan=False)
    c = draw(st.lists(fl, min_size=n, max_size=n))
    lb = draw(st.lists(st.floats(-3.0, 0.0), min_size=n, max_size=n))
    span = draw(st.lists(st.floats(0.0, 6.0), min_size=n, max_size=n))
    ub = [l + s for l, s in zip(lb, span)]
    rows = [draw(st.lists(fl, min_size=n, max_size=n)) for _ in range(m)]
    senses = [draw(st.sampled_from(list(RowSense))) for _ in range(m)]
    rhs = draw(st.lists(st.floats(-4.0, 4.0), min_size=m, max_size=m))
    return c, lb, ub, rows, senses, rhs


_SCIPY_SENSE = {RowSense.LE: 1, RowSense.GE: -1}


def scipy_reference(c, lb, ub, rows, senses, rhs):
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for row, sense, r in zip(rows, senses, rhs):
        if sense is RowSense.EQ:
            A_eq.append(row)
            b_eq.append(r)
        else:
            sgn = _SCIPY_SENSE[sense]
            A_ub.append([sgn * v for v in row])
            b_ub.append(sgn * r)
    return linprog(
        c,
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=list(zip(lb, ub)),
        method="highs",
    )


class TestAgainstScipy:
    @given(data=random_lp())
    @settings(max_examples=150, deadline=None)
    def test_matches_scipy_linprog(self, data):
        c, lb, ub, rows, senses, rhs = data
        ours = solve_lp(make_lp(c, lb, ub, rows, senses, rhs))
        ref = scipy_reference(c, lb, ub, rows, senses, rhs)
        if ref.status == 2:  # infeasible
            if ours.is_optimal:
                # Tolerance-boundary case: accept if our point violates the
                # rows by no more than the solver's feasibility tolerance.
                worst = 0.0
                for row, sense, r in zip(rows, senses, rhs):
                    val = float(np.dot(row, ours.x))
                    if sense is RowSense.LE:
                        worst = max(worst, val - r)
                    elif sense is RowSense.GE:
                        worst = max(worst, r - val)
                    else:
                        worst = max(worst, abs(val - r))
                assert worst <= 1e-6
            else:
                assert ours.status is LPStatus.INFEASIBLE
        elif ref.status == 0:
            assert ours.is_optimal, ours.message
            if ours.objective != pytest.approx(ref.fun, rel=1e-6, abs=1e-6):
                # HiGHS enforces primal feasibility only to ~1e-7, so on
                # near-degenerate rows (tiny coefficients) it can report a
                # "better" objective from a point that slightly violates a
                # row.  Accept the mismatch only in that direction, and only
                # when scipy's point is indeed infeasible at exact arithmetic.
                assert ref.fun <= ours.objective + 1e-6
                ref_viol = 0.0
                for row, sense, r in zip(rows, senses, rhs):
                    val = float(np.dot(row, ref.x))
                    if sense is RowSense.LE:
                        ref_viol = max(ref_viol, val - r)
                    elif sense is RowSense.GE:
                        ref_viol = max(ref_viol, r - val)
                    else:
                        ref_viol = max(ref_viol, abs(val - r))
                assert ref_viol > 0.0
            # our solution must actually be feasible
            x = ours.x
            for row, sense, r in zip(rows, senses, rhs):
                val = float(np.dot(row, x))
                if sense is RowSense.LE:
                    assert val <= r + 1e-6
                elif sense is RowSense.GE:
                    assert val >= r - 1e-6
                else:
                    assert val == pytest.approx(r, abs=1e-6)
