"""Fixed-integer subproblems NLP(y-hat): the simplex where they are linear.

In the Table I layout models every nonlinear term is a function of one
integer node count, so fixing the integers leaves a linear program.  Both
branch-and-bound loops certify integer points through
``lpnlp._solve_fixed_nlp``, which then solves at a simplex vertex: the
objectives land on the enumeration oracle's.  A subproblem that stays
nonlinear still goes to the barrier.
"""

import contextlib
import math
from unittest import mock

import pytest

import repro.minlp.lpnlp as lpnlp
from repro.cesm import ComponentId, Layout, ground_truth, make_case
from repro.hslb import layout_model_for_case
from repro.hslb.oracle import oracle_for_case
from repro.model import Model, Objective, Sense, VarType
from repro.minlp import solve_lpnlp, solve_nlp_bnb

I, L, A, O = ComponentId.ICE, ComponentId.LND, ComponentId.ATM, ComponentId.OCN

TABLE1 = [("1deg", 128, layout) for layout in Layout] + [("8th", 8192, Layout.HYBRID)]


@contextlib.contextmanager
def fixed_traffic():
    """The fixed-integer problems ``_solve_fixed_nlp`` builds, and those of
    them that reach the barrier."""
    built, barrier = [], []
    build_nlp, solve_nlp = lpnlp.build_nlp, lpnlp.solve_nlp

    def recording_build(*args, **kwargs):
        out = build_nlp(*args, **kwargs)
        if out.problem is not None:
            built.append(out.problem)
        return out

    def recording_solve(problem, *args, **kwargs):
        if any(problem is p for p in built):
            barrier.append(problem)
        return solve_nlp(problem, *args, **kwargs)

    with mock.patch.object(lpnlp, "build_nlp", recording_build), \
            mock.patch.object(lpnlp, "solve_nlp", recording_solve):
        yield built, barrier


@pytest.mark.parametrize(
    "resolution,nodes,layout", TABLE1,
    ids=lambda v: getattr(v, "name", str(v)).lower(),
)
@pytest.mark.parametrize("solver", [solve_lpnlp, solve_nlp_bnb], ids=["lpnlp", "bnb"])
def test_table1_subproblems_take_the_simplex(resolution, nodes, layout, solver):
    truth = ground_truth(resolution)
    curves = {c: truth[c].law for c in (I, L, A, O)}
    case = make_case(resolution, nodes, layout=layout, seed=0)
    expected = oracle_for_case(case, curves).solve().objective_value
    with fixed_traffic() as (built, barrier):
        res = solver(layout_model_for_case(case, curves))
    assert res.is_optimal
    assert built, "no fixed-integer subproblem was solved"
    assert all(p.linear_program() is not None for p in built)
    assert barrier == []
    assert math.isclose(res.objective, expected, rel_tol=1e-12, abs_tol=0.0)


def test_nonlinear_subproblem_reaches_the_barrier():
    """``x^2`` keeps each NLP(n) nonlinear: min over n in 1..4 of
    ``x^2 - 4x + 4 + 8/n`` with ``x + n <= 5`` is 8/3, at n = 3 and x = 2."""
    m = Model("curved")
    T = m.add_variable("T", lb=0.0, ub=100.0)
    x = m.add_variable("x", lb=0.0, ub=4.0)
    n = m.add_variable("n", VarType.INTEGER, 1, 4)
    m.add_constraint(
        "curve", x.ref() ** 2 - 4.0 * x.ref() + 4.0 + 8.0 / n.ref() - T.ref(),
        Sense.LE, 0.0,
    )
    m.add_constraint("cap", x.ref() + n.ref(), Sense.LE, 5.0)
    m.set_objective(Objective("obj", T.ref()))
    for solver in (solve_lpnlp, solve_nlp_bnb):
        with fixed_traffic() as (built, barrier):
            res = solver(m)
        assert res.is_optimal
        assert res.solution["n"] == 3.0
        assert res.objective == pytest.approx(8.0 / 3.0, abs=1e-6)
        assert built and all(p.linear_program() is None for p in built)
        assert len(barrier) == len(built)
