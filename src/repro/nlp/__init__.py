"""Nonlinear programming substrate (the paper's filterSQP stand-in).

Solves smooth convex problems of the form

    minimize    f(x)
    subject to  g_i(x) <= 0            (smooth, convex)
                a_k . x = b_k          (linear)
                l <= x <= u

with a log-barrier interior-point method: the linear equalities are
substituted out once before the solve (each pivot's bounds become affine
inequality rows), the box and the inequality constraints enter the
barrier, and a built-in phase-1 (minimize the maximum violation) produces
the strictly feasible starting point the barrier needs.  The MINLP
branch-and-bound layer uses this solver for continuous relaxations and for
the fixed-integer subproblems NLP(ŷ) of the paper's LP/NLP algorithm that
stay nonlinear once the integers are fixed; the linear ones go to the
simplex (:meth:`NLPProblem.linear_program`).
"""

from repro.nlp.problem import NLPProblem
from repro.nlp.result import NLPResult, NLPStatus
from repro.nlp.barrier import BarrierOptions, solve_nlp

__all__ = [
    "NLPProblem",
    "NLPResult",
    "NLPStatus",
    "BarrierOptions",
    "solve_nlp",
]
