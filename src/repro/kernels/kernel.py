"""Compiled evaluation kernels for expression sets.

A *kernel* is one bytecode-compiled function evaluating a whole set of
expressions — an objective, constraint bodies, their symbolic gradients and
Hessian entries — in a single pass, with common-subexpression elimination
across the set (:func:`repro.expr.compile.cse_source`).  Two shapes:

- :class:`BatchKernel` evaluates ``k`` expressions over a *batch* of points
  ``X`` of shape ``(m, n)`` in one vectorized numpy pass, returning an
  ``(m, k)`` array.  This is what the HSLB oracle and any candidate-layout
  scoring loop should use instead of a Python loop over points.
- :class:`SmoothKernel` packages value/gradient/Hessian evaluation of one
  smooth scalar function at a single point, the interface the barrier
  solver's inner loop needs.  Gradient entries are one compiled call, and
  Hessian entries another, each CSE'd internally.

Both produce results bit-identical to tree evaluation: emission preserves
the tree's left-associative operation order exactly, and CSE only reuses
values of *structurally identical* subtrees.

Kernels are built through a :class:`~repro.kernels.cache.KernelCache` in
production code — construction is the expensive part (symbolic
differentiation plus compilation), and branch-and-bound children share
almost every expression with their parent.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ExpressionError
from repro.expr.compile import compile_expr_set, compile_expr_single
from repro.expr.diff import gradient, hessian
from repro.expr.linear import linear_coefficients
from repro.expr.node import Expr

__all__ = ["BatchKernel", "SmoothKernel", "EVALUATORS"]

#: Evaluation back-ends for :class:`SmoothKernel`:
#: ``"kernel"`` — CSE'd compiled expression sets (the fast path),
#: ``"tree"``   — direct tree walks via ``Expr.evaluate`` (the reference).
EVALUATORS = ("kernel", "tree")


class BatchKernel:
    """``k`` expressions compiled into one vectorized pass.

    ``index`` maps variable names to columns of the input batch.  The
    compiled function is shape-agnostic: a 2-D batch ``X`` of shape
    ``(m, n)`` yields length-``m`` vectors per expression, a 1-D point
    yields scalars.
    """

    __slots__ = ("exprs", "index", "fn", "n_outputs", "counters")

    def __init__(self, exprs, index: dict, counters=None):
        self.exprs = tuple(exprs)
        if not self.exprs:
            raise ExpressionError("BatchKernel needs at least one expression")
        self.index = dict(index)
        self.fn = compile_expr_set(self.exprs, self.index, load="X[..., {}]", arg="X")
        self.n_outputs = len(self.exprs)
        self.counters = counters

    @property
    def source(self) -> str:
        """The generated Python source (for inspection and docs)."""
        return self.fn.__source__

    def __call__(self, X):
        """Raw outputs as a tuple (constants stay scalar)."""
        return self.fn(X)

    def values(self, X) -> np.ndarray:
        """Evaluate all expressions over the batch ``X``.

        ``X`` of shape ``(m, n)`` returns shape ``(m, k)``; a single point
        of shape ``(n,)`` returns shape ``(k,)``.  Constant expressions are
        broadcast across the batch.
        """
        X = np.asarray(X, dtype=float)
        raw = self.fn(X)
        out = np.empty(X.shape[:-1] + (self.n_outputs,))
        for j, column in enumerate(raw):
            out[..., j] = column
        if self.counters is not None:
            self.counters.incr("kernel_batch_evals")
            self.counters.incr(
                "kernel_batch_points", int(np.prod(X.shape[:-1], dtype=int))
            )
        return out


class SmoothCore:
    """The compiled, *position-independent* part of a smooth function.

    Evaluators are compiled against the expression's own support in sorted
    order (slots ``0..k-1``), never against a problem's variable layout —
    so one core serves every subproblem containing the same expression, no
    matter where its variables land in each problem's vector.  That is what
    makes the kernel cache effective across branch-and-bound nodes: a child
    whose presolve fixed *different* variables than its sibling still hits.

    ``support`` (sorted names), ``hess_pairs`` (upper-triangle name pairs)
    and ``linear`` describe the outputs; bindings map them to dense-array
    positions.
    """

    __slots__ = ("expr", "support", "hess_pairs", "linear",
                 "value", "grad_fn", "hess_fn")

    def __init__(self, expr: Expr, evaluator: str = "kernel"):
        if evaluator not in EVALUATORS:
            raise ExpressionError(
                f"unknown evaluator {evaluator!r}; expected one of {EVALUATORS}"
            )
        self.expr = expr
        self.support = tuple(sorted(expr.variables()))
        local = {n: i for i, n in enumerate(self.support)}
        try:
            self.linear = linear_coefficients(expr)
        except ExpressionError:
            self.linear = None
        grads = gradient(expr, self.support)
        grad_exprs = [grads[n] for n in self.support]
        hess_items = list(hessian(expr, self.support).items())
        self.hess_pairs = tuple(pair for pair, _ in hess_items)
        hess_exprs = [e for _, e in hess_items]

        if evaluator == "kernel":
            self.value = compile_expr_single(expr, local)
            self.grad_fn = (
                compile_expr_set(grad_exprs, local) if grad_exprs else _EMPTY
            )
            self.hess_fn = (
                compile_expr_set(hess_exprs, local) if hess_exprs else _EMPTY
            )
        else:  # tree-walk reference
            names = self.support

            def env_of(x):
                return {n: x[i] for i, n in enumerate(names)}

            self.value = lambda x: expr.evaluate(env_of(x))
            self.grad_fn = lambda x: tuple(
                e.evaluate(env_of(x)) for e in grad_exprs
            )
            self.hess_fn = lambda x: tuple(
                e.evaluate(env_of(x)) for e in hess_exprs
            )


class SmoothKernel:
    """A :class:`SmoothCore` bound to one problem's variable layout.

    All callables take the problem's full variable vector ``x``; ``index``
    maps variable names to positions in that vector.  Binding is cheap —
    just position arrays — so sharing a core across subproblems costs
    nothing per problem.  ``grad_positions`` and ``hess_positions`` carry
    the dense-array targets for the entries the gradient/Hessian evaluators
    return, in matching order.
    """

    __slots__ = ("core", "grad_positions", "hess_positions", "_sel")

    def __init__(self, expr: Expr, index: dict, evaluator: str = "kernel",
                 core: SmoothCore | None = None):
        self.core = core if core is not None else SmoothCore(expr, evaluator)
        support = self.core.support
        self.grad_positions = [index[n] for n in support]
        self.hess_positions = [
            (index[a], index[b]) for a, b in self.core.hess_pairs
        ]
        self._sel = np.array(self.grad_positions, dtype=np.intp)

    @property
    def expr(self) -> Expr:
        return self.core.expr

    @property
    def linear(self):
        """Linear coefficients when the expression is affine, else None."""
        return self.core.linear

    # -- evaluation at a full variable vector -----------------------------------

    def value(self, x) -> float:
        return self.core.value(x[self._sel])

    def grad_entries(self, x) -> tuple:
        """Gradient entries at ``x``, aligned with ``grad_positions``."""
        return self.core.grad_fn(x[self._sel])

    def hess_entries(self, x) -> tuple:
        """Upper-triangle Hessian entries, aligned with ``hess_positions``."""
        return self.core.hess_fn(x[self._sel])


def _EMPTY(x):
    return ()
