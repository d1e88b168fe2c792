"""NLP problem container evaluating through compiled kernels.

Symbolic gradients and Hessians are derived once and compiled into
CSE-grouped kernels (:mod:`repro.kernels`) over each function's own
support; evaluation during the barrier iterations is then a handful of
bytecode-compiled statement blocks instead of tree walks, and the barrier
assembles their entries into its dense gradient and Hessian itself.

Construction goes through a :class:`~repro.kernels.KernelCache` — pass the
same cache to sibling subproblems (the MINLP solvers pass one per solve)
and structurally identical functions are neither re-differentiated nor
recompiled; a function that earlier solves compiled twice comes from the
process-wide core store behind every cache.  ``evaluator`` selects the
back-end: ``"kernel"`` (default), ``"scalar"`` (one compiled lambda per
expression — the historical path) or ``"tree"`` (direct ``Expr.evaluate``
walks, the bit-identical reference).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ModelError
from repro.expr.node import Expr
from repro.kernels import KernelCache, SmoothKernel

#: Re-exported for the issue-facing name: the smooth-function evaluator the
#: barrier solver consumes is the kernel layer's object.
_Smooth = SmoothKernel


@dataclass
class NLPProblem:
    """``min f(x) s.t. g(x) <= 0, A_eq x = b_eq, l <= x <= u``.

    ``names`` fixes the variable ordering used by all dense arrays.
    ``eq_rows`` is a list of ``(coeffs_dict, rhs)`` linear equalities.
    ``kernel_cache`` shares compiled evaluators between related problems
    (a private cache is created when omitted); ``evaluator`` picks the
    evaluation back-end (see the module docstring).
    """

    names: list
    objective: Expr
    inequalities: list          # list of (name, Expr body) meaning body <= 0
    lb: np.ndarray
    ub: np.ndarray
    eq_rows: list = field(default_factory=list)
    kernel_cache: KernelCache | None = None
    evaluator: str = "kernel"

    def __post_init__(self):
        self.names = list(self.names)
        self.index = {n: i for i, n in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ModelError("duplicate variable names in NLP")
        self.lb = np.asarray(self.lb, dtype=float)
        self.ub = np.asarray(self.ub, dtype=float)
        n = len(self.names)
        if self.lb.shape != (n,) or self.ub.shape != (n,):
            raise ModelError("lb/ub shape mismatch with names")
        if np.any(self.lb >= self.ub):
            raise ModelError(
                "NLP variables need lb < ub (eliminate fixed variables first)"
            )
        known = set(self.names)
        for label, body in self.inequalities:
            missing = body.variables() - known
            if missing:
                raise ModelError(f"inequality {label!r} uses unknown {sorted(missing)}")
        missing = self.objective.variables() - known
        if missing:
            raise ModelError(f"objective uses unknown variables {sorted(missing)}")
        if self.kernel_cache is None:
            self.kernel_cache = KernelCache()
        cache = self.kernel_cache
        self._f = cache.smooth(self.objective, self.index, evaluator=self.evaluator)
        self._g = [
            (label, cache.smooth(body, self.index, evaluator=self.evaluator))
            for label, body in self.inequalities
        ]

        # Dense equality matrix.
        m = len(self.eq_rows)
        self.A_eq = np.zeros((m, n))
        self.b_eq = np.zeros(m)
        for i, (coeffs, rhs) in enumerate(self.eq_rows):
            for name, coef in coeffs.items():
                if name not in self.index:
                    raise ModelError(f"equality row {i} uses unknown variable {name!r}")
                self.A_eq[i, self.index[name]] = coef
            self.b_eq[i] = rhs

    # -- numeric interface used by the barrier solver ---------------------------

    @property
    def n(self) -> int:
        return len(self.names)

    def env_of(self, x: np.ndarray) -> dict:
        """Name -> value mapping (reporting; hot paths use vectors)."""
        return dict(zip(self.names, x.tolist()))

    def f(self, x: np.ndarray) -> float:
        return float(self._f.value(x))

    def g_values(self, x: np.ndarray) -> np.ndarray:
        return np.array([s.value(x) for _, s in self._g])

    def kernels(self) -> list:
        """The objective's smooth kernel, then each inequality's, in row
        order (the barrier's Newton loop evaluates their cores directly)."""
        return [self._f] + [s for _, s in self._g]

    def max_violation(self, x: np.ndarray) -> float:
        """max(g(x), bound violations, |A_eq x - b|), 0 when feasible."""
        worst = 0.0
        if self._g:
            worst = max(worst, float(self.g_values(x).max(initial=0.0)))
        worst = max(worst, float(np.max(self.lb - x, initial=0.0)))
        worst = max(worst, float(np.max(x - self.ub, initial=0.0)))
        if len(self.eq_rows):
            worst = max(worst, float(np.abs(self.A_eq @ x - self.b_eq).max()))
        return worst
