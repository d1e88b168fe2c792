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
back-end: ``"kernel"`` (default) or ``"tree"`` (direct ``Expr.evaluate``
walks, the bit-identical reference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import InfeasibleError, ModelError
from repro.expr.node import Add, Const, Expr, VarRef
from repro.expr.substitute import substitute
from repro.kernels import KernelCache, SmoothKernel
from repro.lp.problem import LinearProgram, RowSense

#: Re-exported for the issue-facing name: the smooth-function evaluator the
#: barrier solver consumes is the kernel layer's object.
_Smooth = SmoothKernel


@dataclass
class NLPProblem:
    """``min f(x) s.t. g(x) <= 0, sum(coeffs * x) = rhs, l <= x <= u``.

    ``names`` fixes the variable ordering used by all dense arrays.
    ``eq_rows`` is a list of ``(coeffs_dict, rhs)`` linear equalities; the
    barrier never sees them: :meth:`eliminate_equalities` substitutes them
    out before a solve.  ``kernel_cache`` shares compiled evaluators
    between related problems (a private cache is created when omitted);
    ``evaluator`` picks the evaluation back-end (see the module docstring).
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
        for i, (coeffs, _) in enumerate(self.eq_rows):
            missing = coeffs.keys() - known
            if missing:
                raise ModelError(f"equality row {i} uses unknown variables {sorted(missing)}")
        if self.kernel_cache is None:
            self.kernel_cache = KernelCache()
        cache = self.kernel_cache
        self._f = cache.smooth(self.objective, self.index, evaluator=self.evaluator)
        self._g = [
            (label, cache.smooth(body, self.index, evaluator=self.evaluator))
            for label, body in self.inequalities
        ]

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
        """max(g(x), bound violations, equality residuals), 0 when feasible.

        A row that is undefined at ``x`` (numpy's nan) is an infinite
        violation: ``max(0.0, nan)`` would silently keep 0.0.
        """
        worst = 0.0
        if self._g:
            g_max = float(self.g_values(x).max(initial=0.0))
            if math.isnan(g_max):
                return math.inf
            worst = max(worst, g_max)
        worst = max(worst, float(np.max(self.lb - x, initial=0.0)))
        worst = max(worst, float(np.max(x - self.ub, initial=0.0)))
        for coeffs, rhs in self.eq_rows:
            worst = max(worst, abs(sum(c * float(x[self.index[k]]) for k, c in coeffs.items()) - rhs))
        return worst

    def linear_program(self) -> LinearProgram | None:
        """This problem as a :class:`~repro.lp.LinearProgram` when it is
        one, else None: it must carry no equality row, and its objective
        and every row must be affine (each kernel's ``linear`` form).  The
        LP leaves out the objective's constant."""
        if self.eq_rows:
            return None
        forms = [k.linear for k in self.kernels()]
        if None in forms:
            return None
        objective, *rows = forms
        lp = LinearProgram(_dense(objective, self.names), self.lb, self.ub, self.names)
        for form in rows:
            lp.add_row(_dense(form, self.names), RowSense.LE, -form.constant)
        return lp

    def eliminate_equalities(self):
        """``(reduced, kept, lift)``: this problem with every equality row
        substituted out, the positions of its variables in ``names`` and the
        map from its points back to ours.  Pivots avoid the objective's and
        the inequalities' variables where they can, so those kernels stay
        (docs/solvers.md).  Raises :class:`InfeasibleError` when a row
        reduces to a nonzero constant or a box empties.
        """
        occurring = self.objective.variables().union(
            *(body.variables() for _, body in self.inequalities)
        )
        # pivot -> (row, a, r): a * pivot + sum(row[k] * k) = r, no k a pivot.
        pivots: dict = {}
        for i, (coeffs, rhs) in enumerate(self.eq_rows):
            row, r = {k: c for k, c in coeffs.items() if abs(c) > _ZERO_TOL}, float(rhs)
            for p, (p_row, p_a, p_r) in pivots.items():
                if p in row:
                    r = _subtract(row, r, row.pop(p) / p_a, p_row, p_r)
            if not row:
                if abs(r) > _ZERO_TOL:
                    raise InfeasibleError(f"equality row {i} reduces to 0 = {r:.6g}")
                continue
            q = min(row, key=lambda k: (k in occurring, -abs(row[k]), self.index[k]))
            a = row.pop(q)
            for p, (p_row, p_a, p_r) in pivots.items():
                if q in p_row:
                    pivots[p] = (p_row, p_a, _subtract(p_row, p_r, p_row.pop(q) / a, row, r))
            pivots[q] = (row, a, r)

        lb, ub = self.lb.tolist(), self.ub.tolist()
        bound_rows = []
        for p, (row, a, r) in pivots.items():
            # a * p = r - L with L = sum(row[k] * k): p's box bounds L.
            lo, hi = sorted((r - a * lb[self.index[p]], r - a * ub[self.index[p]]))
            if len(row) == 1:
                (k, c), = row.items()
                j = self.index[k]
                lo, hi = sorted((lo / c, hi / c))
                lb[j], ub[j] = max(lb[j], lo), min(ub[j], hi)
                if lb[j] >= ub[j]:
                    raise InfeasibleError(f"equality rows empty the box of {k}")
            elif not row and (lo > _ZERO_TOL or hi < -_ZERO_TOL):
                raise InfeasibleError(f"equality rows put {p} outside its bounds")
            elif row:  # L - hi <= 0 and lo - L <= 0, where finite
                bound_rows += [(f"{p}_bound", _affine({k: s * c for k, c in row.items()}, -s * e))
                               for s, e in ((1.0, hi), (-1.0, lo)) if math.isfinite(e)]
        kept = [j for j, name in enumerate(self.names) if name not in pivots]

        bindings = {p: _affine({k: -c / a for k, c in row.items()}, r / a)
                    for p, (row, a, r) in pivots.items() if p in occurring}

        def bind(expr):
            return substitute(expr, bindings) if expr.variables() & bindings.keys() else expr

        reduced = NLPProblem(
            names=[self.names[j] for j in kept],
            objective=bind(self.objective),
            inequalities=[(label, bind(b)) for label, b in self.inequalities] + bound_rows,
            lb=[lb[j] for j in kept],
            ub=[ub[j] for j in kept],
            kernel_cache=self.kernel_cache,
            evaluator=self.evaluator,
        )

        def lift(z: np.ndarray) -> np.ndarray:
            x = np.empty(self.n)
            x[kept] = z
            for p, (row, a, r) in pivots.items():
                x[self.index[p]] = (r - sum(c * x[self.index[k]] for k, c in row.items())) / a
            return x

        return reduced, kept, lift


#: Coefficients and constants of eliminated rows within this of zero are zero.
_ZERO_TOL = 1e-9


def _subtract(row: dict, r: float, f: float, other: dict, other_r: float) -> float:
    """``(row, r) -= f * (other, other_r)`` in place, dropping coefficients
    that cancel to within ``_ZERO_TOL``; returns the new ``r``."""
    for k, c in other.items():
        row[k] = row.get(k, 0.0) - f * c
        if abs(row[k]) <= _ZERO_TOL:
            del row[k]
    return r - f * other_r


def _dense(form, names: list) -> list:
    """The coefficients of the affine ``form`` in the order of ``names``."""
    return [form.coeffs.get(name, 0.0) for name in names]


def _affine(coeffs: dict, constant: float) -> Expr:
    """``sum(coeffs[k] * k) + constant`` as an expression."""
    return Add(tuple(Const(c) * VarRef(k) for k, c in coeffs.items()) + (Const(constant),))
