"""Kernel cache keyed by structural expression hashes.

Compiling a kernel costs symbolic differentiation plus two ``compile()``
calls; a branch-and-bound tree builds thousands of child NLPs whose
expressions are *identical* to their parent's (only variable bounds change
between children).  :class:`KernelCache` memoizes built kernels under

    (structural key(s) of the simplified expression(s),
     the (name -> vector position) layout restricted to their support,
     the evaluation back-end)

so a child node's rebuild is a dictionary hit.  Structural keys come from
:meth:`repro.expr.node.Expr.struct_key` — interned hashes, so key
comparison is cheap — and the support-restricted layout signature makes the
cache safe across subproblems that order their variable vectors
differently.

Hit/miss/compile counters accumulate in a
:class:`repro.util.timing.Counters`, which the MINLP solvers surface in
their solve reports.
"""

from __future__ import annotations

import threading

from repro.expr.simplify import simplify
from repro.kernels.kernel import BatchKernel, SmoothCore, SmoothKernel
from repro import telemetry
from repro.telemetry import names as metric
from repro.util.timing import Counters

__all__ = ["KernelCache", "default_cache"]


class KernelCache:
    """Memoized construction of :class:`SmoothKernel`/:class:`BatchKernel`."""

    def __init__(self, counters: Counters | None = None):
        self.counters = counters if counters is not None else Counters()
        self._smooth: dict = {}
        self._batch: dict = {}
        # Lookups compile-and-insert on miss; the lock makes that atomic so
        # concurrent callers (speculative MINLP node solves, parallel gather
        # sharing default_cache()) never compile the same kernel twice and
        # the hit/miss counters stay exact for cache operations.
        self._lock = threading.RLock()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_lock"]  # locks don't pickle; process workers get a fresh one
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # -- keys -------------------------------------------------------------------

    @staticmethod
    def _layout_sig(exprs, index: dict) -> tuple:
        """The (name, position) pairs for the expressions' joint support."""
        support: set = set()
        for e in exprs:
            support |= e.variables()
        return tuple((n, index[n]) for n in sorted(support))

    # -- lookups ----------------------------------------------------------------

    def smooth(self, expr, index: dict, evaluator: str = "kernel") -> SmoothKernel:
        """A (cached) smooth-function kernel for ``expr`` over ``index``.

        What is cached is the :class:`SmoothCore` — compiled against the
        expression's own sorted support, so the key needs no positions and
        subproblems that lay out their variable vectors differently (e.g.
        B&B children whose presolve fixed different variables) still hit.
        The returned :class:`SmoothKernel` is a cheap per-``index`` binding.
        """
        key = (expr.struct_key(), evaluator)
        with self._lock:
            core = self._smooth.get(key)
            if core is not None:
                self.counters.incr("kernel_hits")
                telemetry.count(metric.KERNEL_HITS)
            else:
                self.counters.incr("kernel_misses")
                self.counters.incr("kernel_compiles")
                telemetry.count(metric.KERNEL_MISSES)
                telemetry.count(metric.KERNEL_COMPILES)
                core = SmoothCore(expr, evaluator)
                self._smooth[key] = core
        return SmoothKernel(expr, index, evaluator=evaluator, core=core)

    def batch(self, exprs, index: dict, presimplify: bool = True) -> BatchKernel:
        """A (cached) batched kernel evaluating ``exprs`` in one pass.

        ``presimplify`` folds constants first so trivially-equal variants
        (``x + 0``, ``1 * x``) of the same curve share a cache slot.
        """
        exprs = tuple(simplify(e) for e in exprs) if presimplify else tuple(exprs)
        key = (
            tuple(e.struct_key() for e in exprs),
            self._layout_sig(exprs, index),
        )
        with self._lock:
            kernel = self._batch.get(key)
            if kernel is not None:
                self.counters.incr("kernel_hits")
                telemetry.count(metric.KERNEL_HITS)
                return kernel
            self.counters.incr("kernel_misses")
            self.counters.incr("kernel_compiles")
            telemetry.count(metric.KERNEL_MISSES)
            telemetry.count(metric.KERNEL_COMPILES)
            kernel = BatchKernel(exprs, index, counters=self.counters)
            self._batch[key] = kernel
            return kernel

    # -- bookkeeping --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._smooth) + len(self._batch)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from cache (0.0 before any lookup)."""
        return self.counters.ratio("kernel_hits", "kernel_hits", "kernel_misses")

    def summary(self) -> dict:
        """Counter snapshot for solve reports."""
        return self.counters.summary()

    def clear(self) -> None:
        with self._lock:
            self._smooth.clear()
            self._batch.clear()


_DEFAULT = KernelCache()


def default_cache() -> KernelCache:
    """The process-wide cache used by layers without a per-solve cache
    (e.g. the HSLB oracle's curve tabulation)."""
    return _DEFAULT
