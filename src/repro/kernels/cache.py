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

Smooth cores are also shared across caches: every solve in the process
looks in one bounded store (see :func:`_shared_core`) before it compiles,
because a what-if ladder or the tuning service solves the same curves many
times.  A :class:`KernelCache` stays the per-solve object: its own counters,
its batch kernels and the cores this solve has used.

Hit/miss/compile counters accumulate in a
:class:`repro.util.timing.Counters`, which the MINLP solvers surface in
their solve reports.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict

from repro.expr.simplify import simplify
from repro.kernels.kernel import BatchKernel, SmoothCore, SmoothKernel
from repro import telemetry
from repro.telemetry import names as metric
from repro.util.timing import Counters

__all__ = ["KernelCache", "clear_core_store", "default_cache"]

# The process-wide store of compiled smooth cores.  A core is a pure
# function of (struct_key, evaluator), so serving one solve's core to
# another changes no result; it only skips the symbolic differentiation and
# the two compile() calls.  Working sets on the benchmark: `sweep` uses 134
# cores across its 9 operations and `service` 135 across its 72 specs, while
# `tune` compiles about 14 new cores per operation and never repeats a curve
# across solves.  A core is therefore admitted only the second time a solve
# compiles it; until then only its key is remembered.  Keeping every
# compiled core instead (a plain LRU) raised `tune` peak RSS by 9%: 256
# cores themselves hold under 2 MB, but kept alive among the solver's
# short-lived objects they leave allocator memory pinned.
_STORE_CAPACITY = 256    # admitted cores; the least recently used is evicted
_SEEN_CAPACITY = 4096    # keys compiled once, remembered without their core
_store: OrderedDict = OrderedDict()
# First in, first out.  A plain dict, because the per-entry nodes of an
# OrderedDict raised `tune` peak RSS by about 0.4 MB more.
_seen: dict = {}
# Held across the compile, so that concurrent lookups of one key compile it
# no more often than lookups in turn would: at most twice.
_store_lock = threading.Lock()


def _shared_core(key, expr, evaluator: str) -> tuple:
    """``(core, compiled)``: the stored core for ``key``, else a new one."""
    with _store_lock:
        core = _store.get(key)
        if core is not None:
            _store.move_to_end(key)
            return core, False
        core = SmoothCore(expr, evaluator)
        if _seen.pop(key, False):
            _store[key] = core
            if len(_store) > _STORE_CAPACITY:
                _store.popitem(last=False)
        else:
            _seen[key] = True
            if len(_seen) > _SEEN_CAPACITY:
                del _seen[next(iter(_seen))]
        return core, True


def clear_core_store() -> None:
    """Empty the process-wide core store and forget every remembered key."""
    with _store_lock:
        _store.clear()
        _seen.clear()


def _reset_store_lock() -> None:
    # Supervised workers are forked; a child forked while another thread
    # held the lock would block on its first lookup.  It keeps the cores.
    global _store_lock
    _store_lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_store_lock)


class KernelCache:
    """Memoized construction of :class:`SmoothKernel`/:class:`BatchKernel`."""

    def __init__(self, counters: Counters | None = None):
        self.counters = counters if counters is not None else Counters()
        self._smooth: dict = {}
        self._batch: dict = {}
        # Lookups compile-and-insert on miss; the lock makes that atomic so
        # concurrent callers (thread fan-outs, parallel gather sharing
        # default_cache()) never compile the same kernel twice and
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

        This cache's own cores come first, then the process-wide store; a
        core from either counts as a hit, even one an earlier solve
        compiled.
        """
        key = (expr.struct_key(), evaluator)
        with self._lock:
            core = self._smooth.get(key)
            compiled = False
            if core is None:
                core, compiled = _shared_core(key, expr, evaluator)
                self._smooth[key] = core
            if compiled:
                self.counters.incr("kernel_misses")
                self.counters.incr("kernel_compiles")
                telemetry.count(metric.KERNEL_MISSES)
                telemetry.count(metric.KERNEL_COMPILES)
            else:
                self.counters.incr("kernel_hits")
                telemetry.count(metric.KERNEL_HITS)
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
