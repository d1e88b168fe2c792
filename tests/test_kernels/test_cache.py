"""KernelCache keying, position independence, and counters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ExpressionError
from repro.expr.node import const, var
from repro.kernels import BatchKernel, KernelCache, default_cache
from repro.nlp import BarrierOptions, NLPProblem
from repro.nlp.barrier import _Barrier
from repro.util.timing import Counters


def perf_expr(n="n"):
    return const(8000.0) / var(n) + const(0.02) * var(n) ** const(1.3) + const(18.0)


class TestSmoothCaching:
    def test_structurally_equal_trees_hit(self):
        cache = KernelCache()
        cache.smooth(perf_expr(), {"n": 0})
        cache.smooth(perf_expr(), {"n": 0})  # fresh objects, same structure
        assert cache.counters.get("kernel_compiles") == 1
        assert cache.counters.get("kernel_hits") == 1
        assert cache.hit_rate == 0.5

    def test_different_constants_miss(self):
        cache = KernelCache()
        cache.smooth(const(2.0) * var("n"), {"n": 0})
        cache.smooth(const(3.0) * var("n"), {"n": 0})
        assert cache.counters.get("kernel_compiles") == 2

    def test_position_independent_across_layouts(self):
        """The same expression hits even when the variable vector moved —
        the situation B&B children create when presolve fixes different
        variable subsets."""
        cache = KernelCache()
        e = var("T") + const(1.0) / var("n")
        k1 = cache.smooth(e, {"n": 0, "T": 1})
        k2 = cache.smooth(e, {"extra": 0, "n": 1, "T": 4})
        assert cache.counters.get("kernel_compiles") == 1
        assert cache.counters.get("kernel_hits") == 1
        assert k1.core is k2.core
        x1 = np.array([2.0, 7.0])
        x2 = np.array([99.0, 2.0, 0.0, 0.0, 7.0])
        assert k1.value(x1) == k2.value(x2) == 7.5
        g1 = dict(zip(k1.grad_positions, k1.grad_entries(x1)))
        g2 = dict(zip(k2.grad_positions, k2.grad_entries(x2)))
        assert g1[1] == g2[4] == 1.0          # d/dT
        assert g1[0] == g2[1] == -0.25        # d/dn

    def test_evaluators_cached_separately(self):
        cache = KernelCache()
        cache.smooth(perf_expr(), {"n": 0}, evaluator="kernel")
        cache.smooth(perf_expr(), {"n": 0}, evaluator="tree")
        assert cache.counters.get("kernel_compiles") == 2

    def test_unknown_evaluator_rejected(self):
        with pytest.raises(ExpressionError, match="evaluator"):
            KernelCache().smooth(perf_expr(), {"n": 0}, evaluator="warp")


class TestBatchCaching:
    def test_presimplify_shares_trivial_variants(self):
        cache = KernelCache()
        cache.batch([var("n") + const(0.0)], {"n": 0})
        cache.batch([var("n")], {"n": 0})
        assert cache.counters.get("kernel_compiles") == 1

    def test_batch_counts_points(self):
        cache = KernelCache()
        k = cache.batch([perf_expr()], {"n": 0})
        k.values(np.linspace(1.0, 64.0, 256).reshape(-1, 1))
        assert cache.counters.get("kernel_batch_evals") == 1
        assert cache.counters.get("kernel_batch_points") == 256

    def test_empty_set_rejected(self):
        with pytest.raises(ExpressionError, match="at least one"):
            BatchKernel([], {})


class TestBookkeeping:
    def test_len_and_clear(self):
        cache = KernelCache()
        cache.smooth(perf_expr(), {"n": 0})
        cache.batch([perf_expr()], {"n": 0})
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0

    def test_summary_snapshot(self):
        cache = KernelCache()
        cache.smooth(perf_expr(), {"n": 0})
        summary = cache.summary()
        assert summary["kernel_compiles"] == 1
        assert summary["kernel_misses"] == 1

    def test_default_cache_is_shared(self):
        assert default_cache() is default_cache()

    def test_hit_rate_zero_before_lookups(self):
        assert KernelCache().hit_rate == 0.0


class TestCounters:
    def test_incr_and_get(self):
        c = Counters()
        c.incr("a")
        c.incr("a", 4)
        assert c.get("a") == 5
        assert c.get("missing") == 0

    def test_ratio(self):
        c = Counters()
        c.incr("hit", 3)
        c.incr("miss", 1)
        assert c.ratio("hit", "hit", "miss") == 0.75
        assert c.ratio("hit", "nothing") == 0.0

    def test_merge_and_summary(self):
        a, b = Counters(), Counters()
        a.incr("x", 2)
        b.incr("x", 3)
        b.incr("y")
        a.merge(b)
        assert a.summary() == {"x": 5, "y": 1}

    def test_smooth_kernel_counts_evaluations(self):
        """The barrier counts each Newton step's kernel evaluations in its
        problem's cache: every gradient, and the Hessian of every function
        that is not affine."""
        cache = KernelCache()
        problem = NLPProblem(
            names=["n", "T"],
            objective=var("T"),
            inequalities=[("curve", perf_expr() - var("T")),
                          ("cap", var("n") - const(60.0))],
            lb=np.array([1.0, 0.0]),
            ub=np.array([64.0, 1e4]),
            kernel_cache=cache,
        )
        x = np.array([16.0, 900.0])
        for k in problem.kernels():
            k.grad_entries(x)
            k.hess_entries(x)
        assert cache.counters.get("kernel_grad_evals") == 0  # entries alone count nothing
        barrier = _Barrier(problem, BarrierOptions())
        for step in (1, 2):
            barrier._grad_hess(x, 1.0)
            assert cache.counters.get("kernel_grad_evals") == 3 * step
            assert cache.counters.get("kernel_hess_evals") == step
