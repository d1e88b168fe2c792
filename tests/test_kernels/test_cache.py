"""KernelCache keying, position independence, the process-wide core store,
and counters."""

from __future__ import annotations

import collections
import multiprocessing
import os
import random
import sys
import threading
import warnings

import numpy as np
import pytest

from repro.exceptions import ExpressionError
from repro.expr.node import const, var
from repro.kernels import BatchKernel, KernelCache, default_cache
from repro.kernels import cache as cache_module
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


def compile_count(expr) -> int:
    """Compiles one fresh cache (one solve) makes to look ``expr`` up."""
    cache = KernelCache()
    cache.smooth(expr, {"n": 0})
    return cache.counters.get("kernel_compiles")


def linear(k: int):
    return const(float(k + 2)) * var("n")


class TestCoreStore:
    def test_core_compiled_by_two_caches_serves_a_third(self):
        first, second, third = KernelCache(), KernelCache(), KernelCache()
        k1 = first.smooth(perf_expr(), {"n": 0})
        k2 = second.smooth(perf_expr(), {"n": 0})
        k3 = third.smooth(perf_expr(), {"n": 1, "T": 0})
        assert second.counters.get("kernel_compiles") == 1
        assert third.summary() == {"kernel_hits": 1}
        assert k3.core is k2.core and k2.core is not k1.core

    def test_core_compiled_once_is_not_kept(self):
        assert compile_count(perf_expr()) == 1
        assert len(cache_module._store) == 0
        assert compile_count(perf_expr()) == 1  # the second compile admits it
        assert compile_count(perf_expr()) == 0

    def test_least_recently_used_core_is_evicted(self, monkeypatch):
        monkeypatch.setattr(cache_module, "_STORE_CAPACITY", 3)
        for k in range(3):
            compile_count(linear(k))
            compile_count(linear(k))
        assert compile_count(linear(0)) == 0  # now the most recently used
        compile_count(linear(3))
        compile_count(linear(3))               # admitted: evicts linear(1)
        assert len(cache_module._store) == 3
        assert [compile_count(linear(k)) for k in (0, 2, 3)] == [0, 0, 0]
        assert compile_count(linear(1)) == 1

    def test_remembered_keys_stay_bounded(self, monkeypatch):
        monkeypatch.setattr(cache_module, "_SEEN_CAPACITY", 4)
        for k in range(10):
            compile_count(linear(k))
        assert len(cache_module._seen) == 4
        compile_count(linear(0))  # forgotten: this compile counts as a first
        assert compile_count(linear(0)) == 1
        compile_count(linear(9))  # still remembered: admitted
        assert compile_count(linear(9)) == 0

    def test_counters_stay_per_instance(self):
        caches = [KernelCache() for _ in range(3)]
        for cache in caches:
            cache.smooth(perf_expr(), {"n": 0})
            cache.smooth(perf_expr(), {"n": 0})
        compiled = {"kernel_compiles": 1, "kernel_misses": 1, "kernel_hits": 1}
        assert [c.summary() for c in caches] == [compiled, compiled, {"kernel_hits": 2}]

    def test_clear_empties_the_store(self):
        for _ in range(2):
            compile_count(perf_expr())
        cache_module.clear_core_store()
        assert len(cache_module._store) == len(cache_module._seen) == 0
        assert compile_count(perf_expr()) == 1


def _hammer(exprs, rounds: int):
    """Look ``exprs`` up from more threads than cores, one fresh cache per
    lookup, with the interpreter switching threads as often as it can."""
    n_threads = 2 * (os.cpu_count() or 1) + 1
    compiles = collections.Counter()
    bits = collections.defaultdict(set)
    sizes = []
    lock = threading.Lock()
    start = threading.Barrier(n_threads)
    point = np.array([3.0])

    def worker(seed):
        draw = random.Random(seed)
        start.wait()
        for _ in range(rounds):
            k = draw.randrange(len(exprs))
            cache = KernelCache()
            value = cache.smooth(exprs[k], {"n": 0}).value(point)
            with lock:
                compiles[k] += cache.counters.get("kernel_compiles")
                bits[k].add(float(value).hex())
                sizes.append(len(cache_module._store))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    return compiles, bits, max(sizes)


def _lookup_in_child():
    KernelCache().smooth(perf_expr(), {"n": 0})


class TestStoreConcurrency:
    def test_threads_compile_each_key_at_most_twice(self, monkeypatch):
        exprs = [const(7.0) / var("n") + const(float(k)) * var("n") ** const(1.5)
                 for k in range(24)]
        compiles, bits, largest = _hammer(exprs, rounds=60)
        assert max(compiles.values()) <= 2
        assert all(len(values) == 1 for values in bits.values())
        assert largest <= cache_module._STORE_CAPACITY
        # Under eviction the bound still holds and every core agrees.
        cache_module.clear_core_store()
        monkeypatch.setattr(cache_module, "_STORE_CAPACITY", 5)
        _, bits, largest = _hammer(exprs, rounds=60)
        assert all(len(values) == 1 for values in bits.values())
        assert largest <= 5

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_child_forked_while_the_lock_is_held_looks_up(self):
        held, release = threading.Event(), threading.Event()

        def hold():
            with cache_module._store_lock:
                held.set()
                release.wait()

        holder = threading.Thread(target=hold)
        holder.start()
        child = multiprocessing.get_context("fork").Process(target=_lookup_in_child)
        try:
            held.wait()
            with warnings.catch_warnings():
                # Forking with threads running is the point of this test.
                warnings.simplefilter("ignore", DeprecationWarning)
                child.start()
            child.join(timeout=30)
            assert not child.is_alive()
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join()
            release.set()
            holder.join()


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
