"""The traced run: spans around each layer's public entry points.

:class:`LayerTracer` wraps the entry points of every layer *where their
callers look them up* (the module global or class attribute the caller
reads at call time), records one :func:`repro.telemetry.span` per call
into a private :class:`~repro.telemetry.MetricsRegistry`, and counts the
work each call reports in its return value.  Nothing inside ``src/`` is
changed; :meth:`LayerTracer.uninstall` restores every original.

Supervised service workers are fork-started, so they inherit the
wrappers and the active registry; the worker loop already ships each
task's registry delta (counters and span aggregates) home with its
result.

Spans stay in memory.  A layer's self time is its span time minus the
time covered by its direct child spans; :func:`layer_metrics` derives
every per-layer metric from the registry snapshot at the end.
"""

from __future__ import annotations

import functools
import os
from typing import NamedTuple

from repro import telemetry
from repro.analysis import whatif
from repro.cesm.simulator import CoupledRunSimulator
from repro.hslb import pipeline, solve
from repro.kernels.cache import KernelCache
from repro.minlp import bnb, lpnlp
from repro.parallel.supervised import SupervisedProcessExecutor
from repro.reuse.family import SolveFamily
from repro.service.engine import ServiceEngine
from repro.telemetry import MetricsRegistry

_COUNT = "bench."   # prefix of the counters recorded here


def _count(name: str, amount) -> None:
    telemetry.count(_COUNT + name, amount)


class _Timed(NamedTuple):
    """A task's value plus the worker that ran it and for how long."""

    value: object
    pid: int
    seconds: float


def _timed_task(fn, payload) -> _Timed:
    """Runs inside a supervised worker: the in-worker share of a map."""
    t0 = telemetry.monotonic()
    with telemetry.span("parallel.task"):
        value = fn(payload)
    return _Timed(value, os.getpid(), telemetry.monotonic() - t0)


# -- what each entry point's result says about the work done -------------------------


def _fitting_counts(fits, *args, **kwargs) -> None:
    _count("fitting.lm_iterations", sum(f.iterations for f in fits.values()))
    _count("fitting.starts", sum(f.starts_tried for f in fits.values()))


def _gather_counts(data, *args, **kwargs) -> None:
    _count("cesm.runs", sum(data.point_count(c) for c in data.components()))


def _coupled_counts(timings, *args, **kwargs) -> None:
    _count("cesm.runs", 1)


def _spec_counts(model, *args, **kwargs) -> None:
    _count("spec.builds", 1)


def _nlp_counts(result, *args, **kwargs) -> None:
    _count("nlp.solves", 1)
    _count("nlp.newton_iterations", result.newton_iterations)


def _lp_counts(result, *args, **kwargs) -> None:
    _count("lp.solves", 1)
    _count("lp.iterations", result.iterations)


def _minlp_counts(result, *args, **kwargs) -> None:
    _count("minlp.solves", 1)
    _count("minlp.nodes", result.nodes)
    _count("minlp.cuts_added", result.cuts_added)
    kernels = result.kernel_counters
    _count("kernels.compiles", kernels.get("kernel_compiles", 0))
    _count("kernels.hits", kernels.get("kernel_hits", 0))
    _count("kernels.misses", kernels.get("kernel_misses", 0))
    reuse = result.reuse_counters
    for name in ("cuts_carried", "incumbent_seeded", "incumbent_rejected", "basis_reused"):
        _count("reuse." + name, reuse.get(name, 0))


class LayerTracer:
    """Install/uninstall the layer wrappers around one traced pass."""

    def __init__(self):
        self.registry = MetricsRegistry(span_capacity=1 << 16)
        self._originals: list = []

    def _wrap(self, owner, attr: str, layer: str, counts=None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with telemetry.span(layer):
                result = original(*args, **kwargs)
            if counts is not None:
                counts(result, *args, **kwargs)
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        telemetry.enable(self.registry)
        wrap = self._wrap
        wrap(pipeline, "fit_components", "fitting", _fitting_counts)
        wrap(pipeline, "gather_benchmarks", "cesm", _gather_counts)
        wrap(CoupledRunSimulator, "run_coupled", "cesm", _coupled_counts)
        wrap(whatif, "build_from_spec", "spec", _spec_counts)
        wrap(solve, "layout_model_for_case", "spec", _spec_counts)
        wrap(KernelCache, "smooth", "kernels")
        wrap(KernelCache, "batch", "kernels")
        wrap(lpnlp, "solve_nlp", "nlp", _nlp_counts)
        wrap(bnb, "solve_nlp", "nlp", _nlp_counts)
        wrap(lpnlp, "solve_lp", "lp", _lp_counts)
        wrap(whatif, "solve_lpnlp", "minlp", _minlp_counts)
        wrap(solve, "solve_lpnlp", "minlp", _minlp_counts)
        wrap(SolveFamily, "plan", "reuse")
        wrap(ServiceEngine, "try_exact", "service.exact")
        self._wrap_solve_group()
        self._wrap_supervised_map()

    def _wrap_solve_group(self) -> None:
        original = ServiceEngine.solve_group

        @functools.wraps(original)
        def solve_group(engine, group):
            t0 = telemetry.monotonic()
            with telemetry.span("service.solve"):
                responses = original(engine, group)
            # Every request of a group waits for the whole group.
            _count("service.group_request_s", (telemetry.monotonic() - t0) * len(group))
            return responses

        self._originals.append((ServiceEngine, "solve_group", original))
        ServiceEngine.solve_group = solve_group

    def _wrap_supervised_map(self) -> None:
        original = SupervisedProcessExecutor.map_supervised

        @functools.wraps(original)
        def map_supervised(executor, fn, payloads, progress=None):
            payloads = list(payloads)
            t0 = telemetry.monotonic()
            with telemetry.span("parallel.map"):
                slots = original(
                    executor, functools.partial(_timed_task, fn), payloads, progress
                )
            # Workers run tasks side by side: the map's in-worker time is
            # that of its busiest worker, the rest is dispatch.
            busy: dict = {}
            for slot in slots:
                if isinstance(slot, _Timed):
                    busy[slot.pid] = busy.get(slot.pid, 0.0) + slot.seconds
            _count("parallel.tasks", len(payloads))
            _count("parallel.dispatch_s",
                   telemetry.monotonic() - t0 - max(busy.values(), default=0.0))
            return [slot.value if isinstance(slot, _Timed) else slot for slot in slots]

        self._originals.append((SupervisedProcessExecutor, "map_supervised", original))
        SupervisedProcessExecutor.map_supervised = map_supervised

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
        telemetry.disable()


# -- deriving the per-layer metrics -------------------------------------------------------


def span_times(snapshot: dict) -> tuple:
    """``(inclusive, self, outermost)`` seconds per span name.

    Self time subtracts the direct children's inclusive time; outermost
    time counts only spans whose parent has another name, so a layer
    that nests into itself is not counted twice.
    """
    inclusive: dict = {}
    children: dict = {}
    outermost: dict = {}
    for agg in snapshot["spans"].values():
        name, parent, seconds = agg["name"], agg["parent"], agg["seconds"]
        inclusive[name] = inclusive.get(name, 0.0) + seconds
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + seconds
        if parent != name:
            outermost[name] = outermost.get(name, 0.0) + seconds
    self_time = {name: t - children.get(name, 0.0) for name, t in inclusive.items()}
    return inclusive, self_time, outermost


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(snapshot: dict, engine_stats: list, client_latency_s: float) -> dict:
    """Every per-layer metric (0 for a layer the workload never enters).

    ``engine_stats`` are the service engines' ``stats()`` of the traced
    pass (empty for in-process workloads); ``client_latency_s`` is the
    summed request latency the service clients saw.
    """
    counts = {
        entry_name[len(_COUNT):]: sum(e["value"] for e in series)
        for entry_name, series in snapshot["counters"].items()
        if entry_name.startswith(_COUNT)
    }
    inclusive, self_time, outermost = span_times(snapshot)

    def c(name):
        return counts.get(name, 0)

    service = {}
    for stats in engine_stats:
        for name, value in stats["counters"].items():
            service[name] = service.get(name, 0) + value
    batches = [
        (int(size), n) for stats in engine_stats
        for size, n in stats["batch_sizes"].items()
    ]
    respawns = sum(
        (stats["supervision"] or {}).get("respawns", 0) for stats in engine_stats
    )
    engine_s = inclusive.get("service.exact", 0.0) + c("service.group_request_s")
    seeded, rejected = c("reuse.incumbent_seeded"), c("reuse.incumbent_rejected")
    hits, misses = c("kernels.hits"), c("kernels.misses")
    return {
        "fitting.self_s": self_time.get("fitting", 0.0),
        "fitting.lm_iterations": c("fitting.lm_iterations"),
        "fitting.starts": c("fitting.starts"),
        "cesm.self_s": self_time.get("cesm", 0.0),
        "cesm.runs": c("cesm.runs"),
        "spec.build_s": outermost.get("spec", 0.0),
        "spec.builds": c("spec.builds"),
        "kernels.compiles": c("kernels.compiles"),
        "kernels.hits": hits,
        "kernels.hit_ratio": _ratio(hits, hits + misses),
        "kernels.compile_s": outermost.get("kernels", 0.0),
        "nlp.solves": c("nlp.solves"),
        "nlp.newton_iterations": c("nlp.newton_iterations"),
        "nlp.self_s": self_time.get("nlp", 0.0),
        "lp.solves": c("lp.solves"),
        "lp.iterations": c("lp.iterations"),
        "lp.self_s": self_time.get("lp", 0.0),
        "minlp.solves": c("minlp.solves"),
        "minlp.nodes": c("minlp.nodes"),
        "minlp.cuts_added": c("minlp.cuts_added"),
        "minlp.self_s": self_time.get("minlp", 0.0),
        "reuse.plan_s": inclusive.get("reuse", 0.0),
        "reuse.cuts_carried": c("reuse.cuts_carried"),
        "reuse.incumbent_seeded": seeded,
        "reuse.incumbent_rejected": rejected,
        "reuse.basis_reused": c("reuse.basis_reused"),
        "reuse.seed_accept_ratio": _ratio(seeded, seeded + rejected),
        "service.exact_hit_ratio": _ratio(service.get("exact_hits", 0),
                                          service.get("requests", 0)),
        "service.warm_hits": service.get("warm_hits", 0),
        "service.cold_solves": service.get("cold_solves", 0),
        "service.dedup_hits": service.get("dedup_hits", 0),
        "service.batch_size_mean": _ratio(sum(s * n for s, n in batches),
                                          sum(n for _, n in batches)),
        "service.exact_s": inclusive.get("service.exact", 0.0),
        "service.queue_wait_s": max(client_latency_s - engine_s, 0.0) if engine_stats else 0.0,
        "service.rejected": service.get("rejected", 0),
        "parallel.tasks": c("parallel.tasks"),
        "parallel.dispatch_s": c("parallel.dispatch_s"),
        "parallel.respawns": respawns,
    }
