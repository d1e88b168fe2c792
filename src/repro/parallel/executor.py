"""Pluggable execution backends: ``serial``, ``thread``, ``supervised``.

The HSLB loop is embarrassingly parallel where it runs independent jobs —
the gather step's 5-day benchmarks per component, a grid search's coupled
runs, a what-if ladder's layout points — but parallel schedulers are only
trustworthy when they are reproducible.  An :class:`Executor` here is
therefore a *deterministic* map: ``map_ordered(fn, payloads)`` returns
results in **submission order** regardless of completion order (via
:func:`~repro.parallel.merge.ordered_merge`), and the earliest-submitted
failure is the one that raises.

Backends:

- :class:`SerialExecutor` — runs tasks inline, in order, stopping at the
  first failure.  This is the default everywhere and is *the* reference
  semantics: the pooled backends are tested to be bit-identical to it.
- :class:`ThreadExecutor` — a thread pool, the only backend whose tasks
  share the caller's objects; tasks must only touch thread-safe state (the
  library's task functions are pure, or touch per-task keys only).
- ``"supervised"`` — :class:`~repro.parallel.supervised.SupervisedProcessExecutor`,
  a process pool whose workers are monitored (heartbeats, per-task
  deadlines) and respawned after crashes/hangs, with lost tasks retried
  deterministically.  Task functions and payloads must be picklable
  (module-level functions, dataclass payloads); workers operate on
  *copies*, so any state a task mutates must be returned in its result and
  merged back by the caller.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from contextlib import contextmanager

from repro.exceptions import ConfigurationError, WorkerCrashError
from repro.parallel.merge import TaskFailure, ordered_merge

__all__ = [
    "SerialExecutor",
    "ThreadExecutor",
    "get_executor",
    "executor_scope",
    "EXECUTOR_KINDS",
]

EXECUTOR_KINDS = ("serial", "thread", "supervised")


def _default_workers() -> int:
    return max(2, os.cpu_count() or 2)


def _guarded(fn, payload):
    """Run one task, converting its exception into a mergeable value."""
    try:
        return fn(payload)
    except BaseException as exc:  # noqa: BLE001 - re-raised by ordered_merge
        return TaskFailure(exc)


class SerialExecutor:
    """Inline execution — the reference semantics for every backend."""

    kind = "serial"

    def __init__(self, workers: int = 1):
        self.workers = 1

    def map_ordered(self, fn, payloads, progress=None) -> list:
        # A plain loop on purpose: the first failure raises immediately and
        # later payloads never run, exactly like the historical serial code.
        # ``progress`` (if given) sees each successful (index, result) as it
        # lands — the crash-safe journal hooks in here.
        results = []
        for index, payload in enumerate(payloads):
            result = fn(payload)
            if progress is not None:
                progress(index, result)
            results.append(result)
        return results

    def shutdown(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False


class ThreadExecutor:
    """Thread-pool backend (shared-memory tasks, GIL-releasing workloads)."""

    kind = "thread"

    def __init__(self, workers: int | None = None):
        workers = _default_workers() if workers is None else int(workers)
        if workers < 1:
            raise ConfigurationError("executor workers must be >= 1")
        self.workers = workers
        self._pool = None

    @property
    def pool(self):
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-parallel"
            )
        return self._pool

    def map_ordered(self, fn, payloads, progress=None) -> list:
        payloads = list(payloads)
        if not payloads:
            return []
        pending = {
            self.pool.submit(_guarded, fn, payload): index
            for index, payload in enumerate(payloads)
        }
        pairs = []
        broken = False
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                index = pending.pop(future)
                try:
                    outcome = future.result()
                except Exception as exc:
                    # Task exceptions never reach here (_guarded wraps them);
                    # this is pool-level damage that breaks in-flight
                    # futures (a pool shut down under them).  Carrying it as
                    # a TaskFailure keeps the one rule intact: the *earliest
                    # submitted* loss raises, not whichever future the wait
                    # happened to surface first.
                    broken = True
                    outcome = TaskFailure(
                        WorkerCrashError(
                            f"worker thread lost task {index} "
                            f"({type(exc).__name__}: {exc})"
                        )
                    )
                if progress is not None and not isinstance(outcome, TaskFailure):
                    progress(index, outcome)
                pairs.append((index, outcome))
        if broken:
            # The pool is unusable after pool-level damage; drop it so the
            # next map on this executor starts a fresh one.
            self.shutdown()
        return ordered_merge(pairs, len(payloads))

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False


_BACKENDS = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
}


def get_executor(spec, workers: int | None = None):
    """Normalize ``spec`` (name, ``None``, or executor) to an executor.

    ``None`` and ``"serial"`` both mean the serial reference backend.  An
    object that already quacks like an executor passes through unchanged
    (the caller owns its lifecycle).
    """
    if spec is None:
        return SerialExecutor()
    if hasattr(spec, "map_ordered"):
        return spec
    if str(spec) == "supervised":
        # Imported lazily: repro.parallel.supervised pulls in the
        # resilience layer, which plain executors must not depend on.
        from repro.parallel.supervised import SupervisedProcessExecutor

        return SupervisedProcessExecutor(workers)
    try:
        backend = _BACKENDS[str(spec)]
    except KeyError:
        raise ConfigurationError(
            f"unknown executor {spec!r}; expected one of {EXECUTOR_KINDS}"
        ) from None
    return backend(workers) if backend is not SerialExecutor else SerialExecutor()


@contextmanager
def executor_scope(spec, workers: int | None = None):
    """``with executor_scope("supervised", 4) as ex: ...``

    Creates an executor from a name (shut down on exit) or passes an
    existing executor through untouched — library entry points accept
    either, and this keeps pool ownership in one place.
    """
    owned = not hasattr(spec, "map_ordered")
    executor = get_executor(spec, workers)
    try:
        yield executor
    finally:
        if owned:
            executor.shutdown()
