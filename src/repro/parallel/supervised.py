"""Supervised process execution: crash/hang detection, respawn, quarantine.

A plain process pool trusts its workers: a worker that is SIGKILL'd (OOM
killer, preempted node) breaks the whole pool, and a worker that wedges
holds its task forever.  Fleet-scale experiment runs cannot afford either,
so this module runs workers under *supervision*:

- each worker is a long-lived process driven over a duplex pipe, sending a
  **heartbeat** at a fixed interval while it holds a task;
- every dispatch carries a **per-task deadline**
  (:class:`~repro.resilience.retry.Deadline`);
- the supervisor detects three loss modes — process death (crash), task
  deadline expiry, heartbeat loss (both hangs) — kills the worker where
  necessary, **respawns** a replacement, and re-queues the lost task;
- re-dispatch is bounded by a deterministic
  :class:`~repro.resilience.retry.RetryPolicy`; a task that outlives its
  budget is **quarantined** as a typed :class:`PoisonedTask` instead of
  sinking the run;
- every intervention lands on an
  :class:`~repro.resilience.events.EventLog` as a typed event
  (``WORKER_CRASH``/``WORKER_HANG``/``WORKER_RESPAWN``/``TASK_POISONED``).

Results are merged in submission order like every other backend, so the
clean path is bit-identical to serial; supervision is pure overhead until
something dies.  Deterministic chaos (worker SIGKILLs and hangs drawn by
seed, see :mod:`repro.resilience.chaos`) plugs in via the ``chaos``
profile, giving CI a reproducible kill-matrix.

Two entry points:

- :meth:`SupervisedProcessExecutor.map_ordered` — the executor contract:
  poisoned tasks surface as the earliest-submitted
  :class:`~repro.exceptions.WorkerLostError` raised by the merge.
- :meth:`SupervisedProcessExecutor.map_supervised` — the fleet contract:
  never raises for a lost task; the result list carries
  :class:`PoisonedTask` values in the lost slots (graceful degradation —
  the roll-up completes and lists its casualties).
"""

from __future__ import annotations

import multiprocessing
import threading
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait

from repro.exceptions import (
    ConfigurationError,
    WorkerCrashError,
    WorkerHangError,
)
from repro.parallel.merge import TaskFailure, ordered_merge
from repro.resilience.chaos import apply_ticket
from repro.resilience.events import EventKind, EventLog
from repro.resilience.retry import Deadline, RetryPolicy
from repro import telemetry
from repro.telemetry import names as metric
from repro.util.timing import monotonic

__all__ = ["PoisonedTask", "SupervisedProcessExecutor"]


@dataclass(frozen=True)
class PoisonedTask:
    """A task quarantined after exhausting its retry budget.

    Travels through the ordered merge as a *value* (only
    :class:`~repro.parallel.merge.TaskFailure` raises), so a fleet run
    completes with poisoned slots instead of dying.  ``reason`` is one of
    ``"crash"`` (worker died), ``"hang"`` (deadline/heartbeat expired) or
    ``"error"`` (the task itself raised — deterministic, so it is
    quarantined without retry).
    """

    index: int
    attempts: int
    reason: str
    detail: str

    def to_dict(self) -> dict:
        return {
            "index": int(self.index),
            "attempts": int(self.attempts),
            "reason": str(self.reason),
            "detail": str(self.detail),
        }

    def describe(self) -> str:
        return (
            f"task {self.index} poisoned ({self.reason}) after "
            f"{self.attempts} attempt{'s' if self.attempts != 1 else ''}: "
            f"{self.detail}"
        )


def _worker_main(conn, heartbeat_interval: float) -> None:
    """Long-lived worker loop: recv task, beat while busy, send outcome."""
    send_lock = threading.Lock()
    current: dict = {"task_id": None}
    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(heartbeat_interval):
            task_id = current["task_id"]
            if task_id is None:
                continue
            try:
                with send_lock:
                    conn.send(("hb", task_id))
            except (OSError, ValueError, BrokenPipeError):
                return

    threading.Thread(target=_beat, daemon=True).start()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            break
        _, task_id, fn, payload, ticket = message
        current["task_id"] = task_id
        apply_ticket(ticket)  # chaos: may SIGKILL this process or sleep
        # Telemetry: the fork-started child inherits the parent registry's
        # counts, so attribute only what THIS task records by diffing
        # against a pre-task mark; the delta rides home with the outcome
        # and the supervisor merges it in submission order.
        baseline = telemetry.mark()
        try:
            outcome = ("ok", fn(payload))
        except BaseException as exc:  # noqa: BLE001 - shipped to the merge
            outcome = ("err", exc)
        delta = telemetry.export_delta(baseline)
        current["task_id"] = None
        try:
            with send_lock:
                conn.send(("done", task_id, outcome, delta))
        except (EOFError, OSError, BrokenPipeError):
            break
        except Exception as exc:  # unpicklable value/exception
            with send_lock:
                conn.send(
                    (
                        "done",
                        task_id,
                        (
                            "err",
                            ConfigurationError(
                                f"task outcome is not picklable: {exc}"
                            ),
                        ),
                        delta,
                    )
                )
    stop.set()
    conn.close()


class _Worker:
    """Parent-side handle for one supervised worker process."""

    __slots__ = (
        "proc", "conn", "index", "attempt", "task_id", "deadline", "last_beat",
    )

    def __init__(self, ctx, heartbeat_interval: float):
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, heartbeat_interval),
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn
        self.clear()

    def clear(self) -> None:
        self.index = None
        self.attempt = None
        self.task_id = None
        self.deadline = None
        self.last_beat = None

    @property
    def busy(self) -> bool:
        return self.index is not None

    def kill(self) -> None:
        """SIGKILL the process and release the pipe (crash/hang retirement)."""
        try:
            self.proc.kill()
        except (OSError, ValueError):
            pass
        self.proc.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass

    def stop(self) -> None:
        """Ask the worker to exit cleanly (shutdown path)."""
        try:
            self.conn.send(("stop",))
        except (OSError, ValueError, BrokenPipeError):
            pass


class SupervisedProcessExecutor:
    """Process pool with heartbeats, deadlines, respawn and quarantine.

    Drop-in for the executor contract (``map_ordered``/``shutdown``);
    ``get_executor("supervised")`` builds one with defaults.  Knobs:

    - ``retry_policy`` — re-dispatch budget for *lost* (crashed/hung)
      tasks; ``max_attempts`` counts the first dispatch.  Deterministic
      backoff comes from the policy, keyed by ``(seed, task index,
      attempt)``.
    - ``task_deadline`` — seconds each dispatch may run before the worker
      is declared hung and killed (``None`` disables; hangs are then only
      caught by heartbeat loss).
    - ``heartbeat_interval``/``heartbeat_misses`` — a busy worker missing
      this many beats in a row is treated as hung even without a deadline
      (catches SIGSTOP-style wedges).
    - ``chaos`` — a :class:`~repro.resilience.chaos.ChaosProfile`; the
      supervisor draws a ticket per dispatch and ships it to the worker.
    - ``events`` — the :class:`~repro.resilience.events.EventLog` that
      receives supervision events (a fresh private log by default).
    """

    kind = "supervised"

    def __init__(
        self,
        workers: int | None = None,
        *,
        retry_policy: RetryPolicy | None = None,
        task_deadline: float | None = None,
        heartbeat_interval: float = 0.1,
        heartbeat_misses: int = 50,
        chaos=None,
        seed: int = 0,
        events: EventLog | None = None,
    ):
        from repro.parallel.executor import _default_workers

        workers = _default_workers() if workers is None else int(workers)
        if workers < 1:
            raise ConfigurationError("executor workers must be >= 1")
        if heartbeat_interval <= 0:
            raise ConfigurationError("heartbeat_interval must be > 0")
        if heartbeat_misses < 1:
            raise ConfigurationError("heartbeat_misses must be >= 1")
        if task_deadline is not None and task_deadline <= 0:
            raise ConfigurationError("task_deadline must be > 0 (or None)")
        self.workers = workers
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.task_deadline = None if task_deadline is None else float(task_deadline)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_misses = int(heartbeat_misses)
        self.chaos = chaos
        self.seed = int(seed)
        self.events = events if events is not None else EventLog()
        self.stats = {
            "crashes": 0,
            "hangs": 0,
            "respawns": 0,
            "poisoned": 0,
            "retries": 0,
            "respawn_seconds": [],
        }
        self._ctx = multiprocessing.get_context()
        self._procs: list = []
        self._task_counter = 0

    # -- pool lifecycle ----------------------------------------------------------

    def _spawn(self) -> _Worker:
        return _Worker(self._ctx, self.heartbeat_interval)

    def _ensure_pool(self) -> None:
        while len(self._procs) < self.workers:
            self._procs.append(self._spawn())

    def _respawn(self, worker: _Worker) -> _Worker:
        """Retire ``worker`` (SIGKILL + join) and start a replacement."""
        t0 = monotonic()
        worker.kill()
        replacement = self._spawn()
        self._procs[self._procs.index(worker)] = replacement
        self.stats["respawns"] += 1
        self.stats["respawn_seconds"].append(monotonic() - t0)
        telemetry.count(metric.FLEET_WORKER_RESPAWNS)
        telemetry.observe(metric.FLEET_RESPAWN_SECONDS, monotonic() - t0)
        self.events.record(
            EventKind.WORKER_RESPAWN,
            "fleet",
            f"replacement worker started (pid {replacement.proc.pid})",
        )
        return replacement

    def shutdown(self) -> None:
        for worker in self._procs:
            worker.stop()
        for worker in self._procs:
            worker.proc.join(timeout=2.0)
            if worker.proc.exitcode is None:
                worker.kill()
            else:
                try:
                    worker.conn.close()
                except OSError:
                    pass
        self._procs = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False

    # -- the executor contract ---------------------------------------------------

    def map_ordered(self, fn, payloads, progress=None) -> list:
        """Deterministic ordered map; lost tasks raise after the budget.

        Task exceptions and exhausted crash/hang budgets travel as
        :class:`TaskFailure` values, so the earliest-*submitted* failure
        is the one that raises — same rule as every other backend.
        """
        outcomes = self._run(fn, payloads, progress=progress, poison=False)
        return ordered_merge(list(enumerate(outcomes)), len(outcomes))

    def map_supervised(self, fn, payloads, progress=None) -> list:
        """Ordered map that degrades instead of raising.

        Every lost or failing task comes back as a :class:`PoisonedTask`
        in its submission slot; all other slots hold real results.
        ``progress`` sees each outcome — including poisonings — in
        completion order (the run journal hooks in here).
        """
        return self._run(fn, payloads, progress=progress, poison=True)

    # -- supervisor loop ---------------------------------------------------------

    def _dispatch(self, worker: _Worker, fn, payload, index: int, attempt: int):
        ticket = None
        if self.chaos is not None and getattr(self.chaos, "active", False):
            ticket = self.chaos.ticket(self.seed, index, attempt)
        self._task_counter += 1
        worker.index = index
        worker.attempt = attempt
        worker.task_id = self._task_counter
        worker.deadline = (
            Deadline(self.task_deadline) if self.task_deadline is not None else None
        )
        worker.last_beat = monotonic()
        worker.conn.send(("task", worker.task_id, fn, payload, ticket))

    def _run(self, fn, payloads, *, progress, poison) -> list:
        payloads = list(payloads)
        if not payloads:
            return []
        self._ensure_pool()
        policy = self.retry_policy
        queue: deque = deque((index, 1) for index in range(len(payloads)))
        slots: list = [None] * len(payloads)
        done: list = [False] * len(payloads)
        # Per-task telemetry deltas shipped back by workers, held in
        # submission slots and merged in submission order after the run —
        # the FamilyDelta discipline, so aggregated metrics are independent
        # of completion order and worker count.
        deltas: list = [None] * len(payloads)
        remaining = len(payloads)

        def finish(index: int, outcome) -> None:
            nonlocal remaining
            slots[index] = outcome
            done[index] = True
            remaining -= 1
            if progress is not None and not isinstance(outcome, TaskFailure):
                progress(index, outcome)

        def task_failed(index: int, attempt: int, exc: BaseException) -> None:
            """The task body raised: deterministic, no point retrying."""
            if poison:
                self.stats["poisoned"] += 1
                telemetry.count(metric.FLEET_TASKS_POISONED, reason="error")
                outcome = PoisonedTask(
                    index, attempt, "error", f"{type(exc).__name__}: {exc}"
                )
                self.events.record(
                    EventKind.TASK_POISONED, "fleet", outcome.describe(),
                    attempt=attempt,
                )
                finish(index, outcome)
            else:
                finish(index, TaskFailure(exc))

        def lost(worker: _Worker, reason: str, detail: str) -> None:
            """A busy worker crashed or hung: respawn, retry or quarantine."""
            index, attempt = worker.index, worker.attempt
            kind = EventKind.WORKER_CRASH if reason == "crash" else EventKind.WORKER_HANG
            self.stats["crashes" if reason == "crash" else "hangs"] += 1
            telemetry.count(
                metric.FLEET_WORKER_CRASHES if reason == "crash"
                else metric.FLEET_WORKER_HANGS
            )
            self.events.record(
                kind, "fleet",
                f"task {index} (attempt {attempt}/{policy.max_attempts}): {detail}",
                attempt=attempt,
            )
            self._respawn(worker)
            if attempt < policy.max_attempts:
                self.stats["retries"] += 1
                telemetry.count(metric.FLEET_TASK_RETRIES)
                policy.pause(policy.delay_for(attempt, self.seed, "fleet", str(index)))
                queue.append((index, attempt + 1))
                return
            message = (
                f"task {index} lost to worker {reason} "
                f"{attempt} time{'s' if attempt != 1 else ''}: {detail}"
            )
            if poison:
                self.stats["poisoned"] += 1
                telemetry.count(metric.FLEET_TASKS_POISONED, reason=reason)
                outcome = PoisonedTask(index, attempt, reason, detail)
                self.events.record(
                    EventKind.TASK_POISONED, "fleet", outcome.describe(),
                    attempt=attempt,
                )
                finish(index, outcome)
            else:
                error_cls = WorkerCrashError if reason == "crash" else WorkerHangError
                finish(index, TaskFailure(error_cls(message, attempts=attempt)))

        stale_after = self.heartbeat_interval * self.heartbeat_misses
        while remaining > 0:
            for worker in self._procs:
                if not worker.busy and queue:
                    index, attempt = queue.popleft()
                    try:
                        self._dispatch(worker, fn, payloads[index], index, attempt)
                    except (OSError, ValueError, BrokenPipeError) as exc:
                        worker.index, worker.attempt = index, attempt
                        lost(worker, "crash", f"dispatch failed: {exc}")
            busy = [worker for worker in self._procs if worker.busy]
            if not busy:
                continue
            ready = set(
                _connection_wait(
                    [worker.conn for worker in busy],
                    timeout=self.heartbeat_interval,
                )
            )
            now = monotonic()
            for worker in busy:
                if worker.conn in ready:
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        lost(
                            worker, "crash",
                            f"worker pid {worker.proc.pid} died "
                            f"(exit code {worker.proc.exitcode})",
                        )
                        continue
                    if message[0] == "hb":
                        if message[1] == worker.task_id:
                            if worker.last_beat is not None:
                                telemetry.observe(
                                    metric.FLEET_HEARTBEAT_GAP_SECONDS,
                                    now - worker.last_beat,
                                )
                            worker.last_beat = now
                    elif message[0] == "done":
                        task_id, (tag, value) = message[1], message[2]
                        if task_id != worker.task_id:
                            continue  # stale echo from a superseded dispatch
                        index, attempt = worker.index, worker.attempt
                        worker.clear()
                        if len(message) > 3:
                            deltas[index] = message[3]
                        if tag == "ok":
                            finish(index, value)
                        else:
                            task_failed(index, attempt, value)
                    continue
                if worker.proc.exitcode is not None:
                    lost(
                        worker, "crash",
                        f"worker pid {worker.proc.pid} exited with code "
                        f"{worker.proc.exitcode}",
                    )
                elif worker.deadline is not None and worker.deadline.expired():
                    lost(
                        worker, "hang",
                        f"task deadline of {self.task_deadline:g}s expired",
                    )
                elif worker.last_beat is not None and now - worker.last_beat > stale_after:
                    lost(
                        worker, "hang",
                        f"no heartbeat for {now - worker.last_beat:.1f}s "
                        f"({self.heartbeat_misses} beats missed)",
                    )
        for delta in deltas:
            if delta is not None:
                telemetry.merge_delta(delta)
                telemetry.count(metric.FLEET_WORKER_DELTAS)
        return slots
