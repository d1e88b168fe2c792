"""The tuning daemon: an asyncio TCP front end over :class:`ServiceEngine`.

Wire format: newline-delimited JSON — one request object per line in, one
response object per line out, matched by the client-chosen ``id``
(:mod:`repro.service.protocol`).  Requests on one connection are handled
concurrently, so a client may pipeline many requests and read responses
as they complete.

Division of labor: this module owns everything *asynchronous* — socket
I/O, admission control, the batching window, per-request deadlines —
while every solve decision (cache tiers, dedup, family reuse, backend
dispatch) lives in the synchronous :class:`~repro.service.engine.ServiceEngine`.
Solves run on one dedicated solver thread via ``run_in_executor``, so the
event loop keeps admitting, rejecting and answering exact-tier hits even
while a cold MINLP solve is in flight.

Admission control is a bound on *in-flight solve requests* (queued,
batching, or solving).  An arrival past ``config.max_queue`` is refused
immediately with a typed ``rejected`` response — never silently queued,
never hung.  A request whose :class:`~repro.resilience.Deadline` expires
while it waits is answered ``expired`` at dispatch time; deadlines are
never checked *inside* a solve, which keeps answers bit-identical to
direct library calls.

Batching: the dispatcher holds the first queued request for
``config.batch_window`` seconds, collects up to ``config.max_batch``
requests, partitions them into compatible groups
(:func:`~repro.service.engine.group_compatible`), and hands each group to
the engine as one family solve.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.exceptions import ReproError, ServiceError
from repro.resilience.events import EventKind, EventLog
from repro.resilience.retry import Deadline
from repro.service.engine import ServiceConfig, ServiceEngine, group_compatible
from repro.service.protocol import (
    SOLVE_KINDS,
    ServiceRequest,
    ServiceResponse,
    decode_line,
    encode_line,
    error_response,
)
from repro import telemetry
from repro.telemetry import names as metric
from repro.util.timing import monotonic

__all__ = ["TuningDaemon", "ServiceHandle", "serve_in_thread"]


@dataclass
class _Queued:
    """One admitted solve request waiting for the dispatcher."""

    parsed: object               # ParsedRequest
    deadline: Deadline | None
    future: asyncio.Future


class TuningDaemon:
    """Asyncio TCP daemon serving tuning requests through the tiered engine.

    ``port=0`` binds an ephemeral port; the bound ``(host, port)`` is
    available as :attr:`address` once :meth:`serve` is running.
    ``allow_shutdown`` gates the ``shutdown`` request kind — off by
    default so a shared daemon cannot be stopped by any client.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        events: EventLog | None = None,
        allow_shutdown: bool = False,
    ):
        self.config = config if config is not None else ServiceConfig()
        self.host = host
        self.port = int(port)
        self.events = events if events is not None else EventLog()
        self.allow_shutdown = bool(allow_shutdown)
        self.engine = ServiceEngine(self.config, events=self.events)
        self.address: tuple | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: asyncio.Queue | None = None
        self._stopped: asyncio.Future | None = None
        self._solver: ThreadPoolExecutor | None = None
        self._inflight = 0
        self._stopping = False
        self._dispatches: set = set()
        self._writers: set = set()
        self._conn_tasks: set = set()

    # -- lifecycle ---------------------------------------------------------------

    async def serve(self, ready: threading.Event | None = None) -> None:
        """Run the daemon until :meth:`stop` (or an approved ``shutdown``)."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._stopping = False
        self._stopped = loop.create_future()
        self._queue = asyncio.Queue()
        self._solver = ThreadPoolExecutor(1, thread_name_prefix="hslb-solver")
        server = await asyncio.start_server(self._serve_conn, self.host, self.port)
        self.address = server.sockets[0].getsockname()[:2]
        batch_task = asyncio.create_task(self._batch_loop())
        if ready is not None:
            ready.set()
        try:
            await self._stopped
        finally:
            self._stopping = True
            server.close()
            await server.wait_closed()
            batch_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await batch_task
            while self._queue is not None and not self._queue.empty():
                queued = self._queue.get_nowait()
                self._finish(queued, error_response(
                    queued.parsed.id, "rejected", "AdmissionError",
                    "service is shutting down",
                ))
            if self._dispatches:
                await asyncio.gather(*self._dispatches, return_exceptions=True)
            for writer in list(self._writers):
                writer.close()
            if self._conn_tasks:
                await asyncio.wait(self._conn_tasks, timeout=2.0)
            self._solver.shutdown(wait=True)
            self.engine.shutdown()

    def stop(self) -> None:
        """Request a stop; safe to call from any thread."""
        loop = self._loop
        if loop is None:
            return
        with contextlib.suppress(RuntimeError):
            loop.call_soon_threadsafe(self._begin_stop)

    def _begin_stop(self) -> None:
        self._stopping = True
        if self._stopped is not None and not self._stopped.done():
            self._stopped.set_result(None)

    # -- connection handling -----------------------------------------------------

    async def _serve_conn(self, reader, writer) -> None:
        self._conn_tasks.add(asyncio.current_task())
        self._writers.add(writer)
        lock = asyncio.Lock()
        pending: set = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.create_task(self._serve_line(line, writer, lock))
                pending.add(task)
                task.add_done_callback(pending.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            for task in list(pending):
                task.cancel()
            self._writers.discard(writer)
            self._conn_tasks.discard(asyncio.current_task())
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _send(self, writer, lock, response: ServiceResponse) -> None:
        data = encode_line(response.to_dict())
        async with lock:
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass  # client went away; nothing to tell it

    async def _serve_line(self, line: bytes, writer, lock) -> None:
        request_id = ""
        try:
            payload = decode_line(line)
            request_id = str(payload.get("id", ""))
            request = ServiceRequest.from_dict(payload)
        except ReproError as exc:
            await self._send(writer, lock, error_response(
                request_id, "error", type(exc).__name__, str(exc),
            ))
            return
        response = await self._answer(request)
        if response is not None:
            await self._send(writer, lock, response)

    async def _answer(self, request: ServiceRequest) -> ServiceResponse | None:
        if telemetry.enabled() and request.kind in SOLVE_KINDS:
            # End-to-end service latency: admission + queueing + batching
            # window + solve, everything a client actually waits for.
            t0 = monotonic()
            response = await self._answer_inner(request)
            telemetry.observe(
                metric.SERVICE_REQUEST_SECONDS, monotonic() - t0,
                kind=request.kind,
            )
            return response
        return await self._answer_inner(request)

    async def _answer_inner(self, request: ServiceRequest) -> ServiceResponse | None:
        engine = self.engine
        if request.kind == "ping":
            return ServiceResponse(id=request.id, status="ok",
                                   result={"pong": True})
        if request.kind == "stats":
            return ServiceResponse(id=request.id, status="ok",
                                   result=self.stats())
        if request.kind == "shutdown":
            if not self.allow_shutdown:
                return error_response(
                    request.id, "error", "ProtocolError",
                    "this daemon does not honor shutdown requests",
                )
            self._loop.call_soon(self._begin_stop)
            return ServiceResponse(id=request.id, status="ok",
                                   result={"stopping": True})

        # Solve kinds: validate, then exact tier, then admission + queue.
        # The reuse channel is hashed only once the exact tier missed, but
        # before admission, so a spec it rejects is still answered `error`.
        try:
            parsed = engine.parse(request)
            hit = engine.try_exact(parsed)
            if hit is not None:
                return hit
            parsed.compat
        except ReproError as exc:
            engine.note("requests")
            engine.note("errors")
            return error_response(request.id, "error",
                                  type(exc).__name__, str(exc))
        if self._stopping or self._inflight >= self.config.max_queue:
            engine.note("requests")
            engine.note("rejected")
            self.events.record(
                EventKind.REQUEST_REJECTED, "service",
                f"request {request.id or '<anonymous>'} refused: "
                f"{self._inflight} in flight (max {self.config.max_queue})"
                if not self._stopping else
                f"request {request.id or '<anonymous>'} refused: shutting down",
            )
            telemetry.count(metric.SERVICE_REQUESTS, status="rejected",
                            tier="none")
            return error_response(
                request.id, "rejected", "AdmissionError",
                "service is shutting down" if self._stopping
                else f"admission queue full ({self.config.max_queue} in flight)",
                in_flight=self._inflight,
            )
        seconds = (request.deadline if request.deadline is not None
                   else self.config.default_deadline)
        queued = _Queued(
            parsed=parsed,
            deadline=None if seconds is None else Deadline(seconds),
            future=self._loop.create_future(),
        )
        self._inflight += 1
        telemetry.gauge(metric.SERVICE_QUEUE_DEPTH, self._inflight)
        try:
            self._queue.put_nowait(queued)
            return await queued.future
        finally:
            self._inflight -= 1
            telemetry.gauge(metric.SERVICE_QUEUE_DEPTH, self._inflight)

    # -- dispatch ----------------------------------------------------------------

    async def _batch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = [await self._queue.get()]
            if self.config.batch_window > 0:
                horizon = loop.time() + self.config.batch_window
                while len(batch) < self.config.max_batch:
                    timeout = horizon - loop.time()
                    if timeout <= 0:
                        break
                    try:
                        batch.append(await asyncio.wait_for(
                            self._queue.get(), timeout))
                    except asyncio.TimeoutError:
                        break
            for group in group_compatible(batch, compat=lambda q: q.parsed.compat):
                live = []
                for queued in group:
                    if queued.future.done():
                        continue  # client vanished; nobody is listening
                    if queued.deadline is not None and queued.deadline.expired():
                        self.engine.note("requests")
                        self.engine.note("expired")
                        self.events.record(
                            EventKind.REQUEST_EXPIRED, "service",
                            f"request {queued.parsed.id or '<anonymous>'} "
                            f"expired after {queued.deadline.seconds:.3f}s "
                            "in the queue",
                        )
                        telemetry.count(metric.SERVICE_REQUESTS,
                                        status="expired", tier="none")
                        self._finish(queued, error_response(
                            queued.parsed.id, "expired", "DeadlineExceededError",
                            f"request deadline ({queued.deadline.seconds:.3f}s) "
                            "expired before its solve started",
                        ))
                        continue
                    live.append(queued)
                if not live:
                    continue
                task = asyncio.create_task(self._dispatch(live))
                self._dispatches.add(task)
                task.add_done_callback(self._dispatches.discard)

    async def _dispatch(self, live: list) -> None:
        if len(live) > 1:
            self.events.record(
                EventKind.BATCH_DISPATCHED, "service",
                f"{len(live)} compatible requests dispatched as one "
                "family solve",
            )
        parsed = [queued.parsed for queued in live]
        try:
            responses = await asyncio.get_running_loop().run_in_executor(
                self._solver, self.engine.solve_group, parsed)
        except Exception as exc:  # noqa: BLE001 - answered, never propagated
            for queued in live:
                self._finish(queued, error_response(
                    queued.parsed.id, "error", type(exc).__name__, str(exc)))
            return
        for queued, response in zip(live, responses):
            self._finish(queued, response)

    def _finish(self, queued: _Queued, response: ServiceResponse) -> None:
        if not queued.future.done():
            queued.future.set_result(response)

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict:
        out = self.engine.stats()
        out["service"] = {
            "in_flight": self._inflight,
            "max_queue": self.config.max_queue,
            "batch_window": self.config.batch_window,
            "max_batch": self.config.max_batch,
            "stopping": self._stopping,
        }
        return out


class ServiceHandle:
    """A daemon running on a background thread, plus its lifecycle."""

    def __init__(self, daemon: TuningDaemon, thread: threading.Thread):
        self.daemon = daemon
        self.thread = thread

    @property
    def address(self) -> tuple:
        return self.daemon.address

    def client(self, **kwargs):
        from repro.service.client import ServiceClient

        host, port = self.daemon.address
        return ServiceClient(host, port, **kwargs)

    def stop(self, timeout: float = 10.0) -> None:
        self.daemon.stop()
        self.thread.join(timeout)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_in_thread(
    config: ServiceConfig | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    events: EventLog | None = None,
    allow_shutdown: bool = False,
    timeout: float = 10.0,
) -> ServiceHandle:
    """Start a daemon on a background thread; returns once it is bound.

    The embedding used by tests and the in-process benchmark harness:
    ``with serve_in_thread(cfg) as handle: handle.client().solve_point(...)``.
    """
    daemon = TuningDaemon(config, host=host, port=port, events=events,
                          allow_shutdown=allow_shutdown)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(daemon.serve(ready)),
        name="hslb-serve",
        daemon=True,
    )
    thread.start()
    if not ready.wait(timeout):
        raise ServiceError("tuning daemon failed to start in time")
    return ServiceHandle(daemon, thread)
