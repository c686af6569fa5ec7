"""Asyncio front-end: wire-protocol TCP in front of a
:class:`QueryService` (JSON lines from any client, binary frames when a
client sends them — replies always use the request's framing).

One event loop owns all I/O and admission; a ``ThreadPoolExecutor`` of
``service.workers`` threads executes micro-batches against the shared
frozen engine. The flow per query request:

1. connection handler parses the line and runs **admission** on the loop
   (cheap: DSL parse + plan-cache-backed ``prepare`` + bound check);
   rejections answer immediately without queueing;
2. admitted requests join a bounded queue; the **batcher** task drains
   whatever is queued (up to ``max_batch``, waiting ``batch_window_ms``
   for stragglers only if configured) — under load, batches form
   naturally while workers are busy;
3. a worker thread funnels the batch through ``engine.query_batch``
   (duplicate patterns execute once) and serializes answers;
4. the handler writes each response as its future resolves, enforcing
   the request's **deadline** at dispatch and delivery.

Shutdown (the ``shutdown`` op, or :meth:`QueryServer.request_shutdown`)
is graceful: the listener closes first, queued and in-flight requests
drain, then the pool exits — no accepted request is dropped.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.errors import (
    DeadlineExceeded,
    NotEffectivelyBounded,
    ServerError,
    ServiceOverloaded,
    ShardProtocolError,
)
from repro.obs.trace import Span, activate, bind
from repro.server import protocol
from repro.server.service import AdmittedQuery, QueryService

#: How long a graceful shutdown waits for in-flight work before forcing.
DRAIN_TIMEOUT_S = 10.0


@dataclass
class _QueueItem:
    """One admitted request waiting for a worker batch."""

    request: AdmittedQuery
    future: asyncio.Future
    admitted_at: float
    expires_at: float | None  # loop-clock deadline, None = no deadline
    deadline_ms: float | None
    queue_span: Span | None = None  # open "queue_wait", ended at pop


class QueryServer:
    """TCP server binding a :class:`QueryService` to ``host:port``.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`
    after :meth:`start` — what tests and the bench harness do).
    """

    def __init__(self, service: QueryService, host: str = "127.0.0.1",
                 port: int = protocol.DEFAULT_PORT):
        self.service = service
        self.host = host
        self._requested_port = port
        self._server: asyncio.AbstractServer | None = None
        self._queue: asyncio.Queue | None = None
        self._batcher_task: asyncio.Task | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._shutdown_event: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._inflight = 0
        #: Requests the batcher has popped but not yet dispatched or
        #: expired (a forming batch awaiting stragglers) — counted so a
        #: graceful stop() never drains past them.
        self._forming = 0
        self._dispatch_slots: asyncio.Semaphore | None = None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    @property
    def queue_depth(self) -> int:
        """Live queued-request count (0 before :meth:`start`); what the
        metrics scrape endpoint reports without entering the loop."""
        return self._queue.qsize() if self._queue is not None else 0

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.service.max_queue)
        self._shutdown_event = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self.service.workers,
            thread_name_prefix="repro-serve")
        # At most one dispatched batch per worker: back-pressure must
        # land in the bounded asyncio queue (where admission sheds load),
        # not pile up invisibly in the executor's unbounded queue.
        self._dispatch_slots = asyncio.Semaphore(self.service.workers)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port,
            limit=protocol.MAX_LINE_BYTES)
        self._batcher_task = asyncio.create_task(self._batcher())

    def request_shutdown(self) -> None:
        """Flip the shutdown flag (idempotent, loop-thread only; use
        ``loop.call_soon_threadsafe`` from other threads)."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def serve_until_shutdown(self) -> None:
        """Block until shutdown is requested, then drain gracefully."""
        await self._shutdown_event.wait()
        await self.stop()

    async def stop(self) -> None:
        """Graceful stop: close the listener, drain queued + in-flight
        work (bounded by :data:`DRAIN_TIMEOUT_S`), release the pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = self._loop.time() + DRAIN_TIMEOUT_S
        while ((not self._queue.empty() or self._forming or self._inflight)
               and self._loop.time() < deadline):
            await asyncio.sleep(0.01)
        if self._batcher_task is not None:
            self._batcher_task.cancel()
            try:
                await self._batcher_task
            except asyncio.CancelledError:
                pass
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    # -- connections ---------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()
        # Per-connection framing state: each response goes out in the
        # framing of the request that is being answered, so a client
        # that switches framings mid-connection stays in sync.
        binary = False
        try:
            while True:
                try:
                    frame = await protocol.read_frame_async(reader)
                except (EOFError, ConnectionError):
                    break
                except (ShardProtocolError, ServerError) as exc:
                    # Overlong, truncated or malformed framing. The
                    # stream can't be resynced past it: answer typed,
                    # then hang up.
                    await self._write(writer, write_lock,
                                      protocol.error_response(None, exc),
                                      binary=binary)
                    break
                binary = frame.binary
                await self._dispatch(frame, writer, write_lock,
                                     binary=binary)
                if self._shutdown_event.is_set():
                    break
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, doc: dict, writer: asyncio.StreamWriter,
                        write_lock: asyncio.Lock, *,
                        binary: bool = False) -> None:
        request_id = None
        try:
            request_id = doc.get("id")
            op = doc.get("op", "query")
            if op == "query":
                await self._handle_query(doc, writer, write_lock,
                                         binary=binary)
                return
            if op == "metrics":
                body = self.service.snapshot(queue_depth=self._queue.qsize())
                await self._write(writer, write_lock,
                                  {"id": request_id, "ok": True, **body},
                                  binary=binary)
            elif op == "ping":
                await self._write(writer, write_lock,
                                  {"id": request_id, "ok": True,
                                   "op": "pong"}, binary=binary)
            elif op == "reload":
                path = doc.get("artifact")
                if not path:
                    raise ServerError("reload requires an 'artifact' path")
                info = await self._loop.run_in_executor(
                    None, self.service.reload_artifact, path)
                await self._write(writer, write_lock,
                                  {"id": request_id, "ok": True, **info},
                                  binary=binary)
            elif op == "shutdown":
                await self._write(writer, write_lock,
                                  {"id": request_id, "ok": True,
                                   "op": "shutdown"}, binary=binary)
                self.request_shutdown()
            else:
                raise ServerError(f"unknown op {op!r}")
        except Exception as exc:  # noqa: BLE001 — a request must never kill the loop
            if not protocol.is_repro_error(exc):
                self.service.metrics.record_error()
                exc = ServerError(f"internal error: {type(exc).__name__}: {exc}")
            await self._write(writer, write_lock,
                              protocol.error_response(request_id, exc),
                              binary=binary)

    async def _handle_query(self, doc: dict, writer: asyncio.StreamWriter,
                            write_lock: asyncio.Lock, *,
                            binary: bool = False) -> None:
        request_id = doc.get("id")
        pattern = doc.get("pattern")
        if not isinstance(pattern, str) or not pattern.strip():
            raise ServerError("query requires a non-empty 'pattern' (DSL text)")
        semantics = doc.get("semantics", "subgraph")
        if not isinstance(semantics, str):
            raise ServerError("'semantics' must be a string")
        limit = doc.get("limit")
        if limit is not None and (not isinstance(limit, int)
                                  or isinstance(limit, bool)):
            raise ServerError("'limit' must be an integer")
        deadline_ms = doc.get("deadline_ms")
        if deadline_ms is not None and (not isinstance(deadline_ms,
                                                       (int, float))
                                        or isinstance(deadline_ms, bool)):
            raise ServerError("'deadline_ms' must be a number")
        # One trace per request when tracing is on: the root span opens
        # at arrival and every instrumented stage below hangs off it.
        root = None
        if self.service.tracer is not None:
            root = self.service.tracer.trace(
                "request", semantics=semantics,
                pattern=pattern if len(pattern) <= 120
                else pattern[:117] + "...")
        try:
            try:
                with activate(root):
                    admitted = self.service.admit(pattern, semantics,
                                                  limit=limit)
            except NotEffectivelyBounded:
                if not self.service.can_rescue:
                    raise
                # The rescue pipeline: this coroutine parks right here
                # while the extension plans and builds on the executor
                # (off the event loop — admission of other requests
                # keeps flowing). On success the query re-admits and
                # proceeds like any other; on failure the typed
                # rejection propagates. ``bind`` carries the trace onto
                # the executor thread.
                admitted = await self._loop.run_in_executor(
                    None, bind(root, self.service.rescue),
                    pattern, semantics, limit)
            admitted.span = root
            now = self._loop.time()
            item = _QueueItem(
                request=admitted, future=self._loop.create_future(),
                admitted_at=now,
                expires_at=(now + deadline_ms / 1000.0)
                if deadline_ms is not None else None,
                deadline_ms=deadline_ms)
            try:
                self._queue.put_nowait(item)
            except asyncio.QueueFull:
                self.service.metrics.record_rejected("overloaded")
                raise ServiceOverloaded(
                    f"request queue at capacity ({self.service.max_queue});"
                    f" retry with backoff",
                    cost=self._queue.qsize(), budget=self.service.max_queue
                ) from None
            # Safe after put_nowait: the batcher cannot pop the item
            # until this coroutine yields at the await below.
            if root is not None:
                item.queue_span = root.child("queue_wait")
            try:
                body = await item.future
            except DeadlineExceeded as exc:
                self.service.metrics.record_deadline_expired()
                if root is not None:
                    root.set(status="deadline_expired")
                await self._write(writer, write_lock,
                                  protocol.error_response(request_id, exc),
                                  binary=binary)
                return
            if root is not None:
                root.set(status="answered")
            self.service.metrics.record_answered(self._loop.time()
                                                 - item.admitted_at)
            await self._write(writer, write_lock,
                              {"id": request_id, "ok": True, **body},
                              binary=binary)
        except Exception as exc:
            if root is not None:
                root.set(status="rejected", error=type(exc).__name__)
            raise
        finally:
            if root is not None:
                root.trace.finish()

    async def _write(self, writer: asyncio.StreamWriter,
                     write_lock: asyncio.Lock, doc: dict, *,
                     binary: bool = False) -> None:
        # Query responses are JSON docs in either framing; ``binary``
        # only wraps them in the binary envelope so a binary-framing
        # client can keep sniffing frames by first byte.
        async with write_lock:
            writer.write(protocol.encode_binary(doc) if binary
                         else protocol.encode(doc))
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass

    # -- batching ------------------------------------------------------------
    async def _batcher(self) -> None:
        while True:
            await self._dispatch_slots.acquire()
            item = await self._queue.get()
            self._forming = 1
            if item.queue_span is not None:
                item.queue_span.end()
            # Batch assembly measured on the first traced request's
            # trace: first pop to dispatch.
            assembly = (item.request.span.child("batch_assembly")
                        if item.request.span is not None else None)
            batch = [item]
            while len(batch) < self.service.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                    self._forming += 1
                except asyncio.QueueEmpty:
                    if self.service.batch_window_ms <= 0:
                        break
                    try:
                        batch.append(await asyncio.wait_for(
                            self._queue.get(),
                            self.service.batch_window_ms / 1000.0))
                        self._forming += 1
                    except asyncio.TimeoutError:
                        break
            for queued in batch[1:]:
                if queued.queue_span is not None:
                    queued.queue_span.end()
            live = []
            now = self._loop.time()
            for queued in batch:
                if queued.expires_at is not None and now > queued.expires_at:
                    queued.future.set_exception(DeadlineExceeded(
                        f"deadline of {queued.deadline_ms:g} ms expired "
                        f"while queued", deadline_ms=queued.deadline_ms))
                else:
                    live.append(queued)
            if assembly is not None:
                assembly.set(size=len(live)).end()
            if not live:
                self._forming = 0
                self._dispatch_slots.release()
                continue
            self._inflight += len(live)
            self._forming = 0
            worker_future = self._loop.run_in_executor(
                self._pool, self.service.execute_batch,
                [queued.request for queued in live])
            asyncio.create_task(self._deliver(worker_future, live))

    async def _deliver(self, worker_future, items: list[_QueueItem]) -> None:
        try:
            bodies = await worker_future
        except Exception as exc:  # noqa: BLE001 — fail the batch, not the server
            bodies = [exc] * len(items)
        finally:
            self._inflight -= len(items)
            self._dispatch_slots.release()
        now = self._loop.time()
        for item, body in zip(items, bodies):
            if item.future.done():
                continue
            if item.expires_at is not None and now > item.expires_at:
                item.future.set_exception(DeadlineExceeded(
                    f"deadline of {item.deadline_ms:g} ms expired during "
                    f"execution", deadline_ms=item.deadline_ms))
            elif isinstance(body, Exception):
                item.future.set_exception(body)
            else:
                item.future.set_result(body)


class ServerThread:
    """Run a :class:`QueryServer` on its own event loop in a daemon
    thread — what in-process embedding, tests and the bench harness use.

    >>> from repro.server import QueryService, ServerThread  # doctest: +SKIP
    >>> handle = ServerThread(QueryService(engine)); handle.start()
    """

    def __init__(self, service: QueryService, host: str = "127.0.0.1",
                 port: int = 0):
        self.service = service
        self.host = host
        self.port = port  # resolved on start()
        self._server: QueryServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve-loop")
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ServerError("server thread failed to start in time")
        if self._startup_error is not None:
            raise ServerError(
                f"server failed to start: {self._startup_error}")
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = QueryServer(self.service, self.host, self.port)
        try:
            await self._server.start()
            self.port = self._server.port
        except BaseException as exc:  # noqa: BLE001 — surfaced to start()
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._server.serve_until_shutdown()

    def stop(self, timeout: float = DRAIN_TIMEOUT_S + 5.0) -> None:
        """Graceful shutdown from any thread; joins the loop thread."""
        if self._loop is not None and self._server is not None \
                and self._thread is not None and self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(self._server.request_shutdown)
            except RuntimeError:
                pass  # loop already closed: the thread is exiting anyway
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
