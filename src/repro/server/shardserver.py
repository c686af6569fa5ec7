"""Standalone shard server: one shard of a sharded artifact behind TCP.

``repro shard-serve --artifact <dir>/shard-NNNN --port P`` warm-starts
one :class:`~repro.engine.parallel.ShardRuntime` from its per-shard
sub-artifact (checksum-verified against the top manifest, exactly like a
pool worker) and serves the backend contract over the wire protocol of
:mod:`repro.server.protocol` — packed binary frames for ``scatter``,
JSON lines for everything else:

* ``hello`` — the handshake: protocol version, artifact format version,
  shard id, shard-manifest checksum, schema version, owned labels. The
  front-end (:class:`~repro.engine.parallel.RemoteShardBackend`)
  requires exact agreement before the first task;
* ``scatter`` / ``extension_stats`` / ``extend`` — the backend rounds;
* ``ping`` / ``metrics`` / ``reload`` / ``shutdown`` — operations.

Topology: N such processes (one per shard, typically on N machines) plus
any number of stateless front-ends opened with
``repro.connect(artifact, backend="remote", shard_addrs=[...])`` — the
front-end needs only the artifact's top-level files (manifest, plans,
partition, catalog), never a shard graph. Each connection is served by
its own thread; ``scatter`` reads are lock-free over the frozen shard
state, mirroring :class:`~repro.engine.parallel.InlineShardBackend`,
while ``extend``/``reload`` serialize under a lock.
"""

from __future__ import annotations

import hashlib
import logging
import queue
import random
import re
import socketserver
import threading
import time
from pathlib import Path

from repro.constraints.schema import AccessConstraint
from repro.errors import (
    EngineError,
    ServerError,
    ShardHandshakeMismatch,
    ShardProtocolError,
)
from repro.server import protocol

_log = logging.getLogger("repro.shardserver")

_SHARD_DIR_RE = re.compile(r"^shard-(\d+)$")


def resolve_shard_artifact(artifact, shard_id: int | None = None):
    """``<dir>/shard-NNNN`` (or ``<dir>`` plus an explicit shard id) →
    ``(root, shard_id)``. The per-shard-directory spelling is the
    deployment-friendly one: each server's unit file names exactly the
    data it owns."""
    path = Path(artifact)
    if shard_id is not None:
        return path, int(shard_id)
    match = _SHARD_DIR_RE.match(path.name)
    if match is None:
        raise EngineError(
            f"cannot infer a shard id from {path}; pass the per-shard "
            f"directory (<artifact>/shard-NNNN) or an explicit shard id")
    return path.parent, int(match.group(1))


class ShardServer:
    """One shard of a sharded artifact, served over TCP.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`). The server owns no partition-global state: handshake
    expectations (format version, schema version, manifest checksum)
    come from the artifact tree it loaded, so front-end and fleet agree
    iff they describe the same compile.
    """

    def __init__(self, artifact, *, host: str = "127.0.0.1", port: int = 0,
                 shard_id: int | None = None,
                 delay_ms: float = 0.0, delay_jitter_ms: float = 0.0,
                 task_cost_ms: float = 0.0):
        self.root, self.shard_id = resolve_shard_artifact(artifact, shard_id)
        self.host = host
        self.port = port
        #: Injected scatter latency (testing/benchmarking a skewed
        #: fleet). Measured from frame *arrival*, not dispatch: with the
        #: connection handler's read-ahead, several delayed requests
        #: overlap their waits exactly like genuinely slow concurrent
        #: work would.
        self.delay_s = max(0.0, delay_ms) / 1000.0
        self.delay_jitter_s = max(0.0, delay_jitter_ms) / 1000.0
        self._delay_rng = random.Random()
        #: Injected *serial* compute per scatter task (a hot/overloaded
        #: shard). Unlike ``delay_ms`` this does not overlap across
        #: in-flight requests: the connection worker pays it per task
        #: while later requests queue behind — the regime where
        #: cross-execution dedup and read-ahead matter.
        self.task_cost_s = max(0.0, task_cost_ms) / 1000.0
        self._lock = threading.Lock()
        self._server: _ShardTCPServer | None = None
        self._thread: threading.Thread | None = None
        self._stop_requested = threading.Event()
        self._started = time.monotonic()
        # -- metrics (ints only; torn reads are harmless) -------------------
        self.requests = 0
        self.scatter_rounds = 0
        self.tasks_handled = 0
        self.extensions_applied = 0
        self.reloads = 0
        #: Requests that arrived carrying a front-end trace context.
        self.traced_requests = 0
        #: Cumulative wall time spent executing scatter rounds.
        self.scatter_seconds = 0.0
        # -- wire telemetry -------------------------------------------------
        self.wire_bytes_received = 0
        self.wire_bytes_sent = 0
        self.binary_frames_received = 0
        #: Deepest per-connection read-ahead observed: >1 proves a
        #: front-end really had multiple requests in flight on one
        #: connection (the pipelining overlap the wire stat gates on).
        self.pipeline_depth_peak = 0
        self._load()

    # -- state ----------------------------------------------------------------
    def _load(self) -> None:
        """(Re)load the shard runtime and handshake facts from disk —
        the same checksum-verified path a pool worker warm-starts
        through."""
        from repro.engine import persist

        manifest = persist.read_sharded_manifest(self.root)
        shard_meta = manifest.get("shards") or []
        if not 0 <= self.shard_id < len(shard_meta):
            raise EngineError(
                f"artifact at {self.root} has {len(shard_meta)} shards; "
                f"there is no shard {self.shard_id}")
        meta = shard_meta[self.shard_id]
        shard_dir = self.root / meta.get(
            "dir", persist.shard_dir_name(self.shard_id))
        manifest_bytes = (shard_dir / persist.MANIFEST_FILE).read_bytes()
        runtime = persist.load_shard_runtimes(self.root,
                                              [self.shard_id])[0]
        with self._lock:
            self.runtime = runtime
            self.format_version = manifest.get("format_version")
            self.schema_version = manifest.get("schema_version")
            self.manifest_sha256 = hashlib.sha256(manifest_bytes).hexdigest()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> "ShardServer":
        """Bind and serve in a background thread; returns ``self``."""
        if self._server is not None:
            raise ServerError("shard server already started")
        self._server = _ShardTCPServer((self.host, self.port), _Handler)
        self._server.shard_server = self
        self._server.active_connections = set()
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"shard-serve-{self.shard_id}", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, close the socket, join the serve thread
        (idempotent)."""
        server, self._server = self._server, None
        if server is None:
            return
        server.shutdown()
        server.server_close()
        # Sever live connections too — handler threads outlive shutdown(),
        # and an in-process "restart" must look like a process death to
        # clients (half-open sockets would mask reconnect bugs in tests).
        for conn in list(server.active_connections):
            try:
                conn.shutdown(socketserver.socket.SHUT_RDWR)
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def wait_until_stopped(self) -> None:
        """Block until a ``shutdown`` op (or anything else that sets
        :meth:`request_stop`) arrives, then stop. The CLI's foreground
        loop — its signal handlers call :meth:`request_stop` too, so
        SIGTERM/SIGINT drain identically to a protocol shutdown."""
        self._stop_requested.wait()
        self.stop()

    def request_stop(self) -> None:
        self._stop_requested.set()

    def scatter_delay_for(self, doc: dict) -> float:
        """Injected latency for one request (0 unless configured and
        the request is a scatter — the handshake and management ops stay
        fast so tests and probes are not slowed down)."""
        if not self.delay_s or doc.get("op") != "scatter":
            return 0.0
        jitter = self._delay_rng.uniform(0.0, self.delay_jitter_s) \
            if self.delay_jitter_s else 0.0
        return self.delay_s + jitter

    # -- dispatch -------------------------------------------------------------
    def dispatch(self, doc: dict) -> dict:
        trace = protocol.decode_trace(doc)
        if trace is None:
            return self._dispatch(doc)
        # A traced request: time the op server-side and report it back
        # as ``server_ms`` so the front-end's shard_rpc span can split
        # network wait from shard work; the shard's own log line carries
        # the same trace id the front-end span tree does.
        self.traced_requests += 1
        t0 = time.perf_counter()
        response = self._dispatch(doc)
        server_ms = (time.perf_counter() - t0) * 1000.0
        _log.debug("shard %d %s trace=%s %.2f ms", self.shard_id,
                   doc.get("op"), trace["trace_id"], server_ms)
        if isinstance(response, protocol.Frame):
            # Mutate in place — spreading into a plain dict would drop
            # the payload buffers of a binary scatter response.
            response["server_ms"] = round(server_ms, 3)
            return response
        return {**response, "server_ms": round(server_ms, 3)}

    def _dispatch(self, doc: dict) -> dict:
        op = doc.get("op")
        self.requests += 1
        if op == "hello":
            return self._op_hello(doc)
        if op == "scatter":
            return self._op_scatter(doc)
        if op == "extension_stats":
            labels = [str(label) for label in doc.get("labels", ())]
            return protocol.encode_extension_stats(
                self.runtime.extension_stats(labels))
        if op == "extend":
            return self._op_extend(doc)
        if op == "ping":
            return {"op": "pong", "shard_id": self.shard_id}
        if op == "metrics":
            return self._op_metrics()
        if op == "reload":
            with self._lock:
                pass  # serialize against a concurrent extend
            self._load()
            self.reloads += 1
            return {"op": "reload", "shard_id": self.shard_id,
                    "schema_version": self.schema_version,
                    "manifest_sha256": self.manifest_sha256}
        if op == "shutdown":
            self.request_stop()
            return {"op": "shutdown"}
        raise ServerError(f"unknown op {op!r}")

    def _op_hello(self, doc: dict) -> dict:
        found = doc.get("protocol")
        if found != protocol.PROTOCOL_VERSION:
            raise ShardHandshakeMismatch(
                f"front-end speaks protocol {found!r}, this shard server "
                f"speaks {protocol.PROTOCOL_VERSION}",
                found=found, expected=protocol.PROTOCOL_VERSION)
        return {
            "op": "hello",
            "protocol": protocol.PROTOCOL_VERSION,
            "shard_id": self.shard_id,
            "format_version": self.format_version,
            "schema_version": self.schema_version,
            "manifest_sha256": self.manifest_sha256,
            "owned_labels": self.runtime.owned_labels(),
            "owned_nodes": len(self.runtime.owned),
            "artifact": str(self.root),
        }

    def _op_scatter(self, doc: dict) -> dict:
        t0 = time.perf_counter()
        if "tasks_meta" not in doc:
            raise ShardProtocolError(
                f"scatter needs a binary frame carrying tasks_meta "
                f"(protocol {protocol.PROTOCOL_VERSION})")
        tasks = protocol.decode_tasks(doc["tasks_meta"],
                                      getattr(doc, "payloads", ()))
        runtime = self.runtime  # one snapshot for the whole round
        raw = [runtime.handle(task) for task in tasks]
        if self.task_cost_s:
            # Charge per work unit (source combo; probes count one), so
            # the injected cost tracks the work actually sent — wire-
            # level task grouping does not discount it, dedup does.
            units = sum(len(task[2]) if task[0] in ("fetch", "edge")
                        else 1 for task in tasks)
            time.sleep(self.task_cost_s * units)
        self.scatter_rounds += 1
        self.tasks_handled += len(tasks)
        metas, buffers = protocol.encode_responses(
            [task[0] for task in tasks], raw)
        response = protocol.Frame({"responses_meta": metas},
                                  payloads=buffers, binary=True)
        self.scatter_seconds += time.perf_counter() - t0
        return response

    def _op_extend(self, doc: dict) -> dict:
        constraints = [AccessConstraint.from_dict(item)
                       for item in doc.get("constraints", ())]
        with self._lock:
            result = self.runtime.extend(constraints)
        self.extensions_applied += result["built"]
        return {"result": result}

    def _op_metrics(self) -> dict:
        return {
            "op": "metrics",
            "shard_id": self.shard_id,
            "owned_nodes": len(self.runtime.owned),
            "owned_labels": len(self.runtime.owned_labels()),
            "schema_version": self.schema_version,
            "requests": self.requests,
            "scatter_rounds": self.scatter_rounds,
            "tasks_handled": self.tasks_handled,
            "extensions_applied": self.extensions_applied,
            "reloads": self.reloads,
            "traced_requests": self.traced_requests,
            "scatter_seconds": round(self.scatter_seconds, 6),
            "uptime_s": time.monotonic() - self._started,
            "pipeline_depth_peak": self.pipeline_depth_peak,
            "delay_ms": round(self.delay_s * 1000.0, 3),
            "task_cost_ms": round(self.task_cost_s * 1000.0, 3),
            "wire": {
                "bytes_received": self.wire_bytes_received,
                "bytes_sent": self.wire_bytes_sent,
                "binary_frames_received": self.binary_frames_received,
            },
        }

    def __repr__(self) -> str:
        return (f"ShardServer(shard={self.shard_id}, "
                f"addr={self.address}, root={str(self.root)!r})")


class _ShardTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    shard_server: ShardServer
    active_connections: set


class _Handler(socketserver.StreamRequestHandler):
    """One connection, pipelined: the handler thread reads ahead —
    stamping each frame's arrival and queueing it — while a per-
    connection worker thread dispatches and responds strictly in
    arrival order (the front-end correlates by request id, but in-order
    responses keep the stream trivially self-synchronizing). Reading
    request N+1 while request N computes is what lets one connection
    carry several rounds at once. Typed :mod:`repro.errors` exceptions
    serialize as typed error responses; anything else is a server bug
    and reports opaquely. A malformed, overlong or truncated frame gets
    one typed error response, then the connection is closed (the stream
    cannot be trusted past it)."""

    def setup(self) -> None:
        super().setup()
        self.connection.setsockopt(socketserver.socket.IPPROTO_TCP,
                                   socketserver.socket.TCP_NODELAY, 1)
        self.server.active_connections.add(self.connection)

    def finish(self) -> None:
        self.server.active_connections.discard(self.connection)
        super().finish()

    def handle(self) -> None:
        server = self.server.shard_server
        work: queue.Queue = queue.Queue()
        self._worker_dead = False
        self._unanswered = 0  # read but not yet responded (GIL-atomic)
        worker = threading.Thread(
            target=self._drain, args=(server, work),
            name="shard-serve-worker", daemon=True)
        worker.start()
        try:
            while not self._worker_dead:
                try:
                    frame = protocol.read_frame(self.rfile)
                except EOFError:
                    return
                except (ShardProtocolError, ServerError, OSError) as exc:
                    work.put(("error", exc, None))
                    return
                server.wire_bytes_received += frame.nbytes
                if frame.binary:
                    server.binary_frames_received += 1
                self._unanswered += 1
                if self._unanswered > server.pipeline_depth_peak:
                    server.pipeline_depth_peak = self._unanswered
                work.put(("frame", frame, time.monotonic()))
        finally:
            work.put(("eof", None, None))
            worker.join()

    def _drain(self, server: ShardServer, work: queue.Queue) -> None:
        """The connection's in-order dispatch loop."""
        try:
            while True:
                kind, item, arrival = work.get()
                if kind == "eof":
                    return
                if kind == "error":
                    self._respond(protocol.error_response(
                        None, item if protocol.is_repro_error(item)
                        else ServerError("unreadable frame")))
                    return
                delay = server.scatter_delay_for(item)
                if delay:
                    remaining = arrival + delay - time.monotonic()
                    if remaining > 0:
                        time.sleep(remaining)
                request_id = item.get("id")
                payloads = ()
                try:
                    response = server.dispatch(item)
                    payloads = getattr(response, "payloads", ())
                    response = {"id": request_id, "ok": True, **response}
                except Exception as exc:  # noqa: BLE001 — keep serving
                    if not protocol.is_repro_error(exc):
                        exc = ServerError(
                            f"internal error: {type(exc).__name__}")
                    response = protocol.error_response(request_id, exc)
                ok = self._respond(response, payloads=payloads,
                                   binary=item.binary)
                self._unanswered -= 1
                if not ok:
                    return
        finally:
            self._worker_dead = True

    def _respond(self, doc: dict, payloads=(), binary: bool = False) -> bool:
        try:
            data = protocol.encode_binary(doc, payloads) if binary \
                else protocol.encode(doc)
            self.wfile.write(data)
            self.server.shard_server.wire_bytes_sent += len(data)
            return True
        except (OSError, ValueError):
            return False


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.server.shardserver`` — the same foreground loop
    ``repro shard-serve`` wraps."""
    import argparse
    import signal

    parser = argparse.ArgumentParser(
        description="Serve one shard of a sharded artifact over TCP")
    parser.add_argument("--artifact", required=True,
                        help="per-shard directory (<artifact>/shard-NNNN)")
    parser.add_argument("--shard-id", type=int, default=None,
                        help="shard id (inferred from --artifact when it "
                             "names a shard-NNNN directory)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int,
                        default=protocol.DEFAULT_SHARD_PORT)
    parser.add_argument("--log-format", choices=("text", "json"),
                        default="text",
                        help="structured log format for the repro.* "
                             "logger namespace (default: text)")
    parser.add_argument("--delay-ms", type=float, default=0.0,
                        help="inject this much latency (from frame "
                             "arrival) into every scatter round — a "
                             "skewed-fleet straggler for benchmarks and "
                             "smoke tests (default: 0)")
    parser.add_argument("--delay-jitter-ms", type=float, default=0.0,
                        help="add up to this much uniformly-random extra "
                             "latency per scatter round (default: 0)")
    parser.add_argument("--task-cost-ms", type=float, default=0.0,
                        help="inject this much serial compute per scatter "
                             "task — a hot shard whose cost scales with "
                             "the work it is sent (default: 0)")
    args = parser.parse_args(argv)

    from repro.obs.logs import setup_logging
    setup_logging(args.log_format)
    server = ShardServer(args.artifact, host=args.host, port=args.port,
                         shard_id=args.shard_id,
                         delay_ms=args.delay_ms,
                         delay_jitter_ms=args.delay_jitter_ms,
                         task_cost_ms=args.task_cost_ms)
    server.start()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: server.request_stop())
    # The start/stop lines stay on stdout: the smoke flows (and any
    # process supervisor) watch for them regardless of log format.
    print(f"shard {server.shard_id} serving {server.root} on "
          f"{server.address} (schema v{server.schema_version})",
          flush=True)
    server.wait_until_stopped()
    print(f"shard {server.shard_id} stopped: {server.requests} requests, "
          f"{server.scatter_rounds} scatter rounds, "
          f"{server.tasks_handled} tasks", flush=True)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main(None))


__all__ = [
    "ShardServer",
    "main",
    "resolve_shard_artifact",
]
