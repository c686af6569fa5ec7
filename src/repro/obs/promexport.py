"""Prometheus text-format export of a service metrics snapshot.

:func:`render_prometheus` turns the JSON snapshot the ``metrics`` op
already serves (front-end counters + merged per-shard fleet snapshots +
bound-utilization histogram) into Prometheus exposition text, and
:class:`MetricsHTTPServer` serves it on ``GET /metrics`` from a
background thread — ``repro serve --metrics-port`` wires the two
together. Rendering is read-only over one snapshot dict: no state, no
client library, no new dependency.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_log = logging.getLogger("repro.metrics")

#: Snapshot keys exported as plain ``repro_<key>`` gauges/counters when
#: present (counter-like names get a ``_total`` suffix).
_COUNTERS = ("requests", "admitted", "answered", "deadline_expired",
             "errors", "batches", "batched_requests", "reloads",
             "rescued", "rescue_failed", "rescued_constraints")
_GAUGES = ("qps", "recent_qps", "bounded_fraction", "uptime_s",
           "mean_batch_size", "queue_depth", "window_size")

#: Per-shard integer fields from the fleet ``shards`` block exported as
#: ``repro_shard_<field>{shard="..."}``.
_SHARD_FIELDS = ("requests", "scatter_rounds", "tasks_handled",
                 "extensions_applied", "reloads", "traced_requests")

#: Backend scatter counters (front-end side) from the ``backend`` block.
_BACKEND_FIELDS = ("scatter_rounds", "tasks_scattered", "scatter_messages",
                   "scatter_messages_broadcast", "reconnects",
                   "rounds_overlapped")


def _escape(value) -> str:
    return (str(value).replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _num(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class _Writer:
    """Accumulates exposition lines, emitting HELP/TYPE once per metric."""

    def __init__(self):
        self.lines: list[str] = []
        self._seen: set[str] = set()

    def sample(self, name: str, value, labels: dict | None = None, *,
               kind: str = "gauge", help_text: str = "") -> None:
        if value is None:
            return
        if name not in self._seen:
            self._seen.add(name)
            if help_text:
                self.lines.append(f"# HELP {name} {help_text}")
            self.lines.append(f"# TYPE {name} {kind}")
        label_s = ""
        if labels:
            inner = ",".join(f'{k}="{_escape(v)}"'
                             for k, v in sorted(labels.items()))
            label_s = "{" + inner + "}"
        self.lines.append(f"{name}{label_s} {_num(value)}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def render_prometheus(snapshot: dict) -> str:
    """Render one service metrics snapshot as Prometheus text.

    Tolerant of partial snapshots (a minimal :class:`ServerMetrics`
    snapshot renders fine; fleet/engine blocks are exported only when
    present), so the same renderer serves unit tests, single-process
    services, and remote-shard fleets.
    """
    w = _Writer()
    for key in _COUNTERS:
        w.sample(f"repro_{key}_total", snapshot.get(key), kind="counter")
    for key in _GAUGES:
        w.sample(f"repro_{key}", snapshot.get(key))
    for reason, count in sorted(snapshot.get("rejected", {}).items()):
        w.sample("repro_rejected_total", count, {"reason": reason},
                 kind="counter",
                 help_text="Requests rejected at admission, by reason.")
    for quantile, value in sorted(snapshot.get("latency_ms", {}).items()):
        w.sample("repro_latency_ms", value, {"quantile": str(quantile)},
                 help_text="Answer latency over the sliding window, ms.")

    # Bound telemetry: the paper's worst-case access bound vs what the
    # query actually touched, as a cumulative utilization histogram.
    bound = snapshot.get("bound_utilization")
    if bound:
        cumulative = 0
        for le, count in bound.get("buckets", ()):
            cumulative += count
            infinite = isinstance(le, str) or le == float("inf")
            w.sample("repro_bound_utilization_bucket", cumulative,
                     {"le": "+Inf" if infinite else _num(le)},
                     kind="histogram",
                     help_text=("Actual accesses / admitted worst-case "
                                "bound, per answered query."))
        w.sample("repro_bound_utilization_sum", bound.get("utilization_sum"))
        w.sample("repro_bound_utilization_count", bound.get("samples"))
        w.sample("repro_bound_violations_total", bound.get("violations"),
                 kind="counter",
                 help_text=("Answered queries whose actual accesses "
                            "exceeded the admitted bound (should stay 0)."))
        w.sample("repro_bound_admitted_accesses_total",
                 bound.get("bound_sum"), kind="counter")
        w.sample("repro_bound_actual_accesses_total",
                 bound.get("actual_sum"), kind="counter")

    backend = snapshot.get("backend")
    if backend:
        w.sample("repro_backend_num_shards", backend.get("num_shards"))
        for field in _BACKEND_FIELDS:
            w.sample(f"repro_backend_{field}_total", backend.get(field),
                     kind="counter")
        w.sample("repro_scatter_dedup_hits_total",
                 backend.get("scatter_dedup_hits"), kind="counter",
                 help_text=("Cross-execution scatter tasks answered "
                            "from an identical task of the same batch "
                            "instead of a second shard round trip."))
        # Front-end wire telemetry: bytes each way per shard connection
        # plus cumulative request-encode and response-decode time.
        for entry in backend.get("wire_by_shard", ()):
            if not isinstance(entry, dict):
                continue
            shard_label = str(entry.get("shard_id", "?"))
            for direction, field in (("sent", "bytes_sent"),
                                     ("received", "bytes_received")):
                w.sample("repro_shard_wire_bytes_total", entry.get(field),
                         {"shard": shard_label, "direction": direction},
                         kind="counter",
                         help_text=("Bytes on the wire per shard "
                                    "connection, by direction "
                                    "(front-end side)."))
            w.sample("repro_shard_wire_encode_ms_total",
                     entry.get("encode_ms"), {"shard": shard_label},
                     kind="counter",
                     help_text=("Cumulative request-encode time per "
                                "shard connection, ms."))
            w.sample("repro_shard_wire_decode_ms_total",
                     entry.get("decode_ms"), {"shard": shard_label},
                     kind="counter",
                     help_text=("Cumulative scatter-response decode "
                                "time per shard connection, ms "
                                "(reader threads)."))
            w.sample("repro_shard_inflight", entry.get("inflight"),
                     {"shard": shard_label},
                     help_text=("Requests currently awaiting a response "
                                "on the shard connection."))
            w.sample("repro_shard_inflight_peak", entry.get("inflight_peak"),
                     {"shard": shard_label},
                     help_text=("High-water mark of concurrently "
                                "in-flight requests per shard "
                                "connection."))

    for shard in snapshot.get("shards", ()):
        if not isinstance(shard, dict):
            continue
        labels = {"shard": str(shard.get("shard_id", "?"))}
        if "error" in shard:
            w.sample("repro_shard_unreachable", 1, labels,
                     help_text="Shard whose metrics fan-out failed.")
            continue
        for field in _SHARD_FIELDS:
            w.sample(f"repro_shard_{field}_total", shard.get(field), labels,
                     kind="counter",
                     help_text=f"Per-shard-server {field}.")
        w.sample("repro_shard_scatter_seconds_total",
                 shard.get("scatter_seconds"), labels, kind="counter")
        w.sample("repro_shard_uptime_s", shard.get("uptime_s"), labels)
        wire = shard.get("wire")
        if isinstance(wire, dict):
            # Server-side byte counters, labelled from the shard's own
            # perspective (its "sent" is the front-end's "received").
            for direction, field in (("sent", "bytes_sent"),
                                     ("received", "bytes_received")):
                w.sample("repro_shard_server_wire_bytes_total",
                         wire.get(field),
                         {"shard": labels["shard"],
                          "direction": direction}, kind="counter",
                         help_text=("Bytes on the wire per shard server, "
                                    "by direction (server side)."))

    plan_cache = snapshot.get("plan_cache")
    if plan_cache:
        w.sample("repro_plan_cache_hits_total", plan_cache.get("hits"),
                 kind="counter")
        w.sample("repro_plan_cache_misses_total", plan_cache.get("misses"),
                 kind="counter")
        w.sample("repro_plan_cache_size", plan_cache.get("size"))

    tracing = snapshot.get("tracing")
    if tracing:
        w.sample("repro_traces_finished_total",
                 tracing.get("traces_finished"), kind="counter")
        w.sample("repro_slow_queries_total", tracing.get("slow_queries"),
                 kind="counter")

    engine = snapshot.get("engine")
    if isinstance(engine, dict):
        w.sample("repro_schema_version", engine.get("schema_version"))
    return w.text()


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-metrics"

    def do_GET(self):  # noqa: N802 (http.server API)
        try:
            if self.path.split("?")[0] in ("/metrics", "/"):
                body = render_prometheus(self.server.snapshot()).encode()
                ctype = "text/plain; version=0.0.4; charset=utf-8"
            elif self.path.split("?")[0] == "/slow":
                traces = self.server.slow_traces()
                body = json.dumps([t.as_dict() for t in traces],
                                  indent=2).encode()
                ctype = "application/json"
            else:
                self.send_error(404, "unknown path (try /metrics or /slow)")
                return
        except Exception as exc:  # pragma: no cover - defensive
            self.send_error(500, f"{type(exc).__name__}: {exc}")
            return
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):
        _log.debug("%s %s", self.address_string(), fmt % args)


class MetricsHTTPServer:
    """Prometheus scrape endpoint on a daemon thread.

    ``GET /metrics`` renders ``snapshot_fn()`` (the service's ``metrics``
    op snapshot) as exposition text; ``GET /slow`` returns the retained
    slow-query traces as JSON when a recorder is attached.
    """

    def __init__(self, snapshot_fn, *, host: str = "127.0.0.1",
                 port: int = 0, recorder=None):
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.snapshot = snapshot_fn
        self._httpd.slow_traces = (
            recorder.slow if recorder is not None else lambda: [])
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def start(self) -> "MetricsHTTPServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.2},
            name="repro-metrics-http", daemon=True)
        self._thread.start()
        _log.info("metrics endpoint on http://%s:%d/metrics",
                  self._httpd.server_address[0], self.port)
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "MetricsHTTPServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


__all__ = ["MetricsHTTPServer", "render_prometheus"]
