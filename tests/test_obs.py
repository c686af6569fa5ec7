"""Observability: span trees, bound telemetry, export, and identity.

Covers the tentpole acceptance criteria of the observability PR:

* one **connected** span tree per request — admission, queue wait,
  batch assembly, plan-cache lookup, execution waves, and (on a remote
  fleet) one span per per-shard RPC carrying the ``trace`` wire field,
  all sharing the request's ``trace_id``;
* trace propagation across a remote-shard retry/reconnect and through
  an online rescue (plan_extension / extend_schema children);
* **byte-identical answers and AccessStats** with tracing on vs off at
  shard counts {1, 2, 4} (hypothesis property test);
* bound telemetry: the admitted worst-case bound vs actual accesses as
  a utilization histogram whose overflow bucket stays empty;
* the Prometheus renderer, scrape endpoint, ``repro metrics`` CLI,
  structured JSON logging, and the recent-qps staleness fix.
"""

from __future__ import annotations

import io
import json
import logging
import socket
import time
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AccessStats, connect
from repro.core.actualized import SIMULATION, SUBGRAPH
from repro.matching.bounded import canonical_answer
from repro.obs import (
    MetricsHTTPServer,
    TraceRecorder,
    activate,
    bind,
    child_span,
    current_span,
    render_metrics_table,
    render_prometheus,
    setup_logging,
)
from repro.obs.logs import JsonFormatter, TraceIdFilter
from repro.server import QueryService, ServeClient, ServerThread, protocol
from repro.server.metrics import BOUND_BUCKETS, ServerMetrics
from repro.server.shardserver import ShardServer

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture(autouse=True)
def _pristine_repro_logger():
    """Undo any earlier ``setup_logging`` call (e.g. a CLI serve test in
    the same process sets ``propagate = False`` on the ``repro`` logger,
    which would starve ``caplog``) and restore the state afterwards."""
    logger = logging.getLogger("repro")
    saved = (list(logger.handlers), logger.propagate, logger.level)
    for handler in saved[0]:
        logger.removeHandler(handler)
    logger.propagate = True
    logger.setLevel(logging.NOTSET)
    yield
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    for handler in saved[0]:
        logger.addHandler(handler)
    logger.propagate = saved[1]
    logger.setLevel(saved[2])

_SETTINGS = dict(max_examples=8, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.function_scoped_fixture])

SHARD_COUNTS = (1, 2, 4)

BOUNDED = "m: movie; y: year; m -> y"
UNBOUNDED = "a: actor; c: country; a -> c"


# --------------------------------------------------------------- helpers
def assert_connected(trace):
    """Every span belongs to the trace, is finished, and parents to a
    recorded span; exactly one root."""
    ids = {span.span_id for span in trace.spans}
    roots = [span for span in trace.spans if span.parent_id is None]
    assert len(roots) == 1, [s.name for s in roots]
    for span in trace.spans:
        assert span.trace_id == trace.trace_id
        assert span.duration_s is not None, span.name
        if span.parent_id is not None:
            assert span.parent_id in ids, (span.name, span.parent_id)


def fingerprint(engine, query, semantics):
    run = engine.query(query, semantics, stats=AccessStats(), refresh=True)
    ex = run.execution
    return (canonical_answer(semantics, run.answer),
            sorted(ex.gq.nodes()), sorted(ex.gq.edges()),
            sorted((u, tuple(sorted(c))) for u, c in ex.candidates.items()),
            (ex.stats.nodes_fetched, ex.stats.edges_checked,
             ex.stats.index_fetches, ex.stats.distinct_nodes))


# --------------------------------------------------------------- fixtures
@pytest.fixture(scope="module")
def sharded_artifacts(tmp_path_factory, imdb_small):
    from repro.pattern import parse_pattern

    graph, schema = imdb_small
    engine = connect((graph, schema))
    engine.prepare(parse_pattern(BOUNDED), SUBGRAPH)
    root = tmp_path_factory.mktemp("obs-artifacts")
    paths = {}
    for shards in SHARD_COUNTS:
        path = root / f"artifact-{shards}"
        engine.save(path, shards=shards)
        paths[shards] = path
    return paths


@pytest.fixture(scope="module")
def fleets(sharded_artifacts):
    servers = []
    addrs = {}
    for shards, path in sharded_artifacts.items():
        fleet = [ShardServer(path / f"shard-{i:04d}").start()
                 for i in range(shards)]
        servers.extend(fleet)
        addrs[shards] = [server.address for server in fleet]
    yield addrs
    for server in servers:
        server.stop()


# ------------------------------------------------------------- span model
class TestSpanModel:
    def test_tree_construction_and_lookup(self):
        recorder = TraceRecorder()
        root = recorder.trace("request", semantics="subgraph")
        trace = root.trace
        child = root.child("admission")
        grand = child.child("compile")
        grand.end()
        child.set(cost=7).end()
        trace.finish()
        assert trace.root is root
        assert root.parent_id is None
        assert [s.name for s in trace.children_of(root)] == ["admission"]
        assert [s.name for s in trace.children_of(child)] == ["compile"]
        assert trace.by_name("admission")[0].attrs["cost"] == 7
        assert_connected(trace)
        assert recorder.recent() == [trace]
        assert recorder.traces_finished == 1

    def test_end_is_idempotent(self):
        trace = TraceRecorder().trace("r").trace
        span = trace.root
        span.end()
        first = span.duration_s
        time.sleep(0.002)
        span.end()
        assert span.duration_s == first
        assert trace.spans.count(span) == 1

    def test_child_span_without_active_parent_is_noop(self):
        assert current_span() is None
        with child_span("anything", attr=1) as span:
            assert span is None
        assert current_span() is None

    def test_child_span_nests_through_contextvar(self):
        root = TraceRecorder().trace("request")
        with activate(root):
            with child_span("outer") as outer:
                assert current_span() is outer
                with child_span("inner") as inner:
                    assert inner.parent_id == outer.span_id
            assert current_span() is root

    def test_child_span_stamps_error_attr(self):
        root = TraceRecorder().trace("request")
        with activate(root):
            with pytest.raises(ValueError):
                with child_span("risky"):
                    raise ValueError("boom")
        span = root.trace.by_name("risky")[0]
        assert span.attrs["error"] == "ValueError"
        assert span.duration_s is not None

    def test_activate_none_and_bind_none_are_passthrough(self):
        with activate(None) as span:
            assert span is None
        fn = lambda: current_span()  # noqa: E731
        assert bind(None, fn) is fn

    def test_bind_carries_span_across_threads(self):
        import threading

        root = TraceRecorder().trace("request")
        seen = []
        worker = threading.Thread(
            target=bind(root, lambda: seen.append(current_span())))
        worker.start()
        worker.join()
        assert seen == [root]

    def test_slow_query_log_and_sampling(self, caplog):
        recorder = TraceRecorder(slow_ms=0.0, slow_sample=2)
        with caplog.at_level(logging.WARNING, logger="repro.slowquery"):
            for _ in range(4):
                recorder.trace("request").trace.finish()
        # Counter-based sampling: every 2nd slow trace is logged.
        assert recorder.slow_queries == 4
        assert len(recorder.slow()) == 4
        assert len(caplog.records) == 2
        assert "slow query" in caplog.records[0].message

    def test_recorder_retention_is_bounded(self):
        recorder = TraceRecorder(max_traces=3)
        traces = [recorder.trace("r").trace.finish() for _ in range(5)]
        assert recorder.recent() == traces[-3:]
        assert recorder.traces_finished == 5

    def test_trace_ids_are_unique_and_render_is_indented(self):
        recorder = TraceRecorder()
        a, b = recorder.trace("request"), recorder.trace("request")
        assert a.trace_id != b.trace_id
        a.child("admission", cost=3).end()
        a.trace.finish()
        text = a.trace.render()
        assert text.splitlines()[0] == f"trace {a.trace_id}"
        assert "  - request" in text
        assert "    - admission" in text and "cost=3" in text


# ------------------------------------------------------------ wire field
class TestTraceWireField:
    def test_encode_decode_roundtrip(self):
        root = TraceRecorder().trace("request")
        doc = {"op": "scatter", "trace": protocol.encode_trace(root)}
        decoded = protocol.decode_trace(doc)
        assert decoded == {"trace_id": root.trace_id,
                           "span_id": root.span_id}

    @pytest.mark.parametrize("doc", [
        {}, {"trace": None}, {"trace": "nope"}, {"trace": 7},
        {"trace": {"span_id": 1}}, {"trace": {"trace_id": 42}},
    ])
    def test_decode_tolerates_malformed(self, doc):
        assert protocol.decode_trace(doc) is None


# --------------------------------------------------------- server metrics
class TestServerMetricsTelemetry:
    def test_recent_qps_zero_when_window_stale(self):
        metrics = ServerMetrics()
        for _ in range(10):
            metrics.record_answered(0.001)
        assert metrics.snapshot()["recent_qps"] > 0
        # Age the whole window past the staleness horizon.
        stale = time.monotonic() - 3600.0
        with metrics._lock:
            metrics._finished_at.clear()
            metrics._finished_at.extend([stale + i * 0.01
                                         for i in range(10)])
        snapshot = metrics.snapshot()
        assert snapshot["recent_qps"] == 0.0
        assert snapshot["qps"] > 0  # lifetime rate unaffected

    def test_window_size_reported(self):
        assert ServerMetrics(window=7).snapshot()["window_size"] == 7

    def test_bound_histogram_math(self):
        metrics = ServerMetrics()
        metrics.record_bound(100, 10)    # 0.1  -> first bucket
        metrics.record_bound(100, 95)    # 0.95 -> le 1.0
        metrics.record_bound(100, 130)   # violation -> +Inf bucket
        metrics.record_bound(0, 0)       # degenerate bound counts as 1.0
        bound = metrics.snapshot()["bound_utilization"]
        assert bound["samples"] == 4
        assert bound["violations"] == 1
        assert bound["bound_sum"] == 300
        assert bound["actual_sum"] == 235
        buckets = dict((str(le), n) for le, n in bound["buckets"])
        assert buckets["0.1"] == 1
        assert buckets["1.0"] == 2
        assert buckets["+Inf"] == 1  # strict-JSON spelling of infinity
        assert bound["mean_utilization"] == pytest.approx(
            (0.1 + 0.95 + 1.3 + 1.0) / 4)

    def test_snapshot_is_strict_json(self):
        metrics = ServerMetrics()
        metrics.record_bound(10, 10)
        text = json.dumps(metrics.snapshot(), allow_nan=False)
        assert "+Inf" in text


# ------------------------------------------------------------ exporters
def _sample_snapshot():
    metrics = ServerMetrics()
    metrics.record_request()
    metrics.record_admitted()
    metrics.record_answered(0.005)
    metrics.record_bound(200, 50)
    snapshot = metrics.snapshot()
    snapshot["shards"] = [
        {"shard_id": 0, "requests": 3, "tasks_handled": 5,
         "scatter_rounds": 2, "scatter_seconds": 0.25, "uptime_s": 9.0,
         "traced_requests": 1, "extensions_applied": 0, "reloads": 0},
        {"shard_id": 1, "error": "ShardUnavailable: gone"},
    ]
    snapshot["backend"] = {"kind": "remote", "num_shards": 2,
                           "scatter_rounds": 2, "tasks_scattered": 5,
                           "scatter_messages": 4,
                           "scatter_messages_broadcast": 0, "reconnects": 1}
    snapshot["plan_cache"] = {"hits": 4, "misses": 1, "hit_rate": 0.8,
                              "size": 5}
    snapshot["tracing"] = {"enabled": True, "traces_finished": 6,
                           "slow_queries": 2, "slow_ms": 10.0,
                           "retained": 6}
    snapshot["engine"] = {"schema_version": 3}
    return snapshot


class TestPrometheusExport:
    def test_render_core_series(self):
        text = render_prometheus(_sample_snapshot())
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 1" in text
        assert "repro_answered_total 1" in text
        assert 'repro_rejected_total{reason="over_budget"} 0' in text
        assert 'repro_latency_ms{quantile="p50"}' in text
        assert "repro_schema_version 3" in text
        # HELP/TYPE emitted once per metric even with many samples.
        assert text.count("# TYPE repro_rejected_total counter") == 1

    def test_bound_histogram_is_cumulative_with_inf(self):
        text = render_prometheus(_sample_snapshot())
        # utilization 0.25: zero below le=0.2, cumulative 1 from 0.3 up.
        assert 'repro_bound_utilization_bucket{le="0.2"} 0' in text
        assert 'repro_bound_utilization_bucket{le="0.3"} 1' in text
        assert 'repro_bound_utilization_bucket{le="+Inf"} 1' in text
        assert "repro_bound_utilization_count 1" in text
        assert "repro_bound_violations_total 0" in text
        assert "repro_bound_admitted_accesses_total 200" in text
        assert "repro_bound_actual_accesses_total 50" in text

    def test_fleet_and_shard_series(self):
        text = render_prometheus(_sample_snapshot())
        assert "repro_backend_num_shards 2" in text
        assert "repro_backend_reconnects_total 1" in text
        assert 'repro_shard_tasks_handled_total{shard="0"} 5' in text
        assert 'repro_shard_scatter_seconds_total{shard="0"} 0.25' in text
        assert 'repro_shard_unreachable{shard="1"} 1' in text
        assert "repro_traces_finished_total 6" in text
        assert "repro_slow_queries_total 2" in text

    def test_http_endpoint_serves_metrics_and_slow(self):
        recorder = TraceRecorder(slow_ms=0.0)
        recorder.trace("request").trace.finish()
        with MetricsHTTPServer(_sample_snapshot, port=0,
                               recorder=recorder) as server:
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(f"{base}/metrics") as response:
                assert "text/plain" in response.headers["Content-Type"]
                body = response.read().decode()
            assert "repro_bound_utilization_bucket" in body
            with urllib.request.urlopen(f"{base}/slow") as response:
                slow = json.loads(response.read())
            assert len(slow) == 1
            assert slow[0]["spans"][0]["name"] == "request"
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{base}/nope")
            assert err.value.code == 404
        # Stopped: the port no longer accepts connections.
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", server.port),
                                     timeout=0.5).close()


    def test_wire_encode_and_decode_series(self):
        snapshot = _sample_snapshot()
        snapshot["backend"] = dict(snapshot["backend"])
        snapshot["backend"]["wire"] = {"bytes_sent": 10,
                                       "bytes_received": 20,
                                       "encode_ms": 0.5, "decode_ms": 1.5}
        snapshot["backend"]["wire_by_shard"] = [
            {"shard_id": 0, "addr": "127.0.0.1:1", "bytes_sent": 10,
             "bytes_received": 20, "encode_ms": 0.5, "decode_ms": 1.5,
             "inflight": 0, "inflight_peak": 2}]
        text = render_prometheus(snapshot)
        assert 'repro_shard_wire_encode_ms_total{shard="0"} 0.5' in text
        assert 'repro_shard_wire_decode_ms_total{shard="0"} 1.5' in text
        table = render_metrics_table(snapshot)
        assert "decode_ms" in table.split("wire[0]")[0]  # the wire table


class TestMetricsTable:
    def test_renders_all_sections(self):
        text = render_metrics_table(_sample_snapshot())
        for section in ("traffic", "rejected", "latency_ms", "batching",
                        "bound_utilization", "plan_cache", "backend",
                        "shard[0]", "shard[1]", "tracing", "engine"):
            assert section in text, section
        assert "le+Inf:0" in text  # histogram row
        assert "error" in text  # unreachable shard degrades to a row

    def test_tolerates_minimal_snapshot(self):
        assert "traffic" in render_metrics_table(ServerMetrics().snapshot())
        assert render_metrics_table({}) == ""


# ------------------------------------------------------- structured logs
class TestStructuredLogs:
    def _record(self, message="hello"):
        return logging.LogRecord("repro.server", logging.INFO, __file__, 1,
                                 message, None, None)

    def test_trace_id_stamped_from_active_span(self):
        record = self._record()
        root = TraceRecorder().trace("request")
        with activate(root):
            TraceIdFilter().filter(record)
        assert record.trace_id == root.trace_id

    def test_trace_id_dash_when_untraced(self):
        record = self._record()
        TraceIdFilter().filter(record)
        assert record.trace_id == "-"

    def test_json_formatter_one_object_per_line(self):
        record = self._record()
        record.trace_id = "abc-1"
        doc = json.loads(JsonFormatter().format(record))
        assert doc["message"] == "hello"
        assert doc["logger"] == "repro.server"
        assert doc["level"] == "INFO"
        assert doc["trace_id"] == "abc-1"
        untraced = self._record()
        untraced.trace_id = "-"
        assert "trace_id" not in json.loads(
            JsonFormatter().format(untraced))

    def test_setup_logging_is_idempotent(self):
        stream = io.StringIO()
        setup_logging("json", stream=stream)
        setup_logging("json", stream=stream)
        logger = logging.getLogger("repro")
        try:
            assert len(logger.handlers) == 1
            logging.getLogger("repro.test").info("ping")
            assert json.loads(stream.getvalue())["message"] == "ping"
        finally:
            for handler in list(logger.handlers):
                logger.removeHandler(handler)


# ------------------------------------------------------------- CLI
class TestMetricsCLI:
    @pytest.fixture()
    def served(self, imdb_small):
        engine = connect(imdb_small)
        service = QueryService(engine, workers=1)
        with ServerThread(service) as handle:
            with ServeClient(handle.host, handle.port) as client:
                client.query(BOUNDED)
            yield handle
        service.close()

    def test_parse_addr(self):
        from repro.cli import _parse_addr

        assert _parse_addr("10.0.0.7:9000") == ("10.0.0.7", 9000)
        assert _parse_addr(":9000") == ("127.0.0.1", 9000)
        assert _parse_addr("9000") == ("127.0.0.1", 9000)
        assert _parse_addr("somehost") == ("somehost",
                                           protocol.DEFAULT_PORT)

    def test_metrics_table(self, served, capsys):
        from repro.cli import main

        assert main(["metrics", f"{served.host}:{served.port}"]) == 0
        out = capsys.readouterr().out
        assert "traffic" in out and "bound_utilization" in out
        assert "answered" in out

    def test_metrics_json_is_strict(self, served, capsys):
        from repro.cli import main

        assert main(["metrics", f"{served.host}:{served.port}",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=_reject)
        assert doc["answered"] == 1
        assert doc["bound_utilization"]["samples"] == 1
        assert doc["bound_utilization"]["violations"] == 0

    def test_metrics_connect_failure_is_typed(self, capsys):
        from repro.cli import main

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        assert main(["metrics", f"127.0.0.1:{free_port}",
                     "--connect-timeout", "0.2"]) == 1
        assert "error:" in capsys.readouterr().err


def _reject(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


# ----------------------------------------------------- traced serving
class TestTracedServing:
    def test_request_span_tree_is_connected(self, imdb_small):
        recorder = TraceRecorder()
        service = QueryService(connect(imdb_small), workers=1,
                               tracer=recorder)
        try:
            with ServerThread(service) as handle:
                with ServeClient(handle.host, handle.port) as client:
                    client.query(BOUNDED)
                    client.query(BOUNDED)
        finally:
            service.close()
        traces = recorder.recent()
        assert len(traces) == 2
        for trace in traces:
            assert_connected(trace)
            root = trace.root
            assert root.name == "request"
            assert root.attrs["status"] == "answered"
            admission = trace.by_name("admission")
            assert admission and admission[0].parent_id == root.span_id
            assert trace.by_name("queue_wait")
            assert trace.by_name("batch_assembly")
            assert trace.by_name("plan_cache_lookup")
        # Bound accounting is stamped on the root: actual <= bound.
        for trace in traces:
            root = trace.root
            assert 0 < root.attrs["accessed"] <= root.attrs["bound"]
        # The batch-hosting trace carries the execution spans.
        batched = [t for t in traces if t.by_name("batch")]
        assert batched
        assert batched[0].by_name("execute")
        snapshot = service.snapshot()
        assert snapshot["tracing"]["traces_finished"] == 2
        assert snapshot["bound_utilization"]["samples"] == 2
        assert snapshot["bound_utilization"]["violations"] == 0

    def test_rejected_request_trace_has_status(self, imdb_small):
        from repro.errors import AdmissionRejected

        recorder = TraceRecorder()
        service = QueryService(connect(imdb_small), workers=1,
                               max_cost=0.5, tracer=recorder)
        try:
            with ServerThread(service) as handle:
                with ServeClient(handle.host, handle.port) as client:
                    with pytest.raises(AdmissionRejected):
                        client.query(BOUNDED)
        finally:
            service.close()
        (trace,) = recorder.recent()
        assert trace.root.attrs["status"] == "rejected"
        assert trace.root.attrs["error"] == "AdmissionRejected"

    def test_rescue_trace_spans(self, imdb_small):
        recorder = TraceRecorder()
        service = QueryService(connect(imdb_small), workers=1,
                               extend_budget=10 ** 6, tracer=recorder)
        try:
            with ServerThread(service) as handle:
                with ServeClient(handle.host, handle.port) as client:
                    assert client.query(UNBOUNDED).answer_count > 0
        finally:
            service.close()
        (trace,) = recorder.recent()
        assert_connected(trace)
        (rescue,) = trace.by_name("rescue")
        assert rescue.parent_id == trace.root.span_id
        assert rescue.attrs["constraints_added"] >= 1
        assert rescue.attrs["schema_version"] == 1
        children = {s.name for s in trace.children_of(rescue)}
        assert "plan_extension" in children
        assert "extend_schema" in children

    def test_untraced_service_records_bound_telemetry(self, imdb_small):
        """record_bound is unconditional: the histogram fills with the
        tracer off (the near-zero-cost path still has telemetry)."""
        service = QueryService(connect(imdb_small), workers=1)
        try:
            with ServerThread(service) as handle:
                with ServeClient(handle.host, handle.port) as client:
                    client.query(BOUNDED)
        finally:
            service.close()
        snapshot = service.snapshot()
        assert "tracing" not in snapshot
        assert snapshot["bound_utilization"]["samples"] == 1
        assert snapshot["bound_utilization"]["violations"] == 0


# ----------------------------------------------------- remote tracing
class TestRemoteTracing:
    def test_span_tree_covers_per_shard_rpcs(self, sharded_artifacts,
                                             fleets):
        from repro.pattern import parse_pattern

        recorder = TraceRecorder()
        query = parse_pattern(BOUNDED)
        with connect(sharded_artifacts[2], backend="remote",
                     shard_addrs=fleets[2]) as engine:
            root = recorder.trace("request")
            with activate(root):
                run = engine.query(query, SUBGRAPH)
            trace = root.trace.finish()
        assert run.answer
        assert_connected(trace)
        (execute,) = trace.by_name("execute")
        assert execute.attrs["strategy"] == "scatter"
        waves = trace.by_name("wave")
        assert waves
        rpcs = trace.by_name("shard_rpc")
        assert {span.attrs["shard"] for span in rpcs} == {0, 1}
        wave_ids = {span.span_id for span in waves}
        scatter_rpcs = [s for s in rpcs if s.attrs["rpc"] == "scatter"]
        assert scatter_rpcs
        for span in scatter_rpcs:
            assert span.parent_id in wave_ids
            # The shard server timed the op and replied with server_ms.
            assert span.attrs["server_ms"] >= 0.0
            assert "addr" in span.attrs

    def test_trace_survives_retry_and_reconnect(self, sharded_artifacts):
        from repro.pattern import parse_pattern

        query = parse_pattern(BOUNDED)
        path = sharded_artifacts[2]
        servers = [_FlakyOnceShardServer(path / "shard-0000").start(),
                   ShardServer(path / "shard-0001").start()]
        recorder = TraceRecorder()
        try:
            with connect(path, strategy="scatter") as inline:
                expected = canonical_answer(
                    SUBGRAPH, inline.query(query).answer)
            with connect(path, backend="remote",
                         shard_addrs=[s.address for s in servers],
                         retries=2, retry_backoff_s=0.01) as engine:
                root = recorder.trace("request")
                with activate(root):
                    run = engine.query(query, SUBGRAPH)
                trace = root.trace.finish()
                assert engine._shards.reconnects >= 1
        finally:
            for server in servers:
                server.stop()
        assert canonical_answer(SUBGRAPH, run.answer) == expected
        assert servers[0].tripped
        assert_connected(trace)
        retried = [s for s in trace.by_name("shard_rpc")
                   if s.attrs.get("retries")]
        assert retried
        assert retried[0].attrs["reconnects"] >= 1

    @given(shards=st.sampled_from(SHARD_COUNTS),
           semantics=st.sampled_from([SUBGRAPH, SIMULATION]))
    @settings(**_SETTINGS)
    def test_identical_answers_tracing_on_vs_off(self, sharded_artifacts,
                                                 fleets, shards, semantics):
        """The observability contract: spans observe, never steer —
        answers, G_Q, candidates, and AccessStats are byte-identical
        with tracing on and off at every shard count."""
        from repro.pattern import parse_pattern

        query = parse_pattern(BOUNDED)
        with connect(sharded_artifacts[shards], backend="remote",
                     shard_addrs=fleets[shards]) as engine:
            off = fingerprint(engine, query, semantics)
            recorder = TraceRecorder()
            root = recorder.trace("request")
            with activate(root):
                on = fingerprint(engine, query, semantics)
            trace = root.trace.finish()
        assert on == off
        assert trace.by_name("shard_rpc")  # tracing really was on


class _FlakyOnceShardServer(ShardServer):
    """Severs every connection on the first scatter, then behaves."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tripped = False

    def dispatch(self, doc):
        if doc.get("op") == "scatter" and not self.tripped:
            self.tripped = True
            for conn in list(self._server.active_connections):
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        return super().dispatch(doc)


# ------------------------------------------------- shard server telemetry
class TestShardServerTelemetry:
    def test_traced_request_gets_server_ms_and_counter(self,
                                                       sharded_artifacts):
        path = sharded_artifacts[1]
        server = ShardServer(path / "shard-0000")
        untraced = server.dispatch({"op": "ping"})
        assert "server_ms" not in untraced
        traced = server.dispatch({"op": "ping",
                                  "trace": {"trace_id": "t-1",
                                            "span_id": 4}})
        assert traced["server_ms"] >= 0.0
        metrics = server.dispatch({"op": "metrics"})
        assert metrics["traced_requests"] == 1
        assert "scatter_seconds" in metrics
