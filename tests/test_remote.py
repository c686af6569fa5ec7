"""The remote shard backend: wire failures, handshakes, and identity.

Covers the tentpole acceptance criteria of the distributed-serving PR:

* byte-identical answers / ``G_Q`` / candidates / ``AccessStats``
  against the inline backend at shard counts {1, 2, 4} under both
  semantics (hypothesis property test), including after an injected
  shard restart mid-run;
* wire-level failure modes — truncated frames, handshake version and
  checksum mismatches, mid-wave shard death (typed error, no hang, no
  partial answer), and retry-then-succeed against a flaky-once shard;
* :class:`~repro.errors.ShardUnavailable` surfacing through the query
  server as the same typed error;
* the ``repro.connect`` entry point and its ``SessionConfig`` surface.
"""

from __future__ import annotations

import random
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    AccessConstraint,
    AccessStats,
    EngineError,
    QueryEngine,
    SessionConfig,
    ShardHandshakeMismatch,
    ShardUnavailable,
    connect,
)
from repro.core.actualized import SIMULATION, SUBGRAPH
from repro.core.ebchk import is_effectively_bounded
from repro.matching.bounded import canonical_answer
from repro.server import protocol
from repro.server.shardserver import ShardServer, resolve_shard_artifact

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

_SETTINGS = dict(max_examples=10, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.function_scoped_fixture])

SHARD_COUNTS = (1, 2, 4)


# --------------------------------------------------------------- fixtures
@pytest.fixture(scope="module")
def workload(imdb_small):
    from repro.pattern.generator import PatternGenerator

    graph, schema = imdb_small
    generator = PatternGenerator.from_graph(graph, rng=random.Random(11),
                                            schema=schema)
    pool = generator.generate_many(60)
    sub = [q for q in pool
           if is_effectively_bounded(q, schema, SUBGRAPH).bounded][:3]
    sim = [q for q in pool
           if is_effectively_bounded(q, schema, SIMULATION).bounded][:3]
    assert sub and sim
    return sub, sim


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory, imdb_small, workload):
    """One sharded artifact per shard count in SHARD_COUNTS."""
    graph, schema = imdb_small
    sub, sim = workload
    engine = connect((graph, schema))
    for q in sub:
        engine.prepare(q, SUBGRAPH)
    for q in sim:
        engine.prepare(q, SIMULATION)
    root = tmp_path_factory.mktemp("remote")
    paths = {}
    for shards in SHARD_COUNTS:
        path = root / f"artifact-{shards}"
        engine.save(path, shards=shards)
        paths[shards] = path
    return paths


@pytest.fixture(scope="module")
def fleets(artifacts):
    """A running shard fleet per shard count; yields {shards: addrs}."""
    servers = []
    addrs = {}
    for shards, path in artifacts.items():
        fleet = [ShardServer(path / f"shard-{i:04d}").start()
                 for i in range(shards)]
        servers.extend(fleet)
        addrs[shards] = [server.address for server in fleet]
    yield addrs
    for server in servers:
        server.stop()


def fingerprint(engine, query, semantics, refresh=False):
    run = engine.query(query, semantics, stats=AccessStats(),
                       refresh=refresh)
    ex = run.execution
    return (canonical_answer(semantics, run.answer),
            sorted(ex.gq.nodes()), sorted(ex.gq.edges()),
            sorted((u, tuple(sorted(c))) for u, c in ex.candidates.items()),
            (ex.stats.nodes_fetched, ex.stats.edges_checked,
             ex.stats.index_fetches, ex.stats.distinct_nodes))


# ------------------------------------------------- fake servers (failure rigs)
def fake_shard_server(handler):
    """A raw TCP acceptor running ``handler(conn)`` per connection;
    returns ``(addr, close)``."""
    lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    lsock.bind(("127.0.0.1", 0))
    lsock.listen(8)
    port = lsock.getsockname()[1]
    closed = threading.Event()

    def loop():
        while not closed.is_set():
            try:
                conn, _ = lsock.accept()
            except OSError:
                return
            threading.Thread(target=handler, args=(conn,),
                             daemon=True).start()

    threading.Thread(target=loop, daemon=True).start()

    def close():
        closed.set()
        lsock.close()

    return f"127.0.0.1:{port}", close


def _read_line(conn):
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = conn.recv(65536)
        if not chunk:
            raise EOFError
        buf += chunk
    return buf


def wrong_protocol_handler(conn):
    """Answers the hello with an alien protocol version."""
    import json

    try:
        doc = json.loads(_read_line(conn))
        conn.sendall(protocol.encode(
            {"id": doc.get("id"), "ok": True, "op": "hello",
             "protocol": 999}))
    except (OSError, EOFError, ValueError):
        pass
    conn.close()


def make_scripted_handler(hello_fields, reply: bytes):
    """Handshakes truthfully, then answers the first later request with
    the raw bytes ``reply`` and hangs up — the wire-corruption rig."""

    def handler(conn):
        try:
            reader = conn.makefile("rb")
            while True:
                doc = protocol.read_frame(reader)
                if doc.get("op") == "hello":
                    conn.sendall(protocol.encode(
                        {"id": doc.get("id"), "ok": True, **hello_fields}))
                else:
                    conn.sendall(reply)
                    conn.close()
                    return
        except (OSError, EOFError, ValueError):
            conn.close()

    return handler


def make_truncating_handler(hello_fields):
    """Truncates every response after the handshake mid-frame."""
    return make_scripted_handler(hello_fields, b'{"id": 99, "ok": true, '
                                               b'"respon')


def hello_fields_for(path, shard_id=0):
    """The truthful hello of ``path``'s shard — what a fake server must
    claim to get past the handshake."""
    server = ShardServer(path / f"shard-{shard_id:04d}")
    return {"op": "hello", "protocol": protocol.PROTOCOL_VERSION,
            "shard_id": server.shard_id,
            "format_version": server.format_version,
            "schema_version": server.schema_version,
            "manifest_sha256": server.manifest_sha256,
            "owned_labels": server.runtime.owned_labels()}


class FlakyOnceShardServer(ShardServer):
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


# ------------------------------------------------------------ identity tests
class TestRemoteIdentity:
    @given(shards=st.sampled_from(SHARD_COUNTS),
           semantics=st.sampled_from([SUBGRAPH, SIMULATION]),
           pick=st.integers(min_value=0, max_value=2))
    @settings(**_SETTINGS)
    def test_identical_to_inline_at_every_shard_count(
            self, artifacts, fleets, workload, shards, semantics, pick):
        sub, sim = workload
        query = (sub if semantics == SUBGRAPH else sim)[pick % len(sub)]
        with connect(artifacts[shards], strategy="scatter") as inline:
            expected = fingerprint(inline, query, semantics)
        with connect(artifacts[shards], backend="remote",
                     shard_addrs=fleets[shards]) as remote:
            assert fingerprint(remote, query, semantics) == expected

    def test_identical_after_injected_restart_midrun(self, artifacts,
                                                     workload, imdb_small):
        path = artifacts[2]
        sub, sim = workload
        servers = [ShardServer(path / f"shard-{i:04d}").start()
                   for i in range(2)]
        try:
            with connect(path, strategy="scatter") as inline:
                # The restart must also survive an online extension: the
                # restarted server warm-starts from the artifact, which
                # predates the extension, so the backend replays it.
                added = AccessConstraint(("actor",), "movie", 64)
                inline.extend_schema([added])
                expected = [fingerprint(inline, q, SUBGRAPH) for q in sub] \
                    + [fingerprint(inline, q, SIMULATION) for q in sim]
            remote = connect(path, backend="remote",
                             shard_addrs=[s.address for s in servers])
            try:
                remote.extend_schema([added])
                before = [fingerprint(remote, q, SUBGRAPH) for q in sub]
                port = servers[1].port
                servers[1].stop()
                servers[1] = ShardServer(path / "shard-0001",
                                         port=port).start()
                # refresh=True forces real re-execution over the fleet —
                # the memoized answers would mask a broken reconnect.
                after = [fingerprint(remote, q, SUBGRAPH, refresh=True)
                         for q in sub] \
                    + [fingerprint(remote, q, SIMULATION, refresh=True)
                       for q in sim]
                assert before == expected[:len(sub)]
                assert after == expected
                assert remote._shards.reconnects >= 1
            finally:
                remote.close()
        finally:
            for server in servers:
                server.stop()


# ------------------------------------------------------------- failure modes
class TestWireFailures:
    def test_version_mismatch_handshake(self, artifacts):
        addr, close = fake_shard_server(wrong_protocol_handler)
        try:
            with pytest.raises(ShardHandshakeMismatch) as err:
                connect(artifacts[1], backend="remote", shard_addrs=[addr],
                        retries=0, connect_timeout=2.0)
            assert err.value.found == 999
            assert err.value.expected == protocol.PROTOCOL_VERSION
        finally:
            close()

    def test_checksum_mismatch_handshake(self, tmp_path, artifacts):
        # A fleet serving a *different* compile of the same graph family
        # must be rejected at connect, not trusted mid-wave.
        from repro.graph.generators import imdb_like

        graph, schema = imdb_like(scale=0.02, seed=8)  # different seed
        other = tmp_path / "other"
        connect((graph, schema)).save(other, shards=1)
        server = ShardServer(other / "shard-0000").start()
        try:
            with pytest.raises(ShardHandshakeMismatch):
                connect(artifacts[1], backend="remote",
                        shard_addrs=[server.address], retries=0)
        finally:
            server.stop()

    def test_truncated_handshake_frame(self, artifacts):
        def handler(conn):
            try:
                _read_line(conn)
                conn.sendall(b'{"id": 1, "ok": tr')  # mid-frame death
            except (OSError, EOFError):
                pass
            conn.close()

        addr, close = fake_shard_server(handler)
        try:
            with pytest.raises(ShardUnavailable) as err:
                connect(artifacts[1], backend="remote", shard_addrs=[addr],
                        retries=0, connect_timeout=1.0)
            assert err.value.addr == addr
        finally:
            close()

    def test_truncated_scatter_frames_exhaust_retries(self, artifacts,
                                                      workload):
        sub, _ = workload
        handler = make_truncating_handler(hello_fields_for(artifacts[1]))
        addr, close = fake_shard_server(handler)
        try:
            engine = connect(artifacts[1], backend="remote",
                             shard_addrs=[addr], retries=1,
                             retry_backoff_s=0.01, request_timeout=5.0)
            try:
                start = time.monotonic()
                with pytest.raises(ShardUnavailable) as err:
                    engine.query(sub[0], SUBGRAPH)
                assert time.monotonic() - start < 10.0  # no hang
                assert err.value.attempts == 2  # retries + 1
            finally:
                engine.close()
        finally:
            close()

    def test_mid_wave_shard_death_is_typed_not_partial(self, artifacts,
                                                       workload):
        sub, _ = workload
        path = artifacts[2]
        servers = [ShardServer(path / f"shard-{i:04d}").start()
                   for i in range(2)]
        engine = connect(path, backend="remote",
                         shard_addrs=[s.address for s in servers],
                         retries=1, retry_backoff_s=0.01)
        try:
            assert engine.query(sub[0], SUBGRAPH).answer is not None
            servers[1].stop()  # permanent death, port not rebound
            start = time.monotonic()
            with pytest.raises(ShardUnavailable) as err:
                engine.query(sub[0], SUBGRAPH, refresh=True)
            assert time.monotonic() - start < 30.0  # bounded, no hang
            assert err.value.shard_id == 1 or err.value.addr is not None
        finally:
            engine.close()
            for server in servers:
                server.stop()

    def test_flaky_once_shard_retries_then_succeeds(self, artifacts,
                                                    workload):
        sub, sim = workload
        path = artifacts[2]
        servers = [FlakyOnceShardServer(path / "shard-0000").start(),
                   ShardServer(path / "shard-0001").start()]
        try:
            with connect(path, strategy="scatter") as inline:
                expected = fingerprint(inline, sub[0], SUBGRAPH)
            engine = connect(path, backend="remote",
                             shard_addrs=[s.address for s in servers],
                             retries=2, retry_backoff_s=0.01)
            try:
                assert fingerprint(engine, sub[0], SUBGRAPH) == expected
                assert servers[0].tripped
                assert engine._shards.reconnects >= 1
            finally:
                engine.close()
        finally:
            for server in servers:
                server.stop()

    def test_shard_unavailable_surfaces_through_query_server(
            self, artifacts, workload):
        from repro.pattern.dsl import format_pattern
        from repro.server import QueryService, ServeClient, ServerThread

        sub, _ = workload
        path = artifacts[2]
        servers = [ShardServer(path / f"shard-{i:04d}").start()
                   for i in range(2)]
        engine = connect(path, backend="remote",
                         shard_addrs=[s.address for s in servers],
                         retries=0, retry_backoff_s=0.01)
        service = QueryService(engine, workers=1)
        try:
            with ServerThread(service) as handle:
                with ServeClient(handle.host, handle.port) as client:
                    assert client.query(format_pattern(sub[0])) is not None
                    for server in servers:
                        server.stop()
                    with pytest.raises(ShardUnavailable):
                        client.query(format_pattern(sub[1]))
        finally:
            service.close()
            for server in servers:
                server.stop()


# ----------------------------------------------------------- entry point
class TestConnectSurface:
    def test_connect_rejects_unknown_source(self):
        with pytest.raises(EngineError):
            connect(42)

    def test_connect_rejects_shards_on_memory_source(self, imdb_small):
        with pytest.raises(EngineError):
            connect(imdb_small, shard_addrs=["127.0.0.1:1"])

    def test_session_config_typo_guard(self):
        with pytest.raises(EngineError):
            SessionConfig().replace(worker=3)

    def test_legacy_shims_delegate(self, imdb_small, artifacts):
        graph, schema = imdb_small
        with QueryEngine.open(graph, schema) as legacy, \
                connect((graph, schema)) as current:
            assert legacy.schema.positions() == current.schema.positions()
        with QueryEngine.open_path(artifacts[1]) as legacy, \
                connect(artifacts[1]) as current:
            assert legacy.schema.positions() == current.schema.positions()
        assert "connect" in QueryEngine.open.__doc__
        assert "connect" in QueryEngine.open_path.__doc__
        assert "connect" in QueryEngine.from_shards.__doc__

    def test_remote_requires_sharded_artifact_and_addrs(self, artifacts,
                                                        tmp_path,
                                                        imdb_small):
        with pytest.raises(EngineError):
            connect(artifacts[1], backend="remote")  # no addrs
        with pytest.raises(EngineError):
            connect(artifacts[1], shard_addrs=["127.0.0.1:1"],
                    backend="inline")  # addrs without remote
        graph, schema = imdb_small
        single = tmp_path / "single"
        connect((graph, schema)).save(single)
        with pytest.raises(EngineError):
            connect(single, backend="remote",
                    shard_addrs=["127.0.0.1:1"])  # single layout

    def test_resolve_shard_artifact(self, artifacts):
        root, shard_id = resolve_shard_artifact(artifacts[2] / "shard-0001")
        assert (root, shard_id) == (artifacts[2], 1)
        with pytest.raises(EngineError):
            resolve_shard_artifact(artifacts[2])  # no shard-NNNN suffix
