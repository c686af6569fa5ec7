"""The pipelined scatter driver: identity, overlap, dedup, failure.

Covers the acceptance criteria of the barrier-free scatter PR:

* byte-identical answers / ``G_Q`` / candidates / ``AccessStats``
  pipelined-vs-barrier-vs-sequential at shard counts {1, 2, 4} under
  both semantics, against a fleet of randomly-delayed shard servers
  (hypothesis property test);
* the ``scatter_submit`` contract on all three backends — exactly-once
  completion per task, alignment with ``scatter``;
* rounds genuinely overlap on one connection (``rounds_overlapped``,
  per-connection ``inflight_peak`` wire stat, server-side
  ``pipeline_depth_peak``);
* cross-execution cell dedup shares wire traffic without sharing
  accounting (per-execution ``AccessStats`` stay exact);
* a healthy shard keeps answering while another shard sits in retry
  backoff (the backoff-under-lock regression);
* mid-flight shard death with multiple rounds outstanding raises typed
  :class:`~repro.errors.ShardUnavailable` with no partial answers, and
  the stream recovers — the next query over the same backend succeeds.
"""

from __future__ import annotations

import random
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AccessStats, ShardUnavailable, connect
from repro.core.actualized import SIMULATION, SUBGRAPH
from repro.core.ebchk import is_effectively_bounded
from repro.core.kernels import execute_plans_scatter
from repro.matching.bounded import canonical_answer
from repro.server.shardserver import ShardServer
from tests.conftest import plain

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

_SETTINGS = dict(max_examples=8, deadline=None,
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
    graph, schema = imdb_small
    sub, sim = workload
    engine = connect((graph, schema))
    for q in sub:
        engine.prepare(q, SUBGRAPH)
    for q in sim:
        engine.prepare(q, SIMULATION)
    root = tmp_path_factory.mktemp("pipeline")
    paths = {}
    for shards in SHARD_COUNTS:
        path = root / f"artifact-{shards}"
        engine.save(path, shards=shards)
        paths[shards] = path
    return paths


@pytest.fixture(scope="module")
def delayed_fleets(artifacts):
    """Per shard count, a fleet whose servers answer scatters after a
    random 1-6 ms delay — the jitter that forces out-of-round-order
    completion on the pipelined path."""
    servers = []
    addrs = {}
    for shards, path in artifacts.items():
        fleet = [ShardServer(path / f"shard-{i:04d}", delay_ms=1.0,
                             delay_jitter_ms=5.0).start()
                 for i in range(shards)]
        servers.extend(fleet)
        addrs[shards] = [server.address for server in fleet]
    yield addrs
    for server in servers:
        server.stop()


def fingerprint(engine, query, semantics):
    run = engine.query(query, semantics, stats=AccessStats(),
                       refresh=True)
    ex = run.execution
    return (canonical_answer(semantics, run.answer),
            sorted(ex.gq.nodes()), sorted(ex.gq.edges()),
            sorted((u, tuple(sorted(c))) for u, c in ex.candidates.items()),
            (ex.stats.nodes_fetched, ex.stats.edges_checked,
             ex.stats.index_fetches, ex.stats.distinct_nodes))


def execution_fingerprint(execution, stats):
    ex = execution
    return (sorted(ex.gq.nodes()), sorted(ex.gq.edges()),
            sorted((u, tuple(sorted(c))) for u, c in ex.candidates.items()),
            (stats.nodes_fetched, stats.edges_checked,
             stats.index_fetches, stats.distinct_nodes))


# ------------------------------------------------------------ identity
class TestPipelinedIdentity:
    @given(shards=st.sampled_from(SHARD_COUNTS),
           semantics=st.sampled_from([SUBGRAPH, SIMULATION]),
           pick=st.integers(min_value=0, max_value=2))
    @settings(**_SETTINGS)
    def test_pipelined_identical_over_delayed_fleet(
            self, artifacts, delayed_fleets, workload, shards, semantics,
            pick):
        sub, sim = workload
        query = (sub if semantics == SUBGRAPH else sim)[pick % len(sub)]
        with connect(artifacts[shards], strategy="scatter",
                     scatter_pipeline=False) as barrier:
            expected = fingerprint(barrier, query, semantics)
        with connect(artifacts[shards], strategy="scatter") as inline:
            assert fingerprint(inline, query, semantics) == expected
        with connect(artifacts[shards], backend="remote",
                     shard_addrs=delayed_fleets[shards]) as remote:
            assert remote.scatter_pipeline is True
            assert fingerprint(remote, query, semantics) == expected

    def test_barrier_knob_identical_on_remote(self, artifacts,
                                              delayed_fleets, workload):
        sub, _ = workload
        with connect(artifacts[2], strategy="scatter") as inline:
            expected = [fingerprint(inline, q, SUBGRAPH) for q in sub]
        with connect(artifacts[2], backend="remote",
                     shard_addrs=delayed_fleets[2],
                     scatter_pipeline=False) as remote:
            assert remote.scatter_pipeline is False
            got = [fingerprint(remote, q, SUBGRAPH) for q in sub]
        assert got == expected

    def test_concurrent_batches_identical_and_overlapped(
            self, artifacts, delayed_fleets, workload):
        """Two batches served concurrently over one backend: answers
        stay byte-identical while rounds from the two drivers genuinely
        interleave on the shared connections (request-id correlation),
        which the barrier-era global round lock made impossible."""
        sub, sim = workload
        batch = [(q, SUBGRAPH) for q in sub] + [(q, SIMULATION) for q in sim]
        with connect(artifacts[4], strategy="scatter") as inline:
            expected = [canonical_answer(sem, run.answer) for (_, sem), run
                        in zip(batch, inline.query_batch(batch))]
        with connect(artifacts[4], backend="remote",
                     shard_addrs=delayed_fleets[4]) as remote:
            results: dict[int, list] = {}

            def worker(slot):
                # stats=... forces real execution (no memoized answers),
                # so both drivers stay active on the wire together.
                runs = remote.query_batch(batch, stats=AccessStats())
                results[slot] = [canonical_answer(sem, run.answer)
                                 for (_, sem), run in zip(batch, runs)]

            threads = [threading.Thread(target=worker, args=(slot,))
                       for slot in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert results[0] == expected
            assert results[1] == expected
            assert remote._shards.rounds_overlapped > 0


# ------------------------------------------------- scatter_submit contract
SHARDS = 3
BACKENDS = ["inline", "process", "remote"]


@pytest.fixture(scope="module")
def contract_fleet(artifacts):
    servers = [ShardServer(artifacts[4] / f"shard-{i:04d}").start()
               for i in range(4)]
    yield [server.address for server in servers]
    for server in servers:
        server.stop()


@pytest.fixture(params=BACKENDS)
def any_backend(request, artifacts, contract_fleet):
    if request.param == "inline":
        engine = connect(artifacts[4], strategy="scatter")
    elif request.param == "process":
        engine = connect(artifacts[4], workers=2)
    else:
        engine = connect(artifacts[4], backend="remote",
                         shard_addrs=contract_fleet)
    try:
        yield engine._shards
    finally:
        engine.close()


class TestScatterSubmitContract:
    def test_exactly_once_and_aligned_with_scatter(self, any_backend,
                                                   imdb_small):
        graph, _ = imdb_small
        nodes = sorted(graph.nodes())[:8]
        tasks = [("probe", nodes[:4], nodes[4:]),
                 ("probe", nodes[:2], nodes[2:4])]
        expected = any_backend.scatter(tasks)

        fired: dict[int, list] = {}
        done = threading.Event()

        def on_task(i, responses):
            assert i not in fired  # exactly once per task index
            fired[i] = responses
            if len(fired) == len(tasks):
                done.set()

        any_backend.scatter_submit(tasks, None, on_task)
        assert done.wait(10.0)
        for i in range(len(tasks)):
            assert plain(fired[i]) == plain([row[i] for row in expected])

    def test_routed_and_unrouted_tasks(self, any_backend, imdb_small):
        graph, _ = imdb_small
        nodes = sorted(graph.nodes())[:4]
        task = ("probe", nodes[:2], nodes[2:])
        fired: dict[int, list] = {}
        done = threading.Event()

        def on_task(i, responses):
            fired[i] = responses
            if len(fired) == 2:
                done.set()

        any_backend.scatter_submit([task, task],
                                   [frozenset({1}), frozenset()], on_task)
        assert done.wait(10.0)
        assert fired[1] == [None] * any_backend.num_shards  # unrouted
        assert [r for i, r in enumerate(fired[0]) if i != 1] == \
            [None] * (any_backend.num_shards - 1)
        assert fired[0][1] is not None


# ------------------------------------------------------------- overlap
class TestOverlap:
    def test_rounds_overlap_on_one_connection(self, artifacts, imdb_small):
        """Two submits back-to-back against a slow shard: the second
        goes out while the first is still in flight, and both the
        client and the server observe pipeline depth 2."""
        graph, _ = imdb_small
        nodes = sorted(graph.nodes())[:4]
        task = ("probe", nodes[:2], nodes[2:])
        server = ShardServer(artifacts[1] / "shard-0000",
                             delay_ms=150.0).start()
        try:
            engine = connect(artifacts[1], backend="remote",
                             shard_addrs=[server.address])
            backend = engine._shards
            try:
                fired = []
                done = threading.Event()

                def on_task(i, responses):
                    fired.append(responses)
                    if len(fired) == 2:
                        done.set()

                backend.scatter_submit([task], None, on_task)
                backend.scatter_submit([task], None, on_task)
                peak = max(w["inflight"] for w in backend.wire_stats())
                assert done.wait(10.0)
                assert backend.rounds_overlapped >= 1
                assert peak >= 2
                assert max(w["inflight_peak"]
                           for w in backend.wire_stats()) >= 2
                assert plain(fired[0]) == plain(fired[1])
                assert server.pipeline_depth_peak >= 2
            finally:
                engine.close()
        finally:
            server.stop()


# --------------------------------------------------------------- dedup
class TestCrossExecutionDedup:
    def test_identical_plans_share_wire_not_accounting(self, artifacts,
                                                       workload):
        sub, _ = workload
        with connect(artifacts[2], strategy="scatter") as engine:
            backend = engine._shards
            plan_a = engine.prepare(sub[0], SUBGRAPH).plan
            # Two executions of one plan: identical fetch streams, so
            # every first-round cell dedups against its twin.
            plan_b = plan_a
            stats = [AccessStats() for _ in range(2)]
            before_tasks = backend.tasks_scattered
            executions = execute_plans_scatter([plan_a, plan_b], backend,
                                               stats_list=stats)
            dedup_tasks = backend.tasks_scattered - before_tasks

            barrier_stats = [AccessStats() for _ in range(2)]
            before_tasks = backend.tasks_scattered
            barrier = execute_plans_scatter([plan_a, plan_b], backend,
                                            stats_list=barrier_stats,
                                            pipeline=False)
            barrier_tasks = backend.tasks_scattered - before_tasks

            assert backend.scatter_dedup_hits > 0
            # Wire traffic shrinks; per-execution accounting does not.
            assert dedup_tasks < barrier_tasks
            for ex, st_, bex, bst in zip(executions, stats, barrier,
                                         barrier_stats):
                assert execution_fingerprint(ex, st_) == \
                    execution_fingerprint(bex, bst)


# ------------------------------------------------------------- failure
class KillSwitchShardServer(ShardServer):
    """Severs every connection on scatter while ``killing`` is set —
    a deterministic mid-flight death that heals on demand."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.killing = False

    def dispatch(self, doc):
        if doc.get("op") == "scatter" and self.killing:
            for conn in list(self._server.active_connections):
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        return super().dispatch(doc)


class TestFailure:
    def test_healthy_shard_answers_during_backoff(self, artifacts,
                                                  imdb_small):
        """The backoff-under-lock regression: shard 1 is down and mid
        retry-backoff; shard 0 must still answer well inside shard 1's
        backoff window."""
        graph, _ = imdb_small
        nodes = sorted(graph.nodes())[:4]
        task = ("probe", nodes[:2], nodes[2:])
        path = artifacts[2]
        servers = [ShardServer(path / f"shard-{i:04d}").start()
                   for i in range(2)]
        engine = connect(path, backend="remote",
                         shard_addrs=[s.address for s in servers],
                         retries=1, retry_backoff_s=1.0)
        backend = engine._shards
        try:
            # Warm both connections, then kill shard 1 for good.
            backend.scatter([task])
            servers[1].stop()

            healthy_done = threading.Event()
            dead_result: list = []
            dead_done = threading.Event()

            def on_task(i, responses):
                if i == 0:
                    healthy_done.set()
                else:
                    dead_result.append(responses)
                    dead_done.set()

            start = time.monotonic()
            backend.scatter_submit([task, task],
                                   [frozenset({0}), frozenset({1})],
                                   on_task)
            assert healthy_done.wait(5.0)
            healthy_elapsed = time.monotonic() - start
            # Shard 1's first backoff alone is 1s; the healthy answer
            # must not be serialized behind it.
            assert healthy_elapsed < 0.8
            assert dead_done.wait(30.0)
            assert isinstance(dead_result[0], ShardUnavailable)
        finally:
            engine.close()
            for server in servers:
                server.stop()

    def test_midflight_death_typed_then_stream_recovers(self, artifacts,
                                                        workload):
        """Kill a shard with multiple rounds outstanding: the batch
        fails with one typed error and no partial results; healing the
        shard makes the very same backend answer again byte-identically
        (no request-id desync survives the reconnect)."""
        sub, sim = workload
        path = artifacts[2]
        batch = [(q, SUBGRAPH) for q in sub] + [(q, SIMULATION) for q in sim]
        with connect(path, strategy="scatter") as inline:
            expected = [canonical_answer(sem, run.answer) for (_, sem), run
                        in zip(batch, inline.query_batch(batch))]
        servers = [KillSwitchShardServer(path / "shard-0000",
                                         delay_ms=2.0,
                                         delay_jitter_ms=4.0).start(),
                   ShardServer(path / "shard-0001", delay_ms=2.0,
                               delay_jitter_ms=4.0).start()]
        engine = connect(path, backend="remote",
                         shard_addrs=[s.address for s in servers],
                         retries=1, retry_backoff_s=0.01)
        try:
            servers[0].killing = True
            with pytest.raises(ShardUnavailable) as err:
                engine.query_batch(batch)
            assert err.value.shard_id == 0 or err.value.addr is not None

            servers[0].killing = False
            runs = engine.query_batch(batch)
            got = [canonical_answer(sem, run.answer)
                   for (_, sem), run in zip(batch, runs)]
            assert got == expected
        finally:
            engine.close()
            for server in servers:
                server.stop()
