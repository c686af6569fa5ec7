"""One differential oracle for the array executor.

Every fetch source the array executor runs against — the local frozen
index, inline shards and a remote shard fleet — at shard counts
{1, 2, 4}, under both semantics, both edge modes (the plan's edge checks
and all-pairs probes) and both batch drivers (pipelined and barrier),
must reproduce the sequential :func:`~repro.core.executor.execute_plan`
exactly: the candidate sets, ``G_Q`` (nodes, labels, values, edges),
every :class:`~repro.accounting.AccessStats` counter including the
distinct-node set, and the answer. The sequential answer is in turn
checked against matching on the whole graph (``Q(G_Q) = Q(G)``), and
every plan-mode execution stays within the plan's worst-case access
bound.
"""

from __future__ import annotations

import random

import pytest

from repro import AccessStats, SchemaIndex, connect
from repro.core.actualized import SIMULATION, SUBGRAPH
from repro.core.ebchk import is_effectively_bounded
from repro.core.executor import MODE_PLAN, MODE_PROBE, execute_plan
from repro.core.kernels import execute_plan_vectorized, execute_plans_scatter
from repro.graph.frozen import FrozenGraph
from repro.matching.bounded import canonical_answer
from repro.matching.simulation import simulate
from repro.matching.vf2 import find_matches
from repro.server.shardserver import ShardServer

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

SHARD_COUNTS = (1, 2, 4)
SEMANTICS = (SUBGRAPH, SIMULATION)
EDGE_MODES = (MODE_PLAN, MODE_PROBE)

CASES = [("local", 1, True)] + [
    (source, shards, pipeline)
    for source in ("inline", "remote")
    for shards in SHARD_COUNTS
    for pipeline in (True, False)]


def _case_id(case):
    source, shards, pipeline = case
    if source == "local":
        return "local"
    return f"{source}-{shards}-{'pipelined' if pipeline else 'barrier'}"


@pytest.fixture(scope="module")
def plans(imdb_small):
    """Five bounded queries per semantics, compiled once."""
    from repro.pattern.generator import PatternGenerator

    graph, schema = imdb_small
    generator = PatternGenerator.from_graph(graph, rng=random.Random(23),
                                            schema=schema)
    pool = generator.generate_many(80)
    engine = connect((graph, schema))
    out = {}
    for semantics in SEMANTICS:
        queries = [q for q in pool if is_effectively_bounded(
            q, schema, semantics).bounded][:5]
        assert queries
        out[semantics] = [engine.prepare(q, semantics).plan
                          for q in queries]
    return out, engine


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory, plans):
    _, engine = plans
    root = tmp_path_factory.mktemp("oracle")
    paths = {}
    for shards in SHARD_COUNTS:
        paths[shards] = root / f"artifact-{shards}"
        engine.save(paths[shards], shards=shards)
    return paths


@pytest.fixture(scope="module")
def fleets(artifacts):
    """Remote shard servers with a small random delay, so pipelined
    completions arrive out of round order."""
    servers = {shards: [ShardServer(path / f"shard-{i:04d}", delay_ms=0.5,
                                    delay_jitter_ms=2.0).start()
                        for i in range(shards)]
               for shards, path in artifacts.items()}
    yield {shards: [server.address for server in fleet]
           for shards, fleet in servers.items()}
    for fleet in servers.values():
        for server in fleet:
            server.stop()


@pytest.fixture(scope="module")
def oracle(imdb_small, plans):
    """Sequential executions of every (semantics, edge mode, plan)."""
    graph, schema = imdb_small
    by_semantics, _ = plans
    index = SchemaIndex(graph, schema)
    out = {}
    for semantics, plan_list in by_semantics.items():
        for edge_mode in EDGE_MODES:
            runs = []
            for plan in plan_list:
                stats = AccessStats()
                runs.append((execute_plan(plan, index, stats=stats,
                                          edge_mode=edge_mode), stats))
            out[semantics, edge_mode] = runs
    return out


def answer(semantics, pattern, execution):
    match = find_matches if semantics == SUBGRAPH else simulate
    return canonical_answer(semantics, match(
        pattern, execution.gq, candidates=execution.candidates))


def fingerprint(execution, stats):
    gq = execution.gq
    return (sorted((v, gq.label_of(v), repr(gq.value_of(v)))
                   for v in gq.nodes()),
            sorted(gq.edges()),
            sorted((u, sorted(c)) for u, c in execution.candidates.items()),
            stats.as_dict(), sorted(stats._seen))


def test_sequential_oracle_answers_q_of_g(imdb_small, plans, oracle):
    """The reference itself: Q(G_Q) = Q(G) for every plan."""
    graph, _ = imdb_small
    for (semantics, _), runs in oracle.items():
        for execution, _ in runs:
            pattern = execution.plan.pattern
            match = find_matches if semantics == SUBGRAPH else simulate
            assert answer(semantics, pattern, execution) == \
                canonical_answer(semantics, match(pattern, graph))


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_matches_sequential(case, imdb_small, plans, oracle, artifacts,
                            fleets):
    source, shards, pipeline = case
    graph, schema = imdb_small
    by_semantics, _ = plans
    engine = None
    if source == "inline":
        engine = connect(artifacts[shards], strategy="scatter")
    elif source == "remote":
        engine = connect(artifacts[shards], backend="remote",
                         shard_addrs=fleets[shards])
    else:
        frozen = SchemaIndex(FrozenGraph.from_graph(graph), schema,
                             frozen=True)
    try:
        for semantics in SEMANTICS:
            # A repeated plan in the batch exercises cross-execution
            # task sharing; accounting must stay per execution.
            plan_list = by_semantics[semantics]
            batch = plan_list + plan_list[:1]
            for edge_mode in EDGE_MODES:
                stats_list = [AccessStats() for _ in batch]
                if engine is None:
                    executions = [
                        execute_plan_vectorized(plan, frozen, stats=stats,
                                                edge_mode=edge_mode)
                        for plan, stats in zip(batch, stats_list)]
                else:
                    executions = execute_plans_scatter(
                        batch, engine._shards, stats_list=stats_list,
                        edge_mode=edge_mode, pipeline=pipeline)
                expected = oracle[semantics, edge_mode]
                expected = expected + expected[:1]
                for plan, execution, stats, (seq, seq_stats) in zip(
                        batch, executions, stats_list, expected):
                    assert fingerprint(execution, stats) == \
                        fingerprint(seq, seq_stats)
                    assert answer(semantics, plan.pattern, execution) == \
                        answer(semantics, plan.pattern, seq)
                    if edge_mode == MODE_PLAN:
                        assert stats.total_accessed <= \
                            plan.worst_case_total_accessed
    finally:
        if engine is not None:
            engine.close()
