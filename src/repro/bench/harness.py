"""Experiment implementations for every table and figure in Section VII.

Each function returns a list of row dicts; the mapping to the paper is:

========================  =====================================
Function                  Paper artifact
========================  =====================================
exp1_percentages          Exp-1(1) — % of effectively bounded queries
fig5_varying_g            Fig. 5(a,e,i) — evaluation time vs |G|
fig5_varying_q            Fig. 5(b,f,j) — evaluation time vs #n
fig5_varying_a            Fig. 5(c,g,k) — bVF2/bSim time vs ‖A‖
fig5_index_size           Fig. 5(d,h,l) — accessed data / index size vs #n
fig6_instance_bounded     Fig. 6(a,b) — minimum M vs % instance-bounded
exp3_algorithm_times      Expt-3 — EBChk/QPlan/sEBChk/sQPlan latency
engine_throughput         (new) cold vs prepared vs batched queries/sec
warm_start                (new) cold build vs artifact warm-open vs
                          prepared-plan reuse (repro.engine.persist)
serve_load                (new) concurrent query service vs
                          single-threaded prepared serving (repro.server)
shard_scaling             (new) scatter-gather shard execution vs the
                          sequential engine, across worker-process
                          counts (repro.graph.partition +
                          repro.engine.parallel)
remote_fleet              (new) TCP shard-server fleet vs inline shards:
                          owner-routing message reduction + answer
                          identity (repro.server.shardserver +
                          RemoteShardBackend)
remote_skewed             (new) pipelined vs barrier scatter against a
                          skewed fleet (one latency-injected shard):
                          per-shard progress, round overlap, and
                          cross-execution dedup (repro.core.executor +
                          RemoteShardBackend.scatter_submit)
extension_rescue          (new) online M-bounded extension: build
                          latency + rescued-query throughput vs M
                          (repro.constraints.catalog +
                          repro.engine.extension)
========================  =====================================

Bounded evaluation goes through :class:`~repro.engine.engine.QueryEngine`
sessions: one snapshot + index build per (dataset, schema) and one plan
compilation per canonical pattern, exactly what a query-serving
deployment amortizes. ``exp3`` deliberately bypasses the plan cache — it
measures EBChk/QPlan latency itself.

Baselines that exceed the per-run ``timeout`` are censored (None in the
row), just as the paper cut VF2/optVF2 off at 40 000 s.
"""

from __future__ import annotations

import time
from statistics import mean, median

from repro.accounting import AccessStats
from repro.bench.datasets import get_dataset, get_engine, get_workload
from repro.constraints.index import SchemaIndex
from repro.core.actualized import SIMULATION, SUBGRAPH
from repro.core.ebchk import is_effectively_bounded
from repro.core.instance import min_m_for_fraction
from repro.core.qplan import generate_plan
from repro.engine import PlanCache, QueryEngine
from repro.errors import BenchmarkError, MatchTimeout
from repro.matching.optimized import opt_gsim, opt_vf2
from repro.matching.simulation import simulate
from repro.matching.vf2 import find_matches
from repro.session import connect


def timed(fn, *args, **kwargs):
    """Run ``fn``, returning ``(seconds, result)``; ``(None, None)`` when
    the matcher raises :class:`MatchTimeout` (a censored run)."""
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except MatchTimeout:
        return None, None
    return time.perf_counter() - start, result


def _bounded_queries(queries, schema, semantics: str, limit: int):
    selected = []
    for query in queries:
        if is_effectively_bounded(query, schema, semantics).bounded:
            selected.append(query)
            if len(selected) >= limit:
                break
    return selected


def _mean_or_none(values):
    values = [v for v in values if v is not None]
    return mean(values) if values else None


# ----------------------------------------------------------------- Exp-1(1)
def exp1_percentages(datasets=("imdb", "dbpedia", "web"), scale: float = 0.05,
                     count: int = 100, seed: int = 42) -> list[dict]:
    """Percentage of effectively bounded queries per dataset and
    semantics. Paper: 61/67/58 % (subgraph), 32/41/33 % (simulation)."""
    rows = []
    for name in datasets:
        _, schema = get_dataset(name, scale)
        queries = get_workload(name, scale, count=count, seed=seed)
        subgraph_pct = 100 * sum(
            1 for q in queries
            if is_effectively_bounded(q, schema, SUBGRAPH).bounded) / len(queries)
        simulation_pct = 100 * sum(
            1 for q in queries
            if is_effectively_bounded(q, schema, SIMULATION).bounded) / len(queries)
        rows.append({"dataset": name, "subgraph_pct": subgraph_pct,
                     "simulation_pct": simulation_pct})
    return rows


# ------------------------------------------------------------ Fig. 5(a,e,i)
def fig5_varying_g(dataset: str, scale: float = 0.08,
                   fractions=(0.25, 0.5, 0.75, 1.0),
                   queries_per_point: int = 3, timeout: float = 10.0,
                   seed: int = 42) -> list[dict]:
    """Evaluation time vs |G| for all six algorithms.

    Exactly like the paper, |G| varies by taking induced subsets of one
    fixed graph under one fixed schema (access constraints are monotone
    under subgraphs, see :mod:`repro.graph.sampling`); the engine
    sessions share one plan cache, so plans are compiled once — they
    depend on Q and A only. Bounded evaluation should stay flat as the
    scale factor grows, while the conventional algorithms grow or get
    censored. Rows also report the *data accessed* by the bounded
    algorithms — the deterministic version of the flatness claim.
    """
    from repro.graph.sampling import scale_series

    full_graph, schema = get_dataset(dataset, scale)
    pool = get_workload(dataset, scale, count=100, seed=seed)
    sub_queries = _bounded_queries(pool, schema, SUBGRAPH, queries_per_point)
    sim_queries = _bounded_queries(pool, schema, SIMULATION, queries_per_point)

    # One plan cache across every scale point: plans depend on Q and A only.
    plan_cache = PlanCache()
    sub_worst = sim_worst = None

    rows = []
    for fraction, graph in scale_series(full_graph, fractions, seed=seed):
        engine = connect((graph, schema), plan_cache=plan_cache)
        sub_prepared = [engine.prepare(q, SUBGRAPH) for q in sub_queries]
        sim_prepared = [engine.prepare(q, SIMULATION) for q in sim_queries]
        if sub_worst is None:
            sub_worst = _mean_or_none(
                [p.worst_case_total_accessed for p in sub_prepared])
            sim_worst = _mean_or_none(
                [p.worst_case_total_accessed for p in sim_prepared])
        row = {"scale": fraction, "graph_size": graph.size,
               "bvf2_bound": sub_worst, "bsim_bound": sim_worst}

        for key, prepared_queries in (("bvf2", sub_prepared),
                                      ("bsim", sim_prepared)):
            times, accessed = [], []
            for prepared in prepared_queries:
                stats = AccessStats()
                seconds, _ = timed(prepared.run, stats=stats)
                times.append(seconds)
                accessed.append(stats.total_accessed)
            row[key] = _mean_or_none(times)
            row[f"{key}_accessed"] = _mean_or_none(accessed)

        sx = engine.schema_index
        row["vf2"] = _mean_or_none(
            [timed(find_matches, q, engine.graph, timeout=timeout)[0]
             for q in sub_queries])
        row["optvf2"] = _mean_or_none(
            [timed(opt_vf2, q, sx, timeout=timeout)[0] for q in sub_queries])
        row["gsim"] = _mean_or_none(
            [timed(simulate, q, engine.graph, timeout=timeout)[0]
             for q in sim_queries])
        row["optgsim"] = _mean_or_none(
            [timed(opt_gsim, q, sx, timeout=timeout)[0] for q in sim_queries])
        rows.append(row)
    return rows


# ------------------------------------------------------------ Fig. 5(b,f,j)
def fig5_varying_q(dataset: str, node_counts=(3, 4, 5, 6, 7),
                   scale: float = 0.05, queries_per_point: int = 3,
                   timeout: float = 10.0, seed: int = 42) -> list[dict]:
    """Evaluation time vs pattern size #n.

    The bounded algorithms run through a *fresh* engine session (not the
    memoized one): every timed call then pays EBChk + QPlan + execution
    exactly once, like the seed's per-call `bvf2`, regardless of what
    other experiments already compiled in this process. ``refresh=True``
    forces a real execution per measurement (the engine would otherwise
    serve repeated calls from its answer memo).
    """
    graph, schema = get_dataset(dataset, scale)
    engine = connect((graph, schema))
    sx = engine.schema_index
    rows = []
    for n in node_counts:
        pool = get_workload(dataset, scale, count=150, seed=seed + n,
                            num_nodes=n)
        sub_queries = _bounded_queries(pool, schema, SUBGRAPH,
                                       queries_per_point)
        sim_queries = _bounded_queries(pool, schema, SIMULATION,
                                       queries_per_point)
        row = {"num_nodes": n}
        row["bvf2"] = _mean_or_none(
            [timed(engine.query, q, SUBGRAPH, refresh=True)[0]
             for q in sub_queries])
        row["bsim"] = _mean_or_none(
            [timed(engine.query, q, SIMULATION, refresh=True)[0]
             for q in sim_queries])
        row["vf2"] = _mean_or_none(
            [timed(find_matches, q, engine.graph, timeout=timeout)[0]
             for q in sub_queries])
        row["optvf2"] = _mean_or_none(
            [timed(opt_vf2, q, sx, timeout=timeout)[0] for q in sub_queries])
        row["gsim"] = _mean_or_none(
            [timed(simulate, q, engine.graph, timeout=timeout)[0]
             for q in sim_queries])
        row["optgsim"] = _mean_or_none(
            [timed(opt_gsim, q, sx, timeout=timeout)[0] for q in sim_queries])
        rows.append(row)
    return rows


# ------------------------------------------------------------ Fig. 5(c,g,k)
def fig5_varying_a(dataset: str, constraint_counts=(12, 14, 16, 18, 20),
                   scale: float = 0.05, queries_per_point: int = 3,
                   seed: int = 42) -> list[dict]:
    """bVF2/bSim time vs ‖A‖: more constraints -> better plans.

    The paper hand-picks 12-20 constraints relevant to its workload; here
    the full schema is ordered by how often the workload's full-schema
    plans use each constraint (most-used first, original order as
    tie-break) and each point takes the first ‖A‖ of them. Queries are
    chosen to be bounded under the largest point; rows whose smaller
    schema does not (yet) bound a query report None for it — the "more
    access constraints help" story.
    """
    from repro.constraints.schema import AccessSchema

    graph, full_schema = get_dataset(dataset, scale)
    full_engine = get_engine(dataset, scale)
    pool = get_workload(dataset, scale, count=200, seed=seed)
    sub_queries = _bounded_queries(pool, full_schema, SUBGRAPH,
                                   queries_per_point)
    sim_queries = _bounded_queries(pool, full_schema, SIMULATION,
                                   queries_per_point)

    # Put the constraints those queries' plans actually use first —
    # interleaving the two semantics so both get early slots — then the
    # rest of the schema in its original order.
    ordered: list = []
    seen: set = set()

    def enqueue(plan) -> None:
        for constraint in sorted(plan.constraints_used(), key=str):
            if constraint not in seen:
                seen.add(constraint)
                ordered.append(constraint)

    for i in range(max(len(sub_queries), len(sim_queries))):
        if i < len(sub_queries):
            enqueue(full_engine.prepare(sub_queries[i], SUBGRAPH).plan)
        if i < len(sim_queries):
            enqueue(full_engine.prepare(sim_queries[i], SIMULATION).plan)
    for constraint in full_schema:
        if constraint not in seen:
            seen.add(constraint)
            ordered.append(constraint)
    rows = []
    for count in constraint_counts:
        schema = AccessSchema(ordered[:count])
        engine = connect((graph, schema))
        row = {"num_constraints": count}
        for key, queries, semantics in (("bvf2", sub_queries, SUBGRAPH),
                                        ("bsim", sim_queries, SIMULATION)):
            times = []
            for query in queries:
                if not is_effectively_bounded(query, schema,
                                              semantics).bounded:
                    continue
                prepared = engine.prepare(query, semantics)
                times.append(timed(prepared.run, refresh=True)[0])
            row[key] = _mean_or_none(times)
        rows.append(row)
    return rows


# ------------------------------------------------------------ Fig. 5(d,h,l)
def fig5_index_size(dataset: str, node_counts=(3, 4, 5, 6, 7),
                    scale: float = 0.05, queries_per_point: int = 3,
                    seed: int = 42) -> list[dict]:
    """|accessed|/|G| and |index_Q|/|G| per query size, both semantics.

    Paper: accessed <= 0.13 % of |G|; used indices < 8 % of |G|.
    """
    graph, schema = get_dataset(dataset, scale)
    engine = get_engine(dataset, scale)
    sx = engine.schema_index
    rows = []
    for n in node_counts:
        pool = get_workload(dataset, scale, count=150, seed=seed + n,
                            num_nodes=n)
        row = {"num_nodes": n}
        for semantics, key in ((SUBGRAPH, "bvf2"), (SIMULATION, "bsim")):
            queries = _bounded_queries(pool, schema, semantics,
                                       queries_per_point)
            accessed, index_sizes = [], []
            for query in queries:
                prepared = engine.prepare(query, semantics)
                stats = AccessStats()
                prepared.run(stats=stats)
                accessed.append(stats.total_accessed / graph.size)
                index_sizes.append(
                    sx.size_for(prepared.plan.constraints_used()) / graph.size)
            row[f"{key}_accessed"] = _mean_or_none(accessed)
            row[f"{key}_index"] = _mean_or_none(index_sizes)
        rows.append(row)
    return rows


# -------------------------------------------------------------- Fig. 6(a,b)
def fig6_instance_bounded(dataset: str, fractions=(0.6, 0.7, 0.8, 0.9, 0.95, 1.0),
                          scale: float = 0.05, count: int = 30,
                          semantics: str = SUBGRAPH,
                          seed: int = 42) -> list[dict]:
    """Minimum M making x% of the workload instance-bounded."""
    graph, schema = get_dataset(dataset, scale)
    queries = list(get_workload(dataset, scale, count=count, seed=seed))
    rows = []
    for fraction in fractions:
        m, _ = min_m_for_fraction(queries, schema, graph, fraction,
                                  semantics=semantics)
        rows.append({"fraction_pct": 100 * fraction, "min_m": m,
                     "m_over_g": (m / graph.size) if m is not None else None})
    return rows


# ----------------------------------------------------------- warm start
def warm_start(dataset: str = "imdb", scale: float = 0.05,
               distinct: int = 8, opens: int = 3,
               artifact: str | None = None, seed: int = 42) -> list[dict]:
    """Cold build vs warm artifact open vs prepared-plan reuse.

    Measures the three lifecycle costs a persistent artifact amortizes:

    * ``cold_build`` — ``connect((graph, schema))`` (snapshot + index
      build) plus EBChk/QPlan for ``distinct`` bounded patterns — what
      every process paid before artifacts existed;
    * ``save`` — one-time cost of writing the artifact;
    * ``warm_open`` — ``connect(artifact)`` (best of ``opens`` runs:
      checksum + zero-copy buffer adoption, lazy index decode);
    * ``prepared_reuse`` — re-preparing the same patterns on the loaded
      engine, which must be pure plan-cache hits.

    ``artifact`` persists the snapshot at that path (reused by CI to
    chain into CLI runs); by default a temporary directory is used.
    Rows are JSON-serializable (``benchmarks/bench_warm_start.py``).
    """
    import tempfile
    from contextlib import ExitStack

    graph, schema = get_dataset(dataset, scale)
    pool = get_workload(dataset, scale, count=200, seed=seed)
    queries = _bounded_queries(pool, schema, SUBGRAPH, distinct)

    cold_open_s = None
    for _ in range(opens):
        start = time.perf_counter()
        engine = connect((graph, schema))
        elapsed = time.perf_counter() - start
        cold_open_s = elapsed if cold_open_s is None else min(cold_open_s,
                                                              elapsed)
    start = time.perf_counter()
    for query in queries:
        engine.prepare(query)
    cold_prepare_s = time.perf_counter() - start

    with ExitStack() as stack:
        if artifact is None:
            artifact = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-artifact-"))
        start = time.perf_counter()
        manifest = engine.save(artifact)
        save_s = time.perf_counter() - start
        artifact_bytes = sum(meta["bytes"]
                             for meta in manifest["files"].values())

        warm_open_s = None
        for _ in range(opens):
            start = time.perf_counter()
            warm = connect(artifact)
            elapsed = time.perf_counter() - start
            warm_open_s = elapsed if warm_open_s is None else min(warm_open_s,
                                                                  elapsed)
        start = time.perf_counter()
        for query in queries:
            warm.prepare(query)
        warm_prepare_s = time.perf_counter() - start
        plan_hits = warm.stats.plan_cache_hits

    return [
        {"mode": "cold_build", "seconds": cold_open_s,
         "prepare_seconds": cold_prepare_s, "queries": len(queries),
         "open_speedup": 1.0},
        {"mode": "save", "seconds": save_s, "artifact_bytes": artifact_bytes,
         "cached_plans": manifest["plans"]["entries"]},
        {"mode": "warm_open", "seconds": warm_open_s,
         "open_speedup": cold_open_s / warm_open_s if warm_open_s else None},
        {"mode": "prepared_reuse", "seconds": warm_prepare_s,
         "queries": len(queries), "plan_cache_hits": plan_hits,
         "prepare_speedup": (cold_prepare_s / warm_prepare_s
                             if warm_prepare_s else None)},
    ]


# --------------------------------------------------------- shard scaling
def shard_scaling(dataset: str = "imdb", scale: float = 0.05,
                  shards: int = 4, worker_counts=(0, 1, 2, 4),
                  distinct: int = 16, batches: int = 20,
                  artifact: str | None = None, seed: int = 42) -> list[dict]:
    """Scatter-gather shard execution vs the sequential engine.

    Compiles the dataset into a sharded artifact (``shards`` halo
    shards), opens it at each worker-process count in ``worker_counts``
    (0 = shards held in-process), and measures prepared-query throughput
    by pushing ``batches`` rounds of a ``distinct``-pattern workload
    through ``query_batch`` with an explicit stats recorder (which
    forces real executions, not answer-memo hits). The sequential row is
    the same loop on an unsharded engine over the same graph.

    Every sharded row also re-evaluates the whole workload under *both*
    semantics and compares the canonical answer form
    (:func:`repro.matching.bounded.canonical_answer`) against the
    sequential engine — ``answers_identical`` must be True at every
    shard/worker count, which is the ``Q(G_Q) = Q(G)``-preserving claim
    of the partition.

    ``speedup_vs_1worker`` is the scatter-gather scaling signal (worker
    parallelism with IPC held constant); ``cpu_count`` is recorded
    because that speedup is physically capped by ``min(workers,
    cpu_count)`` — single-core machines can only show overhead.

    With ``artifact`` given, the sharded artifact is written there (and
    reused when it already exists — the CI chaining path); by default a
    temporary directory is used.
    """
    import os
    import tempfile
    from contextlib import ExitStack
    from pathlib import Path

    from repro.accounting import AccessStats
    from repro.matching.bounded import canonical_answer

    graph, schema = get_dataset(dataset, scale)
    pool = get_workload(dataset, scale, count=200, seed=seed)
    workload = _bounded_queries(pool, schema, SUBGRAPH, distinct)
    sim_queries = _bounded_queries(pool, schema, SIMULATION, distinct)
    if len(workload) < 2:
        raise BenchmarkError(
            f"workload for {dataset}@{scale} has too few bounded queries "
            f"({len(workload)}) for the shard-scaling experiment")

    sequential = connect((graph, schema))
    reference = {
        (i, semantics): canonical_answer(
            semantics, sequential.query(q, semantics, refresh=True).answer)
        for semantics, queries in ((SUBGRAPH, workload),
                                   (SIMULATION, sim_queries))
        for i, q in enumerate(queries)
    }

    def throughput(engine) -> tuple[int, float]:
        for query in workload:
            engine.prepare(query, SUBGRAPH)
        served = 0
        start = time.perf_counter()
        for _ in range(batches):
            runs = engine.query_batch(workload, SUBGRAPH,
                                      stats=AccessStats())
            served += len(runs)
        return served, time.perf_counter() - start

    def answers_identical(engine) -> bool:
        for semantics, queries in ((SUBGRAPH, workload),
                                   (SIMULATION, sim_queries)):
            for i, q in enumerate(queries):
                run = engine.query(q, semantics, stats=AccessStats())
                if canonical_answer(semantics,
                                    run.answer) != reference[(i, semantics)]:
                    return False
        return True

    cpu_count = os.cpu_count() or 1
    served, seconds = throughput(sequential)
    sequential_qps = served / seconds
    rows = [{"mode": "sequential", "requests": served, "seconds": seconds,
             "qps": sequential_qps, "cpu_count": cpu_count}]

    with ExitStack() as stack:
        if artifact is None:
            artifact = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-shards-"))
        artifact_path = Path(artifact)
        if not (artifact_path / "manifest.json").is_file():
            sequential.save(artifact_path, shards=shards)
        else:
            from repro.engine.persist import artifact_layout
            if artifact_layout(artifact_path) != "sharded":
                raise BenchmarkError(
                    f"artifact at {artifact_path} exists but is not "
                    f"sharded; point --artifact at a fresh path or a "
                    f"`repro compile --shards` output")
        one_worker_qps = None
        for workers in worker_counts:
            with connect(artifact_path, workers=workers) as engine:
                # workers=0 now serves the merged sequential view
                # (strategy="auto"), so that row measures the 1-CPU fix
                # rather than in-process scatter overhead.
                strategy = engine.executor_strategy
                identical = answers_identical(engine)
                served, seconds = throughput(engine)
            qps = served / seconds
            if workers == 1:
                one_worker_qps = qps
            rows.append({
                "mode": "sharded", "shards": shards, "workers": workers,
                "strategy": strategy,
                "requests": served, "seconds": seconds, "qps": qps,
                "answers_identical": identical,
                "speedup_vs_sequential": qps / sequential_qps,
                "speedup_vs_1worker": (qps / one_worker_qps
                                       if one_worker_qps else None),
                "cpu_count": cpu_count,
            })
    return rows


# ------------------------------------------------------------ remote fleet
#: Bytes on the wire of the remote_fleet workload served by broadcast
#: scatter in the retired JSON-lines scatter codec, keyed by
#: ``(dataset, scale, shards, distinct, batches, seed)``. The count is
#: exact and repeatable for a fixed workload (it was identical across
#: repeated runs), so it stands in for the broadcast-JSON leg that no
#: longer exists.
BROADCAST_JSON_BYTES = {
    ("imdb", 0.05, 4, 8, 5, 42): 1_402_490,
    ("imdb", 0.08, 4, 8, 5, 42): 1_736_100,
}


def remote_fleet(dataset: str = "imdb", scale: float = 0.05,
                 shards: int = 4, distinct: int = 8, batches: int = 5,
                 seed: int = 42) -> list[dict]:
    """The remote shard backend vs inline shards, on a skewed partition.

    Compiles the dataset into a *label-partitioned* sharded artifact
    (every label's nodes concentrated on one shard — the cover owner
    routing rewards), starts one in-process
    :class:`~repro.server.shardserver.ShardServer` per shard, and serves
    the same workload three ways:

    * ``inline`` — shards in-process (the reference for identity);
    * ``remote_routed`` — the TCP fleet with owner routing on;
    * ``remote_broadcast`` — owner routing off (every task to every
      shard).

    The headline metrics are ``scatter_reduction`` (broadcast messages /
    routed messages) and ``wire_bytes_reduction`` (the recorded
    broadcast-JSON bytes of :data:`BROADCAST_JSON_BYTES` / routed bytes
    on the wire, reported on the ``remote_routed`` row; ``None`` for a
    workload without a recorded reference). Both are deterministic
    counts, not wall-clock ratios — which is what
    ``benchmarks/check_regression.py`` gates on (absolute remote qps
    over loopback says little about a real network). Identity
    (answers, ``G_Q``, ``AccessStats``) against the inline backend is
    asserted per row via the canonical answer form.
    """
    import os
    import tempfile
    from contextlib import ExitStack
    from pathlib import Path

    from repro.matching.bounded import canonical_answer

    graph, schema = get_dataset(dataset, scale)
    pool = get_workload(dataset, scale, count=200, seed=seed)
    workload = _bounded_queries(pool, schema, SUBGRAPH, distinct)
    sim_queries = _bounded_queries(pool, schema, SIMULATION, distinct)
    if len(workload) < 2:
        raise BenchmarkError(
            f"workload for {dataset}@{scale} has too few bounded queries "
            f"({len(workload)}) for the remote-fleet experiment")

    # The skewed cover: all nodes of a label land on one shard, labels
    # round-robin over shards. Owner routing then sends each fetch/edge
    # task to exactly one shard instead of all of them.
    labels = sorted({graph.label_of(v) for v in graph.nodes()})
    shard_of_label = {label: i % shards for i, label in enumerate(labels)}
    assignment = {v: shard_of_label[graph.label_of(v)]
                  for v in graph.nodes()}

    compiler = connect((graph, schema))
    for query in workload:
        compiler.prepare(query, SUBGRAPH)
    for query in sim_queries:
        compiler.prepare(query, SIMULATION)

    def evaluate(engine) -> tuple[dict, int, float]:
        """(answers by key, served, seconds) over the full workload."""
        answers = {}
        served = 0
        start = time.perf_counter()
        for _ in range(batches):
            for semantics, queries in ((SUBGRAPH, workload),
                                       (SIMULATION, sim_queries)):
                runs = engine.query_batch(queries, semantics,
                                          stats=AccessStats())
                served += len(runs)
                answers.update({
                    (i, semantics): canonical_answer(semantics, run.answer)
                    for i, run in enumerate(runs)})
        return answers, served, time.perf_counter() - start

    rows = []
    with ExitStack() as stack:
        artifact = Path(stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-remote-")))
        compiler.save(artifact, shards=shards,
                      shard_assignment=assignment)

        from repro.server.shardserver import ShardServer

        servers = [ShardServer(artifact / f"shard-{i:04d}").start()
                   for i in range(shards)]
        stack.callback(lambda: [server.stop() for server in servers])
        addrs = [server.address for server in servers]

        reference = None
        cpu_count = os.cpu_count() or 1
        for mode, opts in (
                ("inline", {"strategy": "scatter"}),
                ("remote_routed", {"backend": "remote",
                                   "shard_addrs": addrs}),
                ("remote_broadcast", {"backend": "remote",
                                      "shard_addrs": addrs,
                                      "owner_routing": False})):
            with connect(artifact, **opts) as engine:
                answers, served, seconds = evaluate(engine)
                backend = engine._shards
                if reference is None:
                    reference = answers
                routed = backend.scatter_messages
                broadcast = backend.scatter_messages_broadcast
                row = {
                    "mode": mode, "shards": shards,
                    "requests": served, "seconds": seconds,
                    "qps": served / seconds if seconds else 0.0,
                    "answers_identical": answers == reference,
                    "scatter_rounds": backend.scatter_rounds,
                    "scatter_messages": routed,
                    "scatter_messages_broadcast": broadcast,
                    "scatter_reduction": (broadcast / routed
                                          if routed else None),
                    "cpu_count": cpu_count,
                }
                if mode != "inline":
                    wire = backend.wire_stats()
                    row["wire_bytes_sent"] = sum(
                        s["bytes_sent"] for s in wire)
                    row["wire_bytes_received"] = sum(
                        s["bytes_received"] for s in wire)
                    row["wire_bytes_total"] = (row["wire_bytes_sent"]
                                               + row["wire_bytes_received"])
                    row["encode_ms"] = round(
                        sum(s["encode_ms"] for s in wire), 3)
                rows.append(row)
    # The headline wire win: the recorded broadcast-JSON bytes vs the
    # owner-routed bytes, for the identical workload.
    routed_row = next(row for row in rows if row["mode"] == "remote_routed")
    reference = BROADCAST_JSON_BYTES.get(
        (dataset, scale, shards, distinct, batches, seed))
    routed_row["wire_bytes_reduction"] = (
        reference / routed_row["wire_bytes_total"]
        if reference and routed_row["wire_bytes_total"] else None)
    return rows


# ------------------------------------------------------------ skewed fleet
def remote_skewed(dataset: str = "imdb", scale: float = 0.05,
                  shards: int = 4, distinct: int = 32,
                  delay_ms: float = 40.0,
                  slow_labels: tuple = ("award", "studio"),
                  repeats: int = 3, seed: int = 42) -> list[dict]:
    """Pipelined vs barrier scatter against a skewed fleet (one shard
    with injected latency).

    Compiles a label-partitioned cover that pins ``slow_labels`` to
    shard 0, starts the fleet with ``delay_ms`` of injected scatter
    latency on that shard only, and serves the identical workload in
    three modes:

    * ``inline`` — shards in-process (the identity reference);
    * ``remote_barrier`` — the TCP fleet under the lock-step wave
      barrier (``scatter_pipeline=False``): every execution in a batch
      advances only when the whole round has returned, so each wave
      that touches shard 0 costs the full injected delay — for every
      query in the batch, whether or not its own round needed shard 0;
    * ``remote_pipelined`` — the per-shard-progress driver (default):
      an execution pays shard 0's latency only for its *own* fetches
      there, identical tasks from different executions travel once
      (cross-execution dedup), and multiple rounds ride one connection
      (request-id correlation + server read-ahead).

    The headline metric is ``pipelined_speedup`` (barrier wall-clock /
    pipelined wall-clock, best-of-``repeats`` after a warm-up pass) on
    the ``remote_pipelined`` row — the acceptance bound is >=2x on this
    4-shard skewed cover. The row also carries the overlap evidence:
    ``rounds_overlapped`` (rounds submitted while earlier ones were in
    flight), ``scatter_dedup_hits``, the per-connection
    ``inflight_peak`` wire stat, and the slow shard's own
    ``pipeline_depth_peak``. Answers must stay byte-identical to inline
    in every mode.
    """
    import tempfile
    from contextlib import ExitStack
    from pathlib import Path

    from repro.matching.bounded import canonical_answer

    graph, schema = get_dataset(dataset, scale)
    pool = get_workload(dataset, scale, count=400, seed=seed)
    workload = _bounded_queries(pool, schema, SUBGRAPH, distinct)
    sim_queries = _bounded_queries(pool, schema, SIMULATION, distinct)
    if len(workload) < 2:
        raise BenchmarkError(
            f"workload for {dataset}@{scale} has too few bounded queries "
            f"({len(workload)}) for the skewed-fleet experiment")

    # The skewed cover: the slow labels' nodes all live on shard 0, the
    # rest round-robin over the remaining shards. Owner routing then
    # makes shard 0 a genuine straggler for exactly the rounds that
    # need its labels — the stagger the pipelined driver exploits.
    labels = sorted({graph.label_of(v) for v in graph.nodes()})
    slow = [label for label in labels if label in set(slow_labels)] \
        or labels[:1]
    fast = [label for label in labels if label not in slow]
    shard_of_label = {label: 0 for label in slow}
    for i, label in enumerate(fast):
        shard_of_label[label] = 1 + i % (shards - 1)
    assignment = {v: shard_of_label[graph.label_of(v)]
                  for v in graph.nodes()}

    compiler = connect((graph, schema))
    for query in workload:
        compiler.prepare(query, SUBGRAPH)
    for query in sim_queries:
        compiler.prepare(query, SIMULATION)

    def evaluate(engine) -> tuple[dict, float]:
        """(answers by key, best-of-repeats seconds) over the workload."""
        answers = {}
        best = None
        for attempt in range(repeats + 1):  # first pass warms up
            start = time.perf_counter()
            for semantics, queries in ((SUBGRAPH, workload),
                                       (SIMULATION, sim_queries)):
                runs = engine.query_batch(queries, semantics,
                                          stats=AccessStats())
                answers.update({
                    (i, semantics): canonical_answer(semantics, run.answer)
                    for i, run in enumerate(runs)})
            seconds = time.perf_counter() - start
            if attempt and (best is None or seconds < best):
                best = seconds
        return answers, best

    rows = []
    with ExitStack() as stack:
        artifact = Path(stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-skewed-")))
        compiler.save(artifact, shards=shards,
                      shard_assignment=assignment)

        from repro.server.shardserver import ShardServer

        servers = [ShardServer(artifact / f"shard-{i:04d}",
                               delay_ms=delay_ms if i == 0 else 0.0).start()
                   for i in range(shards)]
        stack.callback(lambda: [server.stop() for server in servers])
        addrs = [server.address for server in servers]

        reference = None
        barrier_seconds = None
        for mode, opts in (
                ("inline", {"strategy": "scatter"}),
                ("remote_barrier", {"backend": "remote",
                                    "shard_addrs": addrs,
                                    "scatter_pipeline": False}),
                ("remote_pipelined", {"backend": "remote",
                                      "shard_addrs": addrs})):
            with connect(artifact, **opts) as engine:
                answers, seconds = evaluate(engine)
                backend = engine._shards
                if reference is None:
                    reference = answers
                row = {
                    "mode": mode, "shards": shards,
                    "delay_ms": delay_ms if mode != "inline" else 0.0,
                    "seconds": seconds,
                    "requests": (repeats + 1) * (len(workload)
                                                 + len(sim_queries)),
                    "answers_identical": answers == reference,
                    "scatter_rounds": backend.scatter_rounds,
                    "rounds_overlapped": backend.rounds_overlapped,
                    "scatter_dedup_hits": backend.scatter_dedup_hits,
                }
                if mode != "inline":
                    row["inflight_peak"] = max(
                        s["inflight_peak"] for s in backend.wire_stats())
                    row["slow_shard_depth_peak"] = \
                        servers[0].pipeline_depth_peak
                if mode == "remote_barrier":
                    barrier_seconds = seconds
                if mode == "remote_pipelined" and barrier_seconds:
                    row["pipelined_speedup"] = barrier_seconds / seconds
                rows.append(row)
    return rows


# ------------------------------------------------------------ serve load
#: Prepared/concurrent pairs per serve_load run. A single pair is too
#: noisy to gate on (one read 1.065x against the 1.0x floor on a 2-CPU
#: host); the median of pairs in alternating order is steadier.
SERVE_LOAD_ROUNDS = 5


def serve_load(dataset: str = "imdb", scale: float = 0.05,
               distinct: int = 8, requests_per_client: int = 50,
               clients: int = 8, workers: int = 4,
               semantics: str = SUBGRAPH, artifact: str | None = None,
               seed: int = 42) -> list[dict]:
    """Concurrent query service vs single-threaded prepared serving.

    Two ways of answering the same workload (``clients *
    requests_per_client`` requests round-robin over ``distinct`` bounded
    patterns):

    * ``prepared_single`` — one warm engine session answering requests
      one at a time (``refresh=True``: every request pays a real
      execution — the strongest serial baseline, cf.
      :func:`engine_throughput`'s ``prepared`` mode);
    * ``serve_concurrent`` — a :class:`~repro.server.QueryService`
      behind the asyncio TCP front-end, ``clients`` synchronous
      connections hammering it concurrently; micro-batching funnels
      duplicates through ``query_batch`` and repeats hit the answer
      memo, which is exactly the amortization the service exists for.

    The service's admission budget is set to the workload's own maximum
    plan bound, and one strictly-more-expensive *probe* pattern is sent
    from each client; the row records that every probe was rejected with
    the typed :class:`~repro.errors.AdmissionRejected` (never silently
    executed). Latency columns use the shared percentile helper.

    The pair runs :data:`SERVE_LOAD_ROUNDS` times on fresh engines,
    alternating which side goes first so neither always runs on a
    warmer machine. Each row reports median qps and pooled latencies
    over the rounds; the ``serve_concurrent`` row's
    ``speedup_vs_prepared`` is the median of the per-round ratios, with
    their spread in ``speedup_min`` / ``speedup_max`` /
    ``speedup_rounds``.

    With ``artifact`` given, the serving engine warm-starts from it
    (``repro compile`` output for the same dataset and scale).
    """
    from repro.errors import AdmissionRejected
    from repro.pattern.dsl import format_pattern
    from repro.server import QueryService, ServeClient, ServerThread
    from repro.server.client import run_load
    from repro.bench.reporting import boundedness_summary, latency_summary

    graph, schema = get_dataset(dataset, scale)
    pool = get_workload(dataset, scale, count=200, seed=seed)
    bounded = _bounded_queries(pool, schema, semantics, limit=4 * distinct)

    def open_engine() -> QueryEngine:
        if artifact is not None:
            return connect(artifact)
        return connect((graph, schema))

    # Plan bounds are known before execution; the served workload is the
    # most expensive `distinct` patterns that still fit under the budget
    # (real execution cost per request), the budget is their maximum
    # bound, and the over-budget probe is the strictly-more-expensive
    # pattern at the top of the pool.
    cost_engine = open_engine()
    costed = sorted(
        ((cost_engine.prepare(q, semantics).worst_case_total_accessed, i, q)
         for i, q in enumerate(bounded)),
        key=lambda item: item[:2])
    max_cost = costed[-1][0]
    eligible = [(cost, q) for cost, _, q in costed if cost < max_cost]
    if len(eligible) < 2:
        raise BenchmarkError(
            f"workload for {dataset}@{scale} has no plan-bound variety; "
            f"cannot stage an over-budget rejection")
    workload = [q for _, q in eligible[-distinct:]]
    budget = max(cost for cost, _ in eligible[-distinct:])
    probe = costed[-1][2]

    total_requests = clients * requests_per_client
    texts = [format_pattern(q) for q in workload]
    probe_text = format_pattern(probe)

    def prepared_single() -> dict:
        baseline = open_engine()
        for query in workload:
            baseline.prepare(query, semantics)
        latencies = []
        start = time.perf_counter()
        for i in range(total_requests):
            t0 = time.perf_counter()
            baseline.query(workload[i % len(workload)], semantics,
                           refresh=True)
            latencies.append(time.perf_counter() - t0)
        seconds = time.perf_counter() - start
        return {"requests": total_requests, "seconds": seconds,
                "qps": total_requests / seconds, "latencies_s": latencies}

    def serve_concurrent() -> dict:
        service = QueryService(open_engine(), max_cost=budget,
                               workers=workers)
        with ServerThread(service) as handle:
            report = run_load(handle.host, handle.port, texts,
                              requests=requests_per_client, clients=clients,
                              semantics=semantics)
            rejections, rejection_error = 0, None
            with ServeClient(handle.host, handle.port) as client:
                for _ in range(clients):
                    try:
                        client.query(probe_text, semantics)
                    except AdmissionRejected as exc:
                        rejections += 1
                        rejection_error = type(exc).__name__
                report["snapshot"] = client.metrics()
        report["rejected_over_budget"] = rejections
        report["rejection_error"] = rejection_error
        return report

    singles, serves = [], []
    for round_no in range(SERVE_LOAD_ROUNDS):
        if round_no % 2:
            serves.append(serve_concurrent())
            singles.append(prepared_single())
        else:
            singles.append(prepared_single())
            serves.append(serve_concurrent())

    def pooled(runs: list[dict]) -> dict:
        return {"requests": runs[0]["requests"],
                "seconds": median(run["seconds"] for run in runs),
                "qps": median(run["qps"] for run in runs),
                **latency_summary([t for run in runs
                                   for t in run["latencies_s"]])}

    speedups = [serve["qps"] / single["qps"]
                for single, serve in zip(singles, serves)]
    last = serves[-1]
    snapshot = last["snapshot"]
    return [
        {"mode": "prepared_single", "rounds": SERVE_LOAD_ROUNDS,
         **pooled(singles)},
        {"mode": "serve_concurrent", "rounds": SERVE_LOAD_ROUNDS,
         "clients": clients,
         "workers": workers, **pooled(serves),
         "speedup_vs_prepared": median(speedups),
         "speedup_min": min(speedups), "speedup_max": max(speedups),
         "speedup_rounds": [round(s, 3) for s in speedups],
         "admission_budget": budget,
         "rejected_over_budget": min(serve["rejected_over_budget"]
                                     for serve in serves),
         "rejection_error": last["rejection_error"],
         "mean_batch_size": snapshot["mean_batch_size"],
         "plan_cache_hit_rate": snapshot["plan_cache"]["hit_rate"],
         **boundedness_summary(snapshot)},
    ]


# -------------------------------------------------- observability overhead
def obs_overhead(dataset: str = "imdb", scale: float = 0.05,
                 distinct: int = 8, requests: int = 400, rounds: int = 3,
                 semantics: str = SUBGRAPH, artifact: str | None = None,
                 seed: int = 42) -> list[dict]:
    """The tracing overhead contract, measured: prepared-serving qps
    with instrumentation stubbed out entirely (``no_obs``), with the
    shipped instrumentation but no recorder (``tracing_disabled`` — the
    default every session runs), and with a recorder plus an active
    root span per request (``tracing_enabled``).

    The committed gate is ``disabled_overhead_ratio`` =
    disabled qps / no-obs qps: the disabled path costs one ContextVar
    read per instrumentation point and must stay within a few percent
    of uninstrumented code (``benchmarks/bench_obs.py`` asserts
    >= 0.95 in-script; CI's floor lives in ``baselines.json``).
    ``enabled_overhead_ratio`` is informational — tracing every request
    is a debugging posture, not the default.

    Each mode runs ``rounds`` loops of ``requests`` prepared queries
    (``refresh=True``: every request pays a real execution) and keeps
    the best loop, which suppresses scheduler noise that would swamp a
    single-digit-percent comparison.
    """
    from repro.core import kernels as kernels_module
    from repro.engine import engine as engine_module
    from repro.obs.trace import TraceRecorder, activate

    graph, schema = get_dataset(dataset, scale)
    pool = get_workload(dataset, scale, count=200, seed=seed)
    bounded = _bounded_queries(pool, schema, semantics, limit=distinct)
    if not bounded:
        raise BenchmarkError(f"no bounded queries for {dataset}@{scale}")

    engine = connect(artifact) if artifact is not None \
        else connect((graph, schema))
    for query in bounded:
        engine.prepare(query, semantics)

    def measure(run_query) -> float:
        best_qps = 0.0
        for _ in range(rounds):
            start = time.perf_counter()
            for i in range(requests):
                run_query(bounded[i % len(bounded)])
            elapsed = time.perf_counter() - start
            best_qps = max(best_qps, requests / elapsed)
        return best_qps

    def plain(query) -> None:
        engine.query(query, semantics, refresh=True)

    # no_obs: the instrumented modules' child_span swapped for a null
    # context manager with no ContextVar read — as close to deleting
    # the instrumentation as one process gets.
    class _NullChildSpan:
        def __init__(self, name, **attrs):
            pass

        def __enter__(self):
            return None

        def __exit__(self, *exc_info):
            return None

    saved = (engine_module.child_span, kernels_module.child_span)
    engine_module.child_span = _NullChildSpan
    kernels_module.child_span = _NullChildSpan
    try:
        no_obs_qps = measure(plain)
    finally:
        engine_module.child_span, kernels_module.child_span = saved

    disabled_qps = measure(plain)

    recorder = TraceRecorder(max_traces=8)

    def traced(query) -> None:
        root = recorder.trace("bench")
        with activate(root):
            engine.query(query, semantics, refresh=True)
        root.trace.finish()

    enabled_qps = measure(traced)
    spans_per_query = len(recorder.recent()[-1].spans)

    common = {"requests": requests, "rounds": rounds,
              "distinct": len(bounded)}
    return [
        {"mode": "no_obs", "qps": no_obs_qps, **common},
        {"mode": "tracing_disabled", "qps": disabled_qps,
         "disabled_overhead_ratio": disabled_qps / no_obs_qps, **common},
        {"mode": "tracing_enabled", "qps": enabled_qps,
         "enabled_overhead_ratio": enabled_qps / no_obs_qps,
         "spans_per_query": spans_per_query,
         "traces_finished": recorder.traces_finished, **common},
    ]


# -------------------------------------------------- extension rescue
def extension_rescue(dataset: str = "imdb", scale: float = 0.05,
                     distinct: int = 8, repeats: int = 20,
                     m_values=None, semantics: str = SUBGRAPH,
                     seed: int = 42) -> list[dict]:
    """Online M-bounded extension: build latency and rescued-query
    throughput vs the extension budget ``M`` (the serving-side
    counterpart of Fig. 6).

    The base schema is the dataset's type (1) constraints only — the
    global label counts a deployment would start from — so a real slice
    of the workload is rejected as unbounded. For each budget ``M``
    (default: the smallest workable M from ``find_min_m``, then 2x and
    4x it) a fresh engine plans and applies the extension
    (:func:`repro.engine.extension.plan_extension` +
    ``QueryEngine.extend_schema``) and the row records:

    * ``build_ms`` — plan + incremental index build + catalog publish
      (the off-path cost one server-side rescue pays);
    * ``rescued_qps`` — prepared throughput of the rescued queries
      afterwards (``refresh=True``: every request pays execution);
    * ``bounded_fraction_before`` / ``after`` — the workload fraction
      with a bounded plan at generation 0 vs after the extension
      (``after`` must be 1.0 at every workable M — the committed gate).
    """
    from repro.constraints.schema import AccessSchema
    from repro.engine import plan_extension

    graph, full_schema = get_dataset(dataset, scale)
    base_constraints = [c for c in full_schema if c.is_type1]
    pool = get_workload(dataset, scale, count=200, seed=seed)

    base_for_checks = AccessSchema(base_constraints)
    unbounded = [q for q in pool
                 if not is_effectively_bounded(q, base_for_checks,
                                               semantics).bounded]
    unbounded = unbounded[:distinct]
    if len(unbounded) < 2:
        raise BenchmarkError(
            f"workload for {dataset}@{scale} yields too few unbounded "
            f"queries ({len(unbounded)}) under the type (1)-only schema")
    sample = pool[:max(4 * distinct, len(unbounded))]
    before_fraction = sum(
        is_effectively_bounded(q, base_for_checks, semantics).bounded
        for q in sample) / len(sample)

    if m_values is None:
        probe = connect((graph, AccessSchema(base_constraints)))
        m_min = plan_extension(probe, unbounded, semantics=semantics).m
        m_values = sorted({m_min, 2 * m_min, 4 * m_min})

    rows = []
    for m in m_values:
        # A fresh engine (and schema copy) per budget: extension grows
        # the schema in place, and each row must start from generation 0.
        engine = connect((graph, AccessSchema(base_constraints)))
        start = time.perf_counter()
        plan = plan_extension(engine, unbounded, m=m, semantics=semantics)
        report = engine.extend_schema(
            plan.added, provenance={"origin": "bench", "m": m})
        build_seconds = time.perf_counter() - start
        for query in unbounded:
            engine.prepare(query, semantics)
        served = 0
        run_start = time.perf_counter()
        for _ in range(repeats):
            for query in unbounded:
                engine.query(query, semantics, refresh=True)
                served += 1
        run_seconds = time.perf_counter() - run_start
        after_schema = engine.schema
        after_fraction = sum(
            is_effectively_bounded(q, after_schema, semantics).bounded
            for q in unbounded) / len(unbounded)
        rows.append({
            "mode": "extension", "m": m,
            "queries": len(unbounded),
            "added_constraints": len(report.added),
            "added_cells": report.added_cells,
            "schema_version": report.version,
            "build_ms": build_seconds * 1000.0,
            "requests": served,
            "seconds": run_seconds,
            "rescued_qps": served / run_seconds,
            "bounded_fraction_before": before_fraction,
            "bounded_fraction_after": after_fraction,
        })
    return rows


# ------------------------------------------------------- engine throughput
def engine_throughput(dataset: str = "imdb", scale: float = 0.05,
                      distinct: int = 10, repeats: int = 5,
                      semantics: str = SUBGRAPH, seed: int = 42,
                      artifact: str | None = None) -> list[dict]:
    """Queries/sec for the three ways of serving a repeated workload.

    The workload is ``distinct`` effectively bounded patterns, each asked
    ``repeats`` times (interleaved), mirroring a query-serving deployment
    where a handful of query shapes dominate traffic:

    * ``cold`` — the seed repo's per-call pattern: a fresh engine per
      query, paying snapshot + index build + EBChk + QPlan every time
      (measured over one round of the distinct patterns);
    * ``prepared`` — one warm engine session with each shape prepared
      ``warm=True`` (plan compiled *and* kernel caches pre-filled);
      every timed call hits the plan cache and executes at steady-state
      latency — the amortized serving rate;
    * ``batched`` — ``query_batch`` on a fresh session: plans compiled
      once per pattern *and* each distinct query executed once per batch.

    With ``artifact`` given (a directory compiled from the **same**
    dataset and scale, e.g. by ``repro compile``), the prepared and
    batched sessions warm-start from it via ``open_path`` instead of
    building; the cold row still builds from scratch, so the comparison
    shows what the on-disk snapshot buys a serving process.

    Rows are JSON-serializable so benchmark runs leave a comparable
    perf trajectory (see ``benchmarks/bench_engine_throughput.py``).
    """
    graph, schema = get_dataset(dataset, scale)
    pool = get_workload(dataset, scale, count=200, seed=seed)
    queries = _bounded_queries(pool, schema, semantics, distinct)
    workload = list(queries) * repeats

    def open_serving_engine() -> QueryEngine:
        if artifact is not None:
            engine = connect(artifact)
            if (engine.graph.num_nodes != graph.num_nodes
                    or engine.graph.num_edges != graph.num_edges):
                raise BenchmarkError(
                    f"artifact {artifact} ({engine.graph.num_nodes} nodes, "
                    f"{engine.graph.num_edges} edges) does not match "
                    f"{dataset}@{scale} ({graph.num_nodes} nodes, "
                    f"{graph.num_edges} edges); compile it from the same "
                    f"dataset and scale")
            return engine
        return connect((graph, schema))

    rows = []

    start = time.perf_counter()
    for query in queries:
        cold_engine = connect((graph, schema))
        cold_engine.query(query, semantics)
    cold_seconds = time.perf_counter() - start
    rows.append({"mode": "cold", "queries": len(queries),
                 "seconds": cold_seconds,
                 "qps": len(queries) / cold_seconds,
                 "plan_cache_hits": 0})

    warm_engine = open_serving_engine()
    for query in queries:
        warm_engine.prepare(query, semantics, warm=True)
    start = time.perf_counter()
    for query in workload:
        warm_engine.query(query, semantics, refresh=True)
    prepared_seconds = time.perf_counter() - start
    rows.append({"mode": "prepared", "queries": len(workload),
                 "seconds": prepared_seconds,
                 "qps": len(workload) / prepared_seconds,
                 "plan_cache_hits": warm_engine.stats.plan_cache_hits})

    batch_engine = open_serving_engine()
    start = time.perf_counter()
    batch_engine.query_batch(workload, semantics)
    batched_seconds = time.perf_counter() - start
    rows.append({"mode": "batched", "queries": len(workload),
                 "seconds": batched_seconds,
                 "qps": len(workload) / batched_seconds,
                 "plan_cache_hits": batch_engine.stats.plan_cache_hits})
    return rows


def kernel_speedup(dataset: str = "imdb", scale: float = 0.05,
                   distinct: int = 10, rounds: int = 5,
                   semantics: str = SUBGRAPH, seed: int = 42) -> list[dict]:
    """Executor-only speedup: the numpy array kernels vs the sequential
    reference, same compiled plans over the same frozen session.

    Unlike :func:`engine_throughput` this isolates
    :func:`~repro.core.executor.execute_plan` against
    :func:`~repro.core.kernels.execute_plan_vectorized` — no plan cache,
    no matching, no engine bookkeeping — so the ratio is a direct read
    on what the array kernels buy. Both executors are warmed with one
    pass (filling the vectorized session caches; the sequential path
    has no cross-execution state), then timed over ``rounds`` repeats
    of the ``distinct``-query workload with fresh
    :class:`~repro.accounting.AccessStats` per execution, mirroring a
    serving loop.
    """
    from repro.core.executor import execute_plan
    from repro.core.kernels import execute_plan_vectorized
    from repro.graph.frozen import FrozenGraph

    graph, schema = get_dataset(dataset, scale)
    pool = get_workload(dataset, scale, count=200, seed=seed)
    queries = _bounded_queries(pool, schema, semantics, distinct)
    index = SchemaIndex(FrozenGraph.from_graph(graph), schema, frozen=True)
    plans = [generate_plan(query, schema, semantics) for query in queries]
    for plan in plans:  # warm-up: session caches, index + graph kernels
        execute_plan(plan, index)
        execute_plan_vectorized(plan, index)

    rows = []
    for mode, runner in (("sequential", execute_plan),
                         ("vectorized", execute_plan_vectorized)):
        executions = 0
        start = time.perf_counter()
        for _ in range(rounds):
            for plan in plans:
                runner(plan, index, stats=AccessStats())
                executions += 1
        seconds = time.perf_counter() - start
        rows.append({"mode": mode, "executions": executions,
                     "seconds": seconds, "qps": executions / seconds})
    rows[1]["speedup_vs_sequential"] = rows[1]["qps"] / rows[0]["qps"]
    return rows


# -------------------------------------------------------------------- Expt-3
def exp3_algorithm_times(datasets=("imdb", "dbpedia", "web"),
                         scale: float = 0.05, count: int = 50,
                         seed: int = 42) -> list[dict]:
    """Max latency of EBChk/QPlan/sEBChk/sQPlan across a workload.
    Paper: at most 7/37/6/32 ms respectively."""
    rows = []
    for name in datasets:
        _, schema = get_dataset(name, scale)
        queries = get_workload(name, scale, count=count, seed=seed)
        latencies = {"ebchk": [], "qplan": [], "sebchk": [], "sqplan": []}
        for query in queries:
            for semantics, check_key, plan_key in (
                    (SUBGRAPH, "ebchk", "qplan"),
                    (SIMULATION, "sebchk", "sqplan")):
                start = time.perf_counter()
                verdict = is_effectively_bounded(query, schema, semantics)
                latencies[check_key].append(time.perf_counter() - start)
                if verdict.bounded:
                    start = time.perf_counter()
                    generate_plan(query, schema, semantics)
                    latencies[plan_key].append(time.perf_counter() - start)
        row = {"dataset": name}
        for key, values in latencies.items():
            row[f"{key}_max_ms"] = 1000 * max(values) if values else None
        rows.append(row)
    return rows
