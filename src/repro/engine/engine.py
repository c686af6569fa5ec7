"""The ``QueryEngine`` session facade: compile once, serve many.

The seed library exposed bounded evaluation as loose pieces — build a
:class:`~repro.constraints.index.SchemaIndex`, run EBChk, generate a plan,
execute it — and every entry point re-paid the expensive parts per call.
The engine owns one graph snapshot plus one schema index and amortizes
everything that does not depend on the data graph:

* ``prepare(pattern, semantics)`` runs EBChk + QPlan once per canonical
  pattern form and caches the compiled plan in an LRU
  :class:`~repro.engine.cache.PlanCache`;
* ``query(...)`` is prepare + execute + match in one call, with the last
  answer of each prepared query reused until the graph changes;
* ``query_batch(...)`` serves multi-query workloads, executing each
  distinct query once per batch;
* a frozen session (the default) snapshots the graph into CSR form
  (:class:`~repro.graph.frozen.FrozenGraph`) and builds the compact
  read-only :class:`~repro.constraints.index.FrozenConstraintIndex`
  variant; a mutable session instead wraps
  :class:`~repro.constraints.maintenance.MaintainedSchemaIndex` so
  ``apply(delta)`` repairs indexes locally and invalidates cached
  answers (plans survive — they depend on ``Q`` and ``A`` only).

**Thread safety.** A *frozen* session may serve ``prepare``/``query``/
``query_batch`` from several threads concurrently: the graph snapshot
and frozen indexes are read-only, the plan caches lock internally, lazy
index decode publishes atomically, and session accounting folds under a
lock. (The worst that concurrent duplicates can do is compute the same
memoized answer twice — last write wins, both are correct.) The
:mod:`repro.server` worker pool relies on exactly this contract. Mutable
sessions (``frozen=False``) make no such promise: ``apply`` must not
race queries.

See DESIGN.md ("The QueryEngine session") for the lifecycle and cache
keying details.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.accounting import AccessStats
from repro.constraints.catalog import SchemaCatalog
from repro.constraints.index import ConstraintIndex, FrozenConstraintIndex
from repro.constraints.maintenance import MaintainedSchemaIndex, MaintenanceReport
from repro.constraints.schema import AccessConstraint, AccessSchema
from repro.core.actualized import SEMANTICS, SUBGRAPH
from repro.core.executor import MODE_PLAN, ExecutionResult, execute_plan
from repro.core.kernels import execute_plans_scatter
from repro.core.plan import EdgeCheck, FetchOp, QueryPlan
from repro.core.qplan import generate_plan
from repro.engine.cache import PlanCache, pattern_fingerprint
from repro.errors import EngineError, NotEffectivelyBounded
from repro.graph.delta import GraphDelta
from repro.graph.frozen import FrozenGraph
from repro.graph.graph import Graph, GraphView
from repro.matching.bounded import BoundedRun
from repro.matching.simulation import simulate
from repro.matching.vf2 import find_matches
from repro.obs.trace import child_span


@dataclass
class _CacheEntry:
    """What the plan cache stores per (canonical pattern, semantics).

    ``order`` is the canonical node order of the pattern the plan was
    compiled for; together with the canonical order of an incoming
    isomorphic pattern it yields the node translation that makes the
    cached plan reusable. ``error`` carries a cached negative verdict
    (the query is not effectively bounded) so EBChk is not re-run either.

    Verdicts are keyed against the serving
    :class:`~repro.constraints.catalog.SchemaCatalog`: ``schema`` must
    be the catalog's current schema object (shared-cache protection —
    plans compiled for one schema are meaningless under another), and
    ``version``/``schema_size`` record the catalog generation the
    verdict was reached under. A *positive* entry (a plan) stays valid
    forever — a plan compiled under ``A`` is correct under any
    extension ``A ∪ A'`` — but a *negative* verdict is a miss as soon
    as the schema has grown (by a catalog generation, or by a direct
    ``schema_index.add_constraint``): the M-bounded extension may have
    made the query bounded, so EBChk must re-run instead of the stale
    refusal being served forever. The cache never stores anything
    graph- or session-bound.
    """

    order: tuple[int, ...]
    schema: AccessSchema
    version: int
    schema_size: int
    plan: QueryPlan | None = None
    error: NotEffectivelyBounded | None = None

    def usable_by(self, catalog: SchemaCatalog) -> bool:
        if self.schema is not catalog.current:
            return False
        if self.error is not None and (self.version != catalog.version
                                       or self.schema_size != len(self.schema)):
            return False
        return True


class PreparedQuery:
    """A compiled query bound to one engine session.

    Holds the pattern, semantics, and worst-case-optimal plan; executing
    it fetches ``G_Q`` through the session's indexes. The last computed
    answer is cached and served until the session's graph generation
    changes (see :meth:`QueryEngine.apply`).
    """

    __slots__ = ("engine", "pattern", "semantics", "plan",
                 "_run", "_run_generation")

    def __init__(self, engine: "QueryEngine", pattern, semantics: str,
                 plan: QueryPlan):
        self.engine = engine
        self.pattern = pattern
        self.semantics = semantics
        self.plan = plan
        self._run: BoundedRun | None = None
        self._run_generation = -1

    def execute(self, stats: AccessStats | None = None,
                edge_mode: str = MODE_PLAN) -> ExecutionResult:
        """Fetch ``G_Q`` (node + edge phases) without matching."""
        run_stats = AccessStats()
        execution = self.engine._execute_plans(
            [self.plan], [run_stats], edge_mode=edge_mode)[0]
        self.engine._account(run_stats, stats)
        return execution

    def run(self, stats: AccessStats | None = None,
            refresh: bool = False) -> BoundedRun:
        """Execute and match; ``Q(G_Q) = Q(G)`` so the answer is exact.

        The previous answer is reused when the graph has not changed since
        it was computed — unless ``refresh=True`` forces re-execution or
        ``stats`` is given (callers asking for access accounting want a
        real run, not a memoized answer).
        """
        if (not refresh and stats is None and self._run is not None
                and self._run_generation == self.engine.generation):
            return self._run
        run_stats = AccessStats()
        execution = self.engine._execute_plans([self.plan], [run_stats])[0]
        run = self._finish_run(execution)
        self.engine._account(run_stats, stats)
        return run

    def warm(self) -> "PreparedQuery":
        """Run the plan once through the array kernels with the
        accounting discarded.

        Populates the session-level pure-lookup caches (graph kernel
        columns, per-constraint index kernels, fetch / predicate-mask /
        initial-scan caches) so the first *served* execution already
        runs at steady-state latency. The warming run records nothing:
        the caches only ever skip probing and filtering work, never the
        per-execution accounting. A no-op for sessions the vectorized
        executor does not serve (sequential or scatter-gather).
        """
        engine = self.engine
        if engine._executor == "vectorized" and engine._shards is None:
            from repro.core.kernels import execute_plan_vectorized
            execute_plan_vectorized(self.plan, engine._schema_index)
        return self

    def _finish_run(self, execution: ExecutionResult) -> BoundedRun:
        """Match inside ``G_Q`` and memoize the answer."""
        with child_span("match", semantics=self.semantics):
            if self.semantics == SUBGRAPH:
                answer = find_matches(self.pattern, execution.gq,
                                      candidates=execution.candidates)
            else:
                answer = simulate(self.pattern, execution.gq,
                                  candidates=execution.candidates)
        run = BoundedRun(answer=answer, execution=execution)
        self._run = run
        self._run_generation = self.engine.generation
        return run

    @property
    def worst_case_total_accessed(self) -> float:
        """The plan's access envelope — a function of ``Q`` and ``A`` only."""
        return self.plan.worst_case_total_accessed

    def __repr__(self) -> str:
        return (f"PreparedQuery({self.pattern.name or 'pattern'!r}, "
                f"semantics={self.semantics!r}, ops={len(self.plan.ops)})")


class QueryEngine:
    """One graph snapshot + one schema index, serving repeated queries.

    Examples
    --------
    >>> from repro.graph.generators import imdb_like
    >>> from repro.pattern import parse_pattern
    >>> graph, schema = imdb_like(scale=0.02)
    >>> engine = QueryEngine.open(graph, schema)
    >>> q = parse_pattern("m: movie; y: year; m -> y")
    >>> first = engine.query(q)
    >>> again = engine.query(q)          # plan cache hit, answer reused
    >>> engine.stats.plan_cache_hits
    1

    Parameters
    ----------
    frozen:
        Snapshot the graph into CSR form and build compact read-only
        indexes (the default; fastest for query-serving sessions).
        ``frozen=False`` keeps the mutable graph and enables
        :meth:`apply` for incremental updates.
    validate:
        Verify ``G |= A`` (cardinality bounds) after the index build.
    cache_size:
        LRU capacity of the private plan cache.
    plan_cache:
        Share an existing :class:`PlanCache` between sessions serving the
        **same schema** (e.g. several snapshots of a growing graph).
    executor:
        Plan-execution strategy: ``"auto"`` (default) runs the numpy
        array-kernel executor (:mod:`repro.core.kernels`) whenever the
        session qualifies — frozen CSR snapshot, frozen indexes — and
        the sequential executor otherwise; ``"sequential"`` /
        ``"vectorized"`` force one of the two
        (forcing ``"vectorized"`` on a session that cannot run it
        raises). Answers, ``G_Q`` and access accounting are identical
        under every strategy.
    """

    #: Scatter driver for sharded sessions: True (default) runs the
    #: pipelined per-shard-progress executor, False the lock-step wave
    #: barrier. Threaded from ``SessionConfig.scatter_pipeline``.
    scatter_pipeline = True

    #: Accepted ``executor=`` arguments.
    EXECUTORS = ("auto", "sequential", "vectorized")

    def __init__(self, graph: GraphView, schema, *,
                 frozen: bool = True, validate: bool = False,
                 cache_size: int = 128, plan_cache: PlanCache | None = None,
                 schema_index=None, executor: str = "auto"):
        # ``schema`` may be a bare AccessSchema (wrapped in a fresh
        # generation-0 catalog) or a SchemaCatalog (the artifact load
        # path, preserving recorded generations).
        self._catalog = schema if isinstance(schema, SchemaCatalog) \
            else SchemaCatalog(schema)
        schema = self._catalog.current
        self.frozen = frozen
        self.stats = AccessStats()
        #: Shard backend of a sharded session (None for ordinary
        #: sessions); see :meth:`from_shards`.
        self._shards = None
        #: Artifact directory this session was loaded from / saved to, if
        #: any; ``apply`` marks it stale the moment the served graph
        #: diverges from the on-disk snapshot.
        self.artifact_path: Path | None = None
        self._cache = plan_cache if plan_cache is not None else PlanCache(cache_size)
        # Session-local PreparedQuery memo (LRU): keeps answer memoization
        # across re-prepares without the (sharable) plan cache pinning
        # this session's graph snapshot and answers.
        self._prepared = PlanCache(cache_size)
        self._stats_lock = threading.Lock()
        self._generation = 0
        if frozen:
            snapshot = graph if isinstance(graph, FrozenGraph) \
                else FrozenGraph.from_graph(graph)
            self._graph: GraphView = snapshot
            self._maintained: MaintainedSchemaIndex | None = None
            if schema_index is None:
                from repro.constraints.index import SchemaIndex
                schema_index = SchemaIndex(snapshot, schema, frozen=True,
                                           validate=validate)
            elif validate:
                schema_index.validate()
            self._schema_index = schema_index
        else:
            if schema_index is not None:
                raise EngineError(
                    "a prebuilt schema index requires a frozen session")
            if not isinstance(graph, Graph):
                raise EngineError(
                    "a mutable engine session requires a mutable Graph "
                    f"(got {type(graph).__name__}); use frozen=True for "
                    "read-only views")
            self._maintained = MaintainedSchemaIndex(graph, schema)
            self._graph = graph
            self._schema_index = self._maintained.schema_index
            if validate:
                self._schema_index.validate()
        self._executor = self._resolve_executor(executor)

    def _resolve_executor(self, executor: str) -> str:
        """Resolve an ``executor=`` argument to a concrete strategy."""
        from repro.core import kernels

        if executor not in self.EXECUTORS:
            raise EngineError(f"unknown executor {executor!r}; expected "
                              f"one of {self.EXECUTORS}")
        if executor == "sequential":
            return "sequential"
        capable = kernels.can_vectorize(self._schema_index)
        if executor == "vectorized":
            if not capable:
                raise EngineError(
                    "executor='vectorized' is unavailable: the session is "
                    "not frozen (vectorized kernels run over CSR snapshot "
                    "buffers)")
            return "vectorized"
        return "vectorized" if capable else "sequential"

    @classmethod
    def open(cls, graph: GraphView, schema, *,
             frozen: bool = True, validate: bool = False,
             cache_size: int = 128,
             plan_cache: PlanCache | None = None,
             executor: str = "auto") -> "QueryEngine":
        """Open a query-serving session over ``graph`` under ``schema``.

        .. deprecated:: 1.1
            Thin shim over :func:`repro.connect` — prefer
            ``repro.connect((graph, schema), ...)``, the one documented
            entry point for every session kind.
        """
        from repro.session import SessionConfig, connect
        return connect((graph, schema), config=SessionConfig(
            frozen=frozen, validate=validate, cache_size=cache_size,
            plan_cache=plan_cache, executor=executor))

    @classmethod
    def open_path(cls, path, *, frozen: bool = True, validate: bool = False,
                  cache_size: int = 128, allow_stale: bool = False,
                  workers: int = 0, mp_context=None,
                  strategy: str = "auto",
                  executor: str = "auto",
                  backend: str = "auto",
                  shard_addrs=(), connect_timeout: float = 5.0,
                  request_timeout: float = 30.0, retries: int = 2,
                  retry_backoff_s: float = 0.1,
                  owner_routing: bool = True) -> "QueryEngine":
        """Warm-start a session from an artifact written by :meth:`save`.

        .. deprecated:: 1.1
            Thin shim over :func:`repro.connect` — prefer
            ``repro.connect(path, ...)``, which takes the same options
            via :class:`repro.SessionConfig`.

        Skips graph load, index build, and EBChk/QPlan for every
        canonical pattern form that was prepared before the save. Raises
        :class:`~repro.errors.ArtifactCorrupt`,
        :class:`~repro.errors.ArtifactVersionMismatch`, or
        :class:`~repro.errors.ArtifactStale` rather than ever serving
        from an untrustworthy snapshot. ``frozen=False`` thaws into a
        mutable session that supports :meth:`apply` (and pays a mutable
        index rebuild; the plan cache stays warm either way).

        A *sharded* artifact (``repro compile --shards N``) opens under
        ``strategy``: ``"scatter"`` is the scatter-gather session —
        ``workers=0`` holds every shard in this process, ``workers=N``
        spawns N worker processes that each warm-start their shards from
        the per-shard sub-artifacts (close the session, or use it as a
        context manager, to shut the pool down; ``mp_context`` overrides
        the multiprocessing start method). ``"sequential"`` merges the
        shards back into one frozen graph + index and serves them as an
        ordinary single-graph session — no scatter round-trips, and the
        (vectorized) plan executors apply. ``"auto"`` (default) picks
        ``"sequential"`` when ``workers=0`` — in-process scatter over
        shards only adds coordination overhead — and ``"scatter"`` when
        worker processes are requested. ``executor`` selects the plan
        executor for unsharded/merged serving (see :class:`QueryEngine`).

        ``backend="remote"`` + ``shard_addrs`` serves the scatter waves
        from a running ``repro shard-serve`` fleet instead of local
        shards (see :class:`~repro.engine.parallel.RemoteShardBackend`
        for the timeout/retry/owner-routing knobs forwarded here).
        """
        from repro.session import SessionConfig, connect
        return connect(path, config=SessionConfig(
            frozen=frozen, validate=validate, cache_size=cache_size,
            allow_stale=allow_stale, workers=workers, mp_context=mp_context,
            strategy=strategy, executor=executor, backend=backend,
            shard_addrs=shard_addrs, connect_timeout=connect_timeout,
            request_timeout=request_timeout, retries=retries,
            retry_backoff_s=retry_backoff_s, owner_routing=owner_routing))

    @classmethod
    def from_shards(cls, backend, schema, graph_summary, *,
                    plan_cache: PlanCache | None = None,
                    cache_size: int = 128) -> "QueryEngine":
        """Assemble a frozen scatter-gather session over a shard backend
        (see :mod:`repro.engine.parallel`).

        .. deprecated:: 1.1
            Thin shim over :func:`repro.connect` — prefer
            ``repro.connect((backend, schema, graph_summary), ...)``.
        """
        from repro.session import SessionConfig, connect
        return connect((backend, schema, graph_summary),
                       config=SessionConfig(plan_cache=plan_cache,
                                            cache_size=cache_size))

    @classmethod
    def _assemble_from_shards(cls, backend, schema, graph_summary, *,
                              plan_cache: PlanCache | None = None,
                              cache_size: int = 128,
                              scatter_pipeline: bool = True) -> "QueryEngine":
        """The real sharded-session assembly behind
        :func:`repro.connect`. The session holds no graph or
        index of its own — only the plan compiler, the caches, and the
        backend handle; :attr:`graph` is the partition's
        :class:`~repro.graph.partition.GraphSummary`."""
        engine = cls.__new__(cls)
        engine._catalog = schema if isinstance(schema, SchemaCatalog) \
            else SchemaCatalog(schema)
        engine.frozen = True
        engine.stats = AccessStats()
        engine._shards = backend
        engine.artifact_path = None
        engine._cache = plan_cache if plan_cache is not None \
            else PlanCache(cache_size)
        engine._prepared = PlanCache(cache_size)
        engine._stats_lock = threading.Lock()
        engine._generation = 0
        engine._graph = graph_summary
        engine._maintained = None
        engine._schema_index = None
        engine._executor = "sequential"  # unused: plans go through shards
        engine.scatter_pipeline = scatter_pipeline
        return engine

    def save(self, path, *, shards: int | None = None,
             shard_assignment: dict | None = None) -> dict:
        """Persist the session's compiled state (snapshot, indexes, plan
        cache) as an artifact directory; returns the manifest. A save
        from a mutable session freezes its current state, repairing any
        staleness at ``path``. ``shards=N`` writes the sharded layout
        instead (partition + per-shard sub-artifacts), which is what
        ``open_path(..., workers=N)`` serves from. ``shard_assignment``
        overrides the default node→shard cover (see
        :func:`repro.graph.partition.partition_graph`) — e.g. a
        label-partitioned cover that concentrates each label on few
        shards, which is what owner routing rewards."""
        from repro.engine import persist
        if self._shards is not None:
            raise EngineError(
                "a sharded session does not hold the full graph; "
                "re-compile from the source data (repro compile --shards) "
                "instead of re-saving")
        if shard_assignment is not None and not shards:
            raise EngineError("shard_assignment requires shards=N")
        if shards:
            manifest = persist.save_sharded_engine(
                self, path, shards, assignment=shard_assignment)
        else:
            manifest = persist.save_engine(self, path)
        self.artifact_path = Path(path)
        return manifest

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        """Release the shard backend (terminates worker processes for
        ``workers=N`` sessions). Idempotent; a no-op for ordinary
        sessions."""
        if self._shards is not None:
            self._shards.close()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- session state ---------------------------------------------------------
    @property
    def schema(self) -> AccessSchema:
        """The access schema being served — the catalog's current
        generation (one object, growing in place under extension)."""
        return self._catalog.current

    @property
    def catalog(self) -> SchemaCatalog:
        """The versioned schema lifecycle this session serves under."""
        return self._catalog

    @property
    def schema_version(self) -> int:
        """The catalog generation currently published."""
        return self._catalog.version

    @property
    def graph(self) -> GraphView:
        """The graph being served (the CSR snapshot when frozen)."""
        return self._graph

    @property
    def schema_index(self):
        """The session's :class:`~repro.constraints.index.SchemaIndex`."""
        if self._shards is not None:
            raise EngineError(
                "a sharded session holds its indexes in shards (possibly "
                "in worker processes); execution goes through the "
                "scatter-gather path, not a single schema index")
        return self._schema_index

    @property
    def sharded(self) -> bool:
        """True for scatter-gather sessions opened from sharded artifacts."""
        return self._shards is not None

    @property
    def executor_strategy(self) -> str:
        """The resolved plan-execution strategy: ``"scatter"`` for
        sharded sessions, else ``"vectorized"`` or ``"sequential"``."""
        if self._shards is not None:
            return "scatter"
        return self._executor

    @property
    def exec_workers(self) -> int:
        """Worker processes executing fetches (0 = in-process shards or
        an ordinary unsharded session)."""
        return self._shards.workers if self._shards is not None else 0

    @property
    def generation(self) -> int:
        """Bumped by :meth:`apply`; cached answers are per-generation."""
        return self._generation

    @property
    def plan_cache(self) -> PlanCache:
        return self._cache

    def cache_info(self) -> dict:
        """Plan-cache counters (hits/misses/evictions/size/maxsize)."""
        return self._cache.info()

    # -- compilation ---------------------------------------------------------------
    def prepare(self, pattern, semantics: str = SUBGRAPH, *,
                warm: bool = False) -> PreparedQuery:
        """Compile ``pattern`` once: EBChk + QPlan, cached by canonical
        pattern form + semantics.

        ``warm=True`` additionally pre-runs the plan through the
        vectorized kernels (see :meth:`PreparedQuery.warm`), moving the
        one-time cache-fill cost of a query shape into preparation so
        the first served execution is already steady-state.

        Raises :class:`~repro.errors.NotEffectivelyBounded` (also served
        from cache) when the query is not effectively bounded.
        """
        if semantics not in SEMANTICS:
            raise EngineError(f"unknown semantics {semantics!r}; "
                              f"expected one of {SEMANTICS}")
        key, order = pattern_fingerprint(pattern)
        cache_key = (key, semantics)
        with child_span("plan_cache_lookup") as lookup:
            entry = self._cache.get(
                cache_key, validate=lambda e: e.usable_by(self._catalog))
            if lookup is not None:
                lookup.set(hit=entry is not None)
        if entry is not None:
            with self._stats_lock:
                self.stats.record_cache_hit()
            prepared = self._from_entry(entry, cache_key, pattern, order,
                                        semantics)
            return prepared.warm() if warm else prepared
        with self._stats_lock:
            self.stats.record_cache_miss()
        # Snapshot the generation before compiling: a concurrent
        # extension that lands mid-compile leaves the verdict keyed to
        # the generation it was actually reached under.
        schema = self.schema
        version = self._catalog.version
        try:
            with child_span("compile"):
                plan = generate_plan(pattern, schema, semantics)
        except NotEffectivelyBounded as exc:
            self._cache.put(cache_key, _CacheEntry(
                order=order, schema=schema, version=version,
                schema_size=len(schema), error=exc))
            raise
        prepared = PreparedQuery(self, pattern, semantics, plan)
        self._cache.put(cache_key, _CacheEntry(
            order=order, schema=schema, version=version,
            schema_size=len(schema), plan=plan))
        self._prepared.put((cache_key, order), (plan, prepared))
        return prepared.warm() if warm else prepared

    def _from_entry(self, entry: _CacheEntry, cache_key, pattern,
                    order: tuple[int, ...], semantics: str) -> PreparedQuery:
        """Rebind a cached compilation to (a possibly renumbered copy of)
        the pattern it was compiled for."""
        mapping = dict(zip(entry.order, order))
        if entry.error is not None:
            # Always a fresh exception: re-raising the cached instance
            # would grow its traceback and share mutable state across
            # callers.
            raise NotEffectivelyBounded(
                str(entry.error),
                uncovered_nodes=[mapping.get(u, u)
                                 for u in entry.error.uncovered_nodes],
                uncovered_edges=[(mapping.get(u, u), mapping.get(v, v))
                                 for u, v in entry.error.uncovered_edges])
        # Session-local memo, keyed by the incoming numbering too: a
        # renumbered resubmission reuses its own PreparedQuery (and its
        # answer memo) just like an identical one. The source plan is
        # stored alongside to detect staleness after a cache overwrite.
        memoized = self._prepared.get((cache_key, order))
        if memoized is not None and memoized[0] is entry.plan:
            return memoized[1]
        identity = all(old == new for old, new in mapping.items())
        plan = entry.plan if identity \
            else _remap_plan(entry.plan, mapping, pattern)
        prepared = PreparedQuery(self, pattern, semantics, plan)
        self._prepared.put((cache_key, order), (entry.plan, prepared))
        return prepared

    # -- evaluation -------------------------------------------------------------------
    def query(self, pattern, semantics: str = SUBGRAPH, *,
              stats: AccessStats | None = None,
              refresh: bool = False) -> BoundedRun:
        """Prepare + execute + match in one call."""
        return self.prepare(pattern, semantics).run(stats=stats,
                                                    refresh=refresh)

    def query_batch(self, patterns: Iterable, semantics: str = SUBGRAPH, *,
                    stats: AccessStats | None = None) -> list[BoundedRun]:
        """Serve a workload in one go, amortizing compilation *and*
        execution: each distinct (canonical pattern, semantics) in the
        batch is planned at most once and executed at most once.

        ``patterns`` items are :class:`~repro.pattern.pattern.Pattern`
        objects or ``(pattern, semantics)`` pairs overriding the default
        semantics. Results line up with the input order.

        On a sharded session the whole batch executes in shared
        scatter-gather waves: one worker round-trip carries every
        distinct query's outstanding fetches, which is where the
        worker-pool parallelism pays off.
        """
        requests: list[tuple[object, str]] = []
        for item in patterns:
            if isinstance(item, tuple):
                pattern, item_semantics = item
                requests.append((pattern, item_semantics))
            else:
                requests.append((item, semantics))
        prepared_list = [self.prepare(pattern, item_semantics)
                         for pattern, item_semantics in requests]
        if self._shards is not None:
            return self._query_batch_scatter(prepared_list, stats)
        results: list[BoundedRun] = []
        batch_runs: dict[int, BoundedRun] = {}
        for prepared in prepared_list:
            run_key = id(prepared.plan)
            run = batch_runs.get(run_key)
            if run is None:
                run = prepared.run(stats=stats)
                batch_runs[run_key] = run
            results.append(run)
        return results

    def _query_batch_scatter(self, prepared_list: list[PreparedQuery],
                             stats: AccessStats | None) -> list[BoundedRun]:
        """Batch execution on a sharded session: every distinct query
        that cannot be served from its answer memo executes in one
        shared wave-driven scatter call."""
        unique: dict[int, PreparedQuery] = {}
        for prepared in prepared_list:
            unique.setdefault(id(prepared.plan), prepared)
        runs: dict[int, BoundedRun] = {}
        to_execute: list[tuple[int, PreparedQuery]] = []
        for run_key, prepared in unique.items():
            if (stats is None and prepared._run is not None
                    and prepared._run_generation == self.generation):
                runs[run_key] = prepared._run
            else:
                to_execute.append((run_key, prepared))
        if to_execute:
            stats_list = [AccessStats() for _ in to_execute]
            with child_span("execute", strategy="scatter",
                            plans=len(to_execute)):
                executions = execute_plans_scatter(
                    [prepared.plan for _, prepared in to_execute],
                    self._shards, stats_list=stats_list,
                    pipeline=self.scatter_pipeline)
            for (run_key, prepared), execution, run_stats in zip(
                    to_execute, executions, stats_list):
                runs[run_key] = prepared._finish_run(execution)
                self._account(run_stats, stats)
        return [runs[id(prepared.plan)] for prepared in prepared_list]

    # -- updates --------------------------------------------------------------------
    def apply(self, delta: GraphDelta) -> MaintenanceReport:
        """Apply ΔG through the incremental-maintenance path.

        Only mutable sessions support updates. Indexes are repaired
        locally (inspecting ``ΔG ∪ Nb(ΔG)`` only) and the generation
        counter is bumped, invalidating every cached *answer*. Cached
        *plans* remain valid: they depend on ``Q`` and ``A``, not on the
        graph.
        """
        if self._maintained is None:
            raise EngineError(
                "cannot apply updates to a frozen engine session; open "
                "with frozen=False for incremental maintenance")
        if self.artifact_path is not None:
            # Mark before mutating: even a half-applied delta means the
            # on-disk snapshot no longer answers for this session. A
            # later save() re-compiles the artifact and clears the mark.
            from repro.engine import persist
            persist.mark_stale(self.artifact_path,
                               f"graph delta applied at generation "
                               f"{self._generation + 1}")
        report = self._maintained.apply(delta)
        self._generation += 1
        return report

    # -- schema extension ------------------------------------------------------
    def extend_schema(self, constraints: Iterable[AccessConstraint], *,
                      provenance: dict | None = None):
        """Grow the access schema online with an M-bounded extension.

        Builds constraint indexes for the *added* constraints only —
        never a rebuild of existing ones — and publishes them with the
        hot-reload discipline: indexes go live first (per shard, over
        owned targets, on sharded sessions), then the catalog appends
        the constraints and bumps its generation, which is the moment
        cached negative EBChk verdicts stop matching. Answers of
        already-bounded queries are untouched: their plans, their
        memoized answers and their access accounting never change
        (property-tested). Returns an
        :class:`~repro.engine.extension.ExtensionReport`.

        A frozen session stays safely readable throughout — concurrent
        ``prepare``/``query`` calls observe either the old generation or
        the new one. The on-disk artifact (if any) is *not* touched: it
        remains a valid, older-generation snapshot; use ``repro extend``
        (or re-save) to persist the extension.
        """
        import time as _time

        from repro.engine.extension import ExtensionReport

        start = _time.perf_counter()
        added: list[AccessConstraint] = []
        pending: set[AccessConstraint] = set()
        for constraint in constraints:
            if not isinstance(constraint, AccessConstraint):
                raise EngineError(
                    f"extend_schema expects AccessConstraint objects, "
                    f"got {constraint!r}")
            if constraint not in self.schema and constraint not in pending:
                added.append(constraint)
                pending.add(constraint)
        if not added:
            return ExtensionReport(
                version=self._catalog.version, added=(), built=0,
                added_cells=0, build_seconds=0.0, per_shard=None)

        per_shard = None
        cells = 0
        if self._shards is not None:
            # Shard-local builds over owned targets only: the disjoint
            # union of the new per-shard entries equals the global index
            # entry, exactly as for the base constraints (see
            # repro.graph.partition).
            per_shard = self._shards.extend(added)
            cells = sum(info["cells"] for info in per_shard)
        elif self.frozen:
            for constraint in added:
                index = FrozenConstraintIndex(constraint, self._graph)
                self._schema_index.adopt_index(constraint, index)
                cells += index.size
        else:
            for constraint in added:
                index = ConstraintIndex(constraint, self._graph,
                                        track_members=True)
                self._schema_index.adopt_index(constraint, index)
                cells += index.size
        # Publish last: only now can a reader compile against the new
        # constraints — whose indexes are already live everywhere.
        generation = self._catalog.extend(added, provenance=provenance)
        return ExtensionReport(
            version=generation.version, added=tuple(added), built=len(added),
            added_cells=cells,
            build_seconds=_time.perf_counter() - start,
            per_shard=per_shard)

    # -- internals ----------------------------------------------------------------
    def _execute_plans(self, plans: list[QueryPlan],
                       stats_list: list[AccessStats],
                       edge_mode: str = MODE_PLAN) -> list[ExecutionResult]:
        """Execute compiled plans through this session's strategy:
        sequentially against the schema index, or scatter-gather over the
        shard backend. Answers and accounting are identical either way
        (see :mod:`repro.core.executor`)."""
        if self._shards is not None:
            with child_span("execute", strategy="scatter",
                            plans=len(plans)):
                return execute_plans_scatter(plans, self._shards,
                                             stats_list=stats_list,
                                             edge_mode=edge_mode,
                                             pipeline=self.scatter_pipeline)
        if self._executor == "vectorized":
            from repro.core.kernels import execute_plan_vectorized
            with child_span("execute", strategy="vectorized",
                            plans=len(plans)):
                return [execute_plan_vectorized(plan, self._schema_index,
                                                stats=stats,
                                                edge_mode=edge_mode)
                        for plan, stats in zip(plans, stats_list)]
        with child_span("execute", strategy="sequential", plans=len(plans)):
            return [execute_plan(plan, self._schema_index, stats=stats,
                                 edge_mode=edge_mode)
                    for plan, stats in zip(plans, stats_list)]

    def _account(self, run_stats: AccessStats,
                 caller_stats: AccessStats | None) -> None:
        """Fold one execution's accounting into the session totals and,
        when given, the caller's recorder. The session merge is locked:
        concurrent worker threads must not lose counts."""
        with self._stats_lock:
            self.stats.merge(run_stats)
        if caller_stats is not None and caller_stats is not self.stats:
            caller_stats.merge(run_stats)

    def __repr__(self) -> str:
        kind = "frozen" if self.frozen else "mutable"
        if self._shards is not None:
            kind = f"sharded x{self._shards.num_shards}, " \
                   f"workers={self._shards.workers}"
        return (f"QueryEngine({kind}, graph={self._graph!r}, "
                f"constraints={len(self.schema)}, cache={self._cache!r})")


def _remap_plan(plan: QueryPlan, mapping: dict[int, int],
                pattern) -> QueryPlan:
    """Translate a cached plan onto an isomorphic, renumbered pattern.

    ``mapping`` sends node ids of the plan's pattern to ids of ``pattern``
    (derived from the two canonical orders, so it is an isomorphism); plan
    validity is preserved because plans depend only on pattern structure
    and the schema.
    """
    remapped = QueryPlan(pattern=pattern, schema=plan.schema,
                         semantics=plan.semantics)
    for op in plan.ops:
        target = mapping[op.target]
        remapped.ops.append(FetchOp(
            target=target,
            source_nodes=tuple(mapping[v] for v in op.source_nodes),
            constraint=op.constraint,
            predicate=pattern.predicate_of(target),
            fetch_bound=op.fetch_bound,
            size_bound=op.size_bound))
    for check in plan.edge_checks:
        remapped.edge_checks.append(EdgeCheck(
            edge=(mapping[check.edge[0]], mapping[check.edge[1]]),
            mode=check.mode,
            fetch_target=(None if check.fetch_target is None
                          else mapping[check.fetch_target]),
            source_nodes=tuple(mapping[v] for v in check.source_nodes),
            constraint=check.constraint,
            cost_bound=check.cost_bound))
    return remapped
