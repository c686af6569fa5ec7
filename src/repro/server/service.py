"""The serving core: admission control, batch execution, hot reload.

:class:`QueryService` is transport-agnostic — the asyncio front-end
(:mod:`repro.server.server`) calls :meth:`admit` on arrival and
:meth:`execute_batch` from its worker pool, but the same methods serve
tests and embedded use directly. One service wraps one **frozen**
:class:`~repro.engine.engine.QueryEngine` (the thread-safe read path);
:meth:`reload_artifact` swaps in a new engine atomically, so in-flight
work finishes on the snapshot it started on while new admissions land on
the new one.

Admission control is where the paper pays off operationally: the plan's
``worst_case_total_accessed`` is known at ``prepare`` time, *before* any
data is fetched, so a query costing more than the configured budget is
rejected with :class:`~repro.errors.AdmissionRejected` instead of ever
executing unbounded. Unbounded queries (no plan at all) are likewise
typed rejections, not executions.

With an ``--extend-budget`` configured, an unbounded rejection is no
longer final: the **rescue pipeline** (:meth:`QueryService.rescue`)
parks the query, plans the greedy minimum M-bounded extension off the
serving path (Section V of the paper, online), builds indexes for only
the added constraints, publishes them through the engine's
:class:`~repro.constraints.catalog.SchemaCatalog` with the hot-reload
swap discipline, and re-admits the parked query — all without a server
restart or a full index rebuild. Rescues serialize under one lock;
queries parked behind an in-flight rescue usually re-admit from its
result without planning anything.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.core.actualized import SEMANTICS, SUBGRAPH
from repro.engine import (
    PlanCache,
    PreparedQuery,
    QueryEngine,
    pattern_fingerprint,
    plan_extension,
)
from repro.errors import (
    AdmissionRejected,
    ExtensionError,
    NotEffectivelyBounded,
    ReproError,
    ServerError,
)
from repro.matching.simulation import relation_pairs
from repro.obs.trace import Span, TraceRecorder, activate, child_span
from repro.pattern.dsl import parse_pattern
from repro.pattern.pattern import Pattern
from repro.server.metrics import ServerMetrics


@dataclass
class AdmittedQuery:
    """One admitted request, ready for a worker batch.

    ``prepared`` is bound to the engine that admitted it; execution goes
    through the *current* engine's ``query_batch`` (identical answers
    unless a reload swapped snapshots in between — then the new snapshot
    answers, which is exactly what a reload means).
    """

    pattern: Pattern
    semantics: str
    cost: float
    prepared: PreparedQuery = field(repr=False)
    limit: int = 10
    #: The request's root span when tracing is on (the explicit hand-off
    #: across the event-loop -> worker-thread boundary, which does not
    #: propagate contextvars).
    span: Span | None = field(default=None, repr=False, compare=False)


class QueryService:
    """Admission control + micro-batched execution over one frozen engine.

    Parameters
    ----------
    engine:
        A frozen :class:`QueryEngine` (the thread-safe read path).
    max_cost:
        Admission budget: reject queries whose worst-case access bound
        exceeds this (``None`` admits any *bounded* query; unbounded
        queries are always rejected).
    workers:
        Worker threads executing batches (the front-end owns the pool;
        recorded here for metrics).
    max_batch:
        Most requests funnelled into one ``query_batch`` call.
    batch_window_ms:
        Extra time a forming batch waits for stragglers once the queue
        is drained. ``0`` (default) batches adaptively: whatever queued
        while workers were busy forms the next batch, with no added
        latency when the service is idle.
    max_queue:
        Bound on queued-but-unexecuted requests; admission sheds load
        beyond it with :class:`~repro.errors.ServiceOverloaded`.
    answer_limit:
        Default cap on matches/pairs returned per response (requests may
        lower or raise it; the count is always exact).
    extend_budget:
        The rescue pipeline's ``M``: a query rejected as unbounded is
        parked and the schema extended online with constraints whose
        bounds are at most this (Section V's M-bounded extension).
        ``None`` (default) disables rescue — unbounded stays a final,
        typed rejection.
    extend_max_added:
        Size cap on one rescue's extension: more added constraints than
        this fails the rescue instead of ballooning the index set.
    tracer:
        A :class:`~repro.obs.trace.TraceRecorder`; the front-end roots a
        span tree per request and the instrumented path (admission,
        queue, batches, waves, shard RPCs, rescues) hangs children off
        it. ``None`` (default) disables tracing — every instrumentation
        point no-ops and answers/accounting are byte-identical.
    """

    def __init__(self, engine: QueryEngine, *, max_cost: float | None = None,
                 workers: int = 4, max_batch: int = 32,
                 batch_window_ms: float = 0.0, max_queue: int = 256,
                 answer_limit: int = 10, extend_budget: int | None = None,
                 extend_max_added: int | None = None,
                 tracer: TraceRecorder | None = None):
        if not engine.frozen:
            raise ServerError(
                "QueryService requires a frozen engine session (the "
                "thread-safe read path); updates go through compile + "
                "hot reload instead")
        if workers < 1 or max_batch < 1 or max_queue < 1:
            raise ServerError("workers, max_batch and max_queue must be >= 1")
        self._engine = engine
        self._engine_lock = threading.Lock()
        # In-flight batch counts per engine (by id) plus engines retired
        # by a reload that still have batches running: a retired
        # engine's shard worker pool is closed the moment its last
        # batch drains, not at process exit.
        self._engine_refs: dict[int, int] = {}
        self._retired: dict[int, QueryEngine] = {}
        # The configured worker-process count, remembered independently
        # of the current engine so a sharded -> single -> sharded reload
        # chain restores the pool instead of silently dropping it.
        self._exec_workers = engine.exec_workers
        # Likewise the remote-fleet configuration: a session opened with
        # backend="remote" must reload back onto the same fleet (see
        # reload_artifact for the two-phase order).
        self._remote_config = self._capture_remote_config(engine)
        self.max_cost = max_cost
        self.workers = workers
        self.max_batch = max_batch
        self.batch_window_ms = batch_window_ms
        self.max_queue = max_queue
        self.answer_limit = answer_limit
        self.extend_budget = extend_budget
        self.extend_max_added = extend_max_added
        # Rescues serialize: one off-path extension at a time; queries
        # parked behind it re-check admission under the lock and usually
        # ride the winner's new schema generation for free.
        self._rescue_lock = threading.Lock()
        # Failed rescues are negatively cached per (canonical pattern,
        # semantics) at the schema generation they failed under: a
        # repeated unrescuable query must fail fast, not re-run
        # extension planning under the rescue lock on every request. A
        # later generation invalidates the entry — the schema that grew
        # may now rescue it.
        self._rescue_failures = PlanCache(maxsize=512)
        self.tracer = tracer
        self.metrics = ServerMetrics()
        # Admission parse cache: serving traffic repeats a handful of
        # query texts, so the DSL parse is paid once per text, not per
        # request (patterns are read-only once built — sharing is safe).
        # PlanCache is the library's thread-safe LRU; values here are
        # parsed Patterns keyed by raw DSL text.
        self._parse_cache = PlanCache(maxsize=512)

    @property
    def engine(self) -> QueryEngine:
        """The engine currently serving admissions (atomic to read)."""
        with self._engine_lock:
            return self._engine

    # -- admission -----------------------------------------------------------
    def admit(self, pattern, semantics: str = SUBGRAPH,
              limit: int | None = None) -> AdmittedQuery:
        """Admission control for one query.

        ``pattern`` is DSL text or a :class:`Pattern`. Raises
        :class:`~repro.errors.NotEffectivelyBounded` when no bounded plan
        exists and :class:`~repro.errors.AdmissionRejected` when the
        plan's worst-case access bound exceeds ``max_cost``; either way
        nothing touches the data graph.
        """
        self.metrics.record_request()
        with child_span("admission", semantics=semantics) as span:
            if isinstance(pattern, str):
                pattern = self._parse(pattern)
            if semantics not in SEMANTICS:
                raise ServerError(f"unknown semantics {semantics!r}; "
                                  f"expected one of {sorted(SEMANTICS)}")
            try:
                prepared = self.engine.prepare(pattern, semantics)
            except NotEffectivelyBounded:
                self.metrics.record_rejected("unbounded")
                raise
            admitted = self._finish_admission(prepared, pattern, semantics,
                                              limit)
            if span is not None:
                span.set(cost=admitted.cost)
            return admitted

    def _finish_admission(self, prepared: PreparedQuery, pattern: Pattern,
                          semantics: str, limit: int | None) -> AdmittedQuery:
        """The cost-budget half of admission, shared with the rescue
        path (which re-prepares under the rescue lock)."""
        cost = prepared.worst_case_total_accessed
        if self.max_cost is not None and cost > self.max_cost:
            self.metrics.record_rejected("over_budget")
            raise AdmissionRejected(
                f"query bound {cost:g} exceeds the admission budget "
                f"{self.max_cost:g} (worst-case data accessed; raise "
                f"--max-cost or tighten the pattern)",
                cost=cost, budget=self.max_cost)
        self.metrics.record_admitted()
        return AdmittedQuery(pattern=pattern, semantics=semantics, cost=cost,
                             prepared=prepared,
                             limit=self.answer_limit if limit is None
                             else limit)

    # -- rescue (online M-bounded extension) ---------------------------------
    @property
    def can_rescue(self) -> bool:
        """True when unbounded rejections go through the rescue pipeline."""
        return self.extend_budget is not None

    def rescue(self, pattern, semantics: str = SUBGRAPH,
               limit: int | None = None) -> AdmittedQuery:
        """Park-and-extend a query that admission rejected as unbounded.

        Blocking — the front-end calls this from the executor, off the
        event loop, while the requester's coroutine stays parked on the
        result. Under the rescue lock: re-check admission (a concurrent
        rescue may already have grown the schema far enough), otherwise
        plan the greedy minimum M-bounded extension under
        ``extend_budget``, build indexes for only the added constraints,
        publish the new catalog generation, and re-admit. Raises
        :class:`~repro.errors.NotEffectivelyBounded` when no extension
        within the budget (or the size cap) bounds the query — then the
        rejection really is final at this schema generation.
        """
        if not self.can_rescue:
            raise ServerError(
                "online schema extension is disabled (start the service "
                "with extend_budget / --extend-budget M)")
        if isinstance(pattern, str):
            pattern = self._parse(pattern)
        if semantics not in SEMANTICS:
            raise ServerError(f"unknown semantics {semantics!r}; "
                              f"expected one of {sorted(SEMANTICS)}")
        failure_key = (pattern_fingerprint(pattern)[0], semantics)
        failed_at = self._rescue_failures.get(failure_key)
        if failed_at is not None \
                and failed_at == self.engine.schema_version:
            # Known unrescuable at this generation: fail fast without
            # re-planning (and without touching the rescue lock).
            self.metrics.record_rescue_failed()
            raise NotEffectivelyBounded(
                f"not effectively bounded, and not rescuable within "
                f"extend-budget {self.extend_budget} (cached verdict at "
                f"schema v{failed_at})")
        with self._rescue_lock, child_span("rescue",
                                           budget=self.extend_budget) as rsp:
            engine = self.engine
            try:
                prepared = engine.prepare(pattern, semantics)
                # A rescue that landed while we waited covers this
                # query: re-admit with nothing new to build. Counted as
                # rescued only once admission (the cost budget) accepts.
                admitted = self._finish_admission(prepared, pattern,
                                                  semantics, limit)
                self.metrics.record_rescued(0)
                if rsp is not None:
                    rsp.set(constraints_added=0, piggybacked=True)
                return admitted
            except NotEffectivelyBounded:
                pass
            try:
                with child_span("plan_extension"):
                    plan = plan_extension(engine, [pattern],
                                          m=self.extend_budget,
                                          semantics=semantics,
                                          max_added=self.extend_max_added)
                with child_span("extend_schema",
                                added=len(plan.added)):
                    report = engine.extend_schema(
                        plan.added,
                        provenance={"origin": "rescue", "m": plan.m,
                                    "query": pattern.name or "query",
                                    "semantics": semantics})
            except ExtensionError as exc:
                self._rescue_failures.put(failure_key,
                                          engine.schema_version)
                self.metrics.record_rescue_failed()
                raise NotEffectivelyBounded(
                    f"not effectively bounded, and not rescuable within "
                    f"extend-budget {self.extend_budget}: {exc}") from exc
            prepared = engine.prepare(pattern, semantics)
            # record_rescued only after the cost-budget half accepts:
            # "rescued" means re-admitted, not merely bounded — an
            # over-budget rescue is an AdmissionRejected, and counting
            # it rescued would fake the bounded_fraction.
            admitted = self._finish_admission(prepared, pattern, semantics,
                                              limit)
            self.metrics.record_rescued(len(report.added))
            if rsp is not None:
                rsp.set(constraints_added=len(report.added),
                        schema_version=engine.schema_version)
            return admitted

    def _parse(self, text: str) -> Pattern:
        pattern = self._parse_cache.get(text)
        if pattern is None:
            pattern = parse_pattern(text)
            self._parse_cache.put(text, pattern)
        return pattern

    # -- execution -----------------------------------------------------------
    def execute_batch(self, requests: list[AdmittedQuery]) -> list:
        """Run one micro-batch on a worker thread.

        The whole batch funnels through ``engine.query_batch``, so
        duplicate patterns (the common case under concurrency) are
        executed once. Returns one response body dict *or* exception per
        request, aligned with the input — a request that fails (e.g. it
        became unbounded after a reload swapped schemas) does not poison
        its batch-mates.
        """
        engine = self._acquire_engine()
        self.metrics.record_batch(len(requests))
        # Tracing crosses the thread boundary explicitly: the first
        # traced request's root span hosts the batch span (and the wave
        # and shard-RPC spans execution emits under it); batch-mates
        # riding the same execution link to it by trace id.
        primary = next((r.span for r in requests if r.span is not None), None)
        try:
            with activate(primary), \
                    child_span("batch", size=len(requests)) as bsp:
                if bsp is not None:
                    for request in requests:
                        if request.span is not None \
                                and request.span.trace is not primary.trace:
                            request.span.set(batched_into=primary.trace_id)
                try:
                    runs = engine.query_batch(
                        [(r.pattern, r.semantics) for r in requests])
                    return [self._serialize_safe(request, run)
                            for request, run in zip(requests, runs)]
                except ReproError:
                    return [self._execute_one(engine, request)
                            for request in requests]
        finally:
            self._release_engine(engine)

    def _acquire_engine(self) -> QueryEngine:
        """The current engine, pinned against close-on-reload until the
        matching :meth:`_release_engine`."""
        with self._engine_lock:
            engine = self._engine
            key = id(engine)
            self._engine_refs[key] = self._engine_refs.get(key, 0) + 1
            return engine

    def _release_engine(self, engine: QueryEngine) -> None:
        to_close = None
        with self._engine_lock:
            key = id(engine)
            remaining = self._engine_refs.get(key, 1) - 1
            if remaining:
                self._engine_refs[key] = remaining
            else:
                self._engine_refs.pop(key, None)
                to_close = self._retired.pop(key, None)
        if to_close is not None:
            to_close.close()

    def _execute_one(self, engine: QueryEngine, request: AdmittedQuery):
        try:
            run = engine.query(request.pattern, request.semantics)
        except ReproError as exc:
            return exc
        return self._serialize_safe(request, run)

    def _serialize_safe(self, request: AdmittedQuery, run):
        """Serialize one answer; any failure stays that one request's
        failure (a bad request must never poison its batch-mates)."""
        try:
            return self._serialize(request, run)
        except Exception as exc:  # noqa: BLE001 — contained per request
            return exc

    def _serialize(self, request: AdmittedQuery, run) -> dict:
        """JSON body for one answered query (the ``id``/``ok`` envelope
        and latency accounting belong to the front-end)."""
        # Bound telemetry: the admitted worst-case bound vs what this
        # execution actually touched — the tightness of the paper's
        # promise, per answered query, tracing on or off.
        self.metrics.record_bound(request.cost, run.stats.total_accessed)
        if request.span is not None:
            request.span.set(bound=request.cost,
                             accessed=run.stats.total_accessed)
        body = {"semantics": request.semantics, "cost": request.cost,
                "accessed": run.stats.total_accessed}
        if request.semantics == SUBGRAPH:
            matches = run.answer
            body["answer_count"] = len(matches)
            body["matches"] = [
                {str(u): v for u, v in sorted(match.items())}
                for match in matches[:max(request.limit, 0)]]
        else:
            pairs = sorted(relation_pairs(run.answer))
            body["answer_count"] = len(pairs)
            body["pairs"] = [list(pair)
                             for pair in pairs[:max(request.limit, 0)]]
        return body

    @staticmethod
    def _capture_remote_config(engine: QueryEngine) -> dict | None:
        """Fleet settings of a remote-backed session, if it is one."""
        from repro.engine.parallel import RemoteShardBackend

        backend = getattr(engine, "_shards", None)
        if not isinstance(backend, RemoteShardBackend):
            return None
        return {"shard_addrs": list(backend.shard_addrs),
                "connect_timeout": backend.connect_timeout,
                "request_timeout": backend.request_timeout,
                "retries": backend.retries,
                "retry_backoff_s": backend.retry_backoff_s,
                "owner_routing": backend.router is not None}

    # -- hot reload ----------------------------------------------------------
    def reload_artifact(self, path, *, validate: bool = False) -> dict:
        """Swap serving onto a newly compiled artifact without dropping
        in-flight requests.

        Loads the artifact (the expensive part happens *before* the
        swap, off the serving path), then atomically replaces the engine
        reference: batches already dispatched finish on the snapshot
        they started on, later admissions and batches use the new one.
        Raises the usual artifact errors
        (:class:`~repro.errors.ArtifactCorrupt`, ...) and leaves the old
        engine serving when the load fails.

        A remote-backed session reloads in two phases: first every shard
        server is told to re-read its shard from disk
        (:meth:`~repro.engine.parallel.RemoteShardBackend.reload_fleet`),
        then the front-end re-opens and re-handshakes against the
        reloaded fleet — the reverse order would fail the checksum
        handshake against still-stale servers.
        """
        from repro.engine.persist import artifact_layout

        sharded = artifact_layout(path) == "sharded"
        if self._remote_config is not None and sharded:
            from repro.engine.parallel import RemoteShardBackend

            current = getattr(self._engine, "_shards", None)
            if isinstance(current, RemoteShardBackend):
                current.reload_fleet()
            engine = QueryEngine.open_path(path, frozen=True,
                                           validate=validate,
                                           backend="remote",
                                           **self._remote_config)
        else:
            # The configured worker-process count applies whenever the
            # target is sharded; a single-layout target opens inline (a
            # reload must stay total across layout transitions) without
            # forgetting the configuration.
            workers = self._exec_workers if sharded else 0
            engine = QueryEngine.open_path(path, frozen=True,
                                           validate=validate,
                                           workers=workers)
        to_close = None
        with self._engine_lock:
            old = self._engine
            self._engine = engine
            if old is not engine:
                if self._engine_refs.get(id(old)):
                    # Batches already dispatched finish on the old
                    # snapshot; its worker pool closes when the last
                    # one drains (see _release_engine).
                    self._retired[id(old)] = old
                else:
                    to_close = old
        if to_close is not None:
            to_close.close()
        # A different artifact is a different graph: cached rescue
        # failures recorded against the old engine's generations would
        # wrongly fast-fail queries the new graph can rescue.
        self._rescue_failures.clear()
        self.metrics.record_reload()
        return {"artifact": str(path), "nodes": engine.graph.num_nodes,
                "edges": engine.graph.num_edges,
                "constraints": len(engine.schema),
                "schema_version": engine.schema_version,
                "cached_plans": len(engine.plan_cache)}

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Release the serving engine's shard worker pool — and any
        pools still held by engines retired through reloads (the CLI
        calls this after a clean shutdown; idempotent)."""
        with self._engine_lock:
            retired = list(self._retired.values())
            self._retired.clear()
        for engine in retired:
            engine.close()
        self.engine.close()

    # -- inspection ----------------------------------------------------------
    def snapshot(self, queue_depth: int = 0) -> dict:
        """The ``metrics`` endpoint payload: live counters + latency
        percentiles + engine/cache context — plus, on a sharded session,
        the backend's scatter accounting, and on a remote fleet the
        per-shard server snapshots gathered over the wire (so one
        ``metrics`` call observes the whole topology)."""
        engine = self.engine
        doc = self.metrics.snapshot()
        doc.update(self._fleet_snapshot(engine))
        if self.tracer is not None:
            doc["tracing"] = self.tracer.snapshot()
        cache = engine.cache_info()
        lookups = cache["hits"] + cache["misses"]
        doc.update({
            "queue_depth": queue_depth,
            "workers": self.workers,
            "max_batch": self.max_batch,
            "batch_window_ms": self.batch_window_ms,
            "max_queue": self.max_queue,
            "max_cost": self.max_cost,
            "extend_budget": self.extend_budget,
            "schema_version": engine.schema_version,
            "plan_cache": {**cache,
                           "hit_rate": (cache["hits"] / lookups)
                           if lookups else 0.0},
            "engine": {"nodes": engine.graph.num_nodes,
                       "edges": engine.graph.num_edges,
                       "constraints": len(engine.schema),
                       "schema_version": engine.schema_version,
                       "frozen": engine.frozen,
                       "sharded": engine.sharded,
                       "exec_workers": engine.exec_workers,
                       "artifact": (str(engine.artifact_path)
                                    if engine.artifact_path else None)},
        })
        return doc

    @staticmethod
    def _fleet_snapshot(engine: QueryEngine) -> dict:
        """Backend scatter accounting, plus per-shard server snapshots
        fanned out over the wire when the backend is remote. A shard
        whose metrics round fails degrades to an error entry — telemetry
        must never take the service down with it."""
        from repro.engine.parallel import RemoteShardBackend, ShardBackend

        backend = getattr(engine, "_shards", None)
        if not isinstance(backend, ShardBackend):
            return {}
        doc: dict = {"backend": {
            "kind": type(backend).__name__,
            "num_shards": backend.num_shards,
            "workers": backend.workers,
            "owner_routing": backend.router is not None,
            "scatter_rounds": backend.scatter_rounds,
            "tasks_scattered": backend.tasks_scattered,
            "scatter_messages": backend.scatter_messages,
            "scatter_messages_broadcast": backend.scatter_messages_broadcast,
            "rounds_overlapped": backend.rounds_overlapped,
            "scatter_dedup_hits": backend.scatter_dedup_hits,
        }}
        if isinstance(backend, RemoteShardBackend):
            doc["backend"]["reconnects"] = backend.reconnects
            wire = backend.wire_stats()
            doc["backend"]["wire"] = {
                "bytes_sent": sum(w["bytes_sent"] for w in wire),
                "bytes_received": sum(w["bytes_received"] for w in wire),
                "encode_ms": round(sum(w["encode_ms"] for w in wire), 3),
                "decode_ms": round(sum(w["decode_ms"] for w in wire), 3),
            }
            doc["backend"]["wire_by_shard"] = wire
            try:
                doc["shards"] = backend.shard_metrics()
            except ReproError as exc:
                doc["shards"] = [{"error": f"{type(exc).__name__}: {exc}"}]
        return doc
