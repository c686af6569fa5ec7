"""The one front door of the library: ``repro.connect``.

Three historical entry points grew up independently —
``QueryEngine.open`` (an in-memory graph + schema),
``QueryEngine.open_path`` (a compiled artifact), and
``QueryEngine.from_shards`` (a pre-built shard backend) — each with its
own drifting keyword surface. :func:`connect` collapses them behind one
``(source, config)`` signature:

>>> import repro
>>> engine = repro.connect("artifacts/imdb")                  # artifact
>>> engine = repro.connect((graph, schema))                   # in-memory
>>> engine = repro.connect("artifacts/imdb", workers=4)       # worker pool
>>> engine = repro.connect(
...     "artifacts/imdb", backend="remote",
...     shard_addrs=["10.0.0.1:8650", "10.0.0.2:8650"])       # shard fleet

All session options live on one frozen :class:`SessionConfig`; keyword
arguments to :func:`connect` are shorthand for overriding its fields, so
``connect(p, workers=4)`` and ``connect(p, config=SessionConfig(
workers=4))`` are the same call. A config is a value — build one per
deployment and reuse it across reconnects.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Sequence

from repro.errors import EngineError


@dataclasses.dataclass(frozen=True)
class SessionConfig:
    """Every knob of a :func:`connect` call, as one immutable value.

    Fields group by which sources consult them; irrelevant fields are
    ignored (an in-memory open never looks at ``workers``), except where
    the combination is contradictory enough to reject — those rules live
    with the loader (:func:`repro.engine.persist.load_engine`).

    All sources: ``frozen``, ``validate``, ``cache_size``,
    ``plan_cache``, ``executor``.

    Artifacts: ``allow_stale``, ``strategy`` (``auto``/``sequential``/
    ``scatter``), ``workers`` + ``mp_context`` (process pool), and
    ``backend`` (``auto``/``inline``/``process``/``remote``) with the
    remote-fleet settings — ``shard_addrs`` (one ``host:port`` per
    shard, in shard order), the two timeouts, bounded retry
    (``retries``/``retry_backoff_s``) and ``owner_routing``.
    """

    frozen: bool = True
    validate: bool = False
    cache_size: int = 128
    plan_cache: object | None = None
    executor: str = "auto"
    # -- artifact sources ---------------------------------------------------
    allow_stale: bool = False
    strategy: str = "auto"
    workers: int = 0
    mp_context: object | None = None
    # -- shard fleet --------------------------------------------------------
    backend: str = "auto"
    shard_addrs: Sequence[str] = ()
    connect_timeout: float = 5.0
    request_timeout: float = 30.0
    retries: int = 2
    retry_backoff_s: float = 0.1
    owner_routing: bool = True
    #: Scatter driver: True (default) runs the pipelined per-shard-
    #: progress executor; False forces the lock-step wave barrier (the
    #: reference mode the skewed-fleet benchmark compares against).
    scatter_pipeline: bool = True

    def replace(self, **overrides) -> "SessionConfig":
        """A copy with ``overrides`` applied; unknown names raise
        :class:`~repro.errors.EngineError` (the typo guard for
        :func:`connect`'s keyword shorthand)."""
        bad = set(overrides) - {f.name for f in dataclasses.fields(self)}
        if bad:
            raise EngineError(
                f"unknown session option(s) {sorted(bad)}; see "
                f"repro.SessionConfig for the full surface")
        return dataclasses.replace(self, **overrides)


def connect(source, *, config: SessionConfig | None = None, **overrides):
    """Open a query-serving session over ``source``.

    ``source`` selects the session kind:

    * ``str`` / ``Path`` — a compiled artifact directory
      (``repro compile``). Single-layout artifacts warm-start an
      ordinary session; sharded artifacts open under
      ``config.strategy``/``config.backend`` — in this process, over a
      worker pool (``workers=N``), or against a running shard-server
      fleet (``backend="remote"``, ``shard_addrs=[...]``).
    * ``(graph, schema)`` — an in-memory graph under an access schema;
      snapshot + index are built on the spot.
    * ``(backend, schema, graph_summary)`` — a pre-built
      :class:`~repro.engine.parallel.ShardBackend`; assembles the
      scatter-gather session around it (the expert/testing form).

    Options come from ``config`` (a :class:`SessionConfig`), with
    keyword ``overrides`` applied on top. Returns a
    :class:`~repro.engine.QueryEngine`; close it (or use it as a
    context manager) to release pools and fleet connections.
    """
    from repro.engine.engine import QueryEngine

    cfg = (config or SessionConfig()).replace(**overrides)
    if isinstance(source, (str, Path)):
        from repro.engine import persist

        return persist.load_engine(
            source, frozen=cfg.frozen, validate=cfg.validate,
            cache_size=cfg.cache_size, allow_stale=cfg.allow_stale,
            workers=cfg.workers, mp_context=cfg.mp_context,
            strategy=cfg.strategy, executor=cfg.executor,
            backend=cfg.backend, shard_addrs=cfg.shard_addrs,
            connect_timeout=cfg.connect_timeout,
            request_timeout=cfg.request_timeout, retries=cfg.retries,
            retry_backoff_s=cfg.retry_backoff_s,
            owner_routing=cfg.owner_routing,
            scatter_pipeline=cfg.scatter_pipeline)
    if isinstance(source, tuple) and len(source) == 2:
        graph, schema = source
        if cfg.backend not in ("auto", "inline") or cfg.shard_addrs:
            raise EngineError(
                "an in-memory (graph, schema) source has no shards; "
                "backend/shard_addrs apply to sharded artifacts")
        return QueryEngine(graph, schema, frozen=cfg.frozen,
                           validate=cfg.validate, cache_size=cfg.cache_size,
                           plan_cache=cfg.plan_cache, executor=cfg.executor)
    if isinstance(source, tuple) and len(source) == 3:
        backend, schema, graph_summary = source
        return QueryEngine._assemble_from_shards(
            backend, schema, graph_summary, plan_cache=cfg.plan_cache,
            cache_size=cfg.cache_size,
            scatter_pipeline=cfg.scatter_pipeline)
    raise EngineError(
        f"cannot connect to {type(source).__name__!r}: expected an "
        f"artifact path, a (graph, schema) pair, or a "
        f"(backend, schema, graph_summary) triple")


__all__ = ["SessionConfig", "connect"]
