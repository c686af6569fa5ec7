"""Command-line interface.

Subcommands::

    repro check    --pattern q.pat --schema a.json [--semantics simulation]
    repro plan     --pattern q.pat --schema a.json [--semantics simulation]
    repro run      --graph g.tsv --pattern q.pat --schema a.json
    repro run      --artifact art/ --pattern q.pat      # warm start
    repro compile  --graph g.tsv --schema a.json --out art/ [--pattern q.pat]
    repro compile  --dataset imdb --scale 0.05 --out art/
    repro compile  --inspect art/                       # artifact metadata
    repro extend   --artifact art/ --pattern q.pat [--workload w.txt]
                   [--extend-budget M] [--max-added K] [--out art2/]
    repro generate --dataset imdb --scale 0.05 --out prefix
    repro serve    --artifact art/ [--port 8642] [--workers 4]
                   [--max-cost 50000] [--extend-budget M]
                   [--shard-addrs host:8650,host:8651]   # remote fleet
                   [--metrics-port 9642] [--trace]
                   [--slow-query-ms 50] [--log-format json]
    repro shard-serve --artifact art/shard-0000 [--port 8650]
                   [--log-format json]
    repro metrics  [host:8642] [--json]                  # live snapshot
    repro bench    --experiment exp1 [--experiment ...] [--dataset imdb]
                   [--scale 0.05] [--artifact art/]

Patterns use the text DSL of :mod:`repro.pattern.dsl`; schemas are the
JSON documents of :meth:`repro.constraints.schema.AccessSchema.save`;
graphs are the TSV/JSON formats of :mod:`repro.graph.io`; artifacts are
the compiled snapshot directories of :mod:`repro.engine.persist`.
``--experiment`` may repeat: one process then serves every experiment
from one memoized dataset build (what the CI smoke run does).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import __version__, connect
from repro.constraints.schema import AccessSchema
from repro.core.actualized import SEMANTICS, SUBGRAPH
from repro.core.ebchk import is_effectively_bounded
from repro.core.qplan import generate_plan
from repro.engine import QueryEngine
from repro.errors import NotEffectivelyBounded, ReproError
from repro.graph import io as graph_io
from repro.matching.simulation import relation_pairs
from repro.pattern.dsl import parse_pattern


def _load_pattern(path: str):
    text = Path(path).read_text(encoding="utf-8")
    return parse_pattern(text, name=Path(path).stem)


def _load_graph(path: str):
    if path.endswith(".json"):
        return graph_io.read_json(path)
    return graph_io.read_tsv(path)


def _cmd_check(args) -> int:
    pattern = _load_pattern(args.pattern)
    schema = AccessSchema.load(args.schema)
    result = is_effectively_bounded(pattern, schema, args.semantics)
    print(result.explain())
    return 0 if result.bounded else 1


def _cmd_plan(args) -> int:
    pattern = _load_pattern(args.pattern)
    schema = AccessSchema.load(args.schema)
    try:
        plan = generate_plan(pattern, schema, args.semantics)
    except NotEffectivelyBounded as exc:
        print(f"not effectively bounded: {exc}", file=sys.stderr)
        return 1
    print(plan.describe())
    return 0


def _cmd_run(args) -> int:
    pattern = _load_pattern(args.pattern)
    if args.artifact:
        engine = connect(args.artifact, validate=args.validate)
    elif args.graph and args.schema:
        schema = AccessSchema.load(args.schema)
        graph = _load_graph(args.graph)
        engine = connect((graph, schema), validate=args.validate)
    else:
        print("run requires either --artifact or both --graph and --schema",
              file=sys.stderr)
        return 2
    graph = engine.graph
    try:
        run = engine.query(pattern, args.semantics)
    except NotEffectivelyBounded as exc:
        print(f"not effectively bounded: {exc}", file=sys.stderr)
        return 1
    if args.semantics == SUBGRAPH:
        print(f"matches: {len(run.answer)}")
        for match in run.answer[: args.limit]:
            print("  " + ", ".join(f"u{u}->{v}"
                                   for u, v in sorted(match.items())))
    else:
        pairs = relation_pairs(run.answer)
        print(f"match relation pairs: {len(pairs)}")
        for u, v in sorted(pairs)[: args.limit]:
            print(f"  u{u} -> {v}")
    stats = run.stats.as_dict()
    print(f"accessed: {stats['total_accessed']} items of |G| = {graph.size} "
          f"({stats['index_fetches']} index fetches)")
    return 0


def _cmd_compile(args) -> int:
    from repro.engine import inspect_artifact, render_inspection

    if args.inspect:
        print(render_inspection(inspect_artifact(args.inspect)))
        return 0
    if not args.out:
        print("compile requires --out (or --inspect ARTIFACT)",
              file=sys.stderr)
        return 2
    if args.graph and args.schema:
        schema = AccessSchema.load(args.schema)
        graph = _load_graph(args.graph)
    elif args.dataset:
        from repro.bench.datasets import get_dataset
        graph, schema = get_dataset(args.dataset, args.scale, seed=args.seed)
    else:
        print("compile requires either --graph and --schema, or --dataset",
              file=sys.stderr)
        return 2
    engine = QueryEngine.open(graph, schema, validate=args.validate)
    compiled = 0
    for pattern_path in args.pattern or ():
        pattern = _load_pattern(pattern_path)
        try:
            engine.prepare(pattern, args.semantics)
            compiled += 1
        except NotEffectivelyBounded as exc:
            # Cached as a negative verdict in the artifact; still useful.
            print(f"note: {pattern_path} is not effectively bounded ({exc})",
                  file=sys.stderr)
    manifest = engine.save(args.out, shards=args.shards)
    if args.shards:
        total_bytes = sum(meta["bytes"] for meta in manifest["files"].values())
        total_bytes += sum(meta["bytes"] for meta in manifest["shards"])
        partition = manifest["partition"]
        print(f"compiled sharded artifact {args.out}: "
              f"{manifest['graph']['nodes']} nodes, "
              f"{manifest['graph']['edges']} edges across "
              f"{partition['num_shards']} shards "
              f"({partition['cross_edges']} cross-shard edges), "
              f"{manifest['plans']['entries']} cached plans "
              f"({compiled} compiled now), {total_bytes} bytes")
    else:
        total_bytes = sum(meta["bytes"] for meta in manifest["files"].values())
        print(f"compiled artifact {args.out}: "
              f"{manifest['graph']['nodes']} nodes, "
              f"{manifest['graph']['edges']} edges, "
              f"{len(manifest['index'])} constraint indexes, "
              f"{manifest['plans']['entries']} cached plans "
              f"({compiled} compiled now), {total_bytes} bytes")
    return 0


def _cmd_extend(args) -> int:
    """Extend an artifact's access schema so a workload becomes bounded
    (Section V online: plan the greedy minimum M-bounded extension,
    build indexes for only the added constraints, save a new schema
    generation)."""
    from repro.engine import persist, plan_extension

    queries = [_load_pattern(path) for path in args.pattern or ()]
    if args.workload:
        for i, line in enumerate(
                Path(args.workload).read_text(encoding="utf-8").splitlines()):
            line = line.strip()
            if line and not line.startswith("#"):
                queries.append(parse_pattern(line, name=f"w{i}"))
    if not queries:
        print("extend requires at least one --pattern file or --workload",
              file=sys.stderr)
        return 2
    layout = persist.artifact_layout(args.artifact)
    found = persist.inspect_artifact(args.artifact)["format_version"]
    if found != persist.FORMAT_VERSION:
        # The v2 -> v3 migration path: old artifacts serve read-only; an
        # on-disk extension would silently invent a catalog history for
        # them, so it requires an explicit re-compile first.
        print(f"error: artifact at {args.artifact} has format version "
              f"{found} and opens read-only; re-compile it to version "
              f"{persist.FORMAT_VERSION} (repro compile) before extending",
              file=sys.stderr)
        return 1
    out = args.out or args.artifact
    # Extension rewrites per-shard indexes, so a sharded artifact must
    # open as a real shard session, not the merged sequential view.
    engine = QueryEngine.open_path(
        args.artifact,
        strategy="scatter" if layout == "sharded" else "auto")
    try:
        before_version = engine.schema_version
        before_cells = None if engine.sharded \
            else engine.schema_index.total_size
        plan = plan_extension(engine, queries, m=args.extend_budget,
                              semantics=args.semantics,
                              max_added=args.max_added)
        if plan.empty:
            print(f"workload already effectively bounded at schema "
                  f"v{before_version} (M={plan.m}); nothing to extend")
            if Path(out).resolve() != Path(args.artifact).resolve():
                # --out is a promise: the follow-up artifact must exist
                # even when no constraints were needed.
                if layout == "sharded":
                    persist.save_extended_sharded(engine, args.artifact, out)
                else:
                    engine.save(out)
                print(f"copied unchanged artifact to {out}")
            return 0
        report = engine.extend_schema(
            plan.added,
            provenance={"origin": "extend-cli", "m": plan.m,
                        "queries": len(queries),
                        "semantics": args.semantics})
        if layout == "sharded":
            persist.save_extended_sharded(engine, args.artifact, out)
        else:
            engine.save(out)
        print(f"extended {args.artifact} -> {out}: schema "
              f"v{before_version} -> v{report.version} (M={plan.m})")
        for constraint in report.added:
            print(f"  + {constraint}")
        delta = f"+{report.added_cells} cells"
        if before_cells is not None:
            delta += (f" ({before_cells} -> "
                      f"{before_cells + report.added_cells})")
        print(f"index-size delta: {delta} across {report.built} new "
              f"indexes, built in {report.build_seconds * 1000:.1f} ms")
        return 0
    finally:
        engine.close()


def _parse_shard_addrs(values) -> list[str]:
    """Flatten repeated/comma-separated ``--shard-addrs`` values."""
    addrs = []
    for value in values or ():
        addrs.extend(part.strip() for part in value.split(",")
                     if part.strip())
    return addrs


def _parse_addr(value: str) -> tuple[str, int]:
    """``host:port`` / bare port / bare host -> ``(host, port)``."""
    from repro.server import protocol

    if ":" in value:
        host, _, port = value.rpartition(":")
        return host or "127.0.0.1", int(port)
    if value.isdigit():
        return "127.0.0.1", int(value)
    return value, protocol.DEFAULT_PORT


def _cmd_metrics(args) -> int:
    """One ``metrics`` round-trip against a running ``repro serve``,
    rendered as an aligned table (or raw JSON with ``--json``)."""
    import json

    from repro.obs.report import render_metrics_table
    from repro.server.client import ServeClient

    host, port = _parse_addr(args.addr)
    with ServeClient(host, port,
                     connect_timeout=args.connect_timeout) as client:
        snapshot = client.metrics()
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(f"metrics for {host}:{port}")
        print(render_metrics_table(snapshot))
    return 0


def _cmd_shard_serve(args) -> int:
    from repro.server import shardserver

    argv = ["--artifact", args.artifact, "--host", args.host,
            "--log-format", args.log_format]
    if args.delay_ms:
        argv += ["--delay-ms", str(args.delay_ms)]
    if args.delay_jitter_ms:
        argv += ["--delay-jitter-ms", str(args.delay_jitter_ms)]
    if args.task_cost_ms:
        argv += ["--task-cost-ms", str(args.task_cost_ms)]
    if args.shard_id is not None:
        argv += ["--shard-id", str(args.shard_id)]
    if args.port is not None:
        argv += ["--port", str(args.port)]
    else:
        # One conventional port per shard so N servers on one host never
        # need explicit --port flags.
        _, shard_id = shardserver.resolve_shard_artifact(args.artifact,
                                                         args.shard_id)
        from repro.server import protocol
        argv += ["--port", str(protocol.DEFAULT_SHARD_PORT + shard_id)]
    return shardserver.main(argv)


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.obs import TraceRecorder, setup_logging
    from repro.server import QueryServer, QueryService

    setup_logging(args.log_format)
    shard_addrs = _parse_shard_addrs(args.shard_addrs)
    if args.artifact:
        engine = connect(args.artifact, validate=args.validate,
                         workers=args.exec_workers,
                         backend="remote" if shard_addrs else "auto",
                         shard_addrs=shard_addrs)
    elif args.exec_workers or shard_addrs:
        flag = "--exec-workers" if args.exec_workers else "--shard-addrs"
        print(f"{flag} requires --artifact pointing at a sharded "
              f"artifact (repro compile --shards N)", file=sys.stderr)
        return 2
    elif args.graph and args.schema:
        schema = AccessSchema.load(args.schema)
        engine = connect((_load_graph(args.graph), schema),
                         validate=args.validate)
    elif args.dataset:
        from repro.bench.datasets import get_dataset
        graph, schema = get_dataset(args.dataset, args.scale, seed=args.seed)
        engine = connect((graph, schema), validate=args.validate)
    else:
        print("serve requires --artifact, --graph and --schema, or "
              "--dataset", file=sys.stderr)
        return 2
    tracer = None
    if args.trace or args.slow_query_ms is not None:
        tracer = TraceRecorder(slow_ms=args.slow_query_ms)
    service = QueryService(engine, max_cost=args.max_cost,
                           workers=args.workers, max_batch=args.max_batch,
                           batch_window_ms=args.batch_window_ms,
                           max_queue=args.max_queue,
                           extend_budget=args.extend_budget,
                           extend_max_added=args.extend_max_added,
                           tracer=tracer)

    async def _serve() -> None:
        server = QueryServer(service, host=args.host, port=args.port)
        await server.start()
        metrics_http = None
        if args.metrics_port is not None:
            from repro.obs import MetricsHTTPServer
            metrics_http = MetricsHTTPServer(
                lambda: service.snapshot(queue_depth=server.queue_depth),
                host=args.host, port=args.metrics_port,
                recorder=tracer).start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_shutdown)
            except NotImplementedError:  # non-unix event loops
                pass
        budget = "unlimited" if args.max_cost is None \
            else f"{args.max_cost:g}"
        extend = "off" if args.extend_budget is None \
            else f"M={args.extend_budget}"
        scrape = "" if metrics_http is None \
            else f", metrics=http://{args.host}:{metrics_http.port}/metrics"
        print(f"serving on {server.host}:{server.port} "
              f"(workers={service.workers}, "
              f"exec-workers={engine.exec_workers}, max-cost={budget}, "
              f"extend={extend}, trace={'on' if tracer else 'off'}, "
              f"schema=v{engine.schema_version}, "
              f"graph={engine.graph.num_nodes} nodes "
              f"{engine.graph.num_edges} edges{scrape})", flush=True)
        try:
            await server.serve_until_shutdown()
        finally:
            if metrics_http is not None:
                metrics_http.stop()

    try:
        asyncio.run(_serve())
    finally:
        service.close()
    snapshot = service.metrics.snapshot()
    print(f"shutdown complete: answered={snapshot['answered']} "
          f"rejected={sum(snapshot['rejected'].values())} "
          f"rescued={snapshot['rescued']} "
          f"errors={snapshot['errors']} "
          f"bounded-fraction={snapshot['bounded_fraction']:.3f}")
    return 0


def _cmd_generate(args) -> int:
    from repro.bench.datasets import GENERATORS
    try:
        generator = GENERATORS[args.dataset]
    except KeyError:
        print(f"unknown dataset {args.dataset!r}; expected one of "
              f"{sorted(GENERATORS)}", file=sys.stderr)
        return 2
    graph, schema = generator(scale=args.scale, seed=args.seed)
    graph_path = f"{args.out}.graph.tsv"
    schema_path = f"{args.out}.schema.json"
    graph_io.write_tsv(graph, graph_path)
    schema.save(schema_path)
    print(f"wrote {graph_path} ({graph.num_nodes} nodes, "
          f"{graph.num_edges} edges)")
    print(f"wrote {schema_path} ({len(schema)} constraints)")
    return 0


def _cmd_profile(args) -> int:
    from repro.graph.stats import profile
    print(profile(_load_graph(args.graph)))
    return 0


def _cmd_bench(args) -> int:
    from repro.bench import (
        engine_throughput,
        exp1_percentages,
        exp3_algorithm_times,
        extension_rescue,
        fig5_index_size,
        fig5_varying_a,
        fig5_varying_g,
        fig5_varying_q,
        fig6_instance_bounded,
        obs_overhead,
        remote_fleet,
        render_table,
        serve_load,
        shard_scaling,
        warm_start,
    )
    per_dataset = {
        "fig5-varying-g": fig5_varying_g,
        "fig5-varying-q": fig5_varying_q,
        "fig5-varying-a": fig5_varying_a,
        "fig5-index-size": fig5_index_size,
        "fig6-instance": fig6_instance_bounded,
        "extension-rescue": extension_rescue,
        "remote-fleet": remote_fleet,
    }
    #: Experiments that can serve from a compiled artifact (--artifact).
    artifact_aware = {
        "engine-throughput": engine_throughput,
        "warm-start": warm_start,
        "serve-load": serve_load,
        "shard-scaling": shard_scaling,
        "obs-overhead": obs_overhead,
    }
    experiments = args.experiment
    known = {"exp1", "exp3", *per_dataset, *artifact_aware}
    for name in experiments:
        if name not in known:
            print(f"unknown experiment {name!r}", file=sys.stderr)
            return 2
    # One process, one memoized dataset build: every experiment in the
    # list shares the repro.bench.datasets caches (the CI smoke path).
    for name in experiments:
        if name == "exp1":
            rows = exp1_percentages(scale=args.scale)
        elif name == "exp3":
            rows = exp3_algorithm_times(scale=args.scale)
        elif name in artifact_aware:
            rows = artifact_aware[name](args.dataset, scale=args.scale,
                                        artifact=args.artifact)
        else:
            rows = per_dataset[name](args.dataset, scale=args.scale)
        print(render_table(rows, title=f"{name} "
                                       f"(dataset={args.dataset}, "
                                       f"scale={args.scale})"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bounded evaluation of graph pattern queries "
                    "(Cao, Fan, Huai, Huang; ICDE 2015)")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_semantics(p):
        p.add_argument("--semantics", choices=SEMANTICS, default=SUBGRAPH)

    p_check = sub.add_parser("check", help="decide effective boundedness")
    p_check.add_argument("--pattern", required=True)
    p_check.add_argument("--schema", required=True)
    add_semantics(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_plan = sub.add_parser("plan", help="generate a query plan")
    p_plan.add_argument("--pattern", required=True)
    p_plan.add_argument("--schema", required=True)
    add_semantics(p_plan)
    p_plan.set_defaults(func=_cmd_plan)

    p_run = sub.add_parser("run", help="evaluate a query with bounded access")
    p_run.add_argument("--graph")
    p_run.add_argument("--pattern", required=True)
    p_run.add_argument("--schema")
    p_run.add_argument("--artifact",
                       help="warm-start from a compiled artifact directory "
                            "instead of --graph/--schema")
    p_run.add_argument("--limit", type=int, default=10,
                       help="max matches to print")
    p_run.add_argument("--validate", action="store_true",
                       help="verify G |= A before running")
    add_semantics(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_compile = sub.add_parser(
        "compile", help="build a graph+schema into a persistent artifact")
    p_compile.add_argument("--graph", help="graph file (TSV/JSON)")
    p_compile.add_argument("--schema", help="schema JSON")
    p_compile.add_argument("--dataset",
                           help="generate this dataset stand-in instead of "
                                "reading --graph/--schema")
    p_compile.add_argument("--scale", type=float, default=0.05)
    p_compile.add_argument("--seed", type=int, default=0)
    p_compile.add_argument("--out", help="artifact output directory")
    p_compile.add_argument("--pattern", action="append",
                           help="pattern file to pre-compile into the "
                                "artifact's plan cache (repeatable)")
    p_compile.add_argument("--shards", type=int, default=0,
                           help="write a sharded artifact with this many "
                                "halo shards (serve it with "
                                "`repro serve --exec-workers N`)")
    p_compile.add_argument("--validate", action="store_true",
                           help="verify G |= A before saving")
    p_compile.add_argument("--inspect", metavar="ARTIFACT",
                           help="print metadata of an existing artifact "
                                "and exit (format version, graph stats, "
                                "index sizes, cached plans, checksums)")
    add_semantics(p_compile)
    p_compile.set_defaults(func=_cmd_compile)

    p_extend = sub.add_parser(
        "extend", help="extend an artifact's access schema so a workload "
                       "becomes bounded (M-bounded extension, Section V)")
    p_extend.add_argument("--artifact", required=True,
                          help="compiled artifact directory (single or "
                               "sharded) to extend")
    p_extend.add_argument("--pattern", action="append",
                          help="pattern file the extension must make "
                               "bounded (repeatable)")
    p_extend.add_argument("--workload",
                          help="text file with one DSL pattern per line "
                               "(blank lines and # comments skipped)")
    p_extend.add_argument("--extend-budget", type=int, default=None,
                          help="the extension bound M (default: the "
                               "smallest M that works, via find_min_m)")
    p_extend.add_argument("--max-added", type=int, default=None,
                          help="fail if the extension needs more than "
                               "this many new constraints")
    p_extend.add_argument("--out",
                          help="write the extended artifact here "
                               "(default: extend in place)")
    add_semantics(p_extend)
    p_extend.set_defaults(func=_cmd_extend)

    p_serve = sub.add_parser(
        "serve", help="serve pattern queries concurrently over TCP")
    p_serve.add_argument("--artifact",
                         help="warm-start the serving engine from a "
                              "compiled artifact directory (the intended "
                              "deployment path)")
    p_serve.add_argument("--graph", help="graph file (TSV/JSON)")
    p_serve.add_argument("--schema", help="schema JSON")
    p_serve.add_argument("--dataset",
                         help="serve a generated dataset stand-in instead")
    p_serve.add_argument("--scale", type=float, default=0.05)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642,
                         help="TCP port (0 binds an ephemeral port, "
                              "printed on startup)")
    p_serve.add_argument("--workers", type=int, default=4,
                         help="worker threads executing query batches")
    p_serve.add_argument("--exec-workers", type=int, default=0,
                         help="worker *processes* executing shard fetches "
                              "(requires a sharded --artifact; 0 runs "
                              "shards, if any, in-process)")
    p_serve.add_argument("--max-cost", type=float, default=None,
                         help="admission budget: reject queries whose "
                              "worst-case access bound exceeds this "
                              "(default: admit any bounded query)")
    p_serve.add_argument("--max-batch", type=int, default=32,
                         help="max requests funnelled into one "
                              "query_batch call")
    p_serve.add_argument("--batch-window-ms", type=float, default=0.0,
                         help="extra wait for stragglers once the queue "
                              "is drained (0 = adaptive batching only)")
    p_serve.add_argument("--max-queue", type=int, default=256,
                         help="queued-request bound before load shedding")
    p_serve.add_argument("--extend-budget", type=int, default=None,
                         help="rescue unbounded queries by extending the "
                              "schema online with constraints bounded by "
                              "M (default: rescue disabled)")
    p_serve.add_argument("--extend-max-added", type=int, default=None,
                         help="max constraints one rescue may add")
    p_serve.add_argument("--validate", action="store_true",
                         help="verify G |= A before serving")
    p_serve.add_argument("--shard-addrs", action="append", default=[],
                         help="host:port of a running `repro shard-serve` "
                              "per shard, in shard order (repeatable, or "
                              "one comma-separated list); serves scatter "
                              "waves from the fleet instead of local "
                              "shards (requires a sharded --artifact)")
    p_serve.add_argument("--metrics-port", type=int, default=None,
                         help="expose a Prometheus scrape endpoint on "
                              "this HTTP port (0 binds an ephemeral one; "
                              "GET /metrics, plus /slow with --trace)")
    p_serve.add_argument("--trace", action="store_true",
                         help="record one span tree per request "
                              "(admission -> queue -> batch -> waves -> "
                              "per-shard RPCs); answers are unaffected")
    p_serve.add_argument("--slow-query-ms", type=float, default=None,
                         help="log traced requests slower than this to "
                              "the repro.slowquery logger (implies "
                              "--trace)")
    p_serve.add_argument("--log-format", choices=("text", "json"),
                         default="text",
                         help="structured stderr logging; json emits one "
                              "object per line with trace_id stamped")
    p_serve.set_defaults(func=_cmd_serve)

    p_shard = sub.add_parser(
        "shard-serve",
        help="serve one shard of a sharded artifact over TCP")
    p_shard.add_argument("--artifact", required=True,
                         help="per-shard directory (<artifact>/shard-NNNN)")
    p_shard.add_argument("--shard-id", type=int, default=None,
                         help="shard id (inferred from --artifact when it "
                              "names a shard-NNNN directory)")
    p_shard.add_argument("--host", default="127.0.0.1")
    p_shard.add_argument("--port", type=int, default=None,
                         help="TCP port (default: 8650 + shard id)")
    p_shard.add_argument("--log-format", choices=("text", "json"),
                         default="text",
                         help="structured stderr logging for the shard "
                              "server")
    p_shard.add_argument("--delay-ms", type=float, default=0.0,
                         help="inject this scatter-response latency "
                              "(fault injection for pipelining tests and "
                              "the skewed-fleet benchmark; answers are "
                              "unaffected)")
    p_shard.add_argument("--delay-jitter-ms", type=float, default=0.0,
                         help="add up to this much uniform jitter on top "
                              "of --delay-ms")
    p_shard.add_argument("--task-cost-ms", type=float, default=0.0,
                         help="inject this serial compute cost per "
                              "scatter work unit (combos for fetch/edge "
                              "tasks, 1 per probe)")
    p_shard.set_defaults(func=_cmd_shard_serve)

    p_metrics = sub.add_parser(
        "metrics",
        help="fetch and pretty-print a running server's metrics snapshot")
    p_metrics.add_argument("addr", nargs="?", default="127.0.0.1:8642",
                           help="host:port of the front-end server "
                                "(default 127.0.0.1:8642)")
    p_metrics.add_argument("--json", action="store_true",
                           help="print the raw snapshot JSON instead of "
                                "the table")
    p_metrics.add_argument("--connect-timeout", type=float, default=5.0)
    p_metrics.set_defaults(func=_cmd_metrics)

    p_gen = sub.add_parser("generate", help="emit a synthetic dataset")
    p_gen.add_argument("--dataset", required=True)
    p_gen.add_argument("--scale", type=float, default=0.05)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output path prefix")
    p_gen.set_defaults(func=_cmd_generate)

    p_profile = sub.add_parser(
        "profile", help="profile a graph (constraint-discovery statistics)")
    p_profile.add_argument("--graph", required=True)
    p_profile.set_defaults(func=_cmd_profile)

    p_bench = sub.add_parser("bench", help="run paper experiments")
    p_bench.add_argument("--experiment", required=True, action="append",
                         help="exp1 | exp3 | fig5-varying-g | fig5-varying-q"
                              " | fig5-varying-a | fig5-index-size"
                              " | fig6-instance | engine-throughput"
                              " | warm-start | serve-load | shard-scaling"
                              " | remote-fleet | extension-rescue"
                              " | obs-overhead; "
                              "repeatable — experiments in one invocation "
                              "share one dataset build")
    p_bench.add_argument("--dataset", default="imdb")
    p_bench.add_argument("--scale", type=float, default=0.05)
    p_bench.add_argument("--artifact",
                         help="compiled artifact for artifact-aware "
                              "experiments (engine-throughput, warm-start, "
                              "serve-load)")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
