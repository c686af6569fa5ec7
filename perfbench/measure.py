"""One measurement of one workload, in a fresh process.

``run.py`` prepares the inputs and starts this script once per
measurement; it prints one JSON object as its last stdout line. Every
process it starts is stopped before it exits, on every path.

Workloads (inputs from ``inputs.py``; answers checked after each call,
outside the call's timing):

* ``fresh_bindings`` — one in-process closed-loop caller on
  ``repro.connect(single artifact)``; one ``engine.query`` per call, each
  a never-seen stream instance.
* ``serve_hot`` — ``repro serve --workers 2 --max-cost BUDGET`` with two
  client connections over the Zipf-weighted hot pool: a closed-loop
  capacity phase, then an open loop at :data:`OPEN_RATE` requests/s
  with one hot ``reload`` of the same artifact halfway through. With
  ``--inproc`` the same service runs in this process behind
  ``ServerThread`` (the traced run's hosting).
* ``scatter_fleet`` — one caller on ``repro.connect(2-shard artifact,
  backend="remote")`` in front of two ``repro shard-serve`` processes;
  ``query_batch`` calls of :data:`SCATTER_BATCH` stream instances.

A stream workload that uses up its stream before the run ends goes on
with the same instances on a freshly started system, to which they are
unseen again (the restart is outside every call's timing).

Only good calls count towards ``qps``: answered, correct and within
their bound. Every end-to-end latency is divided by the machine-speed
factor of :class:`probe.SpeedProbe`, timed in gaps of the run with the
server processes stopped, and ``qps`` multiplied by it; the unscaled
figures are reported alongside under ``raw``. Set-up time and memory
stay unscaled.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import statistics
import sys
import threading
import time
from pathlib import Path

import numpy

import inputs
import layers
import probe
import procs

#: Set-ups per run, whose median is ``setup_s``: more where one is short
#: and its relative noise large.
SETUP_REPS = {"fresh_bindings": 15, "serve_hot": 7, "scatter_fleet": 5}
#: Latency limit of the ``slo_met`` metric; its name carries the limit.
SLO_MS = 100.0
SLO_METRIC = f"slo_met_{SLO_MS:g}ms"
#: Offered rate of the ``serve_hot`` open loop (requests/s, both
#: connections together): well under the capacity phase's rate on a busy
#: 2-core machine, so the open loop measures latency, not a backlog.
OPEN_RATE = 400.0
#: The open loop's one hot reload starts this share of the way through
#: it. One reload measures the write path and its tail while nearly
#: every request stays a cache hit, as the workload intends.
RELOAD_AT_SHARE = 0.5
#: Requests due this long after the reload starts count as post-reload.
POST_RELOAD_WINDOW_S = 0.5
#: Share of a ``serve_hot`` run spent in the capacity phase.
CAPACITY_SHARE = 0.5
#: Wall-clock block of the capacity phase; ``qps`` is the median of the
#: blocks' rates, and the speed probe runs between blocks.
CAPACITY_BLOCK_S = 0.5
#: Speed-probe chunks between capacity blocks and after the open loop.
PROBE_GAP_CHUNKS = 5
SERVE_CLIENTS = 2
#: Requests per Zipf cycle of one connection: the open loop sends each
#: connection about one cycle, so its request mix is fixed.
QUOTA_CYCLE = 1000
SERVE_WORKERS = 2
SCATTER_BATCH = 4
#: Count metrics (and peak RSS) are taken over a fixed prefix of calls
#: per measured second, so they repeat for one seed and run length:
#: calls (fresh), batches (scatter). ``serve_hot`` counts over its open
#: loop, whose requests are fixed by the seed.
FRESH_PREFIX_PER_S = 200
SCATTER_PREFIX_PER_S = 20
REQUEST_TIMEOUT_S = 20.0


def pct(values, q: float) -> float:
    return float(numpy.percentile(values, q)) if len(values) else 0.0


def mean(values) -> float:
    return float(statistics.fmean(values)) if len(values) else 0.0


class Outcomes:
    """Per-request outcomes of one phase (thread-safe)."""

    def __init__(self):
        self.lock = threading.Lock()
        #: ``(at, latency ms, queries, good)`` per request; ``good`` is
        #: answered, correct and within its bound.
        self.requests: list[tuple[float, float, int, bool]] = []
        self.attempted = 0
        self.errors = 0
        self.wrong = 0
        self.violations = 0
        self.utilization_max = 0.0

    def record(self, latency_ms: float, *, at: float | None = None,
               error: bool = False, correct: bool = True, bounds=(),
               queries: int = 1) -> bool:
        """One call answering ``queries`` queries; ``bounds`` holds the
        ``(accessed, plan bound)`` pair of each answered query; ``at`` is
        when the latency started (default: now). Returns whether the
        call was good."""
        if at is None:
            at = time.perf_counter()
        within = all(accessed <= bound <= inputs.BUDGET
                     for accessed, bound in bounds)
        good = not error and correct and within
        with self.lock:
            self.attempted += queries
            self.requests.append((at, latency_ms, queries, good))
            if error:
                self.errors += queries
                return False
            if not correct:
                self.wrong += queries
            if not within:
                self.violations += queries
            for accessed, bound in bounds:
                if bound > 0:
                    self.utilization_max = max(self.utilization_max,
                                               accessed / bound)
        return good

    def merge(self, other: "Outcomes") -> None:
        """Fold another phase's failure counts into this one."""
        self.attempted += other.attempted
        self.errors += other.errors
        self.wrong += other.wrong
        self.violations += other.violations
        self.utilization_max = max(self.utilization_max,
                                   other.utilization_max)

    @property
    def failed(self) -> int:
        return self.errors + self.wrong + self.violations

    def latencies(self, factor: float = 1.0) -> list[float]:
        """Latencies (ms), divided by a speed factor."""
        return [latency / factor for _, latency, _, _ in self.requests]

    def slo_met(self, factor: float) -> float:
        """Share of queries answered correctly within :data:`SLO_MS`
        (latency divided by ``factor``); failures count as misses."""
        met = sum(queries for _, latency, queries, good in self.requests
                  if good and latency / factor <= SLO_MS)
        total = sum(queries for _, _, queries, _ in self.requests)
        return met / total if total else 0.0


def load_inputs(cache: Path, seed: int):
    items = json.loads((cache / f"instances-{seed}.json")
                       .read_text())["instances"]
    oracle = json.loads((cache / f"oracle-{seed}.json").read_text())
    return items, oracle


def parsed(items):
    from repro.pattern.dsl import parse_pattern
    return [(parse_pattern(item["dsl"]), item["semantics"])
            for item in items]


def in_process_check(run, semantics: str, expected) -> tuple[bool, tuple]:
    """Answer digest against the oracle, plus ``(accessed, bound)``."""
    canon = inputs.canonical(semantics, run.answer)
    correct = inputs.digest(canon) == expected[0] and len(canon) == expected[1]
    return correct, (run.stats.total_accessed,
                     run.plan.worst_case_total_accessed)


def block_rate(events, block_s: float = 1.0) -> float:
    """Median over ``block_s`` wall-clock blocks of queries per busy
    second; ``events`` are ``(started at, queries, busy seconds)`` of
    good calls. The median keeps a short stall of the shared machine out
    of the rate."""
    blocks: dict[int, list] = {}
    for at, queries, busy in events:
        block = blocks.setdefault(int(at / block_s), [0, 0.0])
        block[0] += queries
        block[1] += busy
    keys = sorted(blocks)
    # The last block is partial; keep it only when it is the only one.
    rates = [blocks[k][0] / blocks[k][1] for k in keys[:-1] or keys
             if blocks[k][1] > 0]
    return float(statistics.median(rates)) if rates else 0.0


def timed_setups(start_once, reps: int) -> list:
    """Durations (seconds) of ``reps`` calls of ``start_once``. Set-up
    times stay unscaled: scaling them widened their run-to-run spread
    instead of narrowing it."""
    durations = []
    for _ in range(reps):
        start = time.perf_counter()
        start_once()
        durations.append(time.perf_counter() - start)
    return durations


def stream_loop(args, queries, digests, call, *, batch: int, prefix: int,
                samples, speed: probe.SpeedProbe, restart,
                on_prefix=None):
    """One closed-loop caller over the instance stream, ``batch``
    instances per ``call``, with ``speed`` probing between calls. Runs
    for ``--seconds``, and on past them (up to twice as long) until
    ``prefix`` calls have completed, so the count metrics taken over the
    prefix repeat exactly for one seed. When the stream is used up,
    ``restart()`` starts a fresh system and returns its ``call``, and
    the stream starts over."""
    from repro.errors import ReproError

    out = Outcomes()
    events, accessed = [], []
    calls = first = restarts = 0
    begin = time.perf_counter()
    deadline, hard_deadline = begin + args.seconds, begin + 2 * args.seconds
    while True:
        now = time.perf_counter()
        if now >= hard_deadline or (now >= deadline and calls >= prefix):
            break
        if first + batch > len(queries):
            call = restart()
            restarts += 1
            first = 0
        chunk = queries[first:first + batch]
        spans = layers.CallSpans(samples) if samples is not None \
            else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with spans:
                runs = call(chunk)
        except ReproError:
            elapsed = time.perf_counter() - start
            out.record(elapsed * 1000.0, at=start, error=True,
                       queries=len(chunk))
            runs = None
        else:
            elapsed = time.perf_counter() - start
        calls += 1
        if runs is not None:
            checks = [in_process_check(run, semantics,
                                       digests[first + offset])
                      for offset, (run, (_, semantics))
                      in enumerate(zip(runs, chunk))]
            if out.record(elapsed * 1000.0, at=start,
                          correct=all(correct for correct, _ in checks),
                          bounds=[bounds for _, bounds in checks],
                          queries=len(chunk)):
                events.append((start, len(chunk), elapsed))
            if calls <= prefix:
                accessed.extend(bounds[0] for _, bounds in checks)
            if samples is not None:
                samples.add("call", elapsed * 1000.0)
                for run in runs:
                    samples.add("matching.gq_nodes", run.gq.num_nodes)
        if calls == prefix and on_prefix is not None:
            on_prefix(out.attempted)
        first += batch
        speed.tick()
    return out, {"events": events, "accessed_per_query": mean(accessed),
                 "restarts": restarts}


def finish_stream(out: Outcomes, result: dict,
                  speed: probe.SpeedProbe) -> None:
    """End-to-end figures of a stream workload, scaled and raw."""
    raw_qps = block_rate(result.pop("events"))
    result.update({"qps": raw_qps * speed.factor,
                   "latencies_ms": out.latencies(speed.factor),
                   "slo_met": out.slo_met(speed.factor),
                   "raw_qps": raw_qps,
                   "raw_latencies_ms": out.latencies()})


# ------------------------------------------------------------ fresh_bindings
def fresh_bindings(args, samples, speed: probe.SpeedProbe):
    import repro

    cache = Path(args.cache)
    items, oracle = load_inputs(cache, args.seed)
    queries = parsed(items)
    single = inputs.ensure_artifacts(cache)["single"]
    engines = []

    def start_once():
        if engines:
            engines.pop().close()
        engine = repro.connect(single)
        engines.append(engine)
        if samples is not None:
            layers.time_method(engine, "prepare", samples, "engine.prepare")

    def call(chunk):
        return [engines[0].query(*chunk[0])]

    def restart():
        start_once()
        return call

    setups = timed_setups(start_once, SETUP_REPS["fresh_bindings"])
    marks = {}

    def on_prefix(_done):
        # Taken after the prefix: the unbounded kernel caches grow with
        # every call, so a later reading would track machine speed.
        engine = engines[0]
        marks.update({"rss_mb": procs.vm_hwm_mb(),
                      "kernel_cache_entries": kernel_entries(engine),
                      "plan_cache": engine.cache_info()})

    try:
        out, result = stream_loop(
            args, queries, oracle["digests"], call, batch=1,
            prefix=round(FRESH_PREFIX_PER_S * args.seconds), samples=samples,
            speed=speed, restart=restart, on_prefix=on_prefix)
        if "rss_mb" not in marks:
            on_prefix(None)
    finally:
        if engines:
            engines.pop().close()
    speed.stop()
    finish_stream(out, result, speed)
    result.update(marks)
    result.update({"setup_s": statistics.median(setups),
                   "load_s": statistics.median(setups)})
    return out, result


# ----------------------------------------------------------------- serve_hot
class PoolChecker:
    """Checks served answers against the oracle's full pool answers."""

    def __init__(self, items, oracle):
        self.texts = [item["dsl"] for item in items[:inputs.POOL_SIZE]]
        self.semantics = [item["semantics"]
                          for item in items[:inputs.POOL_SIZE]]
        self.counts = [count for _, count
                       in oracle["digests"][:inputs.POOL_SIZE]]
        self.answers = []
        for semantics, canon in zip(self.semantics, oracle["answers"]):
            if semantics == "subgraph":
                self.answers.append({tuple(map(tuple, match))
                                     for match in canon})
            else:
                self.answers.append({tuple(pair) for pair in canon})
        weights = inputs.zipf_weights()
        total = sum(weights)
        # One cycle holds every pool query in exact Zipf proportion.
        self.cycle = [index for index, weight in enumerate(weights)
                      for _ in range(max(1, round(QUOTA_CYCLE * weight
                                                  / total)))]

    def requests(self, rng: random.Random):
        """Endless pool indexes: Zipf cycles, each shuffled by ``rng``."""
        while True:
            cycle = list(self.cycle)
            rng.shuffle(cycle)
            yield from cycle

    def correct(self, index: int, result) -> bool:
        if result.answer_count != self.counts[index]:
            return False
        full = self.answers[index]
        if self.semantics[index] == "subgraph":
            returned = [tuple(sorted(match.items()))
                        for match in result.matches]
        else:
            returned = [tuple(pair) for pair in result.matches]
        return all(item in full for item in returned)


class Connection:
    """A ``ServeClient`` that reconnects after a failed request."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.client = None

    def call(self, method: str, *args, **kwargs):
        from repro.server import ServeClient

        if self.client is None:
            self.client = ServeClient(self.host, self.port,
                                      timeout=REQUEST_TIMEOUT_S,
                                      connect_timeout=2.0)
        try:
            return getattr(self.client, method)(*args, **kwargs)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None


def serve_request(conn: Connection, pool: PoolChecker, index: int):
    """One query; returns the result, or None when the request failed."""
    try:
        return conn.call("query", pool.texts[index], pool.semantics[index])
    except Exception:  # noqa: BLE001 — any failure is a failed request
        return None


def record_served(out: Outcomes, pool: PoolChecker, index: int, result,
                  latency_ms: float, at: float) -> bool:
    if result is None:
        return out.record(latency_ms, at=at, error=True)
    return out.record(latency_ms, at=at, correct=pool.correct(index, result),
                      bounds=[(result.accessed, result.cost)])


def capacity_phase(host, port, pool, seed, seconds, speed):
    """Closed loop from every client connection, in blocks of
    :data:`CAPACITY_BLOCK_S` with the speed probe between them. Returns
    the outcomes and the rate of each block: its good requests over its
    wall time, every connection being busy all of it."""
    out = Outcomes()
    conns = [Connection(host, port) for _ in range(SERVE_CLIENTS)]
    requests = [pool.requests(random.Random(f"{seed}/capacity/{slot}"))
                for slot in range(SERVE_CLIENTS)]
    rates = []
    try:
        for _ in range(max(1, round(seconds / CAPACITY_BLOCK_S))):
            good = [0] * SERVE_CLIENTS
            begin = time.perf_counter()
            deadline = begin + CAPACITY_BLOCK_S

            def client(slot):
                while time.perf_counter() < deadline:
                    index = next(requests[slot])
                    start = time.perf_counter()
                    result = serve_request(conns[slot], pool, index)
                    latency = (time.perf_counter() - start) * 1000.0
                    good[slot] += record_served(out, pool, index, result,
                                                latency, start)

            run_threads(client, SERVE_CLIENTS)
            rates.append(sum(good) / (time.perf_counter() - begin))
            speed.gap(PROBE_GAP_CHUNKS)
    finally:
        for conn in conns:
            conn.close()
    return out, rates


def open_phase(host, port, pool, seed, seconds, artifact):
    """Open loop at OPEN_RATE; latency runs from each request's due time.
    A reload connection hot-reloads ``artifact`` once, RELOAD_AT_SHARE
    of the way through."""
    out = Outcomes()
    lags: list[float] = []
    accessed: list[int] = []
    reloads: list[tuple[float, float, bool]] = []
    interval = SERVE_CLIENTS / OPEN_RATE
    start = time.perf_counter() + 0.05
    end = start + seconds

    def client(slot):
        requests = pool.requests(random.Random(f"{seed}/open/{slot}"))
        conn = Connection(host, port)
        free_at = start
        try:
            for k in range(int(seconds / interval) + 1):
                due = start + (k + slot / SERVE_CLIENTS) * interval
                if due >= end:
                    break
                index = next(requests)
                now = time.perf_counter()
                if now < due:
                    time.sleep(due - now)
                sent = time.perf_counter()
                result = serve_request(conn, pool, index)
                done = time.perf_counter()
                lags.append((sent - max(due, free_at)) * 1000.0)
                if result is not None:
                    accessed.append(result.accessed)
                free_at = done
                record_served(out, pool, index, result, (done - due) * 1000.0,
                              due)
        finally:
            conn.close()

    def reloader(_slot):
        conn = Connection(host, port)
        try:
            delay = start + RELOAD_AT_SHARE * seconds - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            begun = time.perf_counter()
            try:
                conn.call("reload", artifact)
                ok = True
            except Exception:  # noqa: BLE001 — counted as failed
                ok = False
            reloads.append((begun, time.perf_counter(), ok))
        finally:
            conn.close()

    run_threads(client, SERVE_CLIENTS, extra=reloader)
    return out, {"reloads": reloads, "lag_ms": lags, "accessed": accessed}


def run_threads(target, count, extra=None):
    threads = [threading.Thread(target=target, args=(slot,), daemon=True)
               for slot in range(count)]
    if extra is not None:
        threads.append(threading.Thread(target=extra, args=(count,),
                                        daemon=True))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def ping(host: str, port: int) -> None:
    conn = Connection(host, port)
    try:
        conn.call("ping")
    finally:
        conn.close()


def serve_hot(args, samples, speed: probe.SpeedProbe):
    cache = Path(args.cache)
    pool = PoolChecker(*load_inputs(cache, inputs.POOL_SEED))
    single = inputs.ensure_artifacts(cache)["single"]
    hosts: list = []
    loads: list = []

    def stop_host():
        if hosts:
            host = hosts.pop()
            if isinstance(host, procs.Server):
                host.stop()
            else:
                host[0].stop()
                host[1].close()

    def start_once():
        stop_host()
        if args.inproc:
            handle, service, load_s = start_inproc(single, samples)
            hosts.append((handle, service))
            loads.append(load_s)
            ping(handle.host, handle.port)
        else:
            server = procs.serve(single, cache / "serve.log",
                                 workers=SERVE_WORKERS,
                                 max_cost=inputs.BUDGET)
            hosts.append(server)
            ping(server.host, server.port)

    try:
        setups = timed_setups(start_once, SETUP_REPS["serve_hot"])
        host = hosts[0]
        address = ((host[0].host, host[0].port) if args.inproc
                   else (host.host, host.port))
        capacity_s = args.seconds * CAPACITY_SHARE
        if not args.inproc:
            speed.paused = [host.proc.pid]
        capacity, rates = capacity_phase(*address, pool, args.seed,
                                         capacity_s, speed)
        out, extra = open_phase(*address, pool, args.seed,
                                args.seconds - capacity_s, single)
        speed.gap(PROBE_GAP_CHUNKS)
        rss = procs.vm_hwm_mb() if args.inproc else host.peak_rss_mb()
        if args.inproc:
            service = host[1]
            plan_cache = [engine.cache_info()
                          for engine in getattr(service, "bench_engines",
                                                [service.engine])]
            cache_entries = kernel_entries(service.engine)
    finally:
        stop_host()
    speed.stop()
    reloads = extra["reloads"]
    post = [latency for at, latency, _, _ in out.requests
            if any(begun <= at <= begun + POST_RELOAD_WINDOW_S
                   for begun, _, _ in reloads)]
    raw_qps = float(statistics.median(rates))
    result = {
        "setup_s": statistics.median(setups),
        "qps": raw_qps * speed.factor,
        "raw_qps": raw_qps,
        "block_qps": rates,
        "latencies_ms": out.latencies(speed.factor),
        "raw_latencies_ms": out.latencies(),
        "slo_met": out.slo_met(speed.factor),
        "rss_mb": rss,
        "accessed_per_query": mean(extra["accessed"]),
        "load_s": statistics.median(loads) if loads else 0.0,
        "capacity_latencies_ms": capacity.latencies(),
        "reload_ms": [(end - begun) * 1000.0 for begun, end, _ in reloads],
        "post_reload_ms": post,
        "lag_ms": extra["lag_ms"],
    }
    if args.inproc:
        result.update({"plan_cache": plan_cache,
                       "kernel_cache_entries": cache_entries})
    out.merge(capacity)
    out.attempted += len(reloads)
    out.errors += sum(not ok for _, _, ok in reloads)
    return out, result


def start_inproc(artifact, samples):
    import repro
    from repro.server import QueryService, ServerThread

    start = time.perf_counter()
    engine = repro.connect(artifact)
    load_s = time.perf_counter() - start
    tracer = layers.SpanTotals(samples) if samples is not None else None
    service = QueryService(engine, max_cost=inputs.BUDGET,
                           workers=SERVE_WORKERS, tracer=tracer)
    if samples is not None:
        layers.wrap_service(service, samples)
    handle = ServerThread(service).start()
    return handle, service, load_s


def kernel_entries(engine) -> int:
    from repro.core.kernels import kernel_context

    context = kernel_context(engine.schema_index)
    kernel = context.graph_kernel
    return (len(context.initial_cache) + len(context.fetch_cache)
            + sum(len(getattr(kernel, name, ()))
                  for name in ("_mask_cache", "_adj_cache", "_pred_cache")))


# ------------------------------------------------------------- scatter_fleet
def start_fleet(arts, cache):
    """Two shard servers plus the remote front-end; the front-end's
    connect (artifact load and hello handshake) is timed on its own."""
    import repro

    shards = []
    try:
        for shard in range(inputs.SHARDS):
            shards.append(procs.shard_serve(
                str(Path(arts["sharded"]) / f"shard-{shard:04d}"),
                cache / f"shard-{shard}.log"))
        start = time.perf_counter()
        engine = repro.connect(arts["sharded"], backend="remote",
                               shard_addrs=[s.address for s in shards],
                               request_timeout=REQUEST_TIMEOUT_S,
                               connect_timeout=5.0)
        load_s = time.perf_counter() - start
        getattr(engine, "_shards").ping()
    except BaseException:
        for server in shards:
            server.stop()
        raise
    return shards, engine, load_s


def fleet_counters(backend) -> dict:
    """Cumulative counters of one front-end backend and its shards."""
    wire = backend.wire_stats()
    metrics = backend.shard_metrics()
    return {"rounds": backend.scatter_rounds,
            "messages": backend.scatter_messages,
            "dedup_hits": backend.scatter_dedup_hits,
            "overlapped": backend.rounds_overlapped,
            "bytes": sum(w["bytes_sent"] + w["bytes_received"]
                         for w in wire),
            "encode_ms": sum(w["encode_ms"] for w in wire),
            "busy_s": sum(m["scatter_seconds"] for m in metrics),
            "tasks": sum(m["tasks_handled"] for m in metrics)}


class FleetTotals:
    """Counters summed over every fleet a run starts (a restart after the
    stream is used up starts a new one)."""

    def __init__(self):
        self.closed: dict = {}
        self.backend = None
        self.base: dict = {}

    def open(self, backend) -> None:
        self.backend, self.base = backend, fleet_counters(backend)

    def close(self) -> None:
        self.closed = self.now()
        self.backend = None

    def now(self) -> dict:
        if self.backend is None:
            return dict(self.closed)
        current = fleet_counters(self.backend)
        return {name: self.closed.get(name, 0) + current[name]
                - self.base[name] for name in current}


def scatter_fleet(args, samples, speed: probe.SpeedProbe):
    cache = Path(args.cache)
    items, oracle = load_inputs(cache, args.seed)
    queries = parsed(items)
    arts = inputs.ensure_artifacts(cache)
    fleet: list = []
    loads: list = []
    totals = FleetTotals()

    def stop_fleet():
        if fleet:
            shards, engine = fleet.pop()
            engine.close()
            for server in shards:
                server.stop()

    def start_once():
        stop_fleet()
        shards, engine, load_s = start_fleet(arts, cache)
        fleet.append((shards, engine))
        loads.append(load_s)

    def watch():
        _, engine = fleet[0]
        backend = getattr(engine, "_shards")
        if samples is not None:
            layers.ScatterProbe(backend, samples)
            layers.time_method(engine, "prepare", samples, "engine.prepare")
        totals.open(backend)
        speed.paused = [server.proc.pid for server in fleet[0][0]]

    def restart():
        totals.close()
        start_once()
        watch()
        return fleet[0][1].query_batch

    marks: dict = {}

    def on_prefix(queries_done):
        shards = fleet[0][0]
        marks.update({"prefix": totals.now(), "queries": queries_done,
                      "rss_mb": procs.vm_hwm_mb()
                      + sum(s.peak_rss_mb() for s in shards)})

    try:
        setups = timed_setups(start_once, SETUP_REPS["scatter_fleet"])
        watch()
        out, result = stream_loop(
            args, queries, oracle["digests"], fleet[0][1].query_batch,
            batch=SCATTER_BATCH,
            prefix=round(SCATTER_PREFIX_PER_S * args.seconds),
            samples=samples, speed=speed, restart=restart,
            on_prefix=on_prefix)
        if "prefix" not in marks:
            on_prefix(out.attempted)
        totals.close()
    finally:
        stop_fleet()
    speed.stop()
    finish_stream(out, result, speed)
    end, prefix = totals.closed, marks["prefix"]
    prefix_queries = max(marks["queries"], 1)
    queries_done = max(out.attempted, 1)
    result.update({
        "setup_s": statistics.median(setups),
        "load_s": statistics.median(loads),
        "rss_mb": marks["rss_mb"],
        "per_query": {name: prefix[name] / prefix_queries
                      for name in ("rounds", "messages", "dedup_hits",
                                   "bytes")},
        "overlap_frac": (end["overlapped"] / end["rounds"]
                         if end["rounds"] else 0.0),
        "encode_ms_per_query": end["encode_ms"] / queries_done,
        "shard_busy_ms_per_query": end["busy_s"] * 1000.0 / queries_done,
        "shard_tasks_per_query": end["tasks"] / queries_done,
    })
    return out, result


WORKLOADS = {"fresh_bindings": fresh_bindings, "serve_hot": serve_hot,
             "scatter_fleet": scatter_fleet}


def summarize(args, out: Outcomes, result: dict, samples,
              speed: probe.SpeedProbe) -> dict:
    latencies = result["latencies_ms"]
    raw = result["raw_latencies_ms"]
    doc = {
        "workload": args.workload,
        "traced": samples is not None,
        "attempted": out.attempted,
        "failed": out.failed,
        "errors": out.errors,
        "wrong": out.wrong,
        "violations": out.violations,
        "samples": len(latencies),
        "metrics": {
            "setup_s": result["setup_s"],
            "qps": result["qps"],
            "p50_ms": pct(latencies, 50),
            "p99_ms": pct(latencies, 99),
            SLO_METRIC: result["slo_met"],
            "peak_rss_mb": result["rss_mb"],
            "accessed_per_query": result["accessed_per_query"],
        },
        "raw": {"qps": result["raw_qps"], "p50_ms": pct(raw, 50),
                "p99_ms": pct(raw, 99)},
        "speed_factor": speed.factor,
        "bracket_speed_factor": speed.bracket_factor,
        "probe_gaps": len(speed.gaps),
        "threads_max": speed.threads,
        "slo_met": result["slo_met"],
        "bound_utilization_max": out.utilization_max,
    }
    if "restarts" in result:
        doc["stream_restarts"] = result["restarts"]
    if args.workload == "serve_hot":
        doc["reload_ms"] = result["reload_ms"]
        doc["capacity_block_qps"] = result["block_qps"]
        doc["post_reload_p99_ms"] = pct(result["post_reload_ms"], 99)
        doc["lag_p99_ms"] = pct(result["lag_ms"], 99)
    if samples is not None:
        doc["layers"] = layer_metrics(args, out, result, samples)
    return doc


def layer_metrics(args, out: Outcomes, result: dict, samples) -> dict:
    """The per-layer metrics of one traced measurement (unscaled)."""
    get = samples.get
    layer = {name: 0.0 for name in (
        "server.reload_ms", "server.post_reload_p99_ms",
        "engine.memo_hit_rate", "server.admit_ms",
        "server.execute_batch_ms", "server.frontend_ms",
        "server.batch_size_mean", "loadgen.lag_p99_ms",
        "parallel.rounds_per_query", "parallel.messages_per_query",
        "parallel.dedup_hits_per_query", "parallel.overlap_frac",
        "parallel.submit_ms_per_query", "parallel.round_wait_ms",
        "protocol.bytes_per_query", "protocol.encode_ms_per_query",
        "shardserver.busy_ms_per_query", "shardserver.tasks_per_query",
        "core.kernel_cache_entries", "engine.plan_cache_hit_rate")}
    executes = get("span.execute")
    layer.update({
        "persist.load_s": result["load_s"],
        "engine.prepare_ms": pct(get("engine.prepare"), 50),
        "core.execute_p50_ms": pct(executes, 50),
        "core.execute_p99_ms": pct(executes, 99),
        "core.bound_utilization_max": out.utilization_max,
        "matching.match_p50_ms": pct(get("span.match"), 50),
        "matching.match_p99_ms": pct(get("span.match"), 99),
        "matching.gq_nodes_mean": mean(get("matching.gq_nodes")),
    })
    covered = (samples.total("engine.prepare") + sum(executes)
               + samples.total("span.match"))
    if args.workload == "fresh_bindings":
        info = result["plan_cache"]
        lookups = info["hits"] + info["misses"]
        layer["engine.plan_cache_hit_rate"] = (info["hits"] / lookups
                                               if lookups else 0.0)
        layer["core.kernel_cache_entries"] = result["kernel_cache_entries"]
        layer["unattributed_frac"] = 1.0 - covered / samples.total("call")
    elif args.workload == "serve_hot":
        infos = result["plan_cache"]
        hits = sum(info["hits"] for info in infos)
        lookups = hits + sum(info["misses"] for info in infos)
        requests = len(get("server.admit"))
        batches = get("server.batch_size")
        # A request waits for its whole batch: weight by batch size.
        batch_per_request = (sum(ms * size for ms, size
                                 in zip(get("server.execute_batch"),
                                        batches))
                             / max(sum(batches), 1))
        admit = mean(get("server.admit"))
        queue = samples.total("span.queue_wait") / max(requests, 1)
        rtt = mean(result["capacity_latencies_ms"])
        layer.update({
            "engine.plan_cache_hit_rate": hits / lookups if lookups else 0.0,
            "core.kernel_cache_entries": result["kernel_cache_entries"],
            "server.reload_ms": pct(get("server.reload"), 50),
            "server.post_reload_p99_ms": pct(result["post_reload_ms"], 99),
            "engine.memo_hit_rate": 1.0 - len(executes) / max(requests, 1),
            "server.admit_ms": admit,
            "server.execute_batch_ms": batch_per_request,
            "server.frontend_ms": rtt - admit - batch_per_request,
            "server.batch_size_mean": mean(batches),
            "loadgen.lag_p99_ms": pct(result["lag_ms"], 99),
            "unattributed_frac": (1.0 - (admit + queue + batch_per_request)
                                  / rtt) if rtt else 0.0,
        })
    else:
        per_query = result["per_query"]
        layer.update({
            "parallel.rounds_per_query": per_query["rounds"],
            "parallel.messages_per_query": per_query["messages"],
            "parallel.dedup_hits_per_query": per_query["dedup_hits"],
            "parallel.overlap_frac": result["overlap_frac"],
            "parallel.submit_ms_per_query":
                samples.total("parallel.submit") / max(out.attempted, 1),
            "parallel.round_wait_ms": mean(get("parallel.round_wait")),
            "protocol.bytes_per_query": per_query["bytes"],
            "protocol.encode_ms_per_query": result["encode_ms_per_query"],
            "shardserver.busy_ms_per_query":
                result["shard_busy_ms_per_query"],
            "shardserver.tasks_per_query": result["shard_tasks_per_query"],
            "unattributed_frac": 1.0 - covered / samples.total("call"),
        })
    return layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--inproc", action="store_true",
                        help="serve_hot: host the service in this process")
    args = parser.parse_args(argv)
    samples = layers.Samples() if args.traced else None
    speed = probe.SpeedProbe()
    out, result = WORKLOADS[args.workload](args, samples, speed)
    print(json.dumps(summarize(args, out, result, samples, speed)),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
