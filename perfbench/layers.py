"""Per-layer timing for the traced run, installed from outside ``src/``.

Two sources, both read-only with respect to answers:

* wrappers installed on *instances* around the layers' public entry
  points (engine ``prepare`` and ``query_batch``, ``QueryService.admit``
  / ``execute_batch`` / ``reload_artifact``,
  ``RemoteShardBackend.scatter_submit``);
* the spans ``repro.obs`` already emits (``plan_cache_lookup``,
  ``compile``, ``execute``, ``match``, ``queue_wait``, ``wave``,
  ``shard_rpc``), collected per call from a root span the benchmark
  activates, or per request by a :class:`SpanTotals` recorder handed to
  the query service.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

from repro.obs.trace import Trace, TraceRecorder, activate


class Samples:
    """Thread-safe named lists of durations (ms) and counts."""

    def __init__(self):
        self._lock = threading.Lock()
        self.values: dict[str, list] = defaultdict(list)

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.values[name].append(value)

    def get(self, name: str) -> list:
        with self._lock:
            return list(self.values.get(name, ()))

    def total(self, name: str) -> float:
        return sum(self.get(name))


def time_method(obj, name: str, samples: Samples, key: str, after=None):
    """Replace ``obj.name`` by a wrapper that records its duration (ms)
    under ``key``; ``after(result, args)`` sees each successful result."""
    original = getattr(obj, name)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            result = original(*args, **kwargs)
        finally:
            samples.add(key, (time.perf_counter() - start) * 1000.0)
        if after is not None:
            after(result, args)
        return result

    setattr(obj, name, timed)


def wrap_engine(engine, samples: Samples) -> None:
    """Time ``prepare`` and record ``G_Q`` sizes of ``query_batch`` runs."""
    time_method(engine, "prepare", samples, "engine.prepare")

    def gq_sizes(runs, _args):
        for run in runs:
            samples.add("matching.gq_nodes", run.gq.num_nodes)

    time_method(engine, "query_batch", samples, "engine.query_batch",
                after=gq_sizes)


class CallSpans:
    """Roots one trace per benchmark call and sums its spans by name."""

    def __init__(self, samples: Samples):
        self.samples = samples
        self._root = None
        self._active = None

    def __enter__(self):
        self._root = Trace(None).span("bench.call")
        self._active = activate(self._root)
        self._active.__enter__()
        return self._root

    def __exit__(self, *exc_info) -> None:
        self._active.__exit__(*exc_info)
        self._root.end()
        add_spans(self._root.trace, self.samples)


def add_spans(trace, samples: Samples) -> None:
    """Per-span durations (ms) of one finished trace, by span name."""
    for span in trace.spans:
        samples.add(f"span.{span.name}", span.duration_ms)


class SpanTotals(TraceRecorder):
    """A trace recorder that keeps every finished request's span
    durations instead of a bounded window of traces."""

    def __init__(self, samples: Samples):
        super().__init__(max_traces=1)
        self.samples = samples

    def finish(self, trace) -> None:
        add_spans(trace, self.samples)
        super().finish(trace)


def wrap_service(service, samples: Samples) -> None:
    """Time admission, batch execution and reload; re-wrap the engine a
    reload swaps in, so every engine's ``prepare`` is seen."""
    wrap_engine(service.engine, samples)
    engines = [service.engine]
    time_method(service, "admit", samples, "server.admit")

    def batch_size(_result, args):
        samples.add("server.batch_size", len(args[0]))

    time_method(service, "execute_batch", samples, "server.execute_batch",
                after=batch_size)

    def rewrap(_result, _args):
        wrap_engine(service.engine, samples)
        engines.append(service.engine)

    time_method(service, "reload_artifact", samples, "server.reload",
                after=rewrap)
    service.bench_engines = engines


class ScatterProbe:
    """Wraps ``scatter_submit`` on one backend: time spent submitting a
    round, and time from submit to the round's last task callback."""

    def __init__(self, backend, samples: Samples):
        self.samples = samples
        original = backend.scatter_submit

        def scatter_submit(tasks, shard_sets=None, on_task=None):
            start = time.perf_counter()
            left = [len(tasks)]
            lock = threading.Lock()

            def on_done(i, outcome):
                on_task(i, outcome)
                with lock:
                    left[0] -= 1
                    last = left[0] == 0
                if last:
                    samples.add("parallel.round_wait",
                                (time.perf_counter() - start) * 1000.0)

            try:
                return original(tasks, shard_sets, on_done)
            finally:
                samples.add("parallel.submit",
                            (time.perf_counter() - start) * 1000.0)

        backend.scatter_submit = scatter_submit
