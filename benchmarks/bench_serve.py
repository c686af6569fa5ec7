"""Serve load: concurrent query service vs single-threaded prepared serving.

The claim the serving subsystem (:mod:`repro.server`) makes: putting the
asyncio front-end + worker pool + micro-batching in front of one frozen
engine must *add* throughput under concurrent clients, not just
overhead — and admission control must reject over-budget queries with
the typed :class:`~repro.errors.AdmissionRejected` (never silently
executing them unbounded).

The speedup is gated on the median of
``repro.bench.harness.SERVE_LOAD_ROUNDS`` (5) prepared/concurrent pairs,
alternating which side runs first; the per-pair spread is reported next
to it (``speedup_min`` / ``speedup_max``).

Results are emitted as a text table and as one JSON line (prefixed
``SERVE_JSON``) and written to ``.benchmarks/serve.json``; CI's
``bench-regression`` job checks the recorded metrics against
``benchmarks/baselines.json``.

Run directly (no pytest needed)::

    PYTHONPATH=src:. python benchmarks/bench_serve.py

or through pytest-benchmark like the other benches::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py -s
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench import render_table, serve_load

#: Workload shape: 8 distinct bounded patterns, 8 concurrent clients
#: sending 50 requests each (+1 over-budget probe per client).
DISTINCT = 8
CLIENTS = 8
REQUESTS_PER_CLIENT = 50

#: The acceptance floor at the reference scale: the concurrent server
#: must at least match the single-threaded prepared path.
MIN_SPEEDUP = 1.0

#: Below this dataset scale per-query execution is too cheap for the
#: comparison to be meaningful (protocol overhead dominates).
REFERENCE_SCALE = 0.05

RESULTS_PATH = Path(__file__).resolve().parent.parent / ".benchmarks" \
    / "serve.json"


def run(scale: float) -> list[dict]:
    rows = serve_load(dataset="imdb", scale=scale, distinct=DISTINCT,
                      clients=CLIENTS,
                      requests_per_client=REQUESTS_PER_CLIENT)
    payload = {"dataset": "imdb", "scale": scale, "distinct": DISTINCT,
               "clients": CLIENTS,
               "requests_per_client": REQUESTS_PER_CLIENT, "rows": rows}
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                            encoding="utf-8")
    print("SERVE_JSON " + json.dumps(payload))
    return rows


def check(rows: list[dict], scale: float) -> None:
    """The serving claims this subsystem makes, as assertions."""
    by_mode = {row["mode"]: row for row in rows}
    serve = by_mode["serve_concurrent"]
    # Over-budget queries are rejected with a typed error — one probe per
    # client was sent, and every one must have been refused.
    assert serve["rejected_over_budget"] >= CLIENTS, \
        "every over-budget probe must be rejected, never executed"
    assert serve["rejection_error"] == "AdmissionRejected", \
        f"rejections must surface as AdmissionRejected, " \
        f"got {serve['rejection_error']!r}"
    print(f"speedup_vs_prepared: median {serve['speedup_vs_prepared']:.3f}x "
          f"over {serve['rounds']} pairs (min {serve['speedup_min']:.3f}x, "
          f"max {serve['speedup_max']:.3f}x)")
    if scale >= REFERENCE_SCALE:
        assert serve["speedup_vs_prepared"] >= MIN_SPEEDUP, \
            (f"concurrent server must be >={MIN_SPEEDUP}x the "
             f"single-threaded prepared path at scale {scale} "
             f"(median {serve['speedup_vs_prepared']:.2f}x over "
             f"{serve['rounds']} pairs, spread "
             f"{serve['speedup_min']:.2f}-{serve['speedup_max']:.2f}x)")


def test_serve_load(benchmark, bench_scale):
    rows = benchmark.pedantic(run, args=(bench_scale,),
                              rounds=1, iterations=1)
    from benchmarks.conftest import emit
    emit(render_table(rows, title=f"Serve load (imdb, "
                                  f"scale={bench_scale})"))
    check(rows, bench_scale)


def main() -> None:
    import os

    rows = run(scale=REFERENCE_SCALE)
    print(render_table(rows, title=f"Serve load (imdb, "
                                   f"scale={REFERENCE_SCALE})"))
    # CI sets REPRO_BENCH_SKIP_CHECK=1: there the single gate is
    # benchmarks/check_regression.py, which the 'perf-regression-ok'
    # label can skip (the JSON is still emitted and uploaded either way).
    if os.environ.get("REPRO_BENCH_SKIP_CHECK"):
        print("skipping in-script checks (REPRO_BENCH_SKIP_CHECK set)")
        return
    check(rows, REFERENCE_SCALE)


if __name__ == "__main__":
    main()
