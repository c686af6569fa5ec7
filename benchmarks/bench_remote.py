"""Remote shard fleet: owner routing vs broadcast, on a skewed cover.

The claims the remote backend (:mod:`repro.server.shardserver` +
``RemoteShardBackend``) makes:

* **Correctness is unconditional** — the TCP fleet reproduces the
  inline scatter backend's answers exactly (canonical form), under both
  semantics, with routing on or off. ``answers_identical`` must be True
  in every row, on any machine.
* **Owner routing cuts wire traffic** — on a label-partitioned cover
  (each label's nodes owned by one shard) routed scatter must send at
  most half the messages broadcast would, i.e. ``scatter_reduction =
  broadcast_messages / routed_messages >= 2.0`` with 4 shards. This is
  a message-count ratio, not a wall-clock one, so it is deterministic
  on any machine and is what ``benchmarks/check_regression.py`` gates
  on (absolute qps over loopback says little about a real network).
* **The binary wire format closes the byte gap** — owner-routed scatter
  in packed-binary frames must move at least 5x fewer bytes than
  broadcast JSON-lines did for the identical workload
  (``wire_bytes_reduction = broadcast_json_bytes / routed_binary_bytes
  >= 5.0``). The JSON-lines scatter codec is gone, so
  ``broadcast_json_bytes`` is the exact count recorded for this
  workload in ``repro.bench.harness.BROADCAST_JSON_BYTES`` (scales 0.05
  and 0.08); at any other scale the metric is skipped. Routed bytes
  come from the backend's per-shard wire counters, so this ratio too is
  deterministic.

Results are emitted as a text table and as one JSON line (prefixed
``REMOTE_JSON``) and written to ``.benchmarks/remote.json``; CI's
``bench-regression`` job checks the recorded metrics against
``benchmarks/baselines.json``.

Run directly (no pytest needed)::

    PYTHONPATH=src:. python benchmarks/bench_remote.py

or through pytest-benchmark like the other benches::

    PYTHONPATH=src python -m pytest benchmarks/bench_remote.py -s
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench import remote_fleet, remote_skewed, render_table

#: Fleet + workload shape.
SHARDS = 4
DISTINCT = 8
BATCHES = 5

#: Skewed-fleet leg: queries per semantics and the injected scatter
#: latency on shard 0.
SKEWED_DISTINCT = 32
SKEWED_DELAY_MS = 40.0

#: On a label-partitioned cover with 4 shards, owner routing must cut
#: scatter messages at least in half vs broadcast. (The theoretical
#: ceiling for single-owner tasks is SHARDS x.)
MIN_SCATTER_REDUCTION = 2.0

#: Owner-routed binary scatter vs broadcast JSON-lines: bytes on the
#: wire must drop at least 5x (routing contributes up to SHARDS x,
#: width-adaptive packing the rest). Gated only at a scale with a
#: recorded broadcast-JSON reference.
MIN_WIRE_BYTES_REDUCTION = 5.0

#: On the 4-shard skewed cover (one shard with injected latency) the
#: pipelined scatter driver must finish the workload at least twice as
#: fast as the lock-step wave barrier: executions pay the slow shard's
#: latency only for their own rounds there, not for every wave any
#: query in the batch needed.
MIN_PIPELINED_SPEEDUP = 2.0

RESULTS_PATH = Path(__file__).resolve().parent.parent / ".benchmarks" \
    / "remote.json"
SKEWED_RESULTS_PATH = RESULTS_PATH.with_name("remote_skewed.json")


def run(scale: float) -> list[dict]:
    rows = remote_fleet(dataset="imdb", scale=scale, shards=SHARDS,
                        distinct=DISTINCT, batches=BATCHES)
    payload = {"dataset": "imdb", "scale": scale, "shards": SHARDS,
               "distinct": DISTINCT, "batches": BATCHES, "rows": rows}
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                            encoding="utf-8")
    print("REMOTE_JSON " + json.dumps(payload))
    return rows


def run_skewed(scale: float) -> list[dict]:
    rows = remote_skewed(dataset="imdb", scale=scale, shards=SHARDS,
                         distinct=SKEWED_DISTINCT,
                         delay_ms=SKEWED_DELAY_MS)
    payload = {"dataset": "imdb", "scale": scale, "shards": SHARDS,
               "distinct": SKEWED_DISTINCT, "delay_ms": SKEWED_DELAY_MS,
               "rows": rows}
    SKEWED_RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    SKEWED_RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                                   encoding="utf-8")
    print("REMOTE_SKEWED_JSON " + json.dumps(payload))
    return rows


def check(rows: list[dict]) -> None:
    """The remote-backend claims, as assertions."""
    by_mode = {row["mode"]: row for row in rows}
    assert {"inline", "remote_routed", "remote_broadcast"} \
        <= by_mode.keys(), f"missing modes: {sorted(by_mode)}"
    # Q(G_Q) = Q(G) survives the wire: every mode must reproduce the
    # inline answers exactly, on any machine.
    for row in rows:
        assert row["answers_identical"], \
            f"answers diverged in mode={row['mode']}"
    routed = by_mode["remote_routed"]
    reduction = routed["scatter_reduction"]
    assert reduction is not None and reduction >= MIN_SCATTER_REDUCTION, \
        (f"owner routing must cut scatter messages >="
         f"{MIN_SCATTER_REDUCTION}x vs broadcast on a label-partitioned "
         f"{SHARDS}-shard cover (got {reduction})")
    # Broadcast mode really broadcasts: actual == would-be-broadcast.
    broadcast = by_mode["remote_broadcast"]
    assert broadcast["scatter_messages"] == \
        broadcast["scatter_messages_broadcast"], \
        "owner_routing=False must send every task to every shard"
    bytes_reduction = routed.get("wire_bytes_reduction")
    if bytes_reduction is None:
        print("wire_bytes_reduction: skipped (no broadcast-JSON reference "
              "recorded at this scale)")
        return
    assert bytes_reduction >= MIN_WIRE_BYTES_REDUCTION, \
        (f"routed-binary scatter must move >={MIN_WIRE_BYTES_REDUCTION}x "
         f"fewer bytes than broadcast JSON (got {bytes_reduction})")


def check_skewed(rows: list[dict]) -> None:
    """The pipelined-scatter claims, as assertions."""
    by_mode = {row["mode"]: row for row in rows}
    assert {"inline", "remote_barrier", "remote_pipelined"} \
        <= by_mode.keys(), f"missing modes: {sorted(by_mode)}"
    for row in rows:
        assert row["answers_identical"], \
            f"answers diverged in mode={row['mode']}"
    pipelined = by_mode["remote_pipelined"]
    speedup = pipelined.get("pipelined_speedup")
    assert speedup is not None and speedup >= MIN_PIPELINED_SPEEDUP, \
        (f"pipelined scatter must beat the wave barrier >="
         f"{MIN_PIPELINED_SPEEDUP}x on the {SHARDS}-shard skewed cover "
         f"(got {speedup})")
    # The overlap is real, not incidental: rounds were submitted with
    # earlier ones still in flight, several requests rode one
    # connection, and cross-execution dedup fired.
    assert pipelined["rounds_overlapped"] > 0
    assert pipelined["inflight_peak"] >= 2
    assert pipelined["slow_shard_depth_peak"] >= 2
    assert pipelined["scatter_dedup_hits"] > 0
    # Barrier mode is the reference semantics: nothing overlaps there.
    assert by_mode["remote_barrier"]["rounds_overlapped"] == 0


def test_remote_fleet(benchmark, bench_scale):
    rows = benchmark.pedantic(run, args=(bench_scale,),
                              rounds=1, iterations=1)
    from benchmarks.conftest import emit
    emit(render_table(rows, title=f"Remote fleet (imdb, "
                                  f"scale={bench_scale}, "
                                  f"shards={SHARDS})"))
    check(rows)


def test_remote_skewed(benchmark, bench_scale):
    rows = benchmark.pedantic(run_skewed, args=(bench_scale,),
                              rounds=1, iterations=1)
    from benchmarks.conftest import emit
    emit(render_table(rows, title=f"Remote skewed fleet (imdb, "
                                  f"scale={bench_scale}, shards={SHARDS}, "
                                  f"delay={SKEWED_DELAY_MS}ms)"))
    check_skewed(rows)


def main() -> None:
    import os

    rows = run(scale=0.05)
    print(render_table(rows, title=f"Remote fleet (imdb, scale=0.05, "
                                   f"shards={SHARDS})"))
    skewed_rows = run_skewed(scale=0.05)
    print(render_table(skewed_rows,
                       title=f"Remote skewed fleet (imdb, scale=0.05, "
                             f"shards={SHARDS}, "
                             f"delay={SKEWED_DELAY_MS}ms)"))
    # CI sets REPRO_BENCH_SKIP_CHECK=1: there the single gate is
    # benchmarks/check_regression.py, which the 'perf-regression-ok'
    # label can skip (the JSON is still emitted and uploaded either way).
    if os.environ.get("REPRO_BENCH_SKIP_CHECK"):
        print("skipping in-script checks (REPRO_BENCH_SKIP_CHECK set)")
        return
    check(rows)
    check_skewed(skewed_rows)


if __name__ == "__main__":
    main()
