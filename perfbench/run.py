"""The repository benchmark: one workload, one seed, one result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload fresh_bindings --seed 1 \\
        --seconds 10 --trace 0

Workloads: ``fresh_bindings``, ``serve_hot``, ``scatter_fleet`` (see
``measure.py`` and ``BENCHMARK.json``). Inputs are prepared by
``inputs.py`` in a child process, outside timing, and cached per code
version and seed. The measurement runs in another fresh child process:

* ``--trace 0`` measures the end-to-end metrics for ``--seconds``;
* ``--trace 1`` runs the workload twice for half as long each, untraced
  and then traced (``serve_hot`` hosts its service in-process both
  times), and reports the per-layer metrics of the traced half plus
  ``obs.tracing_overhead``, the untraced over the traced ``qps``.

Human-readable lines (every metric with its unit, the error and SLO-miss
rates, and a record tagged with machine and code) come first; the last
stdout line is the JSON result ``{"correct", "attempted", "failed",
"metrics"}``. The program exits non-zero without a result when the
checkout has no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

import procs
from inputs import BENCH_DIR, ROOT

#: Stream prefix each workload uses: the in-process workload runs 300 to
#: 600 fresh calls/s on a 2-vCPU machine, the fleet about 25 batches of
#: 4/s. A run that uses its stream up goes on with the same instances on
#: a freshly started system (``measure.stream_loop``), so faster code
#: never ends a run early; the result records the restarts. The hot pool
#: comes from its own fixed stream (see inputs.POOL_SEED).
STREAM_COUNT = {"fresh_bindings": 8000, "serve_hot": 0,
                "scatter_fleet": 2400}
PREPARE_TIMEOUT_S = 800
MEASURE_TIMEOUT_S = 100


def run_child(argv: list[str], timeout: float) -> str:
    """Run a Python child in its own process group; the whole group is
    killed if it outlives ``timeout`` or this process is interrupted."""
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT,
                            env=procs.child_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        # Grandchildren (servers) never outlive their measurement.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited with {proc.returncode}")
    return stdout


def measure(args, cache: str, seconds: float, *, traced: bool,
            inproc: bool) -> dict:
    argv = [str(BENCH_DIR / "measure.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(seconds),
            "--cache", cache]
    if traced:
        argv.append("--traced")
    if inproc:
        argv.append("--inproc")
    return json.loads(run_child(argv, MEASURE_TIMEOUT_S).splitlines()[-1])


def machine_tags(args, code_key: str) -> dict:
    import numpy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha,
            "code_key": code_key, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=STREAM_COUNT)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; nothing to measure",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    prepare = [str(BENCH_DIR / "inputs.py"), "--seed", str(args.seed),
               "--count", str(STREAM_COUNT[args.workload])]
    if args.workload == "serve_hot":
        prepare.append("--pool")
    prepared = run_child(prepare, PREPARE_TIMEOUT_S)
    cache = prepared.splitlines()[-1]
    inproc = args.workload == "serve_hot" and bool(args.trace)
    if args.trace:
        runs = [measure(args, cache, args.seconds / 2, traced=False,
                        inproc=inproc),
                measure(args, cache, args.seconds / 2, traced=True,
                        inproc=inproc)]
        untraced_qps = runs[0]["metrics"]["qps"]
        traced_qps = runs[1]["metrics"]["qps"]
        values = dict(runs[1]["layers"])
        values["obs.tracing_overhead"] = (untraced_qps / traced_qps
                                          if traced_qps else 0.0)
        # Too unsteady between runs on a shared machine to gate on, the
        # tail latency is reported here, from the untraced half.
        values["p99_ms"] = runs[0]["metrics"]["p99_ms"]
        # The speed probe's independence check (see probe.py).
        values["probe.gap_over_bracket"] = (runs[0]["speed_factor"]
                                            / runs[0]["bracket_speed_factor"])
        declared = spec["per_layer"]
    else:
        runs = [measure(args, cache, args.seconds, traced=False,
                        inproc=False)]
        values = runs[0]["metrics"]
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}")
    for run in runs:
        label = "traced" if run["traced"] else "untraced"
        print(f"{args.workload} {label}: attempted={run['attempted']} "
              f"failed={run['failed']} (errors={run['errors']} "
              f"wrong={run['wrong']} bound_violations={run['violations']}) "
              f"error_rate={run['failed'] / max(run['attempted'], 1):.6g} "
              f"slo_miss_rate={1 - run['slo_met']:.6g} "
              f"p99_ms={run['metrics']['p99_ms']:.6g} "
              f"samples={run['samples']} "
              f"stream_restarts={run.get('stream_restarts', 0)} "
              f"speed_factor={run['speed_factor']:.3f} "
              f"bracket_speed_factor={run['bracket_speed_factor']:.3f} "
              f"probe_gaps={run['probe_gaps']} threads={run['threads_max']} "
              "raw: "
              + " ".join(f"{k}={v:.6g}" for k, v in run["raw"].items()))
    record = {"tags": machine_tags(args, Path(cache).name),
              "metrics": metrics,
              "runs": [{k: v for k, v in run.items() if k != "layers"}
                       for run in runs]}
    print("record " + json.dumps(record))
    with open(Path(cache).parent / "records.jsonl", "a",
              encoding="utf-8") as log:
        log.write(json.dumps(record) + "\n")
    # A failed request of any kind (error, refusal, timeout, wrong answer,
    # bound violation) makes the run incorrect.
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
