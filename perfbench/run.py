"""Benchmark of gbcal: study replicates, the nested sampler and calibration.

One run of a workload is a closed loop with one caller and no worker pool,
split over PARTS fresh processes that run one after another.  Each process
imports gbcal, builds its inputs, warms up and then runs its share of the
timed loop; set-up time is the median over the processes, and the timed
loops are pooled.  On every workload but study_exact, times are scaled to
a reference machine by the speed of a fixed kernel timed between ops
(reference.py).  With --trace 1 the layers of gbcal are wrapped and the run reports per-layer
metrics instead of end-to-end ones.

    python3 perfbench/run.py --workload nested_2d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                      # every workload once
    python3 perfbench/run.py --repeat 10          # spread over 10 seeds

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ["study_exact", "study_simulate", "nested_2d", "calibrate_mixture"]
PARTS = 3
DEADLINE_S = 170.0
# one BLAS thread: the loop has one caller, and on a shared 2-vCPU machine
# a second BLAS thread only adds scheduling noise
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _run_part(workload, seed, seconds, trace, start, run_checks, deadline):
    env = dict(os.environ, **CHILD_ENV)
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace), "--start", str(start), "--t0-ns", str(t0),
           "--run-checks", str(int(run_checks)), "--scratch", str(OUT)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload}: worker passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: worker printed no result")
    return json.loads(lines[-1])


def _quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_workload(workload, seed, seconds, trace):
    """Run one workload over PARTS processes; returns (result, info lines)."""
    from spans import layer_metrics

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    parts = []
    start = 0
    for i in range(PARTS):
        part = _run_part(workload, seed, seconds / PARTS, trace, start,
                         i == PARTS - 1, deadline)
        start += len(part["latencies_s"])
        parts.append(part)
    lat = [x for p in parts for x in p["latencies_s"]]
    attempted = len(lat)
    failed = sum(p["failed"] for p in parts)
    loop_s = sum(p["loop_s"] for p in parts)
    errors = [e for p in parts for e in p["errors"] + p["run_errors"]]
    if trace:
        totals = {}
        for p in parts:
            for key, rec in p["layers"].items():
                acc = totals.setdefault(key, [0, 0.0, 0.0])
                for j in range(3):
                    acc[j] += rec[j]
        rates = [r for p in parts for r in p["accept_rates"]]
        metrics = layer_metrics(totals, attempted, rates)
    else:
        metrics = {
            "ops_per_s": ((attempted - failed) / loop_s, "1/s"),
            "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "cpu_ms_per_op": (sum(p["cpu_s"] for p in parts) / attempted * 1e3, "ms"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in parts), "MB"),
            "setup_s": (statistics.median(p["setup_s"] for p in parts), "s"),
        }
    info = [f"{workload}: {attempted} ops in {loop_s:.2f} s over {PARTS} "
            f"processes, latency p50 {_quantile(lat, 0.5) * 1e3:.2f} ms, "
            f"p90 {_quantile(lat, 0.9) * 1e3:.2f} ms, "
            "set-up " + ", ".join(f"{p['setup_s']:.2f}" for p in parts) + " s",
            f"{workload}: unscaled {(attempted - failed) / sum(p['raw_loop_s'] for p in parts):.4g} "
            "ops/s, reference kernel "
            + (", ".join(f"{p['ref_ms']:.2f}" for p in parts)
               + f" ms over {sum(p['ref_calls'] for p in parts)} calls"
               if parts[0]["ref_ms"] is not None else "not used")]
    info += [f"{workload}: check failed: {e}" for e in errors]
    result = {
        "correct": not any(p["run_errors"] for p in parts),
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def print_result(workload, result, info):
    for line in info:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{workload} attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps(result))


def repeat(workloads, n, seed, seconds, trace):
    """Run each workload n times with seeds seed..seed+n-1, each run a fresh
    invocation of this script, and print the spread of every metric."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    OUT.mkdir(exist_ok=True)
    record = {}
    for w in workloads:
        runs = []
        for i in range(n):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                   "--seed", str(seed + i), "--seconds", repr(seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  cwd=ROOT)
            if proc.returncode != 0:
                raise BenchError(f"{w} seed {seed + i}: run exited with "
                                 f"{proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            runs.append(res)
            print("\n".join(lines[:2]))
            print(f"{w} seed {seed + i}: " + ", ".join(
                f"{k} {m['value']:.4g}" for k, m in res["metrics"].items())
                + f", attempted {res['attempted']} failed {res['failed']}",
                flush=True)
        record[w] = runs
        print(f"{w}: {'metric':32s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
              f"{'iqr/med':>8s} {'maxdev/med':>10s} {'bound':>6s}")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            scale = abs(med) or 1.0
            dev = max(abs(v - med) for v in vals) / scale
            bound = bounds.get(name)
            print(f"{w}: {name:32s} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{(q3 - q1) / scale:8.3f} {dev:10.3f} "
                  f"{'' if bound is None else bound:>6}")
        fails = {r["failed"] / r["attempted"] for r in runs}
        print(f"{w}: failed share per run {sorted(fails)}", flush=True)
    path = OUT / f"repeat_{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"raw runs written to {path}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload (default: all, one after another)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run each workload this many times and print spreads")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "gbcal" / "__init__.py").is_file():
        print(f"error: no gbcal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    chosen = [args.workload] if args.workload else WORKLOADS
    try:
        if args.repeat:
            repeat(chosen, args.repeat, args.seed, args.seconds, args.trace)
            return 0
        for w in chosen:
            result, info = run_workload(w, args.seed, args.seconds, args.trace)
            print_result(w, result, info)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
