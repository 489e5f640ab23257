"""One benchmark process: set up a workload, run its timed closed loop for
a share of the run, check the outputs, and print a JSON summary as the last
line of standard output.  Started by run.py, once per part of a run.

Unless the workload opts out, every time reported (set-up, loop, CPU,
latencies, span totals) is scaled to the reference machine by the speed of
the reference kernel, timed REF_WARM times before the loop and then between
ops for REF_SHARE of the loop time; the kernel's own time is kept out of the
loop time.  The raw loop time and the kernel's typical time are reported
beside them."""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from reference import Meter  # noqa: E402
from spans import OP, SELF, TOTAL, Tracer  # noqa: E402

SAMPLE_EVERY = 50   # ops between sample checks, for workloads that have one
MAX_ERRORS = 5      # error messages kept per process
REF_WARM = 3        # reference kernel calls before the timed loop
REF_SHARE = 0.10    # share of the loop time spent on the reference kernel


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--t0-ns", type=int, required=True,
                   help="CLOCK_MONOTONIC time at which the parent started us")
    p.add_argument("--run-checks", type=int, choices=(0, 1), default=0)
    p.add_argument("--scratch", required=True)
    args = p.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.scratch))
    wl.warmup(args.start)                   # lazy imports, first calls
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.t0_ns) * 1e-9
    meter = Meter()
    for _ in range(REF_WARM if wl.scaled else 0):
        meter.run()

    latencies, errors = [], []
    cpu_s = excluded_s = 0.0
    failed = 0
    k = args.start
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start - excluded_s < args.seconds:
        span = tracer.open(OP) if tracer else None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = wl.op(k)
            errs = []
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            result, errs = None, [f"{type(exc).__name__}: {exc}"]
        latencies.append(time.perf_counter() - t0)
        cpu_s += time.process_time() - c0
        if tracer:
            tracer.close(span)
        if not errs:
            errs = wl.check(k, result)
            if not errs and wl.sample_check and (k - args.start) % SAMPLE_EVERY == 0:
                s0 = time.perf_counter()
                errs = wl.sample_check(k, result)
                excluded_s += time.perf_counter() - s0
        if errs:
            failed += 1
            errors += [f"op {k}: {e}" for e in errs][:MAX_ERRORS - len(errors)]
        k += 1
        ref_loop_s = REF_SHARE * (time.perf_counter() - loop_start - excluded_s)
        while wl.scaled and sum(meter.samples[REF_WARM:]) < ref_loop_s:
            excluded_s += meter.run()
    loop_s = time.perf_counter() - loop_start - excluded_s
    if tracer:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    run_errors = []
    if args.run_checks:
        try:
            run_errors = wl.run_checks()
        except Exception as exc:  # noqa: BLE001 - reported as a failed check
            run_errors = [f"run check raised {type(exc).__name__}: {exc}"]
    wl.close()
    f = meter.scale() if wl.scaled else 1.0
    layers = tracer.totals() if tracer else {}
    for rec in layers.values():
        rec[TOTAL] *= f
        rec[SELF] *= f
    print(json.dumps({
        "setup_s": setup_s * f, "loop_s": loop_s * f, "cpu_s": cpu_s * f,
        "latencies_s": [x * f for x in latencies], "failed": failed,
        "errors": errors, "run_errors": run_errors,
        "peak_rss_mb": peak_rss_mb, "layers": layers,
        "raw_loop_s": loop_s, "ref_ms": meter.typical() * 1e3 if wl.scaled else None,
        "ref_calls": len(meter.samples),
        "accept_rates": tracer.accept_rates if tracer else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
