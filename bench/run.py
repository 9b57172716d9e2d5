#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1            # every workload, each in a fresh process

The workload's instances are generated from --seed and sent one at a time,
in the workload's order (a closed loop with one caller), until --seconds
have passed, wrapping round to the start of the set if time remains.  Every
outcome is checked outside the timer; an instance that raises or fails a
check counts as failed and the run goes on.

Times are scaled to a reference host speed with the reference clock in
hostclock.py, timed every CLOCK_EVERY_S seconds between instances; the raw
wall-clock figures are kept in the run record.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each instance twice,
once untraced and once with spans around the library's public functions
(alternating which goes first), and prints the per-layer metrics together
with the tracing overhead.  The metric names and units are the ones declared
in BENCHMARK.json.  The last line of standard output is the result object;
the line before it is the run record (host, seed, instance counts, raw
times, tail latency and the reference clock's own time).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import hostclock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_RUNS = 11
CLOCK_EVERY_S = 0.25
MAX_REPORTED_FAILURES = 5

# A fresh process times importing the library, loading the family corpus
# and instantiating a first catalog entry, then times the reference clock
# on the same CPU.
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import infranil
infranil.load_corpus()
infranil.catalog_lookup("torus-3")
elapsed = time.perf_counter() - t0
import hostclock
print(elapsed, hostclock.loop_seconds())
"""


def declared() -> dict:
    """The benchmark's declaration: workloads and metric names with units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_library():
    """Import infranil from this checkout's src/, or exit nonzero."""
    sys.path.insert(0, str(SRC))
    try:
        import infranil
    except ImportError as exc:
        sys.exit(f"error: cannot import infranil from {SRC}: {exc}")
    if Path(infranil.__file__).resolve().parent != SRC / "infranil":
        sys.exit(f"error: imported infranil from {infranil.__file__}, not from {SRC}")


def scale(seconds: float, clock: float) -> float:
    return seconds * hostclock.REFERENCE_S / clock


def measure_setup():
    """(raw, scaled) set-up seconds of one fresh interpreter process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    raw, clock = map(float, proc.stdout.split())
    return raw, scale(raw, clock)


def percentile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the order statistics weighted
    by the Beta(p(n+1), (1-p)(n+1)) mass over each one's share of [0, 1].
    Averaging neighbouring order statistics makes a tail percentile vary
    much less from run to run than one order statistic does."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16
    total = weight_sum = 0.0
    for i, x in enumerate(xs):
        weight = sum(
            math.exp(log_norm + (a - 1) * math.log(u) + (b - 1) * math.log1p(-u))
            for u in ((i + (k + 0.5) / steps) / n for k in range(steps))
        )
        total += weight * x
        weight_sum += weight
    return total / weight_sum


def attempt(workload, instance, failures, tracer=None):
    """Time one instance; check its outcome outside the timer.  Returns the
    elapsed seconds and appends a description of any failure."""
    if tracer is not None:
        tracer.active = True
    t0 = perf_counter()
    try:
        outcome = workload.run(instance)
    except Exception:  # a failed instance must not stop the run
        elapsed = perf_counter() - t0
        failures.append(traceback.format_exc())
        return elapsed
    finally:
        if tracer is not None:
            tracer.active = False
    elapsed = perf_counter() - t0
    try:
        failed = workload.check(instance, outcome)
    except Exception:  # a check that raises is a failed instance
        failures.append(traceback.format_exc())
        return elapsed
    if failed:
        failures.append(f"gates {failed} on {instance!r}")
    return elapsed


def run_loop(workload, instances, seconds, tracer=None) -> dict:
    """Closed loop over the instances, in order and wrapping round, until
    `seconds` have passed.  Between instances the reference clock is timed
    every CLOCK_EVERY_S seconds, and set-up SETUP_RUNS times at even
    intervals, so both see the same host as the workload.  An untraced
    latency is scaled by the mean of the clock readings on either side."""
    plain, block, traced, failures, setup = [], [], [], [], []
    clock = [hostclock.loop_seconds()]
    start = last_clock = perf_counter()
    i = 0
    while True:
        if perf_counter() - last_clock >= CLOCK_EVERY_S:
            clock.append(hostclock.loop_seconds())
            last_clock = perf_counter()
        if perf_counter() - start >= len(setup) * seconds / SETUP_RUNS:
            setup.append(measure_setup())
        instance = instances[i % len(instances)]
        if tracer is None:
            plain.append(attempt(workload, instance, failures))
            block.append(len(clock) - 1)
        else:
            tracer.instance = i
            for on in ((False, True) if i % 2 == 0 else (True, False)):
                elapsed = attempt(workload, instance, failures, tracer if on else None)
                (traced if on else plain).append(elapsed)
                if not on:
                    block.append(len(clock) - 1)
        i += 1
        if perf_counter() - start >= seconds:
            break
    clock.append(hostclock.loop_seconds())
    while len(setup) < SETUP_RUNS:
        setup.append(measure_setup())
    scaled = [scale(t, (clock[b] + clock[b + 1]) / 2) for t, b in zip(plain, block)]
    return {"plain": plain, "scaled": scaled, "traced": traced, "failures": failures,
            "setup": setup, "clock": clock}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)

    spec = declared()
    import_library()
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    instances = workload.make(args.seed)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    try:
        run = run_loop(workload, instances, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    plain, scaled, traced, failures = run["plain"], run["scaled"], run["traced"], run["failures"]
    for text in failures[:MAX_REPORTED_FAILURES]:
        print(text, file=sys.stderr)
    attempted = len(plain) + len(traced)
    clock = statistics.median(run["clock"])
    p95, p99 = percentile(scaled, 0.95), percentile(scaled, 0.99)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "instance_set": len(instances),
        "attempted": attempted,
        "fail_frac": len(failures) / attempted,
        "latency_samples": len(plain),
        "latency_p99_ms": p99 * 1e3,
        "samples_beyond_p95": sum(1 for t in scaled if t > p95),
        "samples_beyond_p99": sum(1 for t in scaled if t > p99),
        "raw_throughput_per_s": len(plain) / sum(plain),
        "raw_latency_p50_ms": percentile(plain, 0.5) * 1e3,
        "raw_latency_p95_ms": percentile(plain, 0.95) * 1e3,
        "raw_setup_s": statistics.median(raw for raw, _ in run["setup"]),
        "clock_ms": clock * 1e3,
        "clock_readings": len(run["clock"]),
        "clock_reference_ms": hostclock.REFERENCE_S * 1e3,
    }
    if tracer is None:
        values = {
            "throughput_per_s": len(scaled) / sum(scaled),
            "latency_p50_ms": percentile(scaled, 0.5) * 1e3,
            "latency_p95_ms": p95 * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(s for _, s in run["setup"]),
        }
        group = "end_to_end"
    else:
        values = tracer.layer_metrics(len(traced))
        values.update({
            "trace.instances": len(traced),
            "trace.traced_s": sum(traced),
            "trace.untraced_s": sum(plain),
            "trace.overhead_frac": sum(traced) / sum(plain) - 1,
            "host.clock_ms": clock * 1e3,
        })
        # per-layer times are scaled by the run's median clock reading
        values = {k: scale(v, clock) if k.endswith("_s") else v for k, v in values.items()}
        group = "per_layer"
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl")
    units = {m["name"]: m["unit"] for m in spec[group]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each declared workload in a fresh single-threaded process, in turn."""
    status = 0
    for workload in declared()["workloads"]:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = status or subprocess.run(cmd, cwd=ROOT).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
