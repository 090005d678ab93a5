"""The fourcover benchmark: one closed-loop client in one process.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 30 --trace 0

The client sends the next request only after the previous one returns,
with no extra threads.  It sends the workload's whole request list pass
after pass, each pass in a new order drawn from the seed, until at least
``--seconds`` of wall time have passed, at least MIN_REQUESTS are done
and one pass is complete.  Throughput and percentiles weigh each
execution by 1 over the number of times its request ran, so each request
of the list counts once, as in a whole pass.  Every answer is checked against its frozen expected answer and the
workload's invariant; a request that raises or answers wrongly is counted
as failed and never stops the run.

Times are CPU time of this process (``time.process_time``), scaled by the
host calibration of calibrate.py.  The library does no I/O and the client
runs no threads, so a request's CPU time is its latency on a core of its
own; on a shared host the wall time adds whatever the scheduler gives to
other tenants, and even CPU time swings by up to 2x from minute to minute
with the load on the core's sibling thread.  The unscaled CPU and wall
time of every run are kept in the result file.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` wraps the
library's entry points (tracing.py), runs at least one whole pass traced,
replays the same requests untraced to measure the tracing overhead, times
the tower microbenchmarks (micro.py) and prints the per-layer metrics.
Metric names and units come from BENCHMARK.json.  The last line of
standard output is one JSON object; run metadata, and the spans of a traced run, are written
to benchmarks/results/.  The exit code is 0 only if every answer was right.
"""

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"

MIN_REQUESTS = 100       # so that at least 10 latencies lie beyond p90
SETUP_RUNS = 9

# Set-up runs in fresh interpreters.  Bytecode is cached under
# RESULTS_DIR so that set-up measures the import, not compilation.  Each
# interpreter then times the reference, to calibrate its import time.
SETUP_CODE = """
import sys, time
t0 = time.process_time()
sys.path.insert(0, %(src)r)
import fourcover
%(extra)s
took = time.process_time() - t0
sys.path.insert(0, %(bench)r)
import calibrate
refs = [calibrate.time_reference() for _ in range(6)][1:]
sys.stdout.write(repr(took * calibrate.REFERENCE_S / sorted(refs)[2]))
"""
SETUP_EXTRA = {
    "sweep": "import fourcover.cli; fourcover.cli.build_parser()",
    "deep": "import fourcover.cli; fourcover.cli.build_parser()",
    "classify": "",
}


class Drive:
    """Outcome of driving a workload: every execution's CPU time and its
    calibrated latency, the failures, the timed CPU and wall time and the
    orders of the passes begun."""

    def __init__(self):
        self.cpu_times = []
        self.latencies = []
        self.ok = []
        self.failures = []
        self.orders = []
        self.cpu = 0.0
        self.wall = 0.0

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return len(self.failures)


def drive(requests, execute, check, orders, seconds, min_passes):
    """Send the requests pass by pass, each pass in the order the next item
    of ``orders`` gives.  Stop after the first request at which ``seconds``
    of wall time have passed, MIN_REQUESTS are done and ``min_passes``
    passes are complete, or when ``orders`` runs out.  The reference is
    timed before every request; a request's latency is its CPU time scaled
    by the calibration around it (calibrate.py)."""
    out = Drive()
    cal = calibrate.Calibration()
    mids = []
    clock, wall = time.process_time, time.perf_counter
    start, wall_start = clock(), wall()
    for done, order in enumerate(orders):
        out.orders.append(order)
        for k, i in enumerate(order, 1):
            req = requests[i]
            cal.sample(clock() - start)
            t0 = clock()
            try:
                answer = execute(req.payload)
            except Exception as ex:  # a failure is counted, never fatal
                t1 = clock()
                problem = "%s: %s" % (type(ex).__name__, ex)
            else:
                t1 = clock()
                try:
                    problem = check(req, answer)
                except Exception as ex:
                    problem = "unreadable answer: %s: %s" % (type(ex).__name__, ex)
            out.cpu_times.append(t1 - t0)
            mids.append((t0 + t1) / 2 - start)
            out.ok.append(not problem)
            if problem:
                out.failures.append("%r: %s" % (req.payload, problem))
            if (wall() - wall_start >= seconds and len(mids) >= MIN_REQUESTS
                    and done + (k == len(order)) >= min_passes):
                out.orders[-1] = order[:k]
                break
        else:
            continue
        break
    out.cpu, out.wall = clock() - start, wall() - wall_start
    out.latencies = [t * cal.scale(m) for t, m in zip(out.cpu_times, mids)]
    return out


def seeded_orders(size, seed):
    """A new seeded permutation of range(size) for every pass."""
    rng = random.Random(seed)
    while True:
        order = list(range(size))
        rng.shuffle(order)
        yield order


def mix_weights(run):
    """Per execution, 1 over the number of times its request ran, so that
    every request of the workload weighs the same whatever the run's last,
    partial pass holds."""
    executed = [i for order in run.orders for i in order]
    reps = Counter(executed)
    return [1 / reps[i] for i in executed]


def percentile(values, weights, q):
    """Weighted nearest-rank percentile: the least value at which the
    weight of the values up to it reaches ``q`` of the total."""
    need = q * math.fsum(weights) * (1 - 1e-12)
    acc = 0.0
    for value, weight in sorted(zip(values, weights)):
        acc += weight
        if acc >= need:
            return value
    return max(values)


def measure_setup(workload):
    """Median calibrated CPU seconds, over SETUP_RUNS fresh interpreters,
    to import fourcover and finish the workload's one-time set-up."""
    code = SETUP_CODE % {"src": str(ROOT / "src"), "bench": str(BENCH_DIR),
                         "extra": SETUP_EXTRA[workload]}
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(RESULTS_DIR / "pycache")
    times = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        if i:  # the first run fills the bytecode cache
            times.append(float(proc.stdout))
    return statistics.median(times)


def end_to_end(wl, name, seed, seconds):
    setup_s = measure_setup(name)
    run = drive(wl.requests, wl.execute, wl.checker(),
                seeded_orders(len(wl.requests), seed), seconds, 1)
    weights = mix_weights(run)
    correct = math.fsum(w for w, ok in zip(weights, run.ok) if ok)
    metrics = {
        "requests_per_s": correct / math.fsum(
            w * t for w, t in zip(weights, run.latencies)),
        "latency_ms.p50": percentile(run.latencies, weights, 0.50) * 1e3,
        "latency_ms.p90": percentile(run.latencies, weights, 0.90) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"latency": run.attempted, "setup_s": SETUP_RUNS,
               "wall_s": run.wall, "cpu_s": run.cpu}
    return run, metrics, samples


def per_layer(wl, name, seed, seconds):
    import micro
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install(extra_spans=[(workloads, "encode_report", "cli.json")])
    try:
        traced = drive(wl.requests, tracer.requests(wl.execute), wl.checker(),
                       seeded_orders(len(wl.requests), seed), seconds, 1)
    finally:
        tracer.remove()
    replay = drive(wl.requests, wl.execute, wl.checker(), traced.orders,
                   math.inf, 0)
    metrics = tracer.metrics(len(wl.requests), [
        lat / cpu if cpu else 1.0
        for lat, cpu in zip(traced.latencies, traced.cpu_times)])
    metrics["trace.overhead_frac"] = (math.fsum(replay.latencies)
                                      / math.fsum(traced.latencies) - 1)
    metrics.update(micro.run())
    tracer.dump(RESULTS_DIR / ("%s-seed%d-spans.json" % (name, seed)))
    run = Drive()
    run.latencies = traced.latencies + replay.latencies
    run.failures = traced.failures + replay.failures
    samples = {"traced_requests": traced.attempted,
               "call_count_requests": len(wl.requests),
               "microbench_repeats": micro.REPEATS}
    return run, metrics, samples


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(spec, wl, name, seed, seconds, trace):
    """Run one workload; returns the result object and the run metadata."""
    run, values, samples = (per_layer if trace else end_to_end)(
        wl, name, seed, seconds)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    stray = sorted({m["name"] for m in declared} ^ set(values))
    if stray:
        raise SystemExit("metrics out of step with BENCHMARK.json: %s" % stray)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    meta = {
        "workload": name,
        "why": {w["name"]: w["why"] for w in spec["workloads"]}[name],
        "seed": seed, "seconds": seconds, "trace": trace,
        "client": "closed loop, 1 client, no extra threads",
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(), "samples": samples,
        "failed_frac": run.failed / run.attempted,
        "failures": run.failures[:20], "result": result,
    }
    return result, meta


def main(argv=None):
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fourcover").is_dir():
        sys.stderr.write("no fourcover sources under %s\n" % (ROOT / "src"))
        return 2
    import workloads
    RESULTS_DIR.mkdir(exist_ok=True)
    result, meta = measure(spec, workloads.load(args.workload), args.workload,
                           args.seed, args.seconds, args.trace)
    out = RESULTS_DIR / ("%s-seed%d-trace%d.json"
                         % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps(meta, indent=2) + "\n")

    for problem in meta["failures"][:5]:
        sys.stderr.write("failed: %s\n" % problem)
    print("workload %s, seed %d: %d executions, %d failed (failed_frac %s), "
          "samples %s" % (args.workload, args.seed, result["attempted"],
                          result["failed"], meta["failed_frac"], meta["samples"]))
    for name, m in result["metrics"].items():
        print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
