"""Self-test of the benchmark on a cut-down pass of each workload.

    python3 benchmarks/selftest.py

Checks that every metric BENCHMARK.json names is produced with its unit,
in the untraced and the traced run; that a deliberately corrupted expected
answer counts as a failure; and that the traced call counts repeat exactly.
Exits non-zero on the first check that does not hold.
"""

import math
import sys

import run
import workloads

CUT = 6          # requests kept from each workload


def cut(name):
    wl = workloads.load(name)
    wl.requests = wl.requests[:CUT]
    return wl


def check(cond, what):
    if not cond:
        raise SystemExit("selftest FAILED: %s" % what)
    print("ok  %s" % what)


def check_metrics(spec, result, trace, name):
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    check(set(got) == {m["name"] for m in declared}
          and all(got[m["name"]]["unit"] == m["unit"] for m in declared)
          and all(isinstance(v["value"], float) and math.isfinite(v["value"])
                  for v in got.values()),
          "%s trace=%d: every metric printed with its unit" % (name, trace))
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= CUT,
          "%s trace=%d: all %d answers correct" % (name, trace, result["attempted"]))


def main():
    spec = run.load_spec()
    run.MIN_REQUESTS = CUT      # one pass of the cut-down list
    run.RESULTS_DIR.mkdir(exist_ok=True)
    for name in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result, _ = run.measure(spec, cut(name), name, 1, 0, trace)
            check_metrics(spec, result, trace, name)

        wl = cut(name)
        first = wl.requests[0]
        wl.requests[0] = workloads.Request(
            first.payload, dict(first.expected, type="corrupted"), first.group)
        result, meta = run.measure(spec, wl, name, 1, 0, 0)
        check(not result["correct"] and result["failed"] >= 1
              and meta["failed_frac"] > 0,
              "%s: a corrupted expected answer raises failed_frac to %s"
              % (name, meta["failed_frac"]))

    runs = [run.measure(spec, cut("deep"), "deep", 3, 0, 1)[0]["metrics"]
            for _ in range(2)]
    calls = {k: [m[k]["value"] for m in runs] for k in runs[0] if k.endswith("calls")}
    check(all(a == b for a, b in calls.values()),
          "traced call counts repeat exactly: %s" % {k: v[0] for k, v in calls.items()})
    print("selftest passed")


if __name__ == "__main__":
    sys.exit(main())
