#!/usr/bin/env python3
"""Build aspen-bench from this source tree, run one workload, and print the
result as one JSON line (the last line of standard output).

    python3 bench/perf/run.py --workload rtt_tcp --seed 1 --seconds 13 --trace 0

Both modes run aspen-bench's default protocol: 16 verified launches that
share --seconds of timed window. --trace 0 reports every end-to-end metric
of BENCHMARK.json (each run's value over its launches; see README.md);
--trace 1 adds the traced per-layer launches (aspen-bench --layers) and
reports every per-layer metric. Build trees and BENCH files go under
$CARGO_TARGET_DIR (default .bench_build) at the repository root; the
human-readable report goes to standard error.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
BASELINE = os.path.join(HERE, "results", "BENCH_baseline.json")


def build(tree, telemetry):
    """Configure (once) and incrementally build one aspen-bench tree."""
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release",
               "-DASPEN_TELEMETRY=" + ("ON" if telemetry else "OFF")]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        subprocess.run(cfg, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", tree, "--parallel", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(tree, "aspen-bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=13)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    try:
        # Both trees are built up front so a traced run never pays a build.
        on = build(os.path.join(out_dir, "aspen-bench-on"), True)
        off = build(os.path.join(out_dir, "aspen-bench-off"), False)
    except (OSError, subprocess.CalledProcessError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 1

    bench = os.path.join(out_dir, "BENCH_%s_%d_%d.json"
                         % (args.workload, args.seed, args.trace))
    if os.path.exists(bench):
        os.remove(bench)
    # aspen-bench's own launch protocol: the same as a default invocation
    # and as the committed baseline.
    cmd = [on, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--out", bench, "--work", out_dir]
    if args.trace:
        cmd += ["--layers", "--sibling", off]
    rc = subprocess.run(cmd, stdout=sys.stderr).returncode
    if not os.path.exists(bench):
        print("run.py: aspen-bench exited %d without results" % rc,
              file=sys.stderr)
        return 1
    with open(bench) as f:
        result = json.load(f)

    w = result["workloads"][args.workload]
    metrics = {}
    measured = True
    if args.trace:
        rows = result.get("layers", {}).get(args.workload, {})
        with open(BASELINE) as f:
            expected = json.load(f)["layers"][args.workload]
        missing = []
        for m in spec["per_layer"]:
            v = rows.get(m["name"])
            # The result line needs a number for every row. A row this
            # workload does not produce (an edge it never traverses, agg
            # rows with aggregation off) reads 0. A row the workload
            # produced in the baseline must be measured again: its absence
            # is a fault (a failed traced launch, an edge that vanished,
            # telemetry compiled out), never a 0 that reads as a gain.
            if v is None and expected.get(m["name"]) is not None:
                missing.append(m["name"])
            metrics[m["name"]] = {"value": 0.0 if v is None else v,
                                  "unit": m["unit"]}
        if missing:
            print("run.py: %s lacks rows the baseline has: %s"
                  % (args.workload, ", ".join(missing)), file=sys.stderr)
            measured = False
    else:
        for m in spec["end_to_end"]:
            v = w["metrics"][m["name"]]["value"]
            if v is None or not math.isfinite(v):
                # Every launch failed: no measurement, and not correct.
                measured, v = False, 0.0
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    launches_ok = all(l["ok"] for l in w["launches"])
    print(json.dumps({
        "correct": rc == 0 and launches_ok and measured and w["failed"] == 0,
        "attempted": max(1, int(w["attempted"])),
        "failed": int(w["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
