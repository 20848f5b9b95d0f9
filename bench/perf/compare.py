#!/usr/bin/env python3
"""Compare two sets of aspen-bench BENCH files, or check one.

    compare.py BASE.json [BASE2.json ...] -- CHANGE.json [CHANGE2.json ...]
    compare.py --check BENCH.json
    compare.py --smoke path/to/aspen-bench

Comparison: for every end-to-end metric x workload, each BENCH file gives
one value (the run's value, as run.py reports it). File i of the base set
is paired with file i of the change set; run the pairs alternating which
side goes first. For each pairing the verdict is

  worse       the change's median is worse than the base's by more than the
              bound (error_rate: by anything);
  improved    the change wins at least 9 of every 10 pairs (ties count for
              neither), at least 10 pairs were run, and the medians differ
              by more than the base runs' interquartile range;
  unresolved  the base or change runs spread (IQR / median) wider than the
              bound, unless every change run beats every base run;
  unchanged   otherwise.

The bound of a metric x workload is its own bound in gating.json: at most
0.10, at least the spread measured there, and never wider than the
metric's bound in BENCHMARK.json. A pair whose measured spread exceeds
0.10 is dropped from gating there, with the reason; it reads "ungated".
BENCHMARK.json holds one bound per metric for all workloads, so it cannot
hold the per-pair bounds or the drops itself.

--check validates one BENCH file (schema, every launch ok, error_rate 0);
--smoke runs `aspen-bench --smoke` and checks what it wrote. Exit status is
non-zero on any worse verdict or failed check.
"""
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["rtt_tcp", "rtt_shm", "gups_amo_tcp", "gups_rpc_shm",
             "bulk_tcp", "match_smp"]
E2E = ["ops_per_s", "lat_p50_us", "lat_p99_us", "setup_s", "peak_rss_mb"]


def load_gating():
    """gating.json, checked against the bounds in BENCHMARK.json."""
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "gating.json")) as f:
        gating = json.load(f)
    for m in spec["end_to_end"]:
        if gating["better"].get(m["name"]) != m["better"]:
            sys.exit("gating.json: %s is not %s-is-better as in BENCHMARK.json"
                     % (m["name"], m["better"]))
        for wl in WORKLOADS:
            if gating["pairs"][wl][m["name"]].get("bound", 0) > m["bound"]:
                sys.exit("gating.json: %s on %s is bounded wider than "
                         "BENCHMARK.json's %g" % (m["name"], wl, m["bound"]))
    return gating


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def spread(v):
    q1, med, q3 = quartiles(v)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, change, bound, higher_better):
    """Verdict for one metric x workload from paired per-run values."""
    better = (lambda c, b: c > b) if higher_better else (lambda c, b: c < b)
    b_med, c_med = statistics.median(base), statistics.median(change)
    worse_by = (b_med - c_med) if higher_better else (c_med - b_med)
    if b_med and worse_by / abs(b_med) > bound:
        return "worse"
    pairs = list(zip(base, change))
    wins = sum(better(c, b) for b, c in pairs)
    q1, _, q3 = quartiles(base)
    if (len(pairs) >= 10 and wins * 10 >= 9 * len(pairs)
            and abs(c_med - b_med) > q3 - q1):
        return "improved"
    all_better = all(better(c, b) for c in change for b in base)
    if (spread(base) > bound or spread(change) > bound) and not all_better:
        return "unresolved"
    return "unchanged"


def per_run_values(files, workload, metric):
    out = []
    for path in files:
        with open(path) as f:
            w = json.load(f)["workloads"].get(workload)
        if w is None:
            continue
        if metric == "error_rate":
            out.append(w["error_rate"])
        else:
            v = w["metrics"][metric]["value"]
            out.append(float("nan") if v is None else v)
    return out


def compare(base_files, change_files):
    gating = load_gating()
    worse = False
    print("%-13s %-12s %12s %23s %12s %23s  %s" % (
        "workload", "metric", "base med", "base [q1, q3]", "change med",
        "change [q1, q3]", "verdict"))
    for wl in WORKLOADS:
        for metric in E2E + ["error_rate"]:
            base = per_run_values(base_files, wl, metric)
            change = per_run_values(change_files, wl, metric)
            if not base or not change:
                continue
            gate = gating["pairs"][wl].get(metric, {})
            if metric == "error_rate":
                v = "worse" if max(change) > max(base) else "unchanged"
            elif "dropped" in gate:
                v = "ungated"
            else:
                v = verdict(base, change, gate["bound"],
                            gating["better"][metric] == "higher")
            worse = worse or v == "worse"
            bq1, bmed, bq3 = quartiles(base)
            cq1, cmed, cq3 = quartiles(change)
            print("%-13s %-12s %12.5g [%10.5g, %10.5g] %12.5g [%10.5g, %10.5g]"
                  "  %s" % (wl, metric, bmed, bq1, bq3, cmed, cq1, cq3, v))
    return 1 if worse else 0


def check(path, expect_all=False):
    """Schema, launch and error-rate checks on one BENCH file."""
    errors = []
    with open(path) as f:
        b = json.load(f)
    for key in ("schema", "host", "config", "workloads"):
        if key not in b:
            errors.append("missing top-level key %r" % key)
    for key in ("nproc", "kernel", "compiler", "build_type", "telemetry",
                "io_plane", "loadavg_start", "loadavg_end"):
        if key not in b.get("host", {}):
            errors.append("host facts lack %r" % key)
    workloads = b.get("workloads", {})
    if expect_all and sorted(workloads) != sorted(WORKLOADS):
        errors.append("workloads %s, expected %s" % (sorted(workloads),
                                                     sorted(WORKLOADS)))
    for name, w in workloads.items():
        for metric in E2E:
            m = w.get("metrics", {}).get(metric, {})
            s = m.get("summary", {})
            if not all(k in s for k in ("median", "q1", "q3", "values")):
                errors.append("%s: metric %s lacks a summary" % (name, metric))
            elif m.get("value") is None or m["value"] <= 0:
                errors.append("%s: %s = %r" % (name, metric, m.get("value")))
        if w.get("error_rate") != 0:
            errors.append("%s: error_rate %r" % (name, w.get("error_rate")))
        for i, launch in enumerate(w.get("launches", [])):
            # ok means the job exited cleanly and its launch-wide checks
            # (GUPS checksum replay, rpc quiescence count) passed.
            if not launch.get("ok"):
                errors.append("%s launch %d: %s" % (
                    name, i, launch.get("error", "not ok")))
    for e in errors:
        print("check: " + e)
    print("check: %s %s" % (path, "FAILED" if errors else "ok"))
    return 1 if errors else 0


def smoke(exe):
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        out = os.path.join(tmp, "BENCH_smoke.json")
        rc = subprocess.run([exe, "--smoke", "--out", out,
                             "--work", os.path.join(tmp, "work")]).returncode
        if not os.path.exists(out):
            print("smoke: aspen-bench exited %d without a BENCH file" % rc)
            return 1
        return check(out, expect_all=True) or (1 if rc else 0)


def main(argv):
    if len(argv) == 2 and argv[0] == "--check":
        return check(argv[1])
    if len(argv) == 2 and argv[0] == "--smoke":
        return smoke(argv[1])
    if "--" in argv:
        cut = argv.index("--")
        if cut > 0 and cut < len(argv) - 1:
            return compare(argv[:cut], argv[cut + 1:])
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
