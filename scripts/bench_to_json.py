#!/usr/bin/env python3
"""Run the perf binaries in JSON mode and distill BENCH_core.json.

BENCH_core.json keeps the repo's perf trajectory:

  {
    "baseline": {"label": ..., "benchmarks": {name: {...}}},
    "current":  {"label": ..., "benchmarks": {name: {...}}},
    "speedup_vs_baseline": {name: real_time_baseline / real_time_current}
  }

The first run (or a run with --set-baseline) becomes the baseline; later
runs refresh "current" and the speedup table, so each PR can see how the
hot paths moved relative to the recorded floor. A run with --filter
refreshes only the entries it ran: each of them carries the run's own
"label" and "context", and the section's label and context keep
describing the entries that carry none. A context records num_cpus,
kernel_isa and cpu_steal_frac, the share of all CPU time the hypervisor
stole while the binaries ran (read from /proc/stat; null elsewhere).

Usage:
  scripts/bench_to_json.py --binary build-bench/bench/perf_core \
      [--binary build-bench/bench/perf_stream ...] \
      [--output BENCH_core.json] [--label my-change] [--set-baseline]
      [--filter regex] [--min-time 0.1]
      [--check bm_name:25 ...] [--check-only]

--binary may be given several times; the distilled benchmark tables are
merged into one record (benchmark names must be globally unique, which
the bm_<area>_ naming convention guarantees).

--check NAME:PCT compares this run's NAME against the "current" section
already recorded in the output file and exits nonzero if it is more
than PCT percent slower — the CI perf smoke uses this to fail on real
regressions instead of eyeballing log output. --check-only skips
rewriting the output file (checks still run), so a noisy CI runner
never overwrites the curated perf record.

--compare BASE:OTHER:PCT compares two benchmarks from the SAME run and
exits nonzero if OTHER's per-item time exceeds BASE's by more than PCT
percent. Both benchmarks ran on the same machine seconds apart, so the
gate is immune to runner-to-runner noise — the CI obs smoke uses it to
pin the observability overhead (bm_stream_ingest_events vs
bm_stream_ingest). Per-item time (real_time / items_per_second scaling)
is used when both report items, raw real_time otherwise.
"""

import argparse
import json
import os
import subprocess
import sys


def run_benchmark(binary, bench_filter, min_time):
    if not os.path.exists(binary):
        raise SystemExit(f"error: benchmark binary not found: {binary}\n"
                         "build it first, e.g.: cmake --build --preset bench")
    cmd = [binary, "--benchmark_format=json"]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    if min_time:
        cmd.append(f"--benchmark_min_time={min_time}")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark binary failed: {proc.returncode}")
    return json.loads(proc.stdout)


# Numeric per-benchmark fields that are bookkeeping, not user counters.
STANDARD_NUMERIC_FIELDS = {
    "family_index", "per_family_instance_index", "repetitions",
    "repetition_index", "threads", "iterations", "real_time", "cpu_time",
    "items_per_second", "bytes_per_second",
}


def distill(raw):
    """Reduce google-benchmark JSON to {name: {real_time, cpu_time, unit}}.

    User counters (e.g. perf_stream's bin_close_ms) ride along so
    latency-style metrics land in BENCH_core.json too.
    """
    out = {}
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        entry = {
            "real_time": b["real_time"],
            "cpu_time": b["cpu_time"],
            "time_unit": b["time_unit"],
        }
        if "items_per_second" in b:
            entry["items_per_second"] = b["items_per_second"]
        counters = {k: v for k, v in b.items()
                    if isinstance(v, (int, float)) and not isinstance(v, bool)
                    and k not in STANDARD_NUMERIC_FIELDS}
        if counters:
            entry["counters"] = counters
        out[b["name"]] = entry
    return out


def to_ns(value, unit):
    factor = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
    return value * factor


def cpu_times():
    """Aggregate (steal, total) jiffies from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:9]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return None


def steal_fraction(before, after):
    if before is None or after is None or after[1] <= before[1]:
        return None
    return round((after[0] - before[0]) / (after[1] - before[1]), 4)


def merge_run(doc, run, filtered, set_baseline=False):
    """Merge one run into the BENCH_core.json document `doc`, in place.

    An unfiltered run replaces "current". A filtered run refreshes only
    the entries it ran and stamps each with the run's label and context;
    every other entry, and the section's own label and context, stay as
    they were. The speedup table is recomputed either way.
    """
    if set_baseline or "baseline" not in doc:
        doc["baseline"] = run
    if filtered and "current" in doc:
        for name, entry in run["benchmarks"].items():
            doc["current"]["benchmarks"][name] = dict(
                entry, label=run["label"], context=run["context"])
    else:
        doc["current"] = run

    speedups = {}
    base = doc["baseline"]["benchmarks"]
    for name, cur in doc["current"]["benchmarks"].items():
        if name in base:
            cur_ns = to_ns(cur["real_time"], cur["time_unit"])
            base_ns = to_ns(base[name]["real_time"], base[name]["time_unit"])
            if cur_ns > 0:
                speedups[name] = round(base_ns / cur_ns, 3)
    doc["speedup_vs_baseline"] = speedups
    return doc


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--binary", required=True, action="append",
                    help="path to a perf binary (repeatable)")
    ap.add_argument("--output", default="BENCH_core.json")
    ap.add_argument("--label", default="", help="tag for this run")
    ap.add_argument("--set-baseline", action="store_true",
                    help="record this run as the baseline")
    ap.add_argument("--filter", default="", help="--benchmark_filter regex")
    ap.add_argument("--min-time", default="",
                    help="--benchmark_min_time per benchmark (seconds)")
    ap.add_argument("--check", action="append", default=[],
                    metavar="NAME:PCT",
                    help="fail if NAME is more than PCT%% slower than the "
                         "recorded 'current' entry (repeatable)")
    ap.add_argument("--check-only", action="store_true",
                    help="run regression checks without rewriting --output")
    ap.add_argument("--compare", action="append", default=[],
                    metavar="BASE:OTHER:PCT",
                    help="fail if OTHER is more than PCT%% slower than BASE "
                         "within this same run (repeatable)")
    args = ap.parse_args()

    benchmarks = {}
    context = {}
    before = cpu_times()
    for binary in args.binary:
        raw = run_benchmark(binary, args.filter, args.min_time)
        if not context:
            context = {
                "num_cpus": raw.get("context", {}).get("num_cpus"),
                "library_build_type": raw.get("context", {}).get(
                    "library_build_type"),
                # Stamped by the bench binaries' custom main; trajectory
                # comparisons are meaningless without knowing which
                # kernel tier the run dispatched to.
                "kernel_isa": raw.get("context", {}).get("kernel_isa"),
            }
        benchmarks.update(distill(raw))
    context["cpu_steal_frac"] = steal_fraction(before, cpu_times())
    run = {
        "label": args.label or "unlabeled",
        "context": context,
        "benchmarks": benchmarks,
    }

    doc = {}
    if os.path.exists(args.output):
        with open(args.output) as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError:
                doc = {}

    failures = []
    recorded = doc.get("current", {}).get("benchmarks", {})
    for spec in args.check:
        name, _, pct = spec.rpartition(":")
        if not name:
            raise SystemExit(f"error: --check expects NAME:PCT, got {spec!r}")
        allowed = float(pct)
        if name not in benchmarks:
            failures.append(f"{name}: not produced by this run")
            continue
        if name not in recorded:
            print(f"check {name}: no recorded 'current' entry, skipping")
            continue
        cur_ns = to_ns(benchmarks[name]["real_time"],
                       benchmarks[name]["time_unit"])
        rec_ns = to_ns(recorded[name]["real_time"],
                       recorded[name]["time_unit"])
        ratio = cur_ns / rec_ns if rec_ns > 0 else float("inf")
        verdict = "ok" if ratio <= 1.0 + allowed / 100.0 else "REGRESSION"
        print(f"check {name}: {ratio:.3f}x recorded "
              f"(allowed +{allowed:.0f}%) {verdict}")
        if verdict != "ok":
            failures.append(
                f"{name}: {ratio:.3f}x the recorded time "
                f"(allowed {1.0 + allowed / 100.0:.2f}x)")

    for spec in args.compare:
        parts = spec.split(":")
        if len(parts) != 3:
            raise SystemExit(
                f"error: --compare expects BASE:OTHER:PCT, got {spec!r}")
        base_name, other_name, pct = parts
        allowed = float(pct)
        missing = [n for n in (base_name, other_name) if n not in benchmarks]
        if missing:
            failures.append(
                f"{spec}: not produced by this run: {', '.join(missing)}")
            continue

        def per_item_ns(entry):
            # Normalize to time-per-item when the benchmark reports
            # throughput; otherwise compare wall time directly.
            if entry.get("items_per_second"):
                return 1e9 / entry["items_per_second"]
            return to_ns(entry["real_time"], entry["time_unit"])

        base_ns = per_item_ns(benchmarks[base_name])
        other_ns = per_item_ns(benchmarks[other_name])
        ratio = other_ns / base_ns if base_ns > 0 else float("inf")
        verdict = "ok" if ratio <= 1.0 + allowed / 100.0 else "REGRESSION"
        print(f"compare {other_name} vs {base_name}: {ratio:.3f}x "
              f"(allowed +{allowed:.0f}%) {verdict}")
        if verdict != "ok":
            failures.append(
                f"{other_name}: {ratio:.3f}x {base_name} "
                f"(allowed {1.0 + allowed / 100.0:.2f}x)")

    if failures:
        # Never persist a run that failed its own regression gate: writing
        # the regressed numbers into "current" would ratchet the reference
        # down and make the very next run pass vacuously.
        for f in failures:
            sys.stderr.write(f"perf regression: {f}\n")
        raise SystemExit(2)
    if args.check_only:
        return

    merge_run(doc, run, bool(args.filter), args.set_baseline)
    speedups = doc["speedup_vs_baseline"]

    with open(args.output, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")

    width = max((len(n) for n in speedups), default=0)
    for name in sorted(speedups):
        print(f"{name:<{width}}  {speedups[name]:>7.3f}x vs baseline")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
