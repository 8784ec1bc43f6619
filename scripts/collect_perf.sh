#!/bin/sh
# Measure the experiment engine's throughput and write BENCH_perf.json.
#
# Runs the simulation-heavy bench binaries from a dedicated perf build
# (Release, no reference model, LTO, -march=native) -- once
# single-threaded and once with every host core -- collecting the JSON
# lines each binary emits via VRC_PERF_OUT, then assembles one report
# with per-bench refs/sec, wall-clock per table, and the parallel
# speedup on this host. Each pass is run VRC_PERF_RUNS times (default
# 3) and the fastest run per table wins, so one scheduler hiccup
# cannot poison the baseline.
#
# Usage: scripts/collect_perf.sh [build-dir] [out-file] [bench-args...]
#   e.g. scripts/collect_perf.sh build BENCH_perf.json --quick
#
# Environment:
#   VRC_JOBS=N           override the detected core count
#   VRC_PERF_RUNS=N      best-of-N runs per pass (default 3)
#   VRC_PERF_NO_BUILD=1  benchmark [build-dir] as-is instead of
#                        configuring the <build-dir>-perf tree
set -e
BUILD=${1:-build}
OUT=${2:-BENCH_perf.json}
shift 2 2>/dev/null || shift $# 2>/dev/null || true
ARGS="$*"
RUNS=${VRC_PERF_RUNS:-3}

# Core detection with fallbacks; getconf alone reports 1 inside some
# containers even when more cores are online.
if [ -n "${VRC_JOBS:-}" ]; then
    JOBS_MAX=$VRC_JOBS
else
    JOBS_MAX=$(nproc 2>/dev/null) ||
        JOBS_MAX=$(getconf _NPROCESSORS_ONLN 2>/dev/null) ||
        JOBS_MAX=$(grep -c '^processor' /proc/cpuinfo 2>/dev/null) ||
        JOBS_MAX=1
fi
case "$JOBS_MAX" in
    ''|*[!0-9]*) echo "error: bad core count '$JOBS_MAX'" >&2; exit 1;;
esac
[ "$JOBS_MAX" -ge 1 ] || { echo "error: no cores detected" >&2; exit 1; }
if [ "$JOBS_MAX" -eq 1 ]; then
    echo "WARNING: single-CPU host -- parallel speedup cannot be" \
         "measured here; jobsN numbers will equal jobs1" >&2
fi

# Numbers of record come from the perf configuration: Release, LTO,
# native ISA. -ffp-contract=off keeps the analytic-model doubles
# byte-identical to the default build so figure outputs can be diffed
# against the test build.
if [ -z "${VRC_PERF_NO_BUILD:-}" ]; then
    PERF_BUILD="${BUILD%/}-perf"
    echo "== configuring perf build in $PERF_BUILD" >&2
    cmake -B "$PERF_BUILD" -S "$(dirname "$0")/.." \
        -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_INTERPROCEDURAL_OPTIMIZATION=ON \
        -DCMAKE_CXX_FLAGS="-march=native -ffp-contract=off" \
        >/dev/null
    cmake --build "$PERF_BUILD" -j "$JOBS_MAX" >/dev/null
    BUILD=$PERF_BUILD
else
    echo "== VRC_PERF_NO_BUILD set: benchmarking $BUILD as-is" >&2
fi

BENCHES="bench_table6_hit_ratios bench_table7_small_caches \
bench_table8_split_thor bench_table11_coherence_pops \
bench_fig4_access_time bench_inclusion_invalidations \
bench_protocol_ablation"

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# Cycle-engine contention sweeps: one figure bench per workload, run
# with --contention so each CPU-count point lands as its own perf
# section (<trace>-contention-cpusN) in the report.
CONTENTION_BENCHES="bench_fig5_access_time bench_fig6_access_time"

# On a single-core host the two passes would be identical; run one.
PASSES=1
[ "$JOBS_MAX" -gt 1 ] && PASSES="1 $JOBS_MAX"

for jobs in $PASSES; do
    run=0
    while [ "$run" -lt "$RUNS" ]; do
        run=$((run + 1))
        : > "$TMP/perf_${jobs}_r${run}.jsonl"
        for b in $BENCHES; do
            [ -x "$BUILD/bench/$b" ] || continue
            echo "== $b (jobs=$jobs run=$run/$RUNS)" >&2
            VRC_PERF_OUT="$TMP/perf_${jobs}_r${run}.jsonl" \
                "$BUILD/bench/$b" $ARGS "--jobs=$jobs" > /dev/null
        done
        for b in $CONTENTION_BENCHES; do
            [ -x "$BUILD/bench/$b" ] || continue
            echo "== $b --contention (jobs=$jobs run=$run/$RUNS)" >&2
            VRC_PERF_OUT="$TMP/perf_${jobs}_r${run}.jsonl" \
                "$BUILD/bench/$b" --contention $ARGS "--jobs=$jobs" \
                > /dev/null
        done
    done
done

# Single-thread hot-path throughput (google-benchmark), if built.
MICRO="$TMP/micro.json"
if [ -x "$BUILD/bench/bench_micro_sim" ]; then
    echo "== bench_micro_sim" >&2
    "$BUILD/bench/bench_micro_sim" --benchmark_filter=Simulate \
        --benchmark_format=json > "$MICRO" 2>/dev/null || : > "$MICRO"
else
    : > "$MICRO"
fi

JOBS_MAX=$JOBS_MAX RUNS=$RUNS TMP=$TMP MICRO=$MICRO OUT=$OUT \
    python3 <<'EOF'
import json, os, sys

tmp = os.environ["TMP"]
jobs_max = int(os.environ["JOBS_MAX"])
runs = int(os.environ["RUNS"])

def load_best(jobs):
    """Fastest observation per (bench, section) across all runs."""
    rows = {}
    for run in range(1, runs + 1):
        path = f"{tmp}/perf_{jobs}_r{run}.jsonl"
        with open(path) as f:
            for line in f:
                r = json.loads(line)
                key = (r["bench"], r["section"])
                if key not in rows or r["seconds"] < rows[key]["seconds"]:
                    rows[key] = r
    return rows

serial, parallel = load_best(1), load_best(jobs_max)
report = {"host_cpus": jobs_max, "runs": runs, "benches": []}
speedups = []
for key, s in serial.items():
    p = parallel.get(key, s)
    entry = {
        "bench": key[0],
        "section": key[1],
        "kind": ("contention-sweep" if "-contention-" in key[1]
                 else "table"),
        "refs": s["refs"],
        "seconds_jobs1": s["seconds"],
        "refs_per_sec_jobs1": s["refs_per_sec"],
        "seconds_jobsN": p["seconds"],
        "refs_per_sec_jobsN": p["refs_per_sec"],
        "speedup": s["seconds"] / p["seconds"] if p["seconds"] else 0.0,
    }
    report["benches"].append(entry)
    if key[1] == "total":
        speedups.append(entry["speedup"])
report["mean_total_speedup"] = (
    sum(speedups) / len(speedups) if speedups else 0.0)

try:
    with open(os.environ["MICRO"]) as f:
        micro = json.load(f)
    report["single_thread_refs_per_sec"] = {
        b["name"]: b.get("items_per_second", 0.0)
        for b in micro.get("benchmarks", [])
    }
except (json.JSONDecodeError, OSError):
    pass

out = os.environ["OUT"]
with open(out, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(f"wrote {out}: best of {runs} runs, mean speedup over "
      f"{len(speedups)} benches = {report['mean_total_speedup']:.2f}x "
      f"at {jobs_max} jobs")

# A multi-core host whose jobsN pass is no faster than jobs1 means the
# parallel runner silently collapsed to serial -- exactly the failure
# a perf baseline must not paper over.
if jobs_max > 1 and speedups and report["mean_total_speedup"] < 1.2:
    print(f"error: {jobs_max} cores detected but mean parallel "
          f"speedup is {report['mean_total_speedup']:.2f}x -- "
          "parallelism has collapsed; refusing this baseline",
          file=sys.stderr)
    sys.exit(1)
EOF
