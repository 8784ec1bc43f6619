#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 vrcbench/run.py --workload <sweep|contention|serve> \\
        --seed <n> --seconds <s> --trace <0|1> [--jobs <n>] [--corrupt]
    python3 vrcbench/run.py --selftest

Builds vrcbench -- a Release build of this directory, which compiles the
simulator sources of the repository root with their default options --
into .bench_build/ at the repository root, runs the workload there and
forwards its output. The last line of stdout is the result object; build
output goes to stderr. With --trace 1 the Chrome trace-event file and a
full report land under .bench_build/. --corrupt damages one output before
the off-clock check, which must then report the run incorrect.
--selftest builds and runs the benchmark's own unit tests.

Exits non-zero, printing no result, when the simulator sources are
missing, the build fails, or the run fails or overruns.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("sweep", "contention", "serve")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"vrcbench: {msg}", file=sys.stderr)
    sys.exit(1)


def sh(cmd):
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("command failed: " + " ".join(cmd))


def build(target):
    """Configure once, then bring @target up to date; return its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        fail("the simulator sources (CMakeLists.txt, src/) are not "
             "next to the benchmark")
    bdir = os.path.join(BUILD, "vrcbench")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        sh(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    sh(["cmake", "--build", bdir, "--target", target,
        "-j", str(os.cpu_count() or 1)])
    return os.path.join(bdir, target)


def source_id():
    """The git commit when there is one, plus a digest of the sources."""
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "vrcbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return f"{commit or 'none'}+src:{digest.hexdigest()[:12]}"


def check_result(line, trace):
    """The result object must have the documented shape."""
    res = json.loads(line)
    if list(res) != ["correct", "attempted", "failed", "metrics"]:
        raise ValueError("result keys are " + ", ".join(res))
    if not isinstance(res["correct"], bool) or res["attempted"] < 1:
        raise ValueError("bad correct/attempted")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        raise ValueError("metrics differ from BENCHMARK.json")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--jobs", type=int)
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("vrcbench_test")]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    binary = build("vrcbench")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = os.path.join(".bench_build", "tmp", f"{tag}-{os.getpid()}")
    os.makedirs(os.path.join(ROOT, tmp), exist_ok=True)
    for sub in ("reports", "traces"):
        os.makedirs(os.path.join(BUILD, sub), exist_ok=True)
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--tmp={tmp}", f"--commit={source_id()}",
           f"--report={os.path.join(BUILD, 'reports', tag + '.json')}"]
    if args.trace:
        cmd.append(
            f"--trace-out={os.path.join(BUILD, 'traces', tag + '.json')}")
    if args.jobs:
        cmd.append(f"--jobs={args.jobs}")
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} overran {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(os.path.join(ROOT, tmp), ignore_errors=True)
    if proc.returncode:
        fail(f"{args.workload} exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        check_result(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError) as e:
        fail(f"malformed result line: {e}")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
