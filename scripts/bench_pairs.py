#!/usr/bin/env python3
"""Paired benchmark gate: this working tree against a parent commit.

    python3 scripts/bench_pairs.py [--parent REF] [--pairs N] [--seed S]

Extracts REF with `git archive` into a temporary directory (removed on
exit) and runs every workload of BENCHMARK.json untraced, for the
benchmark's own run_seconds, in the parent tree and in this tree:

    python3 vrcbench/run.py --workload W --seed s --seconds T --trace 0

N pairs per workload, alternating which tree runs first; pair i uses
seed S+i on both sides. Each tree builds and runs its own vrcbench.
Metric names, units, directions and bounds come from BENCHMARK.json.

For each workload and end-to-end metric it prints both sides' median
and quartiles, the change/parent ratio, the pairs the change won, and a
verdict:

    gain          over 10 or more pairs, the change won at least 9/10
                  and its median is better by more than the parent's IQR
    unresolved    the parent's IQR/median exceeds the metric's bound
                  (unless every change run beat every parent run)
    REGRESSION    otherwise, the change's median is worse than the
                  parent's by more than the bound
    within bound  otherwise

The last line of stdout is the JSON report. Exits 1 on any REGRESSION,
on a run that crashed, is missing or reports "correct": false, and when
the change fails a larger share of its attempted operations than the
parent.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def quartiles(xs):
    """(q1, median, q3) by linear interpolation between order stats."""
    s = sorted(xs)

    def at(p):
        k = (len(s) - 1) * p
        lo = int(k)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (k - lo)

    return at(0.25), at(0.5), at(0.75)


def verdict(metric, parent, change):
    """Judge one metric over paired runs: parent[i] and change[i] share
    a seed. Returns the reported row, every run's value included."""
    better = 1.0 if metric["better"] == "higher" else -1.0
    bound = metric["bound"]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    base = abs(pm) or 1.0
    wins = sum(better * (c - p) > 0 for p, c in zip(parent, change))
    all_better = (min(change) > max(parent) if better > 0
                  else max(change) < min(parent))
    if (len(parent) >= 10 and wins >= 0.9 * len(parent)
            and better * (cm - pm) > p3 - p1):
        v = "gain"
    elif (p3 - p1) / base > bound and not all_better:
        v = "unresolved"
    elif better * (pm - cm) / base > bound:
        v = "REGRESSION"
    else:
        v = "within bound"
    return {"metric": metric["name"], "unit": metric["unit"],
            "better": metric["better"], "bound": bound,
            "parent": {"q1": p1, "median": pm, "q3": p3, "runs": parent},
            "change": {"q1": c1, "median": cm, "q3": c3, "runs": change},
            "ratio": cm / pm if pm else None,
            "wins": wins, "pairs": len(parent), "verdict": v}


def judge(spec, results, pairs):
    """Verdicts and failures for every workload of @p spec.

    @p results maps workload -> side -> list of @p pairs result objects
    (the last stdout line of vrcbench/run.py), None for a run that
    crashed or printed no result.
    """
    rows, failures = [], []
    for w in (x["name"] for x in spec["workloads"]):
        runs = results.get(w)
        if runs is None:
            failures.append(f"{w}: missing")
            continue
        bad = False
        for side in SIDES:
            got = runs.get(side, [])
            for i in range(pairs):
                r = got[i] if i < len(got) else None
                if r is None:
                    failures.append(f"{w}: {side} pair {i} crashed or "
                                    "is missing")
                    bad = True
                elif r["correct"] is not True:
                    failures.append(f"{w}: {side} pair {i} is not "
                                    "correct")
        if bad:
            continue
        share = {s: sum(r["failed"] for r in runs[s]) /
                 sum(r["attempted"] for r in runs[s]) for s in SIDES}
        if share["change"] > share["parent"]:
            failures.append(f"{w}: change fails {share['change']:.4g} of "
                            f"its operations, parent {share['parent']:.4g}")
        for m in spec["end_to_end"]:
            row = verdict(m, *([r["metrics"][m["name"]]["value"]
                                for r in runs[s]] for s in SIDES))
            row["workload"] = w
            rows.append(row)
            if row["verdict"] == "REGRESSION":
                failures.append(f"{w}: {m['name']} regressed")
    return rows, failures


def run_bench(tree, workload, seed, seconds):
    """One untraced vrcbench run in @p tree; its result object or None."""
    proc = subprocess.run(
        [sys.executable, "vrcbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", default="HEAD",
                    help="git ref to compare against (default HEAD)")
    ap.add_argument("--pairs", type=int, default=10,
                    help="pairs of runs per workload (default 10)")
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of the first pair (default 1)")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    parent_sha = git("rev-parse", "--verify", args.parent + "^{commit}")
    tree = tempfile.mkdtemp(prefix="bench_pairs-")
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", parent_sha],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout,
                   check=True)
    if archive.wait():
        sys.exit(f"git archive {parent_sha} failed")
    results = {}
    try:
        trees = {"parent": tree, "change": ROOT}
        for w in (x["name"] for x in spec["workloads"]):
            runs = results[w] = {s: [] for s in SIDES}
            for i in range(args.pairs):
                seed = args.seed + i
                for side in SIDES[::-1] if i % 2 else SIDES:
                    print(f"[{w} pair {i} seed {seed}: {side}]",
                          file=sys.stderr, flush=True)
                    runs[side].append(
                        run_bench(trees[side], w, seed, seconds))
    finally:
        shutil.rmtree(tree, ignore_errors=True)

    rows, failures = judge(spec, results, args.pairs)
    print(f"{'workload':<11} {'metric':<19} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'ratio':>6} {'wins':>5}  verdict")
    for r in rows:
        p, c = r["parent"], r["change"]
        ratio = f"{r['ratio']:.3f}" if r["ratio"] is not None else "-"
        print(f"{r['workload']:<11} {r['metric']:<19} "
              f"{p['q1']:>9.4g} {p['median']:>9.4g} {p['q3']:>9.4g} "
              f"{c['q1']:>9.4g} {c['median']:>9.4g} {c['q3']:>9.4g} "
              f"{ratio:>6} {r['wins']:>2}/{r['pairs']:<2}  {r['verdict']}")
    for f in failures:
        print(f"FAIL {f}")
    print(json.dumps({
        "parent": parent_sha, "change": git("rev-parse", "HEAD"),
        "change_dirty": bool(git("status", "--porcelain", "--",
                                 "CMakeLists.txt", "src", "vrcbench")),
        "host_cpus": os.cpu_count(), "pairs": args.pairs,
        "seed": args.seed, "run_seconds": seconds, "rows": rows,
        "failures": failures, "ok": not failures}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
