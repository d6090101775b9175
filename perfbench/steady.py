#!/usr/bin/env python3
"""Steadiness check: are two sets of benchmark runs of the same code alike?

    python3 perfbench/steady.py [--traced K] [--out FILE]

Makes two sets of ten runs of every workload in BENCHMARK.json, each run
run_seconds long and on its own seed (set 1 uses seeds 1..10, set 2 seeds
11..20). For every end-to-end metric it prints each set's median and
quartile spread (q3 - q1 over the median, quartiles as
statistics.quantiles(values, n=4) gives them), and whether the sets agree
under BENCHMARK.json's bounds: every spread within the bound, the two
medians apart by no more than the bound in either direction, and the same
share of failed operations. With --traced K it also makes K traced runs
per workload (the first K seeds) and prints each traced end-to-end median
beside the untraced one, with the span coverage of the timed phase. Every
result is written to --out (default .bench_build/steady.json). Exits 1
when a check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10
SETS = 2


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print("  %s seed %d: exit %d" % (workload, seed, proc.returncode))
        return None
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """Relative amount by which `second` is worse than `first` (< 0: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    ap = argparse.ArgumentParser()
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--out", default=os.path.join(ROOT, ".bench_build",
                                                  "steady.json"))
    opts = ap.parse_args()

    results = {}
    ok = True
    for w in (w["name"] for w in spec["workloads"]):
        sets = []
        for k in range(SETS):
            runs = []
            for i in range(RUNS):
                r = run_once(w, k * RUNS + i + 1, seconds, False)
                ok &= r is not None and r["correct"]
                if r is not None:
                    runs.append(r)
            sets.append(runs)
        traced = [run_once(w, i + 1, seconds, True)
                  for i in range(opts.traced)]
        traced = [t for t in traced if t is not None]
        results[w] = {"sets": sets, "traced": traced}

        print("\n== %s: %d set(s) of %d runs, %d s each" %
              (w, SETS, RUNS, seconds))
        shares = ["%d/%d" % (sum(r["failed"] for r in s),
                             sum(r["attempted"] for r in s)) for s in sets]
        share_vals = [sum(r["failed"] for r in s) / max(1, sum(r["attempted"] for r in s))
                      for s in sets]
        same_share = all(
            all(r["failed"] * s[0]["attempted"] == s[0]["failed"] * r["attempted"]
                for r in s) for s in sets if s) and len(set(share_vals)) <= 1
        ok &= same_share
        print("  failed/attempted per set: %s%s" %
              (", ".join(shares), "" if same_share else "  SHARE DIFFERS"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols = []
            medians = []
            for s in sets:
                vals = [r["metrics"][name]["value"] for r in s]
                if len(vals) < 2:
                    cols.append("n/a")
                    continue
                med, sp = statistics.median(vals), spread(vals)
                medians.append(med)
                flag = "" if sp <= bound else " SPREAD>BOUND"
                ok &= flag == ""
                cols.append("median %-12.6g IQR %5.1f%%%s" % (med, 100 * sp, flag))
            verdict = ""
            if len(medians) >= 2:
                drift = worse_by(medians[0], medians[1], m["better"])
                verdict = "agree" if abs(drift) <= bound else "DISAGREE"
                verdict += " (%+.1f%% worse, bound %.0f%%)" % (100 * drift, 100 * bound)
                ok &= abs(drift) <= bound
            print("  %-18s %s  %s" % (name, " | ".join(cols), verdict))
        if traced:
            print("  traced runs (%d): coverage median %.4f" % (
                len(traced), statistics.median(
                    t["metrics"]["trace.coverage"]["value"] for t in traced)))
            for m in spec["end_to_end"]:
                tv = statistics.median(
                    t["metrics"]["traced." + m["name"]]["value"] for t in traced)
                uv = statistics.median(
                    r["metrics"][m["name"]]["value"] for r in sets[0][:len(traced)])
                print("    %-18s traced %-12.6g untraced %-12.6g (%+.1f%%)" %
                      (m["name"], tv, uv, 100 * (tv - uv) / uv))

    os.makedirs(os.path.dirname(opts.out), exist_ok=True)
    with open(opts.out, "w") as f:
        json.dump(results, f, indent=1)
    print("\nall results: %s\n%s" % (opts.out, "STEADY" if ok else "NOT STEADY"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
