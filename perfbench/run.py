#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload stream|retract|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (Release, against ../src) into the build directory, which is
$CARGO_TARGET_DIR when set and .bench_build otherwise; later runs only
re-check the build. dv_perfbench's stdout is relayed, and its last line is
rewritten so that its metrics are exactly those BENCHMARK.json lists: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1
(0 for a layer the workload does not exercise). Exits nonzero, without a
result line, when the sources are missing, the build fails or the run
crashes; exits 1 with a result line when an output check failed.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no deltav sources under " + os.path.join(ROOT, "src"))
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-G", "Ninja",
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "dv_perfbench")


def listed_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    args = sys.argv[1:]
    trace = "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]
    out = build_dir()
    binary = build(out)
    try:
        proc = subprocess.run([binary] + args + ["--out-dir", out],
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail("run ended without a result line (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    measured = result["metrics"]
    metrics = {}
    for m in listed_metrics(trace):
        got = measured.get(m["name"])
        if got is None and not trace:
            fail("end-to-end metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": got["value"] if got else 0,
                              "unit": m["unit"]}
    result["metrics"] = metrics
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
