#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--save DIR]

Run from the repository root. Builds sc_bench and sc_serve from source into
.bench_build/ (Release, SC_VALIDATE=OFF, SC_SANITIZE=OFF; a no-op once
built), runs `sc_bench --workload <name>`, and prints as the last line of
stdout one JSON object:

    {"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics (from a traced run). --save DIR keeps
sc_bench's full run JSON in DIR as <workload>-<seed>-run<n>.json (a traced
run: -traced<n>.json plus its Chrome trace, -traced<n>.trace.json), which
is what compare.py reads. Build output goes to stderr. Exits non-zero,
without a result line, when the build or the run fails.
"""
import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170
# The benchmark's thread count (and build parallelism): 4, or fewer CPUs.
THREADS = min(4, len(os.sched_getaffinity(0)))


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    # Compiler temporaries stay inside the checkout too.
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(BUILD, "tmp")
    # One build at a time per checkout.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
                 "-DSC_VALIDATE=OFF", "-DSC_SANITIZE=OFF"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", BUILD, "-j", str(THREADS), "--target", "sc_bench",
             "tool_sc_serve"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD, "sc_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="directory that keeps the full run JSON")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r} (one of {', '.join(names)})")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        sc_bench = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    work = os.path.join(BUILD, f"work-{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = os.path.join(work, "run.json")
    cmd = [sc_bench, "--workload", args.workload, "--seed", str(args.seed),
           "--threads", str(THREADS), "--seconds", str(args.seconds),
           "--out", out, "--workdir", work]
    trace = os.path.join(work, "run.trace.json")
    if args.trace:
        cmd += ["--trace", trace]
    # A session of its own, so a timeout takes sc_serve down with sc_bench.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"sc_bench did not finish within {RUN_TIMEOUT_S} s")
        shutil.rmtree(work, ignore_errors=True)
        return 1

    try:
        with open(out) as f:
            run = json.load(f)
    except (OSError, ValueError) as e:
        log(f"sc_bench (exit {code}) wrote no run JSON: {e}")
        shutil.rmtree(work, ignore_errors=True)
        return 1
    if args.save:
        os.makedirs(args.save, exist_ok=True)
        kind = "traced" if args.trace else "run"
        n = 1
        stem = os.path.join(args.save, f"{args.workload}-{args.seed}-{kind}")
        while os.path.exists(f"{stem}{n}.json"):
            n += 1
        stem = f"{stem}{n}"
        shutil.copy(out, stem + ".json")
        if args.trace and os.path.exists(trace):
            shutil.copy(trace, stem + ".trace.json")
    shutil.rmtree(work, ignore_errors=True)

    result = run["workloads"][0]
    source = result["layer_metrics" if args.trace else "metrics"]
    metrics = {}
    for m in wanted:
        if m["name"] not in source:
            log(f"sc_bench did not report {m['name']}")
            return 1
        metrics[m["name"]] = {"value": source[m["name"]]["value"], "unit": m["unit"]}
    for f in result["failures"]:
        log(f"correctness check failed: {f}")
    print(json.dumps({
        "correct": bool(result["correct"]) and code == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
