#!/usr/bin/env python3
"""Compares two sets of sc_bench runs against BENCHMARK.json's bounds.

    python3 bench/e2e/compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]
    python3 bench/e2e/compare.py --self-test

Each directory holds untraced sc_bench run JSONs (as written by
`sc_bench --out` or `run.py --save`). For every workload x end-to-end metric
it prints each side's median and quartiles, the spread (quartile distance
over the median), the share of seed-matched pairs the new side wins, and a
verdict:

  improved    the new side wins >= 90% of pairs and the medians differ by
              more than the base side's quartile distance
  unchanged   the new median is within the bound of the base median
  regressed   the new median is worse than the base median by more than
              the bound
  unresolved  a side's spread is wider than the bound, and the new side
              does not read better in every run

Deterministic metrics (mean_relative, cut_fraction) and every hash must be
exactly equal between runs of the same workload and seed. Runs whose env
blocks differ are not compared. Exits 0 when nothing regressed, nothing is
unresolved and nothing deterministic changed; 1 otherwise; 2 on bad input.
Standard library only.
"""
import argparse
import glob
import json
import os
import shutil
import statistics
import sys
import tempfile

DETERMINISTIC = ("mean_relative", "cut_fraction")
WIN_SHARE = 0.9


def load_runs(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            doc = json.load(f)
        if doc.get("schema") != "sc_bench/1" or doc.get("traced"):
            continue
        for w in doc["workloads"]:
            runs.append({"file": os.path.basename(path), "seed": doc["seed"],
                         "env": doc["env"], "workload": w})
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    med = statistics.median(values)
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, new, better, bound):
    """Verdict for one metric; base/new are lists of (seed, value)."""
    a = [v for _, v in base]
    b = [v for _, v in new]
    ma, mb = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (mb - ma) / abs(ma) if ma else 0.0
    # Pair runs by seed, in file order within a seed.
    by_seed = {}
    for s, v in base:
        by_seed.setdefault(s, [[], []])[0].append(v)
    for s, v in new:
        by_seed.setdefault(s, [[], []])[1].append(v)
    wins = pairs = 0
    for xs, ys in by_seed.values():
        for x, y in zip(xs, ys):
            pairs += 1
            wins += (sign * (y - x)) < 0
    share = wins / pairs if pairs else 0.0
    q1, q3 = quartiles(a)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    improved = share >= WIN_SHARE and sign * (mb - ma) < 0 and abs(mb - ma) > (q3 - q1)
    if max(spread(a), spread(b)) > bound and not all_better:
        v = "unresolved"
    elif worse > bound:
        v = "regressed"
    elif improved:
        v = "improved"
    else:
        v = "unchanged"
    return v, share


def compare(base_dir, new_dir, bench_path, out=sys.stdout):
    with open(bench_path) as f:
        bench = json.load(f)
    base, new = load_runs(base_dir), load_runs(new_dir)
    if not base or not new:
        print("compare.py: no untraced sc_bench runs in one of the directories", file=out)
        return 2
    envs = {json.dumps(r["env"], sort_keys=True) for r in base + new}
    if len(envs) > 1:
        print("compare.py: refusing to compare runs from different environments:", file=out)
        for e in sorted(envs):
            print("  " + e, file=out)
        return 2

    status = 0
    rows = []
    workloads = [w["name"] for w in bench["workloads"]]
    for wl in workloads:
        b_runs = [r for r in base if r["workload"]["name"] == wl]
        n_runs = [r for r in new if r["workload"]["name"] == wl]
        if not b_runs or not n_runs:
            continue
        for r in b_runs + n_runs:
            if not r["workload"]["correct"]:
                rows.append(f"{wl}: run {r['file']} failed its correctness checks")
                status = 1
        # Deterministic outputs: equal for every run of a seed, on both sides.
        per_seed = {}
        for r in b_runs + n_runs:
            w = r["workload"]
            key = dict(w["hashes"])
            for m in DETERMINISTIC:
                key[m] = w["metrics"][m]["value"]
            per_seed.setdefault(r["seed"], []).append((r["file"], key))
        for seed, keys in sorted(per_seed.items()):
            first = keys[0][1]
            for fname, k in keys[1:]:
                if k != first:
                    diff = sorted(x for x in set(first) | set(k) if first.get(x) != k.get(x))
                    rows.append(f"{wl}: seed {seed}: {', '.join(diff)} differ between "
                                f"{keys[0][0]} and {fname}")
                    status = 1
        for m in bench["end_to_end"]:
            name = m["name"]
            bv = [(r["seed"], r["workload"]["metrics"][name]["value"]) for r in b_runs]
            nv = [(r["seed"], r["workload"]["metrics"][name]["value"]) for r in n_runs]
            v, share = verdict(bv, nv, m["better"], m["bound"])
            if name in DETERMINISTIC or name == "setup_s":
                # Deterministic metrics are checked for equality above; the
                # set-up time is judged on its median alone.
                if v == "unresolved":
                    a = statistics.median(x for _, x in bv)
                    b = statistics.median(x for _, x in nv)
                    sign = 1.0 if m["better"] == "lower" else -1.0
                    v = "regressed" if a and sign * (b - a) / abs(a) > m["bound"] else "unchanged"
            if v in ("regressed", "unresolved"):
                status = 1

            def fmt(vals):
                xs = [x for _, x in vals]
                q1, q3 = quartiles(xs)
                return (f"{statistics.median(xs):.5g} [{q1:.5g}, {q3:.5g}] "
                        f"spread {100 * spread(xs):.1f}%")

            rows.append(f"{wl:13s} {name:14s} base {fmt(bv):44s} new {fmt(nv):44s} "
                        f"wins {100 * share:3.0f}% bound {100 * m['bound']:.0f}%  {v}")
    print(f"base: {base_dir} ({len(base)} runs)  new: {new_dir} ({len(new)} runs)", file=out)
    print("env: " + envs.pop(), file=out)
    for row in rows:
        print(row, file=out)
    return status


def self_test():
    bench = {
        "end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "mean_relative", "unit": "ratio", "better": "higher", "bound": 0.1},
            {"name": "cut_fraction", "unit": "ratio", "better": "lower", "bound": 0.1},
        ],
        "workloads": [{"name": "w", "why": "test"}],
    }
    env = {"build_type": "Release", "nproc": 4, "threads": 4}

    def write(directory, seed, idx, throughput=100.0, p50=10.0, rel=0.5, hashes=None,
              env_override=None):
        doc = {"schema": "sc_bench/1", "seed": seed, "traced": False,
               "env": env_override or env,
               "workloads": [{"name": "w", "correct": True, "attempted": 1, "failed": 0,
                              "failures": [], "hashes": hashes or {"p": "0x1"},
                              "metrics": {
                                  "setup_s": {"value": 1.0 + 0.01 * idx, "unit": "s"},
                                  "throughput": {"value": throughput, "unit": "1/s"},
                                  "p50_ms": {"value": p50, "unit": "ms"},
                                  "mean_relative": {"value": rel, "unit": "ratio"},
                                  "cut_fraction": {"value": 0.2, "unit": "ratio"}}}]}
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, f"w-{seed}-{idx}.json"), "w") as f:
            json.dump(doc, f)

    tmp = tempfile.mkdtemp(prefix="compare-selftest-")
    try:
        bench_path = os.path.join(tmp, "BENCHMARK.json")
        with open(bench_path, "w") as f:
            json.dump(bench, f)

        def case(name, base_kw, new_kw, expect_status, expect_text):
            b, n = os.path.join(tmp, name, "base"), os.path.join(tmp, name, "new")
            for i in range(10):
                write(b, 42, i, **base_kw(i))
                write(n, 42, i, **new_kw(i))
            buf = _Capture()
            status = compare(b, n, bench_path, out=buf)
            ok = status == expect_status and expect_text in buf.text
            print(f"self-test {name}: {'ok' if ok else 'FAILED'}")
            if not ok:
                print(buf.text)
            return ok

        jitter = lambda i: {"throughput": 100.0 + (i % 3), "p50": 10.0 + 0.1 * (i % 4)}
        results = [
            case("same", jitter, jitter, 0, "unchanged"),
            case("regressed", jitter,
                 lambda i: {"throughput": 80.0 + (i % 3), "p50": 10.0 + 0.1 * (i % 4)},
                 1, "regressed"),
            case("improved", jitter,
                 lambda i: {"throughput": 100.0 + (i % 3), "p50": 7.0 + 0.1 * (i % 4)},
                 0, "improved"),
            case("unresolved", jitter,
                 lambda i: {"throughput": 60.0 + 20 * (i % 4), "p50": 10.0},
                 1, "unresolved"),
            case("hash", jitter,
                 lambda i: dict(jitter(i), hashes={"p": "0x2"}), 1, "differ"),
            case("deterministic", jitter,
                 lambda i: dict(jitter(i), rel=0.5 + 1e-9), 1, "mean_relative"),
            case("env", jitter,
                 lambda i: dict(jitter(i), env_override=dict(env, nproc=8)), 2, "refusing"),
        ]
        return 0 if all(results) else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


class _Capture:
    def __init__(self):
        self.text = ""

    def write(self, s):
        self.text += s


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="?")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
        "BENCHMARK.json"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.new:
        ap.error("BASE_DIR and NEW_DIR are required")
    return compare(args.base, args.new, args.benchmark)


if __name__ == "__main__":
    sys.exit(main())
