#!/usr/bin/env python3
"""predintd benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload yield-mc --seed 1 --seconds 15 --trace 0

builds cmd/predintd and the load generator in perfbench/bench (into the build
directory named by CARGO_TARGET_DIR, default .bench_build), then runs the
generator, whose last stdout line is the JSON result.

    python3 perfbench/run.py --all [--seed 1] [--trace 0]

runs every workload once and ends with a table of each workload's
metrics, units, and requests attempted and failed.

    python3 perfbench/run.py --steadiness [--runs 5]

runs two sets of every workload with distinct seeds and prints, per
end-to-end metric, each set's median and quartiles, the spread (IQR over
median) and the set-to-set gap against the metric's bound in
BENCHMARK.json, next to nproc, the CPU model, the steal ticks and each
run's reference-loop time (the host's speed, which steal does not show).

The window is --seconds, or run_seconds from BENCHMARK.json when it is
not given.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["yield-mc", "yield-warm", "size-deep", "shard-fanout"]


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def go_env(bdir):
    """Keeps every file the go tool writes inside the build directory."""
    home = os.path.join(bdir, "home")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(bdir, "gocache"),
        "GOPATH": os.path.join(bdir, "gopath"),
        "GOMODCACHE": os.path.join(bdir, "gopath", "pkg", "mod"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOENV": "off",
        "CGO_ENABLED": "0",
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "TMPDIR": os.path.join(bdir, "tmp"),
    })
    return env


def build():
    """Builds predintd and the load generator; returns their paths."""
    if not (os.path.isfile(os.path.join(ROOT, "go.mod"))
            and os.path.isdir(os.path.join(ROOT, "cmd", "predintd"))):
        sys.exit("perfbench: %s holds no predint source tree (go.mod, cmd/predintd)" % ROOT)
    bdir = build_dir()
    bin_dir = os.path.join(bdir, "bin")
    for d in ("home", "tmp"):
        os.makedirs(os.path.join(bdir, d), exist_ok=True)
    env = go_env(bdir)
    predintd = os.path.join(bin_dir, "predintd")
    bench = os.path.join(bin_dir, "bench")
    for cwd, out, pkg in ((ROOT, predintd, "./cmd/predintd"),
                          (os.path.join(HERE, "bench"), bench, ".")):
        try:
            r = subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env,
                               stdout=sys.stderr, stderr=sys.stderr)
        except FileNotFoundError:
            sys.exit("perfbench: the go toolchain is not on PATH")
        if r.returncode != 0:
            sys.exit("perfbench: go build %s failed" % pkg)
    return bdir, predintd, bench


def bench_cmd(bdir, predintd, bench, workload, seed, seconds, trace):
    return [bench, "-workload", workload, "-seed", str(seed % (1 << 64)), "-seconds", str(seconds),
            "-trace", str(trace), "-predintd", predintd,
            "-logs", os.path.join(bdir, "logs", workload)]


def steal_ticks():
    with open("/proc/stat") as f:
        return int(f.readline().split()[8])


def cpu_model():
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def steadiness(args, spec, bdir, predintd, bench, seconds):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    steal0 = steal_ticks()
    print("machine: nproc %d, cpu %r" % (os.cpu_count(), cpu_model()))
    sets = [{}, {}]
    refs = [[], []]
    for s in range(2):
        for w in workloads:
            for i in range(args.runs):
                seed = args.seed + 1000 * s + i
                out = subprocess.run(bench_cmd(bdir, predintd, bench, w, seed, seconds, 0),
                                     capture_output=True, text=True)
                if out.returncode != 0:
                    sys.exit("perfbench: %s seed %d failed:\n%s" % (w, seed, out.stderr))
                res = json.loads(out.stdout.strip().splitlines()[-1])
                if not res["correct"] or res["failed"]:
                    sys.exit("perfbench: %s seed %d: %d of %d failed" % (w, seed, res["failed"], res["attempted"]))
                for name, m in res["metrics"].items():
                    sets[s].setdefault((w, name), []).append(m["value"])
                steal = re.search(r"steal (\d+) ticks", out.stdout)
                ref = re.search(r"reference loop ([\d.]+) ms", out.stdout)
                if ref:
                    refs[s].append(float(ref.group(1)))
                print("set %d %s seed %d: %s steal=%s ref_ms=%s" % (s + 1, w, seed, " ".join(
                    "%s=%.5g" % (k, v["value"]) for k, v in sorted(res["metrics"].items())),
                    steal.group(1) if steal else "?", ref.group(1) if ref else "?"), flush=True)
    print("steal ticks during the sets: %d" % (steal_ticks() - steal0))
    if refs[0] and refs[1]:
        print("reference loop median: set 1 %.3f ms, set 2 %.3f ms" % (
            statistics.median(refs[0]), statistics.median(refs[1])))
    print("%-14s %-16s %10s %10s %10s %8s %8s %8s %6s" % (
        "workload", "metric", "median1", "median2", "q1..q3(1)", "spread1", "spread2", "gap", "bound"))
    # setup_s is held to its bound on the set-to-set gap only, not on the
    # spread, so its spreads are reported apart.
    worst, worst_setup = 0.0, 0.0
    for w in workloads:
        for name in sorted(bounds):
            a, b = sets[0].get((w, name)), sets[1].get((w, name))
            if not a or not b:
                continue
            m1, m2 = statistics.median(a), statistics.median(b)
            spreads = []
            for xs in (a, b):
                q = statistics.quantiles(xs, n=4)
                spreads.append((q[2] - q[0]) / statistics.median(xs))
            q = statistics.quantiles(a, n=4)
            gap = (m2 - m1) / m1
            bound = bounds[name]
            if name == "setup_s":
                worst_setup = max(worst_setup, max(spreads) / bound)
            else:
                worst = max(worst, max(spreads) / bound)
            worst = max(worst, abs(gap) / bound)
            print("%-14s %-16s %10.4g %10.4g %4.3g..%-4.3g %8.3f %8.3f %+8.3f %6.2f" % (
                w, name, m1, m2, q[0], q[2], spreads[0], spreads[1], gap, bound))
    print("largest spread (setup_s aside) or gap as a share of its bound: %.2f" % worst)
    print("largest setup_s spread as a share of its bound: %.2f" % worst_setup)


def run_all(args, bdir, predintd, bench, seconds):
    """Runs every workload once; exits non-zero if any run fails."""
    rows, bad = [], False
    for w in WORKLOADS:
        out = subprocess.run(bench_cmd(bdir, predintd, bench, w, args.seed, seconds, args.trace),
                             stdout=subprocess.PIPE, text=True)
        sys.stdout.write(out.stdout)
        if out.returncode != 0:
            rows.append((w, None))
            bad = True
            continue
        res = json.loads(out.stdout.strip().splitlines()[-1])
        bad = bad or not res["correct"] or res["failed"] > 0
        rows.append((w, res))
    print("\nsummary (seed %d, %gs windows):" % (args.seed, seconds))
    for w, res in rows:
        if res is None:
            print("  %-13s run failed" % w)
            continue
        print("  %-13s attempted %d, failed %d, correct %s" % (w, res["attempted"], res["failed"], res["correct"]))
        for name, m in sorted(res["metrics"].items()):
            print("    %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    if bad:
        sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload once")
    ap.add_argument("--steadiness", action="store_true", help="run two sets of every workload")
    ap.add_argument("--runs", type=int, default=5, help="runs per workload per set in --steadiness")
    args = ap.parse_args()
    if not (args.workload or args.all or args.steadiness):
        ap.error("one of --workload, --all or --steadiness is required")
    bdir, predintd, bench = build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    if args.steadiness:
        steadiness(args, spec, bdir, predintd, bench, seconds)
        return
    if args.all:
        run_all(args, bdir, predintd, bench, seconds)
        return
    r = subprocess.run(bench_cmd(bdir, predintd, bench, args.workload, args.seed, seconds, args.trace))
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
