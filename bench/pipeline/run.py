#!/usr/bin/env python3
"""Runner of the pipeline benchmark: build, run, reduce, compare.

One run of one workload; the last line of stdout is the result object:

    python3 bench/pipeline/run.py --workload fmm-kernel --seed 1 --seconds 15 --trace 0

--trace 1 runs the workload untraced and then traced, checks that the two
agree bit for bit, prints the tracing overhead, and reports the per-layer
metrics instead of the end-to-end ones.

Every workload, or one, repeated; the run medians go to a results file:

    python3 bench/pipeline/run.py --repeat 5 [--workload W] [--seed S] [--out FILE]
    python3 bench/pipeline/run.py --trace 1          # traced run of every workload
    python3 bench/pipeline/run.py --compare A.json B.json
    python3 bench/pipeline/run.py --self-test

The program is built from the sources beside this file into
build/bench-pipeline/. Metric names, units, directions and bounds come from
BENCHMARK.json at the repository root; README.md explains them.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build" / "bench-pipeline"
BINARY = BUILD / "bench_pipeline"
TRACES = BUILD / "traces"

# OpenMP threads per workload: the service pins its own executor width and
# runs every sweep single-threaded inside it.
OMP_THREADS = {"fmm-kernel": 4, "fmm-dense": 4, "ulv-regression": 4, "serve": 1}
# Workloads that load dense zoo matrices from the disk cache.
NEEDS_ZOO_CACHE = {"fmm-dense", "serve"}
# Fingerprint fields the traced run must reproduce exactly.
FINGERPRINT = ("eps2", "memory_bytes", "eval_flops", "entries")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


class RunError(Exception):
    """A build or a run that produced no result."""


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ------------------------------------------------------------- statistics --


def median(values):
    return statistics.median(values)


def tail(values, better):
    """Highest percentile with at least ten samples beyond it, on the worse
    side, as (label, value); the worst sample when there are ten or fewer."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return ("max", xs[-1]) if better == "lower" else ("min", xs[0])
    if better == "lower":
        return f"p{100.0 * (n - 10) / n:.3g}", xs[n - 11]
    return f"p{100.0 * 10 / n:.3g}", xs[10]


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def verdict(parent, change, bound, better):
    """ok, regressed or unresolved for one metric x workload.

    Unresolved when either side's spread is wider than the bound, unless
    every run of the change reads better than every run of the parent."""
    if spread(parent) > bound or spread(change) > bound:
        if better == "lower":
            clear_win = max(change) < min(parent)
        else:
            clear_win = min(change) > max(parent)
        return "ok" if clear_win else "unresolved"
    a, b = median(parent), median(change)
    worse = (b - a) / a if better == "lower" else (a - b) / a
    return "regressed" if worse > bound else "ok"


def parse_result_line(stdout):
    """The result object: the last line of a single run's standard output."""
    lines = [line for line in stdout.strip().splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    obj = json.loads(lines[-1])
    keys = {"correct", "attempted", "failed", "metrics"}
    if set(obj) != keys:
        raise ValueError(f"result keys {sorted(obj)} are not {sorted(keys)}")
    if not isinstance(obj["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool) or obj[key] < 0:
            raise ValueError(f"{key} is not a whole number")
    if obj["attempted"] < 1:
        raise ValueError("attempted is below 1")
    for name, m in obj["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            raise ValueError(f"metric {name} is malformed")
    return obj


# ------------------------------------------------------------ build / run --


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "bench_pipeline", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                   timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                raise RunError(f"build step {cmd[:2]} failed: {e}")
            if r.returncode != 0:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                raise RunError(f"build failed (log: {log_path})")


def environment(workload):
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(OMP_THREADS[workload])
    env["GOFMM_CACHE_DIR"] = str(BUILD / "zoo_cache")
    return env


def invoke(cmd, env):
    try:
        r = subprocess.run(cmd, env=env, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunError(f"{' '.join(cmd[1:])} timed out after {RUN_TIMEOUT_S} s")
    return r


def warm_cache(workload):
    """Generate the dense zoo matrices before any timed process."""
    if workload not in NEEDS_ZOO_CACHE:
        return
    r = invoke([str(BINARY), "--warm-cache"], environment(workload))
    if r.returncode != 0:
        raise RunError(f"--warm-cache failed: {r.stderr.strip()}")


def run_once(workload, seed, seconds, trace):
    """One process; returns the program's JSON report."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(TRACES / f"{workload}-seed{seed}.json")]
    r = invoke(cmd, environment(workload))
    if r.returncode == 2:  # the program names the workload and the seed
        raise RunError(r.stderr.strip())
    if r.returncode != 0:
        raise RunError(f"{workload} seed {seed} exited {r.returncode}: "
                       f"{r.stderr.strip()[-2000:]}")
    try:
        return json.loads(r.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise RunError(f"{workload} seed {seed} printed no report")


def reduce_samples(report, metrics):
    """Median of each end-to-end metric's in-run samples."""
    out = {}
    for m in metrics:
        values = report["samples"].get(m["name"])
        out[m["name"]] = median(values) if values else None
    return out


def print_end_to_end(report, metrics):
    for m in metrics:
        values = report["samples"].get(m["name"], [])
        if not values:
            print(f"  {m['name']:<18} missing")
            continue
        label, worst = tail(values, m["better"])
        print(f"  {m['name']:<18} {median(values):>12.6g} {m['unit']:<6} "
              f"{label} {worst:.6g}  n={len(values)}")


def report_failures(report):
    for what in report["failures"]:
        print(f"  FAILED: {what}", file=sys.stderr)


def traced_pair(workload, seed, seconds, bench):
    """Untraced then traced run of one seed: bit-equality checks, overhead.

    Returns (traced report, checks attempted, checks failed)."""
    plain = run_once(workload, seed, seconds, False)
    traced = run_once(workload, seed, seconds, True)
    attempted, failed = plain["attempted"] + traced["attempted"], plain["failed"] + traced["failed"]
    report_failures(plain)
    report_failures(traced)
    for key in FINGERPRINT:
        attempted += 1
        a, b = plain["fingerprint"][key], traced["fingerprint"][key]
        if a != b:
            failed += 1
            print(f"  FAILED: traced {key} {b!r} differs from untraced {a!r}", file=sys.stderr)
    print(f"{workload}: tracing overhead (traced / untraced median - 1)")
    for m in bench["end_to_end"]:
        if m["unit"] not in ("s", "ms", "1/s") or m["name"] == "setup_s":
            continue
        a = median(plain["samples"][m["name"]])
        b = median(traced["samples"][m["name"]])
        print(f"  {m['name']:<18} {100.0 * (b / a - 1.0):+7.2f}%")
    summary = {"workload": workload, "seed": seed, "layers": traced["layers"],
               "spans": traced["spans"]}
    (TRACES / f"{workload}-seed{seed}-summary.json").write_text(json.dumps(summary, indent=1))
    return traced, attempted, failed


def host_info():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = "unknown"
    cache = BUILD / "CMakeCache.txt"
    if cache.exists():
        found = re.search(r"^CMAKE_CXX_COMPILER:[A-Z]+=(.+)$", cache.read_text(), re.M)
        if found:
            try:
                out = subprocess.run([found.group(1), "--version"], capture_output=True,
                                     text=True, timeout=10).stdout
                compiler = out.splitlines()[0] if out else found.group(1)
            except (OSError, subprocess.TimeoutExpired):
                compiler = found.group(1)
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "git_sha": sha or "unknown", "loadavg_start": os.getloadavg()[0]}


def warn_if_loaded(info):
    if info["loadavg_start"] > (info["nproc"] or 1) / 2:
        print(f"warning: load average {info['loadavg_start']:.2f} is above nproc/2; "
              "timings will be noisy", file=sys.stderr)


# ------------------------------------------------------------------ modes --


def single_run(args, bench):
    """One workload, one seed: the result object on the last line."""
    info = host_info()
    warn_if_loaded(info)
    build()
    warm_cache(args.workload)
    if args.trace:
        traced, attempted, failed = traced_pair(args.workload, args.seed, args.seconds, bench)
        metrics = {}
        for m in bench["per_layer"]:
            value = traced["layers"].get(m["name"])
            if value is None:
                failed += 1
                print(f"  FAILED: per-layer metric {m['name']} missing", file=sys.stderr)
                continue
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:<30} {value:>14.6g} {m['unit']}")
    else:
        report = run_once(args.workload, args.seed, args.seconds, False)
        report_failures(report)
        attempted, failed = report["attempted"], report["failed"]
        print(f"{args.workload} seed {args.seed}: {args.seconds} s window")
        print_end_to_end(report, bench["end_to_end"])
        metrics = {}
        for name, value in reduce_samples(report, bench["end_to_end"]).items():
            if value is None or not math.isfinite(value) or value == 0:
                failed += 1
                print(f"  FAILED: metric {name} missing or zero", file=sys.stderr)
                continue
            unit = next(m["unit"] for m in bench["end_to_end"] if m["name"] == name)
            metrics[name] = {"value": value, "unit": unit}
    correct = failed == 0
    line = json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})
    parse_result_line(line)  # the line must meet the result contract it states
    print(line)
    return 0 if correct else 1


def repeated_runs(args, bench):
    """Every (or one) workload, --repeat times; run medians to --out."""
    info = host_info()
    warn_if_loaded(info)
    build()
    workloads = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    results = {"host": info, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "runs": {}}
    failed_any = False
    for workload in workloads:
        warm_cache(workload)
        runs = []
        for i in range(args.repeat):
            if args.trace:
                traced, attempted, failed = traced_pair(workload, args.seed, args.seconds, bench)
                runs.append({"attempted": attempted, "failed": failed,
                             "metrics": traced["layers"]})
            else:
                report = run_once(workload, args.seed, args.seconds, False)
                report_failures(report)
                runs.append({"attempted": report["attempted"], "failed": report["failed"],
                             "metrics": reduce_samples(report, bench["end_to_end"])})
            failed_any |= runs[-1]["failed"] > 0
            print(f"{workload} run {i + 1}/{args.repeat}: "
                  f"{runs[-1]['failed']} of {runs[-1]['attempted']} checks failed")
        results["runs"][workload] = runs
        if not args.trace:
            print(f"{workload}: median [Q1, Q3] of {len(runs)} run medians")
            for m in bench["end_to_end"]:
                values = [r["metrics"][m["name"]] for r in runs]
                q1, q2, q3 = quartiles(values)
                print(f"  {m['name']:<18} {q2:>12.6g} [{q1:.6g}, {q3:.6g}] {m['unit']:<6} "
                      f"spread {100 * spread(values):.1f}% (bound {100 * m['bound']:.0f}%)")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"wrote {out}")
    return 1 if failed_any else 0


def compare(path_a, path_b, bench):
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    if a["trace"] or b["trace"]:
        print("run.py: --compare takes untraced results (end-to-end metrics)", file=sys.stderr)
        return 2
    bad = False
    print(f"{'workload':<15} {'metric':<17} {'A median [Q1, Q3]':>30} "
          f"{'B median [Q1, Q3]':>30} {'change':>8}  verdict")
    for workload in a["runs"]:
        if workload not in b["runs"]:
            continue
        for side, runs in (("A", a["runs"][workload]), ("B", b["runs"][workload])):
            if any(r["failed"] for r in runs):
                print(f"{workload:<15} {side} has failed checks")
                bad = True
        for m in bench["end_to_end"]:
            va = [r["metrics"][m["name"]] for r in a["runs"][workload]]
            vb = [r["metrics"][m["name"]] for r in b["runs"][workload]]
            qa, qb = quartiles(va), quartiles(vb)
            v = verdict(va, vb, m["bound"], m["better"])
            bad |= v == "regressed"
            change = 100.0 * (qb[1] / qa[1] - 1.0)
            print(f"{workload:<15} {m['name']:<17} "
                  f"{qa[1]:>10.4g} [{qa[0]:.4g}, {qa[2]:.4g}]".ljust(63)
                  + f"{qb[1]:>10.4g} [{qb[0]:.4g}, {qb[2]:.4g}]".ljust(31)
                  + f"{change:+7.2f}%  {v}")
    return 1 if bad else 0


# -------------------------------------------------------------- self-test --


class SelfTest(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(tail(values, "lower"), ("p90", 90))
        self.assertEqual(tail(values, "higher"), ("p10", 11))
        label, v = tail(list(range(1000)), "lower")
        self.assertEqual((label, v), ("p99", 989))
        self.assertEqual(sum(x > v for x in range(1000)), 10)

    def test_tail_falls_back_to_extremes(self):
        self.assertEqual(tail([3, 1, 2], "lower"), ("max", 3))
        self.assertEqual(tail([3, 1, 2], "higher"), ("min", 1))
        self.assertEqual(tail(list(range(10)), "lower"), ("max", 9))
        self.assertEqual(tail(list(range(11)), "lower")[1], 0)

    def test_quartiles_and_spread(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, q2, q3 = quartiles(values)
        self.assertEqual((q1, q2, q3), tuple(statistics.quantiles(values, n=4)))
        self.assertAlmostEqual(spread(values), (q3 - q1) / q2)
        self.assertEqual(spread([5.0]), 0.0)

    def test_verdict(self):
        base = [100.0, 101.0, 99.0, 100.5, 99.5]
        self.assertEqual(verdict(base, [v * 1.05 for v in base], 0.10, "lower"), "ok")
        self.assertEqual(verdict(base, [v * 1.20 for v in base], 0.10, "lower"), "regressed")
        self.assertEqual(verdict(base, [v * 0.80 for v in base], 0.10, "higher"), "regressed")
        self.assertEqual(verdict(base, [v * 1.20 for v in base], 0.10, "higher"), "ok")
        noisy = [50.0, 100.0, 150.0, 200.0, 250.0]
        self.assertEqual(verdict(base, noisy, 0.10, "lower"), "unresolved")
        self.assertEqual(verdict(noisy, [1.0, 2.0, 3.0], 0.10, "lower"), "ok")

    def test_parse_result_line(self):
        good = ('build log\n{"correct": true, "attempted": 3, "failed": 0, '
                '"metrics": {"op_ms": {"value": 1.5, "unit": "ms"}}}\n')
        self.assertEqual(parse_result_line(good)["metrics"]["op_ms"]["value"], 1.5)
        for bad in ('{"correct": true, "attempted": 0, "failed": 0, "metrics": {}}',
                    '{"correct": 1, "attempted": 2, "failed": 0, "metrics": {}}',
                    '{"correct": true, "attempted": 2, "failed": 0}',
                    '{"correct": true, "attempted": 2.5, "failed": 0, "metrics": {}}',
                    '{"correct": true, "attempted": 2, "failed": 0, '
                    '"metrics": {"x": {"value": "1", "unit": "s"}}}',
                    ''):
            with self.assertRaises(ValueError):
                parse_result_line(bad)

    def test_benchmark_json_matches_the_program(self):
        bench = load_benchmark()
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", [m["name"] for m in bench["end_to_end"]])
        for m in bench["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
            self.assertIn(m["better"], ("lower", "higher"))
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(OMP_THREADS))
        source = (HERE / "bench_pipeline.cpp").read_text()
        listed = re.search(r"kLayerNames = \{(.*?)\};", source, re.S).group(1)
        self.assertEqual(re.findall(r'"([^"]+)"', listed),
                         [m["name"] for m in bench["per_layer"]])


def self_test():
    suite = unittest.defaultTestLoader.loadTestsFromTestCase(SelfTest)
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1


def main():
    bench = load_benchmark()
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="runs per workload; results go to --out")
    p.add_argument("--out", default=str(BUILD / "results.json"))
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if args.compare:
        return compare(args.compare[0], args.compare[1], bench)
    try:
        if args.workload and args.repeat == 0:
            return single_run(args, bench)
        args.repeat = max(1, args.repeat)
        return repeated_runs(args, bench)
    except RunError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
