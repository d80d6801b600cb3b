#!/usr/bin/env python3
"""End-to-end benchmark front door.

Builds the `e2ebench` replay driver from source, runs one workload, adds
the host fingerprint, checks the result and prints every metric with its
unit and sample count. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 e2ebench/run.py --workload circuit-pipelined-gc --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload stencil-dcr-timed --seed 1 --trace 1
    python3 e2ebench/run.py --workload pennant-sync-autotrace --repeat 5
    python3 e2ebench/run.py --workload circuit-pipelined-gc --self-test

Run it from the repository root. See e2ebench/README.md for the workloads
and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = ".bench_out"
# A run's own limit, below the 180 s every run must end within.
RUN_TIMEOUT_S = 170
# What the environment self-test sets: each would change the runtime's
# behaviour if a configuration knob leaked through from the environment.
HOSTILE_ENV = {"VIZ_PIPELINE": "1", "VIZ_INTERN": "off", "VIZ_VIS_BACKEND": "batch"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Build the driver; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "runtime", "Cargo.toml")):
        log("e2ebench: the repository's crates/ are missing; nothing to build against")
        sys.exit(2)
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    t = time.time()
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        log("e2ebench: build failed")
        sys.exit(2)
    log(f"build: {time.time() - t:.1f} s")
    return os.path.join(target, "release", "e2ebench")


def read_steal_and_total():
    """(steal, total) jiffies from the aggregate cpu line of /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def read_loadavg():
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def source_fingerprint():
    """The git commit when there is one, else a hash of the source tree."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0:
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("crates", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_driver(binary, workload, seed, seconds, trace, env=None):
    """Run the driver once. Returns (result dict or None, host dict)."""
    steal0, total0 = read_steal_and_total()
    load0 = read_loadavg()
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", os.path.join(ROOT, OUT_DIR)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"e2ebench: driver exceeded {RUN_TIMEOUT_S} s and was killed")
        return None, {}
    steal1, total1 = read_steal_and_total()
    host = {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "source": source_fingerprint(),
        "steal_frac": (steal1 - steal0) / max(1, total1 - total0),
        "loadavg_start": load0,
        "loadavg_end": read_loadavg(),
    }
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"e2ebench: driver exited {proc.returncode} without a result")
        return None, host
    result["exit_code"] = proc.returncode
    return result, host


def all_metrics(result):
    return {m["name"]: m for m in result["metrics"] + result["layer"]}


def report(result, host, names):
    """Print the human-readable table and return the driver's result line."""
    metrics = all_metrics(result)
    print(f"host: {host['cpu']}, nproc {host['nproc']}, {host['source']}, "
          f"steal {100 * host['steal_frac']:.2f}% of cpu time, "
          f"loadavg {host['loadavg_start']:.2f} -> {host['loadavg_end']:.2f}")
    print(f"rounds {result['rounds']}, launches attempted {result['attempted']}, "
          f"failed {result['failed']}")
    for f in result["failures"]:
        print(f"FAILED: {f}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']:<6s} n={m['samples']}")
    missing = [n for n in names if n not in metrics]
    for n in missing:
        print(f"FAILED: metric {n} was not reported")
    correct = result["exit_code"] == 0 and result["failed"] == 0 and not missing
    line = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"] + len(missing),
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]}
                    for n in names if n in metrics},
    }
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    path = os.path.join(ROOT, OUT_DIR,
                        f"result-{result['workload']}-seed{result['seed']}"
                        f"-trace{int(result['trace'])}.json")
    with open(path, "w") as f:
        json.dump({"host": host, "driver": result, "result": line}, f, indent=1)
    return line


def repeat(binary, args, names):
    """Run one workload K times on seeds seed..seed+K-1 and summarise each
    metric: median, quartiles, range and the quartile spread over the
    median (the figure a bound must exceed)."""
    values = {}
    units = {}
    for k in range(args.repeat):
        result, host = run_driver(binary, args.workload, args.seed + k, args.seconds, args.trace)
        if result is None or result["failed"]:
            log(f"e2ebench: repeat {k} failed")
            sys.exit(1)
        log(f"repeat {k}: steal {100 * host['steal_frac']:.2f}%, "
            f"loadavg {host['loadavg_end']:.2f}")
        for name, m in all_metrics(result).items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    summary = {}
    print(f"{'metric':34s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'min':>12s} {'max':>12s} {'iqr/med':>8s}")
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                         "min": min(v), "max": max(v), "spread": spread, "values": v}
        flag = " <- reported" if name in names else ""
        print(f"{name:34s} {units[name]:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{min(v):12.6g} {max(v):12.6g} {spread:8.4f}{flag}")
    print(json.dumps({"workload": args.workload, "repeats": args.repeat, "metrics": summary}))


def self_test(binary, args):
    """Every program count must be the same with configuration knobs set in
    the environment: the benchmark's runtime config is hermetic."""
    clean, _ = run_driver(binary, args.workload, args.seed, 0, 1)
    hostile, _ = run_driver(binary, args.workload, args.seed, 0, 1,
                            env=dict(os.environ, **HOSTILE_ENV))
    if clean is None or hostile is None:
        sys.exit(1)
    a, b = all_metrics(clean), all_metrics(hostile)
    exact = [n for n, m in a.items() if m.get("exact")]
    bad = [n for n in exact if a[n]["value"] != b[n]["value"]]
    for n in exact:
        print(f"  {n:34s} {a[n]['value']:>16.6g} {b[n]['value']:>16.6g}"
              f"{'  DIFFERS' if n in bad else ''}")
    print(f"self-test {'FAILED' if bad else 'passed'}: {len(exact)} counts compared "
          f"with {' '.join(f'{k}={v}' for k, v in HOSTILE_ENV.items())}")
    sys.exit(1 if bad or clean["failed"] or hostile["failed"] else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run K times on consecutive seeds and summarise the spread")
    p.add_argument("--self-test", action="store_true",
                   help="check that VIZ_* environment knobs leave every count unchanged")
    args = p.parse_args()

    binary = build()
    spec = benchmark_spec()
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if args.self_test:
        self_test(binary, args)
    if args.repeat:
        repeat(binary, args, names)
        return
    result, host = run_driver(binary, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        sys.exit(1)
    line = report(result, host, names)
    print(json.dumps(line))
    sys.exit(0 if line["correct"] else 1)


if __name__ == "__main__":
    main()
