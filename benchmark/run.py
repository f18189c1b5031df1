#!/usr/bin/env python3
"""Build the reco_e2e driver and run the end-to-end benchmark.

    python3 benchmark/run.py [--trace] [--seed N] [--out DIR]
        Runs all four workloads at their default seeds.
    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
        Runs one workload; the last line of stdout is the result as one JSON
        object with the keys correct, attempted, failed and metrics.

Every metric is printed as `workload metric value unit`.  Each run's full
result (commit, build type, nproc, threads, seed, sample counts, digest and
every metric) is written to DIR/<stamp>/<workload>.json, DIR defaulting to
bench_results; a traced run also leaves DIR/<stamp>/<workload>.trace.json.
Exits non-zero, without a result line, if the build or the driver fails.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / "build-bench"
DRIVER = BUILD_DIR / "reco_e2e"

# Default seed per workload (see README.md for what each one generates).
WORKLOADS = {
    "sin-plan": 20190707,
    "mul-batch": 7,
    "online-stream": 993,
    "campaign": 42,
}
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)],
                ["cmake", "--build", str(BUILD_DIR), "--target", "reco_e2e", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def build_type():
    try:
        for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def commit():
    # A checkout without .git reads "unknown"; git must not search above ROOT.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def run_driver(workload, seed, seconds, trace, out_dir):
    cmd = [str(DRIVER), f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}",
           f"--out={out_dir}"] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: driver timed out after {DRIVER_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"{workload}: driver exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fmt(value):
    return repr(float(value)) if not float(value).is_integer() else str(int(value))


def report(result, spec, trace):
    """Print one line per metric and return the contract's metrics dict."""
    wl = result["workload"]
    samples = int(result["counts"].get("op_samples", 0))
    for name, m in result["metrics"].items():
        suffix = f" n={samples}" if name.startswith("op_ms_") else ""
        print(f"{wl} {name} {fmt(m['value'])} {m['unit']}{suffix}")
    attempted = max(1, result["attempted"])
    print(f"{wl} error_rate {fmt(result['failed'] / attempted)} ratio")
    print(f"{wl} digest {result['digest']} fnv1a64")
    for error in result["errors"]:
        print(f"{wl} error: {error}", file=sys.stderr)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = result["per_layer"] if trace else result["metrics"]
    metrics = {}
    for m in wanted:
        if m["name"] in source:
            metrics[m["name"]] = {"value": source[m["name"]]["value"], "unit": m["unit"]}
        elif trace:
            # The workload never calls this layer.
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
    if trace:
        for name, m in metrics.items():
            print(f"{wl} {name} {fmt(m['value'])} {m['unit']}")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", nargs="?", const="1", choices=["0", "1"], default="0")
    ap.add_argument("--out", default="bench_results")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    trace = args.trace == "1"
    build()

    stamp = time.strftime("%Y%m%d-%H%M%S") + f"-{os.getpid()}"
    out_dir = (ROOT / args.out / stamp).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    env = {"commit": commit(), "build_type": build_type(), "nproc": os.cpu_count(),
           "seconds": seconds}

    names = [args.workload] if args.workload else list(WORKLOADS)
    last = None
    for wl in names:
        seed = args.seed if args.seed is not None else WORKLOADS[wl]
        result = run_driver(wl, seed, seconds, trace, out_dir)
        (out_dir / f"{wl}.json").write_text(json.dumps({**env, **result}, indent=1) + "\n")
        metrics = report(result, spec, trace)
        missing = {m["name"] for m in (spec["per_layer"] if trace else spec["end_to_end"])}
        missing -= set(metrics)
        last = {"correct": result["failed"] == 0 and not missing,
                "attempted": result["attempted"], "failed": result["failed"],
                "metrics": metrics}
    print(f"results: {out_dir}", file=sys.stderr)
    if args.workload:
        print(json.dumps(last))


if __name__ == "__main__":
    main()
