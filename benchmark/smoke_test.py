#!/usr/bin/env python3
"""Smoke test for reco_e2e, run by ctest: every workload at tiny scale.

    python3 smoke_test.py path/to/reco_e2e

Checks that no op fails, that one thread and two threads (the second run
traced) give the same digest, and that the flag parser rejects malformed
input with exit status 2.
"""
import json
import subprocess
import sys

WORKLOADS = ["sin-plan", "mul-batch", "online-stream", "campaign"]


def run(driver, *flags):
    proc = subprocess.run([driver, *flags], capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def main():
    driver = sys.argv[1]
    problems = []
    for wl in WORKLOADS:
        digests = []
        for threads, extra in ((1, []), (2, ["--trace"])):
            code, out, err = run(driver, f"--workload={wl}", "--seed=3", "--scale=tiny",
                                 f"--threads={threads}", *extra)
            if code != 0:
                problems.append(f"{wl} threads={threads}: exit {code}: {err.strip()}")
                continue
            result = json.loads(out.strip().splitlines()[-1])
            if result["attempted"] < 1 or result["failed"] != 0:
                problems.append(f"{wl} threads={threads}: error_rate != 0: {result['errors']}")
            if extra and not result["per_layer"]:
                problems.append(f"{wl}: traced run reported no per-layer metrics")
            digests.append(result["digest"])
        if len(set(digests)) != 1:
            problems.append(f"{wl}: digests differ across thread counts: {digests}")
        print(f"{wl}: digest {digests}")

    bad_flags = [
        ["--workload=sin-plan", "--seed=abc"],
        ["--workload=sin-plan", "--seed=12x"],
        ["--workload=sin-plan", "--seed="],
        ["--workload=sin-plan", "--seed=-1"],
        ["--workload=nope", "--seed=1"],
        ["--workload=sin-plan", "--seed=1", "--bogus=1"],
        ["--workload=sin-plan", "--seed=1", "--threads=0"],
        ["--workload=sin-plan", "--seed=1", "--seed=2"],
        ["--workload=sin-plan"],
    ]
    for flags in bad_flags:
        code, _, _ = run(driver, *flags)
        if code != 2:
            problems.append(f"{' '.join(flags)}: exit {code}, expected 2")

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
