#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark.

    python3 benchmark/compare.py A B

A and B are each a results directory written by run.py (bench_results/<stamp>,
or a directory holding several stamps, one per run) or individual result
files.  Traced runs are ignored: end-to-end numbers come from untraced runs.

For each workload and host-time metric it prints both sides' median and
quartiles and applies the bound from BENCHMARK.json: B may be worse than A's
median by at most that share.  Where either side's quartile spread, as a share
of its median, is wider than the bound, the metric is *unresolved* unless
every run of B reads better than every run of A.  Simulated-quality metrics
and digests are compared run by run at equal seeds and must be identical.

Exit status: 1 on a regression beyond a bound, a rise in error_rate, or a
changed simulated-quality metric or digest; 2 on bad usage; 0 otherwise.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Outputs of the simulated schedule, not of host timing: identical at equal
# seeds unless a change alters what the schedulers produce.
QUALITY = ["cct_mean_s", "delivered_frac_mean", "wcct_total_s", "reconfigs_total",
           "cct_over_lb_mean"]


def load(path):
    path = Path(path)
    files = [path] if path.is_file() else sorted(path.rglob("*.json"))
    runs = {}
    for f in files:
        if f.name.endswith(".trace.json"):
            continue
        data = json.loads(f.read_text())
        if "workload" not in data or data.get("trace"):
            continue
        runs.setdefault(data["workload"], []).append(data)
    return runs


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3


def spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else 0.0


def error_rate(run):
    return run["failed"] / max(1, run["attempted"])


def compare_workload(wl, a_runs, b_runs, spec):
    problems = []
    print(f"\n{wl}: A {len(a_runs)} run(s), B {len(b_runs)} run(s)")
    print(f"  {'metric':22s} {'A median [q1, q3]':>36s} {'B median [q1, q3]':>36s} "
          f"{'worse':>8s} {'bound':>6s}  verdict")
    for m in spec["end_to_end"]:
        name = m["name"]
        if name in QUALITY:
            continue
        a = [r["metrics"][name]["value"] for r in a_runs if name in r["metrics"]]
        b = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
        if not a or not b:
            print(f"  {name:22s} missing on one side")
            problems.append(f"{wl} {name}: missing")
            continue
        lower = m["better"] == "lower"
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if lower else (ma - mb) / ma
        b_wins = max(b) < min(a) if lower else min(b) > max(a)
        if max(spread(a), spread(b)) > m["bound"] and not b_wins:
            verdict = "unresolved"
        elif worse > m["bound"]:
            verdict = "REGRESSION"
            problems.append(f"{wl} {name}: {100 * worse:.1f}% worse, bound {100 * m['bound']:.0f}%")
        else:
            verdict = "ok"
        sa, sb = summary(a), summary(b)
        print(f"  {name:22s} {sa[0]:12.6g} [{sa[1]:10.6g}, {sa[2]:10.6g}] "
              f"{sb[0]:12.6g} [{sb[1]:10.6g}, {sb[2]:10.6g}] {100 * worse:7.2f}% "
              f"{100 * m['bound']:5.0f}%  {verdict}")

    ea = max(error_rate(r) for r in a_runs)
    eb = max(error_rate(r) for r in b_runs)
    print(f"  {'error_rate':22s} A max {ea:g}, B max {eb:g}")
    if eb > ea:
        problems.append(f"{wl} error_rate rose from {ea:g} to {eb:g}")

    a_by_seed = {r["seed"]: r for r in a_runs}
    b_by_seed = {r["seed"]: r for r in b_runs}
    seeds = sorted(set(a_by_seed) & set(b_by_seed))
    if not seeds:
        print("  quality and digest: no seed in common, not compared")
        return problems
    for seed in seeds:
        ra, rb = a_by_seed[seed], b_by_seed[seed]
        changed = [q for q in QUALITY if q in ra["metrics"]
                   and ra["metrics"][q]["value"] != rb["metrics"].get(q, {}).get("value")]
        if ra["digest"] != rb["digest"]:
            changed.append(f"digest {ra['digest']} -> {rb['digest']}")
        verdict = "identical" if not changed else "CHANGED: " + ", ".join(changed)
        print(f"  seed {seed}: quality and digest {verdict}")
        if changed:
            problems.append(f"{wl} seed {seed}: {', '.join(changed)}")
    return problems


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load(sys.argv[1]), load(sys.argv[2])
    if not a or not b:
        print("compare.py: no untraced results found on one side", file=sys.stderr)
        return 2
    problems = []
    for wl in sorted(set(a) | set(b)):
        if wl not in a or wl not in b:
            print(f"\n{wl}: only on one side, not compared")
            continue
        problems += compare_workload(wl, a[wl], b[wl], spec)
    print()
    for p in problems:
        print("FAIL", p)
    print("no regression beyond the bounds" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
