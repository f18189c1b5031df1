#!/usr/bin/env python3
"""Fail when src/ holds an out-of-line function that no program runs.

Every function in the src/ libraries should be reachable from a program:
a figure or extension bench, an example, or benchmark/'s reco_e2e.  Code
that only tests call belongs in tests/ (tests/oracles/ for a reference a
test compares production code against).  This check builds those programs
and lists each reco:: function the libraries define that none of them
keeps.

How it decides:

- Build at -O0 with -ffunction-sections and link with --gc-sections.  The
  linker then drops every function no kept code references.  -O0 matters:
  at -O2 GCC may inline a same-file callee everywhere, --gc-sections drops
  its out-of-line copy, and a used function would read as unused.
- Read the symbols with nm rather than the linker's --print-gc-sections:
  with static libraries an object that nothing references is never loaded,
  so its functions are never listed as collected.
- The programs are every executable target under bench/ and examples/,
  less bench_micro_kernels (it links the tests' reco_oracles, so functions
  only oracles call would count as used), plus reco_e2e, which
  benchmark/CMakeLists.txt builds as its own project over ../src.
- A library function is used when its demangled name is among the text
  symbols (T, t, W, w) of any program.  Only the libraries' global (T)
  and weak (W) reco:: functions are checked; internal-linkage helpers and
  functions defined in headers that no code calls are never emitted, so
  they are out of its sight.

tools/src_reachability_allow.txt lists the functions that may stay
unreached, one demangled name per line followed by `# <reason>`.  An entry
that no library defines any more, or that a program now keeps, is stale and
fails the check too.

Usage:
  python3 tools/check_src_reachability.py [--build-dir DIR] [--jobs N]

Exit status: 0 when every function is reached or allowed, 1 when the check
finds unreached functions or stale allow-list entries, 2 when a build
fails.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOW_FILE = ROOT / "tools" / "src_reachability_allow.txt"
PROGRAM_DIRS = ("bench", "examples")
EXCLUDED_PROGRAMS = {"bench_micro_kernels"}
E2E_TARGET = "reco_e2e"

# -O0 so no used function is inlined away; sections so the linker can drop
# each unreferenced function on its own.
FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def run(cmd, **kw):
    print("+ " + " ".join(str(c) for c in cmd), file=sys.stderr, flush=True)
    return subprocess.run(cmd, check=True, **kw)


def configure(source, build):
    """Configure with a CMake file-API query and return the codemodel."""
    query = build / ".cmake" / "api" / "v1" / "query" / "codemodel-v2"
    query.parent.mkdir(parents=True, exist_ok=True)
    query.touch()
    run(["cmake", "-S", source, "-B", build] + FLAGS, stdout=subprocess.DEVNULL)
    reply = build / ".cmake" / "api" / "v1" / "reply"
    index = max(reply.glob("index-*.json"))
    entry = next(o for o in json.loads(index.read_text())["objects"]
                 if o["kind"] == "codemodel")
    model = json.loads((reply / entry["jsonFile"]).read_text())
    targets = []
    for ref in model["configurations"][0]["targets"]:
        t = json.loads((reply / ref["jsonFile"]).read_text())
        targets.append({
            "name": t["name"],
            "type": t["type"],
            "source": t["paths"]["source"],
            "artifacts": [build / a["path"] for a in t.get("artifacts", [])],
        })
    return targets


def build_targets(build, names, jobs):
    run(["cmake", "--build", build, "-j", str(jobs), "--target"] + names,
        stdout=subprocess.DEVNULL)


def nm_symbols(path, kinds):
    """Demangled names of the defined symbols of `path` whose nm type is in
    `kinds`."""
    out = subprocess.run(["nm", "-C", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        # "<address> <type> <name>"; archive member headers have no type.
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in kinds:
            names.add(parts[2])
    return names


def read_allow_list():
    allow = {}
    for number, line in enumerate(ALLOW_FILE.read_text().splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        name, sep, reason = line.partition("  # ")
        if not sep or not reason.strip():
            sys.exit(f"{ALLOW_FILE.name}:{number}: expected `<function>  # <reason>`")
        allow[name.strip()] = reason.strip()
    return allow


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--build-dir", type=pathlib.Path, default=ROOT / "build-reach",
                        help="scratch build directory (default: build-reach)")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    args = parser.parse_args()
    build = args.build_dir.resolve()

    try:
        targets = configure(ROOT, build)
        programs = [t for t in targets
                    if t["type"] == "EXECUTABLE"
                    and t["source"].split("/")[0] in PROGRAM_DIRS
                    and t["name"] not in EXCLUDED_PROGRAMS]
        libraries = [t for t in targets
                     if t["type"] == "STATIC_LIBRARY" and t["source"] == "src"]
        build_targets(build, [t["name"] for t in programs + libraries], args.jobs)

        e2e_build = build / "benchmark"
        e2e = [t for t in configure(ROOT / "benchmark", e2e_build) if t["name"] == E2E_TARGET]
        build_targets(e2e_build, [E2E_TARGET], args.jobs)
    except subprocess.CalledProcessError as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 2

    kept = set()
    for t in programs + e2e:
        for path in t["artifacts"]:
            kept |= nm_symbols(path, {"T", "t", "W", "w"})
    defined = set()
    for t in libraries:
        for path in t["artifacts"]:
            defined |= {s for s in nm_symbols(path, {"T", "W"}) if s.startswith("reco::")}

    allow = read_allow_list()
    unreached = sorted(defined - kept - allow.keys())
    gone = sorted(a for a in allow if a not in defined)
    now_kept = sorted(a for a in allow if a in defined and a in kept)

    print(f"{len(programs) + len(e2e)} programs, {len(defined)} reco:: functions "
          f"in {len(libraries)} src/ libraries, {len(allow)} allowed")
    for name in unreached:
        print(f"unreached: {name}")
    for name in gone:
        print(f"stale allow-list entry (no src/ library defines it): {name}")
    for name in now_kept:
        print(f"stale allow-list entry (a program keeps it): {name}")
    if unreached or gone or now_kept:
        print(f"FAIL: move each unreached function into tests/ or delete it; "
              f"keep {ALLOW_FILE.relative_to(ROOT)} current")
        return 1
    print("OK: every src/ function is reached by a program or allowed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
