#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench harness from source and runs
one workload.

    python3 perfbench/run.py --workload sssp-live --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
library and the harness into .bench_build/perfbench (several minutes);
later runs only check that the build is current. The harness's notes go to
standard output, followed by one JSON line: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1, each named as in
BENCHMARK.json. Exits nonzero, without a JSON line, when the build or the
run fails; exits nonzero after the JSON line when an answer was wrong or
the open-loop generator sent so late that the run is invalid.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed (full log in .bench_build/perfbench/build.log)")
    return BUILD / "perfbench"


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    end_to_end, per_layer = declared_metrics()
    binary = build()
    work = BUILD / "work"
    work.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(work)]
    if args.trace:
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None:
        print("\n".join(lines))
        fail(f"{args.workload} exited {proc.returncode} without a result")
    print("\n".join(lines[:-1]))

    # Exactly the metrics BENCHMARK.json declares for this mode. A layer a
    # workload does not reach reports 0; an end-to-end metric must exist.
    got = result["metrics"]
    metrics = {}
    for m in (per_layer if args.trace else end_to_end):
        name = m["name"]
        if name in got:
            metrics[name] = {"value": got[name]["value"], "unit": m["unit"]}
        elif args.trace:
            print(f"  layer {name:<28} n/a on {args.workload}")
            metrics[name] = {"value": 0, "unit": m["unit"]}
        else:
            fail(f"{args.workload} did not report {name}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
