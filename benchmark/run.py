#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 benchmark/run.py --selftest

Run from the repository root. The first call configures and builds the
library and the driver in .bench_build/ (Release); later calls rebuild only
what changed. The driver's last output line is replaced by one JSON object
holding exactly the metrics BENCHMARK.json declares for the mode: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1
(0 for a layer the workload does not run). Exits 1 when a build fails, a
check fails or a declared end-to-end metric is missing.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "api.hpp")):
        fail("library sources (src/) not found beside benchmark/")
    try:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", "4"],
                       check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    return os.path.join(BUILD, target)


def source_id():
    """Git commit when the tree is a checkout with history, and always a
    digest of src/, so that records from different code never compare."""
    parts = []
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            parts.append("git:" + r.stdout.strip())
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    parts.append("src:" + digest.hexdigest()[:16])
    return " ".join(parts)


def phase_accounting_error(metrics):
    """The traced run must account for its wall time: the declared phase
    times plus driver time within 5% of the traced wall per coloring."""
    wall = metrics.get("trace.wall_ms", {}).get("value", 0.0)
    if wall <= 0:
        return None
    accounted = metrics["pipeline.driver_ms"]["value"] + sum(
        m["value"] for name, m in metrics.items()
        if name.startswith("phase.") and name.endswith(".ms"))
    if abs(accounted - wall) > 0.05 * wall:
        return (f"declared phases + driver account for {accounted:.1f} ms "
                f"of a {wall:.1f} ms traced coloring")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("dvcbench_selftest")]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    binary = build("dvcbench")
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--source", source_id()],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        if lines:
            print(lines[-1])
        fail(f"driver exited {proc.returncode} without a result")

    correct = result["correct"] and proc.returncode == 0
    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"end-to-end metric {m['name']} was not measured")
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} measured in {got['unit']}, declared in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if args.trace:
        extra = sorted(set(result["metrics"]) - set(metrics))
        if extra:
            print("not declared in BENCHMARK.json: " + ", ".join(extra))
        error = phase_accounting_error(metrics)
        if error:
            print("FAILED: " + error)
            correct = False

    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
