#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout and runs one workload.

    python3 perfbench/run.py --workload commit_storm --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout. The binary is configured from
perfbench/CMakeLists.txt into .bench_build/perfbench and compiled from the
checkout's own sources (the first run builds; later runs reuse the build).
The script prints one metadata line, the binary's report, and as its last
line the result object, with the metrics BENCHMARK.json declares for the
run's kind. It exits non-zero, without a result line, when the build or the
run fails or the binary reports a metric BENCHMARK.json does not declare.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
WORKLOADS = ("commit_storm", "fleet_fanout", "serve_mix")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources in %s; nothing to build" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "perfbench")


def source_digest():
    """SHA-256 over the program and benchmark sources, so a result names the
    code it measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "bench", "synthetic_repo.h")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files.extend(os.path.join(dirpath, name) for name in sorted(filenames))
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def select_metrics(result, trace):
    """Replaces the binary's metrics with the ones BENCHMARK.json declares for
    the run's kind, in its order. BENCHMARK.json is the one list of names and
    units: a metric the binary measured must be declared there with the same
    unit. An end-to-end metric must be measured and positive; a per-layer
    metric the workload does not measure is a layer it leaves idle and reads
    0. Returns the notes to print before the result line."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    measured = result["metrics"]
    for name, metric in measured.items():
        if units.get(name) != metric["unit"]:
            fail("metric %s [%s] is not declared in BENCHMARK.json with that unit"
                 % (name, metric["unit"]))
    notes, idle, selected = [], [], {}
    for name, unit in units.items():
        value = measured.get(name, {}).get("value")
        if value is None:
            if not trace:
                fail("end-to-end metric %s was not measured" % name)
            idle.append(name)
            value = 0
        elif not trace and not value > 0:
            notes.append("end-to-end metric %s is not positive" % name)
            result["correct"] = False
        selected[name] = {"value": value, "unit": unit}
    if idle:
        notes.append("idle on this workload, reported as 0: " + ", ".join(idle))
    result["metrics"] = selected
    return notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "build_type": BUILD_TYPE,
        "nproc": os.cpu_count(),
    }
    print("perfbench meta: " + json.dumps(meta, sort_keys=True), flush=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        fail("perfbench binary exited with code %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("perfbench binary did not end with a result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result line has keys %s" % sorted(result))
    notes = select_metrics(result, args.trace)
    print("\n".join(lines[:-1] + notes))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
