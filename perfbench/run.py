#!/usr/bin/env python3
"""PARJ end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload lubm-analytic --seed 1 --seconds 30 --trace 0

Workloads and metrics are listed in BENCHMARK.json. The script builds the
benchmark (perfbench/, which compiles the library from src/) with CMake
into $CARGO_TARGET_DIR or .bench_build, runs one workload, parses the
program's JSON report back, checks that it carries every metric
BENCHMARK.json names for the mode (--trace 0: end-to-end, --trace 1:
per-layer), prints the detailed report, and prints the result as the last
line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Spans of a traced run are written to <build>/work/<workload>-<seed>/spans.jsonl.
Unit tests of the percentile, report-writer and span code and of the
report check below:

    python3 perfbench/run.py --self-test
"""

import argparse
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return os.path.join(path, "perfbench")


def run_checked(cmd):
    # Build output goes to stderr so the last stdout line stays the result.
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/; run from a full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_checked(["cmake", "-S", BENCH_DIR, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    run_checked(["cmake", "--build", out, "--target", target, "-j", jobs])
    return os.path.join(out, target)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def validate(report, spec, trace):
    """Checks the parsed report; returns the result line's metrics."""
    for key, kind in (("correct", bool), ("attempted", int), ("failed", int),
                      ("metrics", dict)):
        if not isinstance(report.get(key), kind):
            fail(f"report field '{key}' is missing or not {kind.__name__}")
    if report["attempted"] < 1:
        fail("report attempted no operations")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        got = report["metrics"].get(name)
        if got is None:
            fail(f"report lacks metric '{name}'")
        value = got.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            fail(f"metric '{name}' has no finite value: {got!r}")
        if got.get("unit") != entry["unit"]:
            fail(f"metric '{name}' unit {got.get('unit')!r} != {entry['unit']!r}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        test = build("perfbench_test")
        status = subprocess.run([test], cwd=ROOT).returncode
        status |= subprocess.run(
            [sys.executable, "-m", "unittest",
             os.path.join(BENCH_DIR, "test_run.py")], cwd=ROOT).returncode
        sys.exit(status)

    spec = load_spec()
    names = [w["name"] for w in spec.get("workloads", [])]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    binary = build("parj_perfbench")
    work = os.path.join(os.path.dirname(build_dir()), "work",
                        f"{args.workload}-{args.seed}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark exited with {proc.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        fail("benchmark printed nothing")
    try:
        report = json.loads(lines[-1])
    except ValueError as e:
        fail(f"benchmark report is not valid JSON: {e}")
    metrics = validate(report, spec, bool(args.trace))

    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
