#!/usr/bin/env python3
"""Build and run the perf spine benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the simulator from src/) under .bench_build/;
later calls rebuild incrementally. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. A traced run (--trace 1) also
writes a Chrome trace-event file to .bench_build/traces/<workload>.json.

--self-test runs the C++ unit checks (percentile rule, replay checker) and a
tiny-fleet smoke run of every workload in both modes, asserting that every
metric BENCHMARK.json names is printed with its unit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perf_spine")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(os.path.join(BUILD, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [configure,
             ["cmake", "--build", BUILD, "-j", jobs, "--target", "perf_spine",
              "spine_selftest"]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def run_spine(args, capture=False):
    cmd = [os.path.join(BUILD, "perf_spine")] + args
    if capture:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return subprocess.run(cmd)


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    done = subprocess.run([os.path.join(BUILD, "spine_selftest")])
    ok = done.returncode == 0
    for mode, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in bench[key]}
        for w in bench["workloads"]:
            out = run_spine(["--workload", w["name"], "--seed", "7",
                             "--seconds", "1", "--trace", str(mode), "--tiny"],
                            capture=True)
            lines = out.stdout.strip().splitlines()
            problems = []
            if out.returncode != 0 or not lines:
                problems.append(f"exit code {out.returncode}")
            else:
                result = json.loads(lines[-1])
                metrics = result["metrics"]
                if not result["correct"]:
                    problems.append("correctness gate failed")
                for name, unit in expected.items():
                    if name not in metrics:
                        problems.append(f"missing {name}")
                    elif metrics[name]["unit"] != unit:
                        problems.append(f"{name} unit {metrics[name]['unit']} != {unit}")
                extra = set(metrics) - set(expected)
                if extra:
                    problems.append("not in BENCHMARK.json: " + ", ".join(sorted(extra)))
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {w['name']} --trace {mode}: {status}")
            ok = ok and not problems
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    build()
    if args.self_test:
        return self_test()
    if not args.workload:
        fail("--workload is required")
    spine_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        spine_args += ["--trace-out", os.path.join(traces, args.workload + ".json")]
    sys.stdout.flush()
    return run_spine(spine_args).returncode


if __name__ == "__main__":
    sys.exit(main())
