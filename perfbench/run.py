#!/usr/bin/env python3
"""Builds retrace's benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a retrace checkout. The first call configures and
builds `retrace_core` (with the repository's own CMake files) plus the
`perfbench` program into `.bench_build/`; later calls only re-check the
build. Build output goes to stderr. The program prints every metric it
measured; the last line of stdout is the JSON result made from them: the
`end_to_end` metrics of BENCHMARK.json with `--trace 0`, its `per_layer`
metrics with `--trace 1` (0 for a layer the workload does not run). With
`--trace 1` the Chrome trace-event file is written to
`.bench_build/traces/`.

Every RETRACE_* variable is removed from the environment first, so the
program runs on its own defaults (engine, solver cache, pick, workers).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("replay-lc", "user-site")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("RETRACE_")}


def build(env):
    """Configures (once) and builds the program; output goes to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no retrace sources next to perfbench/; run from a checkout root")
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                     "-DBUILD_TESTING=OFF", "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    env = clean_env()
    try:
        binary = build(env)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as err:
        sys.exit("perfbench: build failed: %s" % err)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit("perfbench: %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stdout.write(out)
    if proc.returncode != 0:
        sys.exit("perfbench: program exited with code %d" % proc.returncode)
    print(json.dumps(result_line(out, args.trace)))


def result_line(out, trace):
    """The result object from the program's `metric` and `outcome` lines."""
    measured, outcome = {}, None
    for line in out.splitlines():
        fields = line.split()
        if fields[:1] == ["metric"] and len(fields) == 4:
            measured[fields[1]] = (float(fields[2]), fields[3])
        elif fields[:1] == ["outcome"] and len(fields) == 4:
            outcome = fields[1:]
    if outcome is None:
        sys.exit("perfbench: the program printed no outcome line")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = spec["end_to_end"] + spec["per_layer"]
    unknown = set(measured) - {m["name"] for m in listed}
    if unknown:
        sys.exit("perfbench: metrics missing from BENCHMARK.json: %s" % ", ".join(sorted(unknown)))
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        # Only a per-layer metric may be absent: its layer is not run.
        if m["name"] not in measured and not trace:
            sys.exit("perfbench: end-to-end metric %s not measured" % m["name"])
        value, unit = measured.get(m["name"], (0.0, m["unit"]))
        if unit != m["unit"]:
            sys.exit("perfbench: %s measured in %s, listed in %s" % (m["name"], unit, m["unit"]))
        metrics[m["name"]] = {"value": value, "unit": unit}
    return {"correct": outcome[0] == "true", "attempted": int(outcome[1]),
            "failed": int(outcome[2]), "metrics": metrics}

if __name__ == "__main__":
    main()
