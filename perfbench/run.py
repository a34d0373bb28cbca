#!/usr/bin/env python3
"""Builds and runs the EcoCharge open-loop serving benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload trips --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The benchmark is a CMake project of its own (perfbench/CMakeLists.txt)
that compiles the EcoCharge sources in ../src; it builds into
.bench_build/perfbench on first use. The last line of stdout is the
result JSON of the run; the lines before it are its provenance and report.
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
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DATA = os.path.join(ROOT, ".bench_build", "perfbench-data")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no EcoCharge sources next to perfbench/")
        return False
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench",
           "perfbench_test", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def source_digest():
    """sha256 over the program and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def provenance():
    sha = "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": sha, "source_sha256": source_digest(),
            "nproc": os.cpu_count(), "cpu": cpu}


def run(cmd):
    """Runs `cmd`, echoing its stdout; returns (exit code, stdout lines)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1, []
    return proc.returncode, out.splitlines()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build():
        log("perfbench: build failed")
        return 3
    os.makedirs(DATA, exist_ok=True)
    if args.self_test:
        code, lines = run([os.path.join(BUILD, "perfbench_test"), DATA])
        print("\n".join(lines))
        return code

    code, lines = run([os.path.join(BUILD, "perfbench"),
                       "--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--data-dir", DATA])
    if code != 0 or not lines:
        log("perfbench: benchmark exited with %d" % code)
        return code or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log("perfbench: malformed result line")
        return 1
    for line in lines[:-1]:
        print(line)
    print("provenance: " + json.dumps(provenance(), sort_keys=True))
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
