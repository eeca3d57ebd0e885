#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/perfbench.exe from
source with dune (build directory .bench_build, dune cache off, release
profile) and runs it with the same arguments. The program's standard
output is passed through; its last line is the JSON result. Exits
non-zero without a result when the build or the run fails, or when the
result line is malformed.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", "./perfbench/perfbench.exe",
    ]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("perfbench: build did not finish: %s\n" % e)
        return False
    if res.returncode != 0:
        sys.stderr.write(res.stdout.decode(errors="replace"))
        sys.stderr.write("perfbench: build failed\n")
        return False
    return True


def valid_result(line):
    try:
        r = json.loads(line)
    except ValueError:
        return False
    return (isinstance(r, dict)
            and set(r) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(r["attempted"], int) and r["attempted"] >= 1)


def main():
    if not build():
        return 2
    try:
        res = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT,
                             stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 124
    out = res.stdout.decode(errors="replace")
    if res.returncode != 0:
        sys.stderr.write(out)
        sys.stderr.write("perfbench: run failed with code %d\n" % res.returncode)
        return res.returncode
    lines = out.rstrip("\n").split("\n")
    if not valid_result(lines[-1]):
        sys.stderr.write(out)
        sys.stderr.write("perfbench: malformed result line\n")
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
