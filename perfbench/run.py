#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload point --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test        # the harness's own tests

Run from the repository root. The first run configures and builds
perfbench/ (an optimised build of the engine sources plus the harness)
under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
runs rebuild only what changed. Build output goes to stderr. The last
line of stdout is the result object described in perfbench/README.md.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; False on failure."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def build():
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    # Runs started side by side in one checkout build one at a time.
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            if not run_quiet(["cmake", "-S", HERE, "-B", out,
                              "-DCMAKE_BUILD_TYPE=Release"]):
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        return run_quiet(["cmake", "--build", out, "-j", jobs])


def git_sha():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    out = build_dir()
    if argv == ["--self-test"]:
        # --no-tests=error: without GTest no test is built, and that is
        # a failure, not a pass.
        return subprocess.run(["ctest", "--output-on-failure",
                               "--no-tests=error"], cwd=out,
                              stdout=sys.stderr).returncode
    workdir = os.path.join(out, "work", str(os.getpid()))
    cmd = [os.path.join(out, "perfbench"), *argv, "--workdir", workdir,
           "--stamp-sha", git_sha()]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
