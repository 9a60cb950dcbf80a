#!/usr/bin/env python3
"""Builds and runs the Hawk repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark binary (perfbench/src, linked
against the library built from src/) is configured and built with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then run
with the same arguments. Build output goes to stderr; the binary's report,
ending in one JSON line, goes to stdout. With --trace 1 the raw spans are
also written as Chrome trace-event JSON into the build directory.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_revision():
    """The git commit when there is one, else a digest of the source tree."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for sub in ("src", "perfbench/src"):
        base = os.path.join(ROOT, sub)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "hawk_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "scheduler", "experiment.h")):
        fail("no Hawk library sources next to perfbench/ (expected src/ at the repository root)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--revision", source_revision()]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(build_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as expired:
        sys.stdout.write((expired.stdout or b"").decode(errors="replace"))
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(run.stdout.decode(errors="replace"))
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
