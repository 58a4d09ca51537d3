#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload offline-fit --seed 20180417 \
        --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The script configures and builds
perfbench/CMakeLists.txt (libcpa, cpa_server, the benchmark binary) into
.bench_build/perfbench, then runs the benchmark binary. Its last stdout line
is the JSON result; build output goes to stderr. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("offline-fit", "online-stream", "serve-mixed")
DEFAULT_SEED = 20180417
HELD_OUT_SEED = 7
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def source_revision(root):
    """The git commit when there is one, else a hash of the program sources."""
    if os.path.exists(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha1()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha1-" + digest.hexdigest()[:12]


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return False


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if subprocess.run(
            ["ninja", "--version"], capture_output=True).returncode == 0 else []
        if not run_quiet(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator, BUILD_TIMEOUT_S):
            return False
    return run_quiet(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench",
                      "perfbench_selftest", "cpa_server"], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held-out seed "
                             f"for confirming claims: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if args.self_test:
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")]).returncode

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(build_dir, "cpa", "cpa_server"),
           "--expected", os.path.join(here, "expected.json"),
           "--commit", source_revision(root)]
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        proc.kill()
        proc.wait()
        return 3
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
