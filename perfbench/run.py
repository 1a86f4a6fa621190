#!/usr/bin/env python3
"""End-to-end benchmark of the diagnosis library.

    python3 perfbench/run.py --workload diagnose|evaluate|fleet \
        --seed N --seconds S --trace 0|1

Run from the root of the repository. Builds perfbench/ (which builds
the repository's own CMake project with its default settings, as
`cmake -B build -S .` does) into .bench_build/, runs one workload
in-process and prints the output of stm_perfbench: stamp lines
describing host, compiler, build type and source revision, then one
JSON result line. Exits non-zero when a correctness check fails, and
without a result line when the build or stm_perfbench fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "stm_perfbench")
# stm_perfbench starts no pass after about 120 s (kDeadlineSeconds);
# this leaves room for one that a loaded host slows down.
RUN_TIMEOUT_S = 170


def build():
    """Configure and build stm_perfbench; the build log goes to stderr."""
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR] +
                       generator, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "stm_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)


def source_revision():
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return {"git_commit": out.stdout.strip()}
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return {"source_sha256": digest.hexdigest()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["diagnose", "evaluate", "fleet"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        print("perfbench: run from the repository root", file=sys.stderr)
        return 1
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    print("# source " + json.dumps(source_revision()), flush=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # The library's STM_* knobs (jobs, run cache, checkpoints, decode
    # cache budget) would change the measured work; stm_perfbench
    # fixes its own settings.
    env = {k: v for k, v in os.environ.items() if not k.startswith("STM_")}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: stm_perfbench timed out", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print(f"perfbench: stm_perfbench failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    # An incorrect run still prints its result, and exits non-zero.
    sys.stdout.write(proc.stdout)
    return 0 if proc.returncode == 0 and result["correct"] else 1

if __name__ == "__main__":
    sys.exit(main())
