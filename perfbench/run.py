#!/usr/bin/env python3
"""Builds and runs the MDV load benchmark (see README.md here).

    python3 perfbench/run.py --workload publish_mix --seed 1 --seconds 10 \
        --trace 0

Run from the repository root. The first run configures and builds the
MDV libraries and the load generator into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later runs only re-check the build.
Build output goes to stderr. Standard output carries the generator's
report and, as its last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`, where `metrics` holds exactly the
end_to_end (--trace 0) or per_layer (--trace 1) metrics that
BENCHMARK.json lists.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("publish_mix", "subscribe_churn", "durable_restart")
# A run must end within 180 s; the first build may take up to 900 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def source_digest():
    """SHA-256 over every file of src/ and perfbench/, by relative path."""
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


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("MDV sources (src/) not found next to " + HERE)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    build(build_dir)

    work_dir = os.path.join(ROOT, ".bench_run")
    os.makedirs(work_dir, exist_ok=True)
    command = [os.path.join(build_dir, "mdv_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--git-sha", git_sha(),
               "--source-digest", source_digest()]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        # The generator prints its result line only on success.
        sys.stdout.write(done.stdout)
        fail("load generator exited with code %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("load generator printed no result line")
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        fail("load generator did not report " + ", ".join(missing))
    result["metrics"] = {name: result["metrics"][name] for name in wanted}
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
