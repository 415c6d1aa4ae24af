#!/usr/bin/env python3
"""Build and run the perfbench program on one workload.

Usage, from the root of the repository:

  python3 perfbench/run.py --workload cold_query|grow_budgeted|serve_warm \
      --seed N --seconds S --trace 0|1

Builds the library, hpl_cli and the perfbench program from source with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then
runs it.  The last line of stdout is the program's JSON result; with
--trace 1 it lists every per-layer metric of BENCHMARK.json, 0 for those
of layers the workload does not reach.  Build output goes to stderr.
Everything the run writes (build tree, snapshot, spill files, serve log,
traces) stays under the build directory, and the per-run scratch
directory is removed at exit.  Exits
non-zero without a result when the repository sources are missing or the
build fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("cold_query", "grow_budgeted", "serve_warm")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        # A build tree configured for another checkout cannot be reused.
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or os.path.realpath(home[0]) != os.path.realpath(source):
            shutil.rmtree(build_dir)
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "hpl_cli", "-j", "2"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            fail("build failed: " + " ".join(step))


def complete_per_layer(line, root):
    """Lists every BENCHMARK.json per-layer metric in a traced result."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        per_layer = json.load(f)["per_layer"]
    result = json.loads(line)
    measured = result["metrics"]
    unknown = set(measured) - {m["name"] for m in per_layer}
    if unknown:
        fail("not in BENCHMARK.json: " + ", ".join(sorted(unknown)))
    result["metrics"] = {
        m["name"]: measured.get(m["name"], {"value": 0, "unit": m["unit"]})
        for m in per_layer}
    return json.dumps(result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump", type=int, default=0,
                        help="print the first N ops of the stream, untimed")
    args = parser.parse_args()

    root = os.getcwd()
    for required in ("CMakeLists.txt", os.path.join("src", "core"),
                     os.path.join("tools", "hpl_cli.cc"),
                     os.path.join("perfbench", "perfbench.cc")):
        if not os.path.exists(os.path.join(root, required)):
            fail(f"run from the repository root: {required} is missing")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    build(root, build_dir)

    work = os.path.join(build_dir, "runs", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, TMPDIR=work)
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--cli", os.path.join(build_dir, "hpl", "tools", "hpl_cli"),
               "--work", work, "--trace-dir", os.path.join(build_dir, "traces"),
               "--dump", str(args.dump)]
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.splitlines()
    if done.returncode == 0 and args.trace and not args.dump and lines:
        lines[-1] = complete_per_layer(lines[-1], root)
    for line in lines:
        print(line)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
