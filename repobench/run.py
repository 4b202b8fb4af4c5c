#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 repobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the library and the
benchmark programs in Release (into $CARGO_TARGET_DIR, default
.bench_build), prepares the workload's inputs for the seed (cached per
workload, outside the timed process), then runs the driver. The driver's
last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}; the line before it records the build and the inputs.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("batch_yago_dbpedia", "update_person", "serve_yago_dbpedia")


def log(message):
    print(f"repobench: {message}", file=sys.stderr, flush=True)


def run_quiet(command, timeout):
    """Runs a build or preparation step, its output to stderr."""
    completed = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=timeout)
    if completed.returncode != 0:
        log(f"failed ({completed.returncode}): {' '.join(command)}")
        sys.exit(1)


def build(build_dir):
    source_root = os.path.dirname(BENCH_DIR)
    if not os.path.exists(os.path.join(source_root, "CMakeLists.txt")):
        log(f"no source tree to build at {source_root}")
        sys.exit(1)
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    with open(cache) as f:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in f.read():
            log(f"{build_dir} is not a Release build; refusing to measure")
            sys.exit(1)
    run_quiet(["cmake", "--build", build_dir, "-j", "4", "--target",
               "repobench_prepare", "repobench_driver"], timeout=800)


def source_digest():
    """Hash of everything the prepared inputs depend on: the workload table,
    the generator program and the library sources it links."""
    digest = hashlib.sha256()
    paths = [os.path.join(BENCH_DIR, name)
             for name in ("workloads.h", "prepare.cc")]
    for root, dirs, files in os.walk(os.path.join(os.path.dirname(BENCH_DIR),
                                                  "src")):
        dirs.sort()
        paths += [os.path.join(root, name) for name in sorted(files)]
    for path in paths:
        digest.update(path.encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:12]


def prepare(build_dir, workload, seed):
    # Inputs are cached per workload and seed, keyed by their sources so a
    # changed generator never reuses stale files.
    inputs_root = os.path.join(build_dir, "inputs")
    inputs = os.path.join(inputs_root,
                          f"{workload}-{seed}-{source_digest()}")
    if os.path.exists(os.path.join(inputs, "inputs.json")):
        return inputs
    # Keep one seed per workload on disk.
    if os.path.isdir(inputs_root):
        for name in os.listdir(inputs_root):
            if name.startswith(workload + "-"):
                shutil.rmtree(os.path.join(inputs_root, name))
    partial = inputs + ".partial"
    os.makedirs(partial)
    run_quiet([os.path.join(build_dir, "repobench_prepare"), "--workload",
               workload, "--seed", str(seed), "--out", partial], timeout=150)
    os.rename(partial, inputs)
    return inputs


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    build(build_dir)
    inputs = prepare(build_dir, args.workload, args.seed)
    # Freshly written inputs would otherwise be flushed to disk during the
    # measurement.
    os.sync()
    work = os.path.join(build_dir, "work", args.workload)
    driver = subprocess.run(
        [os.path.join(build_dir, "repobench_driver"), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--trace", str(args.trace), "--inputs", inputs,
         "--work", work, "--expected", os.path.join(BENCH_DIR, "expected.tsv")],
        stdout=subprocess.PIPE, text=True, timeout=170)
    sys.stdout.write(driver.stdout)
    sys.stdout.flush()
    sys.exit(driver.returncode)


if __name__ == "__main__":
    main()
