#!/usr/bin/env python3
"""Runs one pskbench workload and prints its result.

    python3 pskbench/run.py --workload predict-replay --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The first run configures and builds the
package in pskbench/ (the repository's libraries, pskd and the harness) into
.bench_build/; later runs rebuild only what changed.  Rates and limits of
each workload live in pskbench/workloads.json; NOTES.md says what every
workload and metric means.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1.  Anything else (build failure, missing
sources, a metric set that does not match BENCHMARK.json) exits non-zero
without printing a result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("pskbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_root):
    """Configures and builds the package; returns the binary directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources (src/) not found next to pskbench/")
    binary = os.path.join(build_root, "pskbench")
    if not os.path.isfile(os.path.join(binary, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", binary,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", binary, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        fail("unknown workload %r; known: %s"
             % (args.workload, ", ".join(sorted(workloads))))
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    expected = {m["name"]: m["unit"]
                for m in benchmark["per_layer" if args.trace else "end_to_end"]}

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)
    # Relative to the checkout root, so unix socket paths stay short.
    workdir = os.path.relpath(os.path.join(build_root, "run"), ROOT)
    os.makedirs(os.path.join(ROOT, workdir), exist_ok=True)

    spec = workloads[args.workload]
    common = ["--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
              "--trace=%d" % args.trace, "--workdir=" + workdir]
    harness = os.path.join(binary, "pskbench")
    if spec["kind"] == "service":
        command = [harness, "service", "--workload=" + args.workload,
                   "--pskd=" + os.path.join(binary, "pskd"),
                   "--low-rps=%g" % spec["low_rps"],
                   "--high-rps=%g" % spec["high_rps"],
                   "--p99-limit-ms=%g" % spec["p99_limit_ms"]]
    else:
        command = [harness, "grid",
                   "--p99-limit-ms=%g" % spec["p99_limit_ms"],
                   "--reference=" + os.path.join(HERE, spec["reference"])]
    try:
        run = subprocess.run(command + common, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("the harness did not finish in time")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail("the harness exited with %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(run.stdout)
        fail("the harness printed no result")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        sys.stderr.write(run.stdout)
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(expected) - set(got)), sorted(set(got) - set(expected))))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
