#!/usr/bin/env python3
"""Builds the grepair benchmark binary from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Workloads: offline_repair, serve_stream, durable_tcp_mixed (see
perfbench/README.md). The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); build output and the binary's progress go
to stderr, and the last line of stdout is its JSON result. Exits
non-zero, without a result, when the library sources are missing or the
build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("offline_repair", "serve_stream", "durable_tcp_mixed")


def cpu_ticks():
    """Aggregate CPU tick counters from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def main() -> int:
    # SIGTERM unwinds like Ctrl-C, so the benchmark process is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "serve",
                                       "repair_service.h")):
        print("perfbench: grepair sources not found next to perfbench/",
              file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(os.path.abspath(target), "perfbench")

    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return 1

    before = cpu_ticks()
    bench = subprocess.Popen(
        [os.path.join(build, "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", args.trace, "--work-dir", os.path.join(build, "work")],
        stdout=subprocess.PIPE, text=True)
    try:
        out, _ = bench.communicate()
    except BaseException:
        # Interrupted or terminated: never leave the benchmark running.
        bench.kill()
        bench.wait()
        raise
    after = cpu_ticks()
    if before and after and len(before) > 7:
        # Time the hypervisor ran other guests on this machine's CPUs: the
        # main source of run-to-run spread on a shared VM.
        delta = [b - a for a, b in zip(before, after)]
        print("perfbench: cpu steal during the run: %.1f%%"
              % (100.0 * delta[7] / max(1, sum(delta))), file=sys.stderr)
    lines = out.strip().splitlines()
    if bench.returncode != 0 or not lines:
        print("perfbench: benchmark exited with %d" % bench.returncode,
              file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
