#!/usr/bin/env python3
"""Run one workload of the repository benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload catalog_cold|golden_cells
                             --seed N --seconds S --trace 0|1

Builds the harness and pipesimd from source into .bench_build/ (the first
run configures and compiles; later runs only check the build is current),
runs the workload in a private scratch directory that is removed
afterwards, and passes the harness output through: "# " note lines, then
one JSON object as the last line. Exits non-zero, without a result, when
the checkout lacks the program's sources.
"""

import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("catalog_cold", "golden_cells")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
# Beyond --seconds, a run also pays its set-up, the pass that overruns
# the window, and in a traced run the layer replay and the daemon pass.
HARNESS_MARGIN_S = 120
# What the benchmark needs from the checkout besides its own directory.
REQUIRED = ("CMakeLists.txt", "src/CMakeLists.txt", "tools/pipesimd.cc",
            "tests/sweep/golden_sim_hashes.inc")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(jobs):
    """Configure once, then bring the harness and pipesimd up to date."""
    os.makedirs(".bench_build", exist_ok=True)
    with open(os.path.join(".bench_build", "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(jobs),
                        "--target", "perfbench", "pipesimd"],
                       stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        fail("run from the root of a pipedepth checkout; missing "
             + ", ".join(missing))

    try:
        build(os.cpu_count() or 1)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    # Relative, so pipesimd's AF_UNIX socket path stays short.
    work_dir = os.path.join(".bench_build", "run-%d" % os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    command = [os.path.join(BUILD_DIR, "perfbench"), "run",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--root", ".", "--work-dir", work_dir,
               "--daemon", os.path.join(BUILD_DIR, "pipedepth", "tools",
                                        "pipesimd")] + extra
    # Its own process group: whatever it leaves behind (a daemon of a
    # crashed or timed-out run) is stopped with it.
    harness = subprocess.Popen(command, start_new_session=True)
    try:
        code = harness.wait(timeout=args.seconds + HARNESS_MARGIN_S)
    except subprocess.TimeoutExpired:
        code = 124
        print("perfbench: harness timed out", file=sys.stderr)
    finally:
        stop_group(harness)
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


def stop_group(leader):
    """SIGKILL every process left in the leader's group; wait until gone."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(leader.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        if leader.poll() is None:
            leader.wait()
        time.sleep(0.01)
    leader.wait()


if __name__ == "__main__":
    main()
