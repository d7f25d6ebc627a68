#!/usr/bin/env python3
"""Builds and runs the RATS end-to-end benchmark from a checkout's root.

    python3 perfbench/run.py --workload fig2_matrix --seed 42 \
        --seconds 30 --trace 0

Configures perfbench/ (its own CMake package, compiling the library from
src/) into .bench_build/perfbench, builds the harness, and runs it with
the same arguments.  The harness prints a summary and, as its last
stdout line, the JSON result.  The exit code is non-zero when the build
fails, an oracle fails, or the harness overruns its time limit.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HARNESS_TIMEOUT_S = 170
WORKLOADS = ("fig2_matrix", "fig4_sweep", "serve_open")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root):
    """Configures and builds the harness; returns its path.

    Configures on every run, not just the first, so the build stamp's
    git describe follows the checkout the build directory now serves.
    """
    src = os.path.join(root, "perfbench")
    out = os.path.join(root, ".bench_build", "perfbench")
    cmd = ["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")) and \
            shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
        check=True,
        stdout=sys.stderr,
    )
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("src", "scenarios"):
        if not os.path.isdir(os.path.join(root, need)):
            log(f"no {need}/ here; run from the root of a RATS checkout")
            return 2
    try:
        exe = build(root)
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 2

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    # Its own session, so an overrun stops the harness together with
    # the serve daemon and workers it forked.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        wait_group_gone(proc.pid)
        log(f"harness exceeded {HARNESS_TIMEOUT_S} s")
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def wait_group_gone(pgid, limit_s=10):
    """Waits until no process of the group is left."""
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


if __name__ == "__main__":
    sys.exit(main())
