#!/usr/bin/env python3
"""Builds the request-path benchmark from this checkout and runs one workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload lookup|read_write|advise \
        --seed N --seconds S --trace 0|1

The benchmark binary and libxia are built with CMake (Release) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Build output
goes to stderr; stdout carries the benchmark's detail line and, as its last
line, the result object. Exits non-zero without a result if the build or
the run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

_child = None


def _kill_child(*_):
    """Kills the running child's whole process group and waits for it."""
    if _child is not None and _child.poll() is None:
        try:
            os.killpg(_child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        _child.wait()


def _on_signal(signum, _frame):
    _kill_child()
    sys.exit(128 + signum)


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the group on timeout."""
    global _child
    _child = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                              start_new_session=True, text=True)
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_child()
        sys.exit(f"run.py: {cmd[0]} timed out after {timeout} s")
    finally:
        if _child.poll() is None:
            _kill_child()
    code = _child.returncode
    _child = None
    return code, out


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    base = base.resolve()
    if ROOT not in base.parents and base != ROOT:
        base = ROOT / ".bench_build"
    return base / "perfbench"


def build(out_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: no libxia sources (src/CMakeLists.txt) next to "
                 "perfbench/; run from a full checkout")
    out_dir.mkdir(parents=True, exist_ok=True)
    if not (out_dir / "CMakeCache.txt").is_file():
        code, _ = run(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                       "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            sys.exit("run.py: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    code, _ = run(["cmake", "--build", str(out_dir), "--target",
                   "xia_perfbench", "-j", jobs], BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        sys.exit("run.py: build failed")
    return out_dir / "xia_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["lookup", "read_write", "advise"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("run.py: --seed must be >= 0 and --seconds >= 1")

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    out_dir = build_dir()
    binary = build(out_dir)
    work_dir = out_dir / f"work-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    try:
        code, out = run(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        sys.exit(f"run.py: xia_perfbench exited with {code} and no result")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
