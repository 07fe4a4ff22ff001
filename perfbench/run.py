#!/usr/bin/env python3
"""spfactor end-to-end benchmark: build, run one workload, print its result.

Usage (from the repository root):

    python3 perfbench/run.py --workload refactor-3d --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The library and spf_serve are compiled from the repository's sources into
.bench_build/ (a Release build of its own, see perfbench/CMakeLists.txt);
compile time counts in no metric.  The last line of standard output is the
run's JSON result.  Build output and the benchmark's notes go to stderr.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("refactor-3d", "analyze-cold", "serve-socket", "dist-mesh")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_DIR = ROOT / ".bench_build" / "run"
# A run that lasts this many seconds past --seconds is stopped and fails.
RUN_GRACE_S = 120


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("src/CMakeLists.txt", "tools/spf_serve.cpp"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} not found: run from a full spfactor checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j4", "--target",
                      "perfbench", "spf_serve", "perfbench_selftest"])
        for cmd in steps:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if res.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}", 1)


def manifest_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json lists for this kind of run."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}


def stop_group(pgid):
    """SIGTERM what is left of the run's process group, then wait for it."""
    for sig, wait_s in ((signal.SIGTERM, 10.0), (signal.SIGKILL, 5.0)):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + wait_s
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def run_binary(cmd, timeout_s):
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            start_new_session=True, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        fail(f"{Path(cmd[0]).name} did not finish within {timeout_s:.0f} s", 1)
    finally:
        stop_group(proc.pid)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="show that every output check fails on a corrupted output")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    build()
    if args.self_test:
        code, out = run_binary([str(BUILD / "perfbench_selftest")], RUN_GRACE_S)
        print(out, end="")
        sys.exit(code)

    RUN_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(RUN_DIR)]
    code, out = run_binary(cmd, args.seconds + RUN_GRACE_S)
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if code != 0 or not lines:
        fail(f"perfbench exited with code {code}", 1)
    result = json.loads(lines[-1])
    expected = manifest_metrics(args.trace)
    got = {k: m.get("unit") for k, m in result.get("metrics", {}).items()}
    if got != expected:
        fail(f"result metrics {sorted(got.items())} differ from BENCHMARK.json's "
             f"{sorted(expected.items())}", 1)
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
