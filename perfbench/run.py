#!/usr/bin/env python3
"""Request-anatomy benchmark: build, run one workload, print the result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload knn-point-rpc --seed 1 --seconds 5 \
        --trace 0

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or
.bench_build when unset, then runs the workload once. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the line before it is the provenance block. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer metrics of the traced run.
See perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("knn-point-rpc", "knn-batch-clustered", "mixed-serving")
TARGETS = ("perfbench_anatomy", "perfbench_anatomy_traced")
RUN_TIMEOUT_S = 170


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds both benchmark binaries; returns the dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources under", os.path.join(ROOT, "src"))
        sys.exit(2)
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A cache configured for another source tree cannot be reused.
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home and os.path.realpath(home[0]) != os.path.realpath(HERE):
            shutil.rmtree(out)
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", *TARGETS])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            log("build failed:", " ".join(cmd))
            sys.exit(1)
    return out


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over src/ (paths and contents): names the code when the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test scale (selftest.py); the timed workloads never set it.
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    out = build()
    binary = os.path.join(out, TARGETS[args.trace])
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale]
    # When this script is terminated, the benchmark process goes with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded", RUN_TIMEOUT_S, "s")
        sys.exit(1)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    lines = stdout.splitlines()
    provenance = {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    result = None
    for line in lines:
        if line.startswith("provenance "):
            provenance.update(json.loads(line[len("provenance "):]))
        elif line.startswith("{"):
            result = line
        else:
            print(line)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    if result is None:
        log("the benchmark printed no result (exit code %d)" % proc.returncode)
        sys.exit(proc.returncode or 1)
    print(result, flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
