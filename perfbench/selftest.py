#!/usr/bin/env python3
"""Tiny-size self-test of the request-anatomy benchmark.

    python3 perfbench/selftest.py

Builds the benchmark (see run.py) and checks, in about a minute:
  1. the answer comparator rejects perturbed answers (binary --self-test);
  2. every metric BENCHMARK.json names is emitted with its unit, by every
     workload, untraced (end_to_end) and traced (per_layer), on tiny inputs
     that pass the correctness gate;
  3. a mixed-serving window with zero rotation checkpoints flags itself:
     the result reads correct=false and the run exits non-zero.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep perfbench/ free of caches
import run  # noqa: E402  (builds the benchmark)

FAILURES = []


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        FAILURES.append(what)


def bench(workload, trace, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", str(seconds), "--trace",
           str(trace), "--scale", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=False)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return done, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    out = run.build()

    done = subprocess.run([os.path.join(out, run.TARGETS[0]), "--self-test"],
                          capture_output=True, text=True, check=False)
    print(done.stdout, end="")
    check(done.returncode == 0, "comparator rejects perturbed answers")

    for workload in (w["name"] for w in spec["workloads"]):
        # mixed-serving needs a few seconds of churn for a WAL rotation.
        seconds = 5 if workload == "mixed-serving" else 1
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done, result = bench(workload, trace, seconds)
            label = "%s --trace %d" % (workload, trace)
            if result is None:
                check(False, label + " printed a result line")
                sys.stderr.write(done.stderr[-2000:])
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  label + " result has exactly the four result keys")
            passed = result["correct"] and done.returncode == 0
            check(passed, label + " passes its correctness gate")
            if not passed:
                sys.stderr.write(done.stderr[-2000:])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            check(got == want, label + " emits every %s metric with its unit"
                  % key)
            check(all(isinstance(v.get("value"), (int, float))
                      for v in result["metrics"].values()),
                  label + " metric values are numbers")

    # One second of churn at the workload's rate fills no WAL segment.
    done, result = bench("mixed-serving", 0, 1)
    check(done.returncode != 0 and result is not None
          and result["correct"] is False
          and "zero rotation checkpoints" in done.stderr,
          "a mixed-serving window without rotation checkpoints flags itself")

    print("self-test: %s" % ("FAILED: " + "; ".join(FAILURES)
                             if FAILURES else "all checks passed"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
