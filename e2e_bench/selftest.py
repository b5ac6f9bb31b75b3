#!/usr/bin/env python3
"""The benchmark's own test: exact engine counters and output digests.

usage: python3 e2e_bench/selftest.py

For every workload this makes two traced runs with the same seed and one
with a held-out seed (all through run.py, at the fixed pool width). It
checks that each run is correct with no failed operation, and that the
two same-seed runs report identical engine counters (every per-layer
metric that is not a time) and identical window digests. Exits 0 when all
checks pass, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["obda-travel", "derived-enumerate", "append-whynot"]
TIMED_UNITS = {"ms", "1/s"}
SEED = 1
HELDOUT_SEED = 20261017
SECONDS = 2


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "1"],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %s exited %d: %s" % (
            workload, seed, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    digest = next(l.split()[1] for l in lines if l.startswith("digest_window"))
    counters = {name: m["value"] for name, m in result["metrics"].items()
                if m["unit"] not in TIMED_UNITS}
    return result, digest, counters


def main():
    failures = []
    for workload in WORKLOADS:
        runs = [traced_run(workload, SEED), traced_run(workload, SEED),
                traced_run(workload, HELDOUT_SEED)]
        for (result, _, _), seed in zip(runs, [SEED, SEED, HELDOUT_SEED]):
            if not result["correct"] or result["failed"] != 0:
                failures.append("%s seed %d: correct=%s failed=%d" %
                                (workload, seed, result["correct"],
                                 result["failed"]))
        (_, digest_a, counters_a), (_, digest_b, counters_b) = runs[0], runs[1]
        if digest_a != digest_b:
            failures.append("%s: window digests differ (%s vs %s)" %
                            (workload, digest_a, digest_b))
        for name in sorted(counters_a):
            if counters_a[name] != counters_b.get(name):
                failures.append("%s: counter %s differs (%r vs %r)" %
                                (workload, name, counters_a[name],
                                 counters_b.get(name)))
        print("%-18s digest %s, %d counters compared" %
              (workload, digest_a, len(counters_a)))
    for failure in failures:
        print("FAIL " + failure)
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
