#!/usr/bin/env python3
"""Run every workload in its own process and print all end-to-end metrics.

Usage, from the root of a checkout:

    python3 perfbench/summary.py [--seed 1]

Runs each workload for BENCHMARK.json's ``run_seconds`` and prints one row
per workload and metric with its unit and sample count, plus
``failed_ratio``.  Exits 1 when any workload has a failed item or did not
produce a result.  ``run.py --trace 1`` gives the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402  (stdlib-only at import time)


def run_workload(name, seed):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(bench.SPEC["run_seconds"]), "--trace", "0"],
        capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None
    path = bench.OUT_DIR / ("%s-seed%d-trace0.json" % (name, seed))
    return json.loads(path.read_text())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    bad = 0
    print("%-12s %-24s %14s %-6s %s" % ("workload", "metric", "value", "unit", "samples"))
    for name in bench.WORKLOADS:
        record = run_workload(name, args.seed)
        if record is None:
            print("%-12s did not produce a result" % name)
            bad += 1
            continue
        if name == bench.WORKLOADS[0]:
            print("# run record: %s" % json.dumps(record["run"], sort_keys=True))
        for metric, m in record["metrics"].items():
            note = " (p%d)" % record["tail_percentile"] if metric == "latency_tail_s" else ""
            print("%-12s %-24s %14.6g %-6s n=%d%s" % (
                name, metric, m["value"], m["unit"], record["samples"][metric], note))
        failed_ratio = record["failed"] / record["attempted"]
        print("%-12s %-24s %14.6g %-6s n=%d" % (
            name, "failed_ratio", failed_ratio, "ratio", record["attempted"]))
        for err in record["errors"][:5]:
            print("%-12s FAILED %s" % (name, err))
        bad += failed_ratio > 0 or not record["metrics"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
