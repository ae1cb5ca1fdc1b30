#!/usr/bin/env python3
"""Run one braidrep benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rho_words --seed 1 --seconds 25 --trace 0

One process runs one workload as a closed loop with a single caller: the
next item starts when the previous one has returned and been checked.  Only
the library call is on the clock; every output is checked exactly off the
clock, and an item that raises or fails its check counts as failed.  The
run plays whole cycles of fresh items until ``--seconds`` of wall time are
about used and at least ``MIN_ITEMS`` items were attempted.  Times are
scaled to a reference host speed (see ``REFERENCE_S``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` plays every
cycle once untraced and at once again traced, and reports the per-layer
metrics of the traced plays together with the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
record (run environment, sample counts, layer shares, spans) is written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: BENCHMARK.json: the workloads, and the metrics with their units
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
MIN_ITEMS = 100
# the highest percentile with at least 10 items beyond it at MIN_ITEMS items
TAIL_PERCENTILE = 90
# stop starting new cycles after this much wall time, whatever MIN_ITEMS says
HARD_CAP_S = 120
# set-up is timed in this process and in this many fresh child processes
SETUP_PROBES = 4
# The shared host runs a fixed task up to twice as slow, in swings of seconds
# to minutes.  A reference task is timed between items, off the clock, and
# each item's time is scaled to a host that runs the reference task in REFERENCE_S seconds
# (the task's median on the quiet 2-core VM the benchmark was built on).
REFERENCE_LOOPS = 8000
REFERENCE_S = 0.002
REFERENCE_SAMPLES = 15
SANDBOX_LIMITS = ("wall-clock timing only: no hardware counters, no CPU pinning, "
                  "and the host may be shared with other jobs")

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time import and warm-up once, print it, exit")
    return parser.parse_args(argv)


def pin_environment():
    """Re-execute under a fixed hash seed and without BRAIDREP_THREADS."""
    if os.environ.get("PYTHONHASHSEED") == "0" and "BRAIDREP_THREADS" not in os.environ:
        return
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("BRAIDREP_THREADS", None)
    os.execve(sys.executable, [sys.executable] + sys.argv, env)


def reference_seconds():
    """Time a fixed integer-and-dict task that allocates no containers, so
    its speed follows the host and not the library's heap."""
    t0 = time.perf_counter()
    table = dict.fromkeys(range(256), 0)
    acc = 1
    for i in range(REFERENCE_LOOPS):
        acc = (acc * 1103515245 + 12345) & 0xFFFFFFFF
        table[acc & 255] += i
    return time.perf_counter() - t0


def host_scale(samples):
    """Factor that turns this host's seconds into reference-host seconds."""
    return REFERENCE_S / statistics.median(samples)


def set_up(name, seed, workdir):
    """Import the library and warm the workload's caches.

    Returns the workload and the set-up time in reference-host seconds.
    """
    t0 = time.perf_counter()
    import workloads
    wl = workloads.make(name, seed, workdir)
    wl.warm_up()
    elapsed = time.perf_counter() - t0
    elapsed *= host_scale([reference_seconds() for _ in range(REFERENCE_SAMPLES)])
    import braidrep
    if Path(braidrep.__file__).resolve().parent != SRC / "braidrep":
        raise SystemExit("error: imported braidrep from %s, not from %s"
                         % (braidrep.__file__, SRC))
    return wl, elapsed


def probe_setup(name):
    """Set-up time of ``name`` in fresh interpreters, one sample per probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


class Items:
    """The inputs of one run and the timed plays of each item."""

    def __init__(self):
        self.times = []           # per item: scaled on-clock seconds of each good play
        self.errors = []
        self.attempts = 0
        self.scales = []          # host_scale of each cycle played


def run_item(wl, item, item_id, tracer=None):
    """Time one library call; return (seconds, output, failure reason or None)."""
    if tracer is not None:
        tracer.begin_item(item_id)
    t0 = time.perf_counter()
    try:
        output = wl.run(item)
    except Exception as exc:            # one item's failure ends only that item
        output, reason = None, "raised %s: %s" % (type(exc).__name__, exc)
    else:
        reason = None
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_item()
    return dt, output, reason


def play_cycle(wl, items, cycle, base, tracer=None):
    """Run and check one cycle whose first item has index ``base``.

    Each item's time is scaled by the mean of the reference runs just
    before and just after it: the host's speed swings within seconds, so
    a longer window would miss what the item met.
    """
    wl.begin_cycle()
    refs, good = [reference_seconds()], []
    for i, item in enumerate(cycle, start=base):
        if i == len(items.times):
            items.times.append([])
        dt, output, reason = run_item(wl, item, i, tracer)
        refs.append(reference_seconds())
        items.attempts += 1
        if reason is None:
            reason = wl.check(item, output)
        if reason is None:
            good.append((i, dt, host_scale(refs[-2:])))
        else:
            items.errors.append("item %r: %s" % (item, reason))
    items.scales.append(host_scale(refs))
    for i, dt, scale in good:
        items.times[i].append(dt * scale)


def measure(wl, seconds, tracer=None):
    """Play fresh cycles until they fill ``seconds`` of wall time.

    A new cycle starts only while the run is short of ``seconds`` by at
    least half the last cycle's wall time, so runs end close to ``seconds``
    instead of up to a cycle past it.  With a tracer, each cycle is played
    once untraced and at once again traced, so that both plays of an item
    see the same load on the host; a traced run reports no tail, so it
    needs no ``MIN_ITEMS``.
    """
    min_items = MIN_ITEMS if tracer is None else 0
    items = Items()
    start = time.perf_counter()
    last = 0.0
    while True:
        now = time.perf_counter()
        elapsed = now - start
        if items.times and (elapsed >= HARD_CAP_S or (
                elapsed + last / 2 >= seconds and len(items.times) >= min_items)):
            break
        cycle = wl.next_cycle()
        base = len(items.times)
        play_cycle(wl, items, cycle, base)
        if tracer is not None:
            tracer.install()
            try:
                play_cycle(wl, items, cycle, base, tracer)
            finally:
                tracer.uninstall()
        last = time.perf_counter() - now
    return items


def end_to_end(items, setup_samples):
    latencies = [ts[0] for ts in items.times if ts]
    return {
        "throughput_items_per_s": len(latencies) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": statistics.quantiles(
            latencies, n=100, method="inclusive")[TAIL_PERCENTILE - 1],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_samples),
    }


def named(values, kind):
    """The ``kind`` metrics of BENCHMARK.json, each with its value and unit."""
    if not values:
        return {}
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[kind]}


def run_record(args):
    digest = hashlib.sha256()
    for path in sorted((SRC / "braidrep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        revision = done.stdout.strip() or None
    return {
        "python": "%s %s" % (platform.python_implementation(),
                             platform.python_version()),
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {"PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
                "BRAIDREP_THREADS": os.environ.get("BRAIDREP_THREADS", "unset")},
        "limits": SANDBOX_LIMITS,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "braidrep" / "__init__.py").is_file():
        print("error: %s has no braidrep sources; run from a braidrep checkout"
              % SRC, file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print("%.9f" % set_up(args.workload, 0, None)[1])
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir):
    wl, own_setup = set_up(args.workload, args.seed, workdir)
    record = {"run": run_record(args)}
    if args.trace:
        import tracer as tracing
        import workloads
        tracer = tracing.Tracer(workloads.lru_caches())
        origin = time.perf_counter()
        items = measure(wl, args.seconds, tracer)
        pairs = [ts for ts in items.times if len(ts) == 2]
        untraced_s = sum(ts[0] for ts in pairs)
        traced_s = sum(ts[1] for ts in pairs)
        scale = statistics.median(items.scales)
        values = tracer.metrics(untraced_s, traced_s, scale) if pairs else {}
        metrics = named(values, "per_layer")
        record["layer_shares"] = tracer.layer_shares()
        record["trace_wrapper_costs_s"] = {"outside": tracer.outside,
                                           "inside": tracer.inside}
        # near 1 when self times are net of the tracing overhead
        record["net_traced_over_untraced"] = (
            tracer.net_item_s() * scale / untraced_s if pairs else None)
        record["spans"] = tracer.span_records(origin)
        record["span_fields"] = ["id", "parent", "item", "name", "start_s", "end_s"]
        samples = {name: len(pairs) for name in metrics}
    else:
        items = measure(wl, args.seconds)
        setup_samples = [own_setup] + probe_setup(args.workload)
        checked = sum(1 for ts in items.times if ts)
        values = end_to_end(items, setup_samples) if checked >= 2 else {}
        metrics = named(values, "end_to_end")
        samples = {name: checked for name in metrics}
        samples["setup_s"] = len(setup_samples)
        samples["peak_rss_mib"] = 1

    attempted, errors = items.attempts, items.errors
    record["host_scale"] = {"median": statistics.median(items.scales),
                            "min": min(items.scales), "max": max(items.scales)}
    print("run %s" % json.dumps(record["run"], sort_keys=True))
    print("host_scale %s" % json.dumps(record["host_scale"], sort_keys=True))
    for err in errors[:10]:
        print("FAILED %s" % err)
    for name, metric in metrics.items():
        note = " p%d" % TAIL_PERCENTILE if name == "latency_tail_s" else ""
        print("%-38s %14.6g %-10s n=%d%s" % (name, metric["value"], metric["unit"],
                                              samples[name], note))
    print("%-38s %14.6g %-10s n=%d" % ("failed_ratio", len(errors) / max(attempted, 1),
                                        "ratio", attempted))
    for layer, share in record.get("layer_shares", {}).items():
        print("share %-32s %8.1f %%" % (layer, 100 * share))

    record.update(attempted=attempted, failed=len(errors), errors=errors,
                  samples=samples, tail_percentile=TAIL_PERCENTILE,
                  metrics=metrics)
    out = OUT_DIR / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": not errors and bool(metrics), "attempted": max(attempted, 1),
                      "failed": len(errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
