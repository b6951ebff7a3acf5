#!/usr/bin/env python3
"""The repository's benchmark: one command per workload run.

    python3 perfbench/run.py --workload simulate-sparse --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run trains the workloads'
models into ``.bench_build/perfbench`` (about a minute per model, not
timed); later runs load them. A run then

1. makes the workload's inputs: the test-image order and serve stream
   offset from ``--seed``, and for ``simulate-sparse`` the per-layer
   scale factors (calibrated on the first run, then cached);
2. runs three fresh processes one after another; each loads the model
   and warms up (its time to ready is a ``setup_s`` sample), measures
   the workload for a third of ``--seconds`` (with ``--trace 1``, half
   of that untraced and half with benchmark-side spans around the
   program's functions, see ``spans.py``), and checks the program's
   outputs;
3. prints one JSON line of provenance and every measured value and,
   last, the result: ``correct``, ``attempted``, ``failed`` and the
   ``end_to_end`` (``--trace 0``) or ``per_layer`` (``--trace 1``)
   metrics of ``BENCHMARK.json``, each the median over the processes
   (of their pooled samples, for throughput and latency).

It exits 1 when a check fails and 2 when the repository is not there.
The environment is passed through unchanged: BLAS threads, integer
kernels and the dispatch policy are whatever the defaults give, so the
benchmark sees what a user's ``repro evaluate`` or ``repro serve`` sees.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Fresh processes per run. Each sets up, measures ``--seconds / CHILDREN``
#: and checks; every metric is the median over them, which keeps a slow
#: or lucky process from setting a run's figures.
CHILDREN = 3
#: Seconds a child may take beyond its measured passes.
CHILD_SLACK_S = 120.0


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("bench", "child"), default="bench",
                        help=argparse.SUPPRESS)
    parser.add_argument("--factors", default="", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def child(args) -> int:
    """Set up, measure and check the workload in this fresh process."""
    import inputs
    from spans import Patches
    from workloads import WORKLOADS, cpu_steal_s, layer_metrics, peak_rss_mb, routing_record

    workload = WORKLOADS[args.workload](inputs.context(ROOT), args)
    print("READY", flush=True)
    # A traced run splits the window: untraced half, then traced half.
    window = args.seconds / (2 if args.trace else 1)
    steal = cpu_steal_s()
    untraced = workload.measure(window)
    steal = cpu_steal_s() - steal
    rss = peak_rss_mb()
    traced = None
    if args.trace:
        patches = Patches()
        workload.install_spans(patches)
        try:
            traced = workload.measure(window)
        finally:
            patches.restore()
    passes = [p for p in (untraced, traced) if p is not None]
    errors = sorted({e for p in passes for e in p.errors})
    errors += workload.check(passes)
    measured = workload.end_to_end(untraced)
    measured["peak_rss_mb"] = rss
    measured["completed_ratio"] = (
        (untraced.attempted - untraced.failed) / untraced.attempted
        if untraced.attempted else 0.0
    )
    if traced is not None:
        measured.update(layer_metrics(workload, untraced, traced, patches))
    record = {
        "measured": measured,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "errors": errors,
        "inputs": workload.provenance(),
        "environment": inputs.environment(ROOT),
        "routing": routing_record(passes),
        # CPU time the hypervisor took during the untraced pass: explains
        # a run that a noisy neighbour slowed down.
        "cpu_steal_s": steal,
        "unmeasured_worker_side": list(workload.worker_side),
    }
    workload.close()
    print(json.dumps(record), flush=True)
    return 0


def run_child(command, env, limit_s: float):
    """Run one child; returns (seconds to READY, its result record)."""
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(limit_s, proc.kill)
    watchdog.start()
    ready_s = record = None
    try:
        for line in proc.stdout:
            if line.strip() == "READY" and ready_s is None:
                ready_s = time.perf_counter() - start
            elif line.startswith("{"):
                record = json.loads(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready_s is None or record is None:
        raise SystemExit(f"perfbench: measuring child exited with {code}")
    return ready_s, record


# ---------------------------------------------------------------------------
# The benchmark run
# ---------------------------------------------------------------------------

def bench(args) -> int:
    import inputs

    contract = load_contract()
    ctx = inputs.context(ROOT)
    temp = os.path.join(inputs.workspace_dir(ROOT), "tmp")
    os.makedirs(temp, exist_ok=True)
    # Temp files of the program (pooled shard payloads) stay in the checkout.
    env = dict(os.environ, TMPDIR=temp)
    inputs.prepare_models(
        ctx, sorted(set(inputs.GATED_SCHEMES) | {inputs.SCHEMES[args.workload]})
    )
    factors = inputs.scale_factors(ctx) if args.workload == "simulate-sparse" else []
    window = args.seconds / CHILDREN
    command = [
        sys.executable, os.path.abspath(__file__), "--role", "child",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(window), "--trace", str(args.trace),
        "--factors", ",".join(repr(f) for f in factors),
    ]
    limit = CHILD_SLACK_S + window
    children = [run_child(command, env, limit) for _ in range(CHILDREN)]

    setups = [ready_s for ready_s, _ in children]
    records = [record for _, record in children]
    measured = {"setup_s": statistics.median(setups)}
    for name, first in records[0]["measured"].items():
        # Sample lists pool across processes; scalars take the median of
        # the processes' values.
        values = [r["measured"][name] for r in records]
        if isinstance(first, list):
            values = [v for samples in values for v in samples]
        measured[name] = statistics.median(values) if values else math.nan
    errors = sorted({e for r in records for e in r["errors"]})
    attempted = sum(r["attempted"] for r in records)
    if attempted < 1:
        errors.append("no operation was attempted")
    metrics = {}
    for spec in contract["per_layer" if args.trace else "end_to_end"]:
        value = measured.get(spec["name"])
        if value is None or not math.isfinite(value):
            errors.append(f"metric {spec['name']} was not measured")
            continue
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "errors": errors,
        "setup_runs_s": setups,
        "measured": measured,
        "children": [
            {key: r[key] for key in ("measured", "attempted", "failed", "cpu_steal_s", "routing")}
            for r in records
        ],
        **{key: records[0][key] for key in ("inputs", "environment", "unmeasured_worker_side")},
    }))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if not errors else 1


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: {SRC}/repro not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    return bench(args) if args.role == "bench" else child(args)


if __name__ == "__main__":
    sys.exit(main())
