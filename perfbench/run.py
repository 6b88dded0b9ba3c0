#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload kg_crawl --seed 1 --seconds 18 --trace 0

Generates the workload's inputs from ``--seed`` and starts a Ray cluster
for the run, connects one untimed job to warm it, then repeats iterations
until ``--seconds`` have passed (at least ``MIN_ITERATIONS``).  Each
iteration connects as a fresh Ray job with new workers (timed as set-up
with the workload's own set-up), makes one timed call into the program,
checks its output and ends the job.

The last line on stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (medians over the iterations); with ``--trace 1``
iterations alternate untraced and traced, and the metrics are the
per-layer ones from the traced iterations plus ``trace_overhead_ratio``.
The line before it records nproc, the Ray version, input sizes and every
iteration.  Run from the repository root; it reads and writes only under
it.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench")
MIN_ITERATIONS = 3


def iterate(cluster, wl, traced: bool) -> dict:
    """One fresh-job iteration → its measurements and checks."""
    from perfbench import metrics, procstat, trace

    span_dir = os.path.join(WORK_DIR, "spans")
    shutil.rmtree(span_dir, ignore_errors=True)
    procstat.reset_peak_rss()
    rec: dict = {"traced": traced}
    t0 = time.perf_counter()
    try:
        cluster.start_job(span_dir if traced else None)
        wl.setup()
        rec["setup_s"] = time.perf_counter() - t0
        wl.reset()
        if traced:
            trace.install(span_dir, datasets=True)
        gc.collect()  # not inside the timed call
        before = procstat.tree()
        t1 = time.perf_counter()
        info = wl.run()
        rec["wall_s"] = time.perf_counter() - t1
        after = procstat.tree()
        rec["cpu_s"] = procstat.cpu_delta(before, after)
        rec["peak_rss_mb"] = procstat.peak_rss_mb(after)
        wl.collect(info)
    finally:
        trace.uninstall()
        cluster.end_job()
    verdicts = wl.check(info)
    rec["items"] = wl.items(info)
    rec["throughput_per_s"] = rec["items"] / rec["wall_s"]
    rec["precision"] = statistics.fmean(v.precision for v in verdicts)
    rec["recall"] = statistics.fmean(v.recall for v in verdicts)
    rec["checks"] = len(verdicts)
    rec["failed"] = sum(not v.ok for v in verdicts)
    rec["errors"] = [e for v in verdicts for e in v.errors]
    if traced:
        spans = metrics.from_spans(trace.load_spans(span_dir), rec["wall_s"])
        rec["layers"] = {**spans, **wl.layers(info, spans)}
    return rec


def summarize(recs: list[dict], traced_run: bool) -> dict:
    from perfbench import metrics

    ok = [r for r in recs if "wall_s" in r]
    if traced_run:
        traced = [r for r in ok if r["traced"]]
        plain = [r for r in ok if not r["traced"]]
        out = {name: {"value": statistics.median(
                   r["layers"].get(name, 0) for r in traced), "unit": unit}
               for name, unit in metrics.PER_LAYER.items()
               if name != "trace_overhead_ratio"}
        out["trace_overhead_ratio"] = {
            "value": statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in plain), "unit": "ratio"}
        return out
    return {name: {"value": statistics.median(r[name] for r in ok), "unit": unit}
            for name, unit in metrics.END_TO_END.items()}


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # stop here, before any output, when the program is not in the tree
    if importlib.util.find_spec("mannheimsearchjoinsengine_ray") is None:
        print("mannheimsearchjoinsengine_ray is not importable from "
              f"{ROOT}", file=sys.stderr)
        return 1
    from perfbench import session

    recs: list[dict] = []
    failed = attempted = 0
    with session.Cluster() as cluster:
        # the cluster starts while the program loads and inputs are made
        import ray

        wl = WORKLOADS[args.workload](WORK_DIR, args.seed)
        wl.prepare()
        cluster.wait_ready()
        # the first job in a process connects and imports more slowly
        cluster.start_job()
        cluster.end_job()
        t_end = time.perf_counter() + args.seconds
        while len(recs) < MIN_ITERATIONS or time.perf_counter() < t_end:
            traced = bool(args.trace) and len(recs) % 2 == 1
            try:
                rec = iterate(cluster, wl, traced)
            except Exception:  # an iteration that raised counts as failed
                traceback.print_exc()
                rec = {"traced": traced, "errors": ["raised"], "checks": 1,
                       "failed": 1}
            attempted += rec["checks"]
            failed += rec["failed"]
            recs.append(rec)
            if len(recs) >= 4 * MIN_ITERATIONS and failed == attempted:
                break  # nothing works; stop early and report it
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "nproc": session.nproc(),
        "ray": ray.__version__, "cluster_start_s": cluster.start_s,
        "sizes": wl.sizes(),
        "iterations": [{k: v for k, v in r.items() if k != "layers"}
                       for r in recs]}))
    if not any("wall_s" in r for r in recs) or (
            args.trace and not any(r["traced"] and "wall_s" in r for r in recs)):
        print("no iteration completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": summarize(recs, bool(args.trace))}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    sys.exit(main())
