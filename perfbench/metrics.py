"""Metric names, units and the per-layer metrics computed from one traced
iteration.  ``BENCHMARK.json`` lists the same names (a self-test keeps the
two in step)."""

from __future__ import annotations

import re

from perfbench import trace

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "throughput_per_s": "1/s", "precision": "ratio", "recall": "ratio",
}

QUERY_NAMES = [
    "revenue_by_nation", "customers_with_orders", "orders_without_lineitems",
    "events_last_order", "exact_dedup", "user_sessions",
]

PER_LAYER = {
    **{f"pipelines.kg.{p}_s": "s" for p in
       ("index", "extract", "triples", "link", "labels", "phase2",
        "unattributed")},
    "stages.extract.busy_s": "s", "stages.extract.calls": "count",
    "stages.extract.pages_in": "count", "stages.extract.tables_out": "count",
    "stages.extract.tables_kept_ratio": "ratio",
    "stages.triples.busy_s": "s", "stages.triples.rows_out": "count",
    "stages.materialize.busy_s": "s", "stages.materialize.partitions": "count",
    "stages.materialize.rows": "count",
    "stages.materialize.bytes_written": "bytes",
    "stages.materialize.part_skew": "ratio",
    "stages.canonicalize.busy_s": "s", "stages.canonicalize.labels_in": "count",
    "stages.canonicalize.candidate_pairs": "count",
    "stages.canonicalize.verified_edges": "count",
    "stages.canonicalize.verify_ratio": "ratio",
    "stages.canonicalize.merged_uris": "count",
    "stages.link.resolve_busy_s": "s", "stages.link.merge_busy_s": "s",
    "stages.link.mentions_in": "count", "stages.link.distinct_ratio": "ratio",
    "stages.link.route": "flag", "stages.link.shard_tasks": "count",
    "state.index.build_s": "s", "state.index.mem_bytes_est": "bytes",
    "state.index.load_s": "s", "state.index.load_rss_mb": "MB",
    "state.index.shard_load_s": "s", "state.index.shard_load_rss_mb": "MB",
    **{f"pipelines.queries.{q}_s": "s" for q in QUERY_NAMES},
    "dataset.op_count": "count", "dataset.op_rows": "count",
    "dataset.op_bytes": "bytes", "dataset.op_cpu_s": "s",
    "trace_overhead_ratio": "ratio",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def from_spans(spans: list[dict], wall_s: float) -> dict:
    """Per-layer metrics that come from the spans of one traced call."""
    spans = trace.with_self_time(spans)
    sel = lambda name: trace.select(spans, name)  # noqa: E731
    extract = sel("extract")
    writes = sel("materialize.write_partition")
    parts = [s["rows_out"] for s in writes]
    verify = sel("canonicalize.verify")
    merge = sel("link.merge")
    shard = sel("link.score_shard")
    distinct = sum(s["rows_in"] for s in sel("link.resolve")) \
        + sum(s["rows_out"] for s in sel("link.gather"))
    mentions = sum(s["rows_in"] for s in merge)
    execs = sel("dataset.exec")
    return {
        "pipelines.kg.unattributed_s": max(0.0, wall_s - trace.busy_s(spans)),
        "stages.extract.busy_s": trace.busy_s(spans, "extract"),
        "stages.extract.calls": len(extract),
        "stages.extract.pages_in": sum(s["rows_in"] for s in extract),
        "stages.extract.tables_out": sum(s["rows_out"] for s in extract),
        "stages.triples.busy_s": trace.busy_s(spans, "triples", "labels"),
        "stages.triples.rows_out": sum(s["rows_out"] for s in sel("triples")),
        "stages.materialize.busy_s": trace.busy_s(spans, "materialize.write_partition"),
        "stages.materialize.partitions": len(parts),
        "stages.materialize.rows": sum(parts),
        "stages.materialize.part_skew": _ratio(max(parts, default=0),
                                               _ratio(sum(parts), len(parts))),
        "stages.canonicalize.busy_s": trace.busy_s(
            spans, "canonicalize.lsh", "canonicalize.verify", "canonicalize.cc"),
        "stages.canonicalize.labels_in": sum(s["rows_in"] for s in sel("canonicalize.lsh")),
        "stages.canonicalize.candidate_pairs": sum(s["rows_in"] for s in verify),
        "stages.canonicalize.verified_edges": sum(s["rows_out"] for s in verify),
        "stages.canonicalize.verify_ratio": _ratio(
            sum(s["rows_out"] for s in verify), sum(s["rows_in"] for s in verify)),
        "stages.link.resolve_busy_s": trace.busy_s(
            spans, "link.resolve", "link.score_shard", "link.gather"),
        "stages.link.merge_busy_s": trace.busy_s(spans, "link.mentions", "link.merge"),
        "stages.link.mentions_in": mentions,
        "stages.link.distinct_ratio": _ratio(distinct, mentions),
        "stages.link.route": float(bool(shard)),
        "stages.link.shard_tasks": len(shard),
        "dataset.op_count": sum(s["ops"] for s in execs),
        "dataset.op_rows": sum(s["op_rows"] for s in execs),
        "dataset.op_bytes": sum(s["op_bytes"] for s in execs),
        "dataset.op_cpu_s": sum(s["op_cpu_s"] for s in execs),
    }
