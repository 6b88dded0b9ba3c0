"""Span tracing of the program's layers, installed from outside the program.

``install`` replaces selected module functions and ``__call__`` methods with
wrappers that record one span per call: name, start, end, pid, rows in and
rows out.  The benchmark process installs them directly; Ray workers install them
through ``worker_process_setup_hook`` (``install_worker``) before they
deserialize any task, so functions that Ray pickles by reference resolve to
the wrappers there too.

Ray ends worker processes without running ``atexit`` handlers, so each
process appends its spans to its own ``spans-<pid>.jsonl`` as they close;
``load_spans`` merges the files after the job ends.

Functions nested inside other functions (the split/merge closures of
``pipelines.kg.materialize_triples``) cannot be wrapped; their time shows up
as unattributed.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import traceback

PKG = "mannheimsearchjoinsengine_ray"
SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"

# (module, attribute, span name, kind).  "work" spans are busy time in the
# process that runs them; "outer" spans are calls in the benchmark process that wait on
# remote work, kept for their counts but left out of busy time.
TARGETS = [
    ("stages.extract", "TableExtractor.__call__", "extract", "work"),
    ("stages.triples", "triples_from_tables_batch", "triples", "work"),
    ("stages.triples", "label_pairs_from_tables_batch", "labels", "work"),
    ("stages.link", "mentions_from_tables_batch", "link.mentions", "work"),
    ("stages.link", "resolve_mentions_batch", "link.resolve", "work"),
    ("stages.link", "score_shard_batch", "link.score_shard", "work"),
    ("stages.link", "_gather_resolved_group", "link.gather", "work"),
    ("stages.link", "merge_links_batch", "link.merge", "work"),
    ("stages.materialize", "write_partition", "materialize.write_partition", "work"),
    ("stages.canonicalize", "LshBlocker.__call__", "canonicalize.lsh", "work"),
    ("stages.canonicalize", "_verify_df", "canonicalize.verify", "work"),
    ("stages.canonicalize", "connected_components_local", "canonicalize.cc", "work"),
    ("pipelines.kg", "materialize_triples", "kg.materialize_triples", "outer"),
    ("state.index", "build_index", "index.build", "outer"),
]
# Dataset executions in the benchmark process, with Ray Data's per-operator stats
DATASET_METHODS = ("materialize", "to_pandas")
KIND = {**{t[2]: t[3] for t in TARGETS}, "dataset.exec": "outer"}

_installed: list[tuple[object, str, object]] = []
_span_file: str | None = None


def _rows(x) -> int:
    if hasattr(x, "num_rows"):
        return int(x.num_rows)
    if hasattr(x, "shape") and hasattr(x, "columns"):
        return int(x.shape[0])
    if isinstance(x, dict):
        return int(x.get("rows", 0))
    if isinstance(x, list) and x and isinstance(x[0], dict):
        return int(sum(s.get("rows", 0) for s in x))
    return 0


def _record(span: dict) -> None:
    if _span_file is None:  # a wrapper that outlived ``uninstall``
        return
    with open(_span_file, "a") as fh:
        fh.write(json.dumps(span) + "\n")


def _wrap(fn, name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rows_in = next((_rows(a) for a in args[:2] if _rows(a)), 0)
        start = time.time()
        out = fn(*args, **kwargs)
        span = {"name": name, "start": start, "end": time.time(),
                "pid": os.getpid(), "rows_in": rows_in, "rows_out": _rows(out)}
        if isinstance(out, list) and out and isinstance(out[0], dict):
            span["parts"] = [int(s.get("rows", 0)) for s in out]
        _record(span)
        return out

    return traced


def _operator_stats(ds) -> dict:
    """Rows, bytes, CPU seconds and count of the operators one execution of
    ``ds`` ran (Ray Data's stats summary; earlier executions are parents)."""
    out = {"ops": 0, "op_rows": 0, "op_bytes": 0, "op_cpu_s": 0.0}
    for op in ds._plan.stats().to_summary().operators_stats:
        out["ops"] += 1
        out["op_rows"] += int((op.output_num_rows or {}).get("sum", 0))
        out["op_bytes"] += int((op.output_size_bytes or {}).get("sum", 0))
        out["op_cpu_s"] += float((op.cpu_time or {}).get("sum", 0.0))
    return out


def _wrap_dataset_method(fn):
    @functools.wraps(fn)
    def traced(self, *args, **kwargs):
        start = time.time()
        out = fn(self, *args, **kwargs)
        span = {"name": "dataset.exec", "start": start, "end": time.time(),
                "pid": os.getpid(), "rows_in": 0, "rows_out": 0}
        try:
            span.update(_operator_stats(out if fn.__name__ == "materialize" else self))
        except Exception:  # a stats read must never fail the traced call
            traceback.print_exc()
            span.update(ops=0, op_rows=0, op_bytes=0, op_cpu_s=0.0)
        _record(span)
        return out

    return traced


def install(span_dir: str, datasets: bool = False) -> None:
    """Wrap every target in this process; spans go to ``span_dir``.  With
    ``datasets``, also record the operator stats of each Dataset execution
    this process starts."""
    global _span_file
    if _installed:
        return
    os.makedirs(span_dir, exist_ok=True)
    _span_file = os.path.join(span_dir, f"spans-{os.getpid()}.jsonl")
    for mod_name, attr, name, _ in TARGETS:
        mod = importlib.import_module(f"{PKG}.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name)
            orig = owner.__dict__[meth]
            setattr(owner, meth, _wrap(orig, name))
            _installed.append((owner, meth, orig))
            continue
        orig = getattr(mod, attr)
        wrapped = _wrap(orig, name)
        # rebind every ``from … import name`` copy too, so callers that
        # bound the function at import time reach the wrapper
        for m in list(sys.modules.values()):
            if getattr(m, "__name__", "").startswith(PKG) \
                    and m.__dict__.get(attr) is orig:
                setattr(m, attr, wrapped)
                _installed.append((m, attr, orig))
    if datasets:
        from ray.data import Dataset

        for meth in DATASET_METHODS:
            orig = Dataset.__dict__[meth]
            setattr(Dataset, meth, _wrap_dataset_method(orig))
            _installed.append((Dataset, meth, orig))


def uninstall() -> None:
    global _span_file
    while _installed:
        owner, attr, orig = _installed.pop()
        setattr(owner, attr, orig)
    _span_file = None


def install_worker() -> None:
    """``worker_process_setup_hook`` entry point for Ray workers."""
    span_dir = os.environ.get(SPAN_DIR_ENV)
    if span_dir:
        install(span_dir)


def load_spans(span_dir: str) -> list[dict]:
    spans = []
    if not os.path.isdir(span_dir):
        return spans
    for f in sorted(os.listdir(span_dir)):
        if f.startswith("spans-") and f.endswith(".jsonl"):
            with open(os.path.join(span_dir, f)) as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def with_self_time(spans: list[dict]) -> list[dict]:
    """Add ``self_s`` to each span: its duration minus the part covered by
    spans nested inside it in the same process."""
    by_pid: dict[int, list[dict]] = {}
    for s in spans:
        s["self_s"] = s["end"] - s["start"]
        by_pid.setdefault(s["pid"], []).append(s)
    for group in by_pid.values():
        group.sort(key=lambda s: (s["start"], -s["end"]))
        stack: list[dict] = []
        for s in group:
            while stack and stack[-1]["end"] <= s["start"]:
                stack.pop()
            if stack and s["end"] <= stack[-1]["end"]:
                stack[-1]["self_s"] -= s["end"] - s["start"]
            stack.append(s)
    return spans


def busy_s(spans: list[dict], *names: str) -> float:
    """Summed self time of the named spans (all "work" spans if none)."""
    names = names or tuple(n for n, k in KIND.items() if k == "work")
    return sum(s["self_s"] for s in spans if s["name"] in names)


def select(spans: list[dict], name: str) -> list[dict]:
    return [s for s in spans if s["name"] == name]
