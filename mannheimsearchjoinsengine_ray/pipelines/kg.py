"""The knowledge-graph construction pipeline (north-star flow, SURVEY §3.2):

    pages.parquet ──read_parquet (column-pruned)
      └─ extract tables    map_batches   [stateless, Arrow in/out]
      └─ triplify          map_batches   [stateless]
      └─ (optional) entity linking       [distinct resolve + stateless
                                          broadcast merge — stages/link.py]
      └─ (optional) canonicalization     [LSH + connected components]
      └─ materialize: hash(subj) partitions, sorted, manifests

In ``run_full`` the triplify, the link merge and the label side-output are
one shard pass: a single map over the extracted tables that writes the
triple runs, the rank-0 edges and the label pairs, after the distinct
mentions are resolved and broadcast.

Resume model (north rule): the INPUT is split into shards (groups of parquet
fragments / page-id ranges); each shard runs the full flow and commits its
output under ``out/shard=S/part=P`` plus a shard manifest written atomically
after the data.  A killed run resumes by listing shard manifests and skipping
completed shards — no re-extraction, no re-write.  Within a shard, triples are
hash-partitioned by subject and sorted by (subj, pred).
"""

from __future__ import annotations

import logging
import os
import time

import pyarrow as pa

_log = logging.getLogger(__name__)

from ..config import DEFAULT_CONFIG, PipelineConfig
from ..stages import materialize as mat
from ..stages.extract import TableExtractor, extract_text_batch
from ..stages.triples import triples_from_tables_batch


def read_pages(path, columns: list[str] | None = None):
    """Pages source: Parquet fragments or WARC segments (auto-detected by
    extension — Common Crawl ships .warc.gz; converted corpora ship parquet)."""
    import ray.data as rd

    paths = path if isinstance(path, list) else [path]
    if any(str(p).endswith((".warc", ".warc.gz")) for p in paths):
        from ..sources.warc import read_warc

        pages = read_warc(paths)
        if columns:
            pages = pages.map_batches(lambda t: t.select(columns),
                                      batch_format="pyarrow")
        return pages
    return rd.read_parquet(path, columns=columns)


def extract_tables_ds(pages, cfg: PipelineConfig = DEFAULT_CONFIG):
    # batch_size=None → one task per input block: page blocks are file-sized
    # (hundreds of rows, tens of MB of HTML); a row-count batch target would
    # make Ray bundle many blocks into one task and cap the stage's
    # parallelism at (#blocks / bundle) tasks
    ex = TableExtractor(cfg)
    return pages.map_batches(ex, batch_format="pyarrow", batch_size=None)


def triples_ds(tables, cfg: PipelineConfig = DEFAULT_CONFIG):
    return tables.map_batches(triples_from_tables_batch, batch_format="pyarrow",
                              batch_size=None)


def pages_to_triples(pages_path: str, cfg: PipelineConfig = DEFAULT_CONFIG):
    """pages parquet → streaming triples Dataset (no materialization)."""
    pages = read_pages(pages_path, columns=["url", "html"])
    return triples_ds(extract_tables_ds(pages, cfg), cfg)


def extract_text_ds(pages_path: str):
    """pages parquet → (url, text) Dataset — the byte-identical invariant stage."""
    pages = read_pages(pages_path, columns=["url", "html"])
    return pages.map_batches(extract_text_batch, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# materialize one Dataset of triples into partitioned + sorted output
# ---------------------------------------------------------------------------

def materialize_triples(triples, out_dir: str,
                        num_partitions: int = 16,
                        fingerprint: str = "",
                        run_compression: str | None = None,
                        split_rows: int | None = None,
                        fs=None) -> list[dict]:
    """Write triples into hash(subj) partitions, sorted, atomic, manifested.

    Two-stage DISK exchange instead of Ray's sort shuffle (which cost 7.1 s
    for 3.4M rows / 511 MB at sf0.1 vs ~2 s for this path, BASELINE.md #26):

      stage A (fuses with the upstream triplify map — no materialization of
      the triple set): each task splits its block by part = hash64(subj) %
      num_partitions and writes one run file under ``out_dir/_runs/``
      (see :func:`_run_splitter`);
      stage B (:func:`_merge_runs`): each non-empty partition merges its
      runs and commits via :func:`materialize.write_partition` (sort +
      atomic rename + manifest); the partitions are dealt over at most one
      task per CPU slot.

    Run files are Arrow IPC, uncompressed by default — they live only
    between the two stages, and parquet encode/decode was the dominant cost
    of both (stage A 2.2→1.4 s, stage B reads 4× faster at sf0.1;
    BASELINE.md #33).  Each split task writes ONE file holding one record
    batch per partition, with the partition→batch map in the schema
    metadata — per-(task, partition) files put blocks × partitions creates
    on the filesystem (65k at the 128k-page scaling input; the create/rename
    metadata ops dominated stage A on ext4).  Stage B memory-maps each run
    and reads only its partition's batch (zero-copy, no decode).  Pass
    ``run_compression="lz4"`` to trade stage speed for ~3× smaller spill
    when the runs directory is remote/shared storage and network bytes
    dominate.

    On a multi-node cluster the runs directory lives on shared storage — the
    exchange is the external-shuffle layout (map-side spill, reduce-side
    merge), so a lost node re-runs only its map tasks and the merge fan-in
    per partition is bounded by the shard's block count, not the corpus.

    Each merge task opens ONLY the run files whose stage-A report contains
    its partition (the driver already holds the exact partition→run map in
    ``counts`` — re-opening every run per partition would be O(runs ×
    partitions) footer reads on shared storage).

    Head-entity skew (dbpedia/schema.org-style subjects, SURVEY §4): a
    partition whose stage-A total exceeds ``split_rows`` (default
    ``GRAFT_PART_SPLIT_ROWS`` or 4M) is NOT sorted as one unit.  Its merge
    splits into ceil(total/split_rows) key ranges, dealt to different merge
    tasks: boundaries come from per-run key samples ((subj, pred, obj)
    quantiles — the obj tiebreaker lets one head subject span sub-files
    while each file, and the file sequence, stays (subj, pred)-sorted), each
    range filters its runs to its keys and writes one sorted ``data-{j:05d}.parquet`` into the
    partition's staging dir, and the driver commits the rename + manifest
    once — the partition directory stays the unit of commit.

    ``fs``: optional ``pyarrow.fs.FileSystem`` for ``out_dir`` (runs dir,
    partition dirs, manifests) — the "runs dir on shared storage" story.
    ``None`` keeps the POSIX fast path (``os.replace`` renames,
    memory-mapped IPC reads); see ``state/fsio.py``.  pyarrow filesystems
    pickle, so the split/merge task closures carry it.
    """
    if run_compression is None:
        run_compression = os.environ.get("GRAFT_RUN_COMPRESSION",
                                         "uncompressed")
    runs_dir = _fresh_runs_dir(out_dir, fs)
    # batch_size=None: one split task per upstream block (a row-count target
    # bundles blocks and caps the stage's parallelism)
    counts = triples.map_batches(
        _run_splitter(runs_dir, num_partitions, run_compression, fs),
        batch_format="pyarrow", batch_size=None).take_all()
    return _merge_runs(counts, out_dir, runs_dir, fingerprint, split_rows, fs)


def _fresh_runs_dir(out_dir: str, fs=None) -> str:
    """An empty ``out_dir/_runs`` for stage A (a killed run's runs go)."""
    from ..state import fsio

    runs_dir = os.path.join(out_dir, "_runs")
    fsio.rmtree(fs, runs_dir)
    fsio.makedirs(fs, runs_dir)
    return runs_dir


def _run_splitter(runs_dir: str, num_partitions: int, run_compression: str,
                  fs=None):
    """Stage A of :func:`materialize_triples` as a map fn: triples block →
    one run file under ``runs_dir`` (one record batch per hash(subj)
    partition) → one ``(partition, rows, run_id)`` row per partition it
    holds.  The rows are the commit record stage B reads."""
    import json as _json
    import uuid

    from ..state import fsio

    def split_write(batch: pa.Table) -> pa.Table:
        import numpy as np

        from ..functions.hashing import hash64

        # constructed per task: IpcWriteOptions is not picklable
        ipc_opts = pa.ipc.IpcWriteOptions(
            compression=None if run_compression == "uncompressed"
            else run_compression)

        if batch.num_rows == 0:
            return pa.table({"partition": pa.array([], pa.int64()),
                             "rows": pa.array([], pa.int64()),
                             "run_id": pa.array([], pa.string())})
        part = (hash64(batch.column("subj").to_numpy(zero_copy_only=False))
                % num_partitions).astype("int64")
        order = np.argsort(part, kind="stable")
        sorted_tbl = batch.take(pa.array(order)).combine_chunks()
        sorted_part = part[order]
        bounds = np.flatnonzero(np.diff(sorted_part)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [len(sorted_part)]))
        parts_out = [int(sorted_part[s]) for s in starts]
        rows_out = [int(e - s) for s, e in zip(starts, ends)]
        # one file per task: partition p is record batch batch_map[p]
        batch_map = {str(p): i for i, p in enumerate(parts_out)}
        schema = sorted_tbl.schema.with_metadata(
            {b"parts": _json.dumps(batch_map).encode()})
        run_id = uuid.uuid4().hex
        tmp = os.path.join(runs_dir, f"run-{run_id}.arrow.tmp")
        with fsio.open_output(fs, tmp) as fh:
            with pa.ipc.new_file(fh, schema, options=ipc_opts) as writer:
                for s, e in zip(starts, ends):
                    # combine_chunks above ⇒ exactly one batch per slice,
                    # keeping batch index == batch_map position
                    rbs = sorted_tbl.slice(s, e - s).to_batches()
                    assert len(rbs) == 1, len(rbs)
                    writer.write_batch(rbs[0])
        fsio.move(fs, tmp, tmp[:-4])
        return pa.table({"partition": pa.array(parts_out, pa.int64()),
                         "rows": pa.array(rows_out, pa.int64()),
                         "run_id": pa.array([run_id] * len(parts_out))})

    return split_write


def _merge_runs(counts: list[dict], out_dir: str, runs_dir: str,
                fingerprint: str, split_rows: int | None,
                fs=None) -> list[dict]:
    """Stage B of :func:`materialize_triples`: merge the reported runs of
    each partition, commit the partitions and remove ``runs_dir``."""
    import json as _json

    import ray.data as rd

    from ..state import fsio

    # the COMMIT record is the task RESULT, not the filesystem: a task
    # retried after its rename completed (worker lost between rename and
    # result delivery) leaves an orphan file whose run_id never reaches
    # `counts` — merging from a directory listing would double-count that
    # block, so stage B reads exactly the reported runs.  Group by partition
    # so each merge task opens only its own runs (not runs × partitions).
    part_runs: dict[int, list[str]] = {}
    part_rows: dict[int, int] = {}
    for c in counts:
        p = int(c["partition"])
        part_runs.setdefault(p, []).append(
            os.path.join(runs_dir, f"run-{c['run_id']}.arrow"))
        part_rows[p] = part_rows.get(p, 0) + int(c["rows"])
    live_parts = sorted(part_runs)
    n_runs = len({c["run_id"] for c in counts})
    _log.info("materialize fan-in: %d live (run, partition) pairs "
              "(naive all-runs merge would open %d)",
              sum(len(v) for v in part_runs.values()),
              n_runs * len(live_parts))

    if split_rows is None:
        split_rows = int(os.environ.get("GRAFT_PART_SPLIT_ROWS", 4_000_000))

    def _read_part_batch(path: str, p: int) -> pa.Table | None:
        with fsio.open_input(fs, path) as src:
            rdr = pa.ipc.open_file(src)
            bm = _json.loads(rdr.schema.metadata[b"parts"])
            i = bm.get(str(p))
            if i is None:
                return None
            return pa.Table.from_batches([rdr.get_batch(i)])

    def _ge_key(tbl: pa.Table, key: tuple) -> pa.Array:
        # (subj, pred, obj) >= key, lexicographic
        import pyarrow.compute as pc

        s, p_, o = tbl.column("subj"), tbl.column("pred"), tbl.column("obj")
        ks, kp, ko = key
        return pc.or_(
            pc.greater(s, ks),
            pc.and_(pc.equal(s, ks),
                    pc.or_(pc.greater(p_, kp),
                           pc.and_(pc.equal(p_, kp),
                                   pc.greater_equal(o, ko)))))

    # --- plan range boundaries for skewed partitions ---
    heavy = {p: part_rows[p] for p in live_parts if part_rows[p] > split_rows}
    boundaries: dict[int, list[tuple]] = {}
    if heavy:
        import math

        import ray as _ray

        @_ray.remote
        def sample_keys(files: list[str], p: int, n_per_run: int) -> list[tuple]:
            import numpy as _np

            out = []
            for f in files:
                t = _read_part_batch(f, p)
                if t is None or t.num_rows == 0:
                    continue
                k = min(n_per_run, t.num_rows)
                idx = _np.linspace(0, t.num_rows - 1, k).astype(_np.int64)
                sub = t.select(["subj", "pred", "obj"]).take(pa.array(idx))
                out.extend(zip(sub.column("subj").to_pylist(),
                               sub.column("pred").to_pylist(),
                               sub.column("obj").to_pylist()))
            return out

        futs = {}
        for p, total in heavy.items():
            n_sub = math.ceil(total / split_rows)
            target = min(max(256 * n_sub, 1024), 65536)
            n_per_run = math.ceil(target / len(part_runs[p]))
            futs[p] = (n_sub, sample_keys.remote(part_runs[p], p, n_per_run))
        for p, (n_sub, fut) in futs.items():
            samples = sorted(_ray.get(fut))
            bnds: list[tuple] = []
            for j in range(1, n_sub):
                b = samples[min(len(samples) - 1, (len(samples) * j) // n_sub)]
                if not bnds or b > bnds[-1]:
                    bnds.append(b)
            if bnds:  # all-equal keys can't range-split → single-task path
                boundaries[p] = bnds
                tmp_dir = os.path.join(out_dir, f"part={p:05d}.tmp")
                fsio.rmtree(fs, tmp_dir)
                fsio.makedirs(fs, tmp_dir)
        _log.info("skew split: %d heavy partition(s) > %d rows → %s sub-files",
                  len(boundaries), split_rows,
                  {p: len(b) + 1 for p, b in boundaries.items()})

    # one work row per merge unit: sub == -1 is the whole-partition path,
    # sub >= 0 merges one (subj, pred, obj) key range of a heavy partition
    work_rows: list[dict] = []
    for p in live_parts:
        if p in boundaries:
            bnds = boundaries[p]
            keyed = [None, *bnds, None]
            for j in range(len(bnds) + 1):
                work_rows.append({"p": p, "sub": j, "runs": part_runs[p],
                                  "lo": keyed[j], "hi": keyed[j + 1]})
        else:
            work_rows.append({"p": p, "sub": -1, "runs": part_runs[p],
                              "lo": None, "hi": None})

    def finalize(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        recs = batch.to_pylist()
        out = {"partition": [], "sub": [], "rows": [], "distinct": [],
               "min_subj": [], "max_subj": []}
        for rec in recs:
            p, sub = int(rec["p"]), int(rec["sub"])
            chunks = []
            for f in rec["runs"]:
                t = _read_part_batch(f, p)
                if t is not None:
                    chunks.append(t)
            table = pa.concat_tables(chunks)
            if sub < 0:
                manifest = mat.write_partition(table, out_dir, p, fingerprint,
                                               fs=fs)
                out["partition"].append(p); out["sub"].append(-1)
                out["rows"].append(manifest["rows"])
                out["distinct"].append(manifest["distinct_subjects"])
                out["min_subj"].append(None); out["max_subj"].append(None)
                continue
            mask = None
            if rec["lo"] is not None:
                mask = _ge_key(table, tuple(rec["lo"]))
            if rec["hi"] is not None:
                lt_hi = pc.invert(_ge_key(table, tuple(rec["hi"])))
                mask = lt_hi if mask is None else pc.and_(mask, lt_hi)
            if mask is not None:
                table = table.filter(mask)
            n = table.num_rows
            if n:
                table = table.sort_by([("subj", "ascending"),
                                       ("pred", "ascending")])
                tmp_dir = os.path.join(out_dir, f"part={p:05d}.tmp")
                fsio.write_parquet(
                    fs, table,
                    os.path.join(tmp_dir, f"data-{sub:05d}.parquet"))
            subj_col = table.column("subj")
            out["partition"].append(p); out["sub"].append(sub)
            out["rows"].append(n)
            out["distinct"].append(
                int(pc.count_distinct(subj_col).as_py()) if n else 0)
            out["min_subj"].append(subj_col[0].as_py() if n else None)
            out["max_subj"].append(subj_col[n - 1].as_py() if n else None)
        return pa.table({"partition": pa.array(out["partition"], pa.int64()),
                         "sub": pa.array(out["sub"], pa.int64()),
                         "rows": pa.array(out["rows"], pa.int64()),
                         "distinct": pa.array(out["distinct"], pa.int64()),
                         "min_subj": pa.array(out["min_subj"], pa.string()),
                         "max_subj": pa.array(out["max_subj"], pa.string())})

    stats: list[dict] = []
    if work_rows:
        import pandas as _pd
        import ray as _ray

        # at most one merge task per CPU slot, built straight as blocks (no
        # repartition exchange): work rows are dealt round-robin, so a heavy
        # partition's consecutive sub-ranges land in different tasks, and
        # finalize loops over the rows of its block
        n_tasks = max(1, min(len(work_rows),
                             int(_ray.cluster_resources().get("CPU", 1))))
        parts_ds = rd.from_pandas([_pd.DataFrame(work_rows[i::n_tasks])
                                   for i in range(n_tasks)])
        results = parts_ds.map_batches(finalize, batch_format="pyarrow",
                                       batch_size=None).take_all()
        sub_acc: dict[int, list[dict]] = {}
        for r in results:
            if r["sub"] < 0:
                stats.append({"partition": int(r["partition"]),
                              "rows": int(r["rows"])})
            else:
                sub_acc.setdefault(int(r["partition"]), []).append(r)
        for p, subs in sub_acc.items():
            subs.sort(key=lambda r: r["sub"])
            subs = [s for s in subs if s["rows"]]
            rows = int(sum(s["rows"] for s in subs))
            # sub-files are contiguous key ranges: a subject spanning k
            # adjacent files is counted k times in the per-file distincts
            # and k-1 times in the boundary-equality correction
            distinct = int(sum(s["distinct"] for s in subs)) - sum(
                1 for a, b in zip(subs, subs[1:])
                if a["max_subj"] == b["min_subj"])
            manifest = mat.commit_partition_dir(
                out_dir, p, rows, distinct, fingerprint, files=len(subs),
                fs=fs)
            stats.append({"partition": manifest["partition"],
                          "rows": manifest["rows"]})
        stats.sort(key=lambda m: m["partition"])
    fsio.rmtree(fs, runs_dir)
    return stats


# ---------------------------------------------------------------------------
# resumable sharded run
# ---------------------------------------------------------------------------

def _shard_manifest_path(out_dir: str, shard: int) -> str:
    return os.path.join(out_dir, f"shard_manifest_{shard:05d}.json")


def completed_shards(out_dir: str, fs=None) -> set[int]:
    from ..state import fsio

    if not fsio.isdir(fs, out_dir):
        return set()
    done = set()
    for f in fsio.listdir(fs, out_dir):
        if f.startswith("shard_manifest_") and f.endswith(".json"):
            m = fsio.read_json(fs, os.path.join(out_dir, f))
            try:
                done.add(int(m["shard"]))
            except (TypeError, ValueError, KeyError):
                continue
    return done


def list_page_fragments(pages_path: str) -> list[str]:
    if os.path.isfile(pages_path):
        return [pages_path]
    return sorted(
        os.path.join(pages_path, f) for f in os.listdir(pages_path)
        if f.endswith((".parquet", ".warc", ".warc.gz"))
    )


def run_resumable(pages_path: str, out_dir: str,
                  cfg: PipelineConfig = DEFAULT_CONFIG,
                  num_shards: int | None = None,
                  partitions_per_shard: int = 4,
                  fail_after_shards: int | None = None,
                  fs=None) -> dict:
    """Sharded, resumable end-to-end run.  ``fail_after_shards`` injects a
    crash for the resume test (FIXTURES F8).  ``fs`` routes all OUTPUT I/O
    (partitions, runs, manifests) through a ``pyarrow.fs.FileSystem``; the
    INPUT corpus stays a driver-local/Ray-readable path."""
    from ..state import fsio

    fsio.makedirs(fs, out_dir)
    frags = list_page_fragments(pages_path)
    if num_shards is None:
        num_shards = len(frags)
    # round-robin fragments into shards
    shards: list[list[str]] = [[] for _ in range(num_shards)]
    for i, f in enumerate(frags):
        shards[i % num_shards].append(f)

    done = completed_shards(out_dir, fs=fs)
    metrics = {"shards_total": num_shards, "shards_skipped": len(done),
               "shards_run": 0, "rows_written": 0}
    t0 = time.time()
    ran = 0
    for si, frag_group in enumerate(shards):
        if si in done or not frag_group:
            continue
        shard_dir = os.path.join(out_dir, f"shard={si:05d}")
        triples = pages_to_triples(frag_group, cfg)
        part_stats = materialize_triples(
            triples, shard_dir, num_partitions=partitions_per_shard,
            fingerprint=";".join(os.path.basename(f) for f in frag_group),
            fs=fs,
        )
        rows = sum(m["rows"] for m in part_stats)
        manifest = {
            "shard": si,
            "fragments": [os.path.basename(f) for f in frag_group],
            "partitions": len(part_stats),
            "rows": rows,
            "completed_at": time.time(),
        }
        fsio.write_json_atomic(fs, _shard_manifest_path(out_dir, si), manifest)
        metrics["shards_run"] += 1
        metrics["rows_written"] += rows
        ran += 1
        if fail_after_shards is not None and ran >= fail_after_shards:
            raise RuntimeError(f"injected failure after {ran} shards")
    metrics["wall_sec"] = time.time() - t0
    return metrics


# one result row per (run, partition) written by the split (``file`` null)
# and per side-output file written (``partition``/``run_id`` null; ``file``
# is relative to the shard directory): the commit record of a shard pass
_SHARD_PASS_SCHEMA = pa.schema([("partition", pa.int64()), ("rows", pa.int64()),
                                ("run_id", pa.string()), ("file", pa.string())])
_SIDE_DIRS = ("edges", "labels")


def _side_files(sides: list[tuple[str, pa.Table]],
                shard_dir: str) -> pa.Table:
    """Write each non-empty side table as ONE parquet file
    ``shard_dir/<dir>/part-<uuid>.parquet`` (tmp + rename) → one
    ``_SHARD_PASS_SCHEMA`` row per file written."""
    import uuid

    from ..state import fsio

    files, rows = [], []
    for sub, tbl in sides:
        if tbl.num_rows == 0:
            continue
        name = f"{sub}/part-{uuid.uuid4().hex}.parquet"
        path = os.path.join(shard_dir, name)
        fsio.write_parquet(None, tbl, path + ".tmp")
        fsio.move(None, path + ".tmp", path)
        files.append(name)
        rows.append(tbl.num_rows)
    n = len(files)
    return pa.table({"partition": pa.nulls(n, pa.int64()),
                     "rows": pa.array(rows, pa.int64()),
                     "run_id": pa.nulls(n, pa.string()),
                     "file": pa.array(files, pa.string())},
                    schema=_SHARD_PASS_SCHEMA)


def _shard_pass(batch: pa.Table, split_write, shard_dir: str,
                merge_kw: dict | None) -> pa.Table:
    """Phase 1's one map over a shard's extracted table records: the triples
    go through stage A of the materialize (``split_write``), the rank-0
    edges (when ``merge_kw`` holds the broadcast merge kwargs) and the label
    pairs are written as one parquet file each.  The label pairs are the
    canonicalization input, tiny next to the triples, so phase 2 never
    re-scans the triple set.  Returns only the commit record: the split
    rows plus one row per side file.

    The stage functions are called through their modules so that span
    wrappers installed on them (perfbench/trace.py) see every call."""
    from ..stages import link, triples

    runs = split_write(triples.triples_from_tables_batch(batch))
    sides = []
    if merge_kw is not None:
        sides.append(("edges", link.rank0(link.merge_links_batch(
            link.mentions_from_tables_batch(batch), **merge_kw))))
    sides.append(("labels", triples.label_pairs_from_tables_batch(batch)))
    return pa.concat_tables([
        runs.append_column("file", pa.nulls(runs.num_rows, pa.string())),
        _side_files(sides, shard_dir)])


def _edges_pass(batch: pa.Table, shard_dir: str) -> pa.Table:
    """Co-partitioned link merge output block → its rank-0 edges as one
    side file (same commit record as :func:`_shard_pass`)."""
    from ..stages import link

    return _side_files([("edges", link.rank0(batch))], shard_dir)


def _prune_side_files(shard_dir: str, committed: set[str]) -> None:
    """Delete every file under the shard's side directories that no task
    result reported: an orphan of a retried task or a stray ``.tmp``."""
    from ..state import fsio

    for sub in _SIDE_DIRS:
        d = os.path.join(shard_dir, sub)
        for f in fsio.listdir(None, d):
            if f"{sub}/{f}" not in committed:
                fsio.remove(None, os.path.join(d, f))


# label sets at or below this row count run driver-local blocking + CC; above
# it, the whole mapping construction stays Dataset-native (nothing
# driver-sized: edges, components, and the (uri, canon) table are Datasets)
LOCAL_LABEL_LIMIT = 2_000_000


def run_full(pages_path: str, out_dir: str,
             cfg: PipelineConfig = DEFAULT_CONFIG,
             num_shards: int | None = None,
             partitions_per_shard: int = 4,
             num_entities: int = 500,
             canonicalize: bool = True,
             local_label_limit: int = LOCAL_LABEL_LIMIT) -> dict:
    """The complete north-rule flow with checkpoints at every stage boundary:

      phase 0  label-index build from the gazetteer (manifested, skipped on
               resume)
      phase 1  per input shard: extract → distinct mentions → resolve →
               ONE shard pass over the extracted tables (triple runs,
               rank-0 edges and label pairs) → merge the runs into the
               triples partitions → shard manifest (resumable)
      phase 2  global canonicalization over all phase-1 triples (LSH blocking
               → connected components → URI rewrite) → final sorted
               partitioned materialize under out/final (manifested)
    """
    import ray.data as rd

    from ..sources.pages import make_gazetteer
    from ..stages.link import (
        _link_merge_join,
        distinct_mentions,
        link_merge_buckets,
        link_merge_plan,
        mentions_from_tables_batch,
    )
    from ..state import fsio
    from ..state.index import build_index

    os.makedirs(out_dir, exist_ok=True)
    metrics: dict = {}
    t0 = time.time()

    # --- phase 0: label index ---
    index_dir = os.path.join(out_dir, "label_index")
    index_manifest = os.path.join(out_dir, "index_manifest.json")
    if fsio.read_json(None, index_manifest) is None:
        gaz = rd.from_arrow(pa.table(make_gazetteer(num_entities)))
        n_postings = build_index(gaz, index_dir, num_shards=cfg.num_index_shards)
        fsio.write_json_atomic(None, index_manifest,
                               {"postings": n_postings,
                                "entities": num_entities})
    metrics["index_sec"] = time.time() - t0

    # --- phase 1: sharded extract + link + one shard pass ---
    frags = list_page_fragments(pages_path)
    if num_shards is None:
        num_shards = len(frags)
    shards: list[list[str]] = [[] for _ in range(num_shards)]
    for i, f in enumerate(frags):
        shards[i % num_shards].append(f)

    done = completed_shards(out_dir)
    t1 = time.time()
    rows_triples = 0
    for si, frag_group in enumerate(shards):
        if si in done or not frag_group:
            continue
        shard_dir = os.path.join(out_dir, f"shard={si:05d}")
        # the shard MANIFEST is the commit record: a crash mid-shard leaves
        # partial side-outputs that a rerun must replace, not append to
        for sub in _SIDE_DIRS:
            fsio.rmtree(None, os.path.join(shard_dir, sub))
            fsio.makedirs(None, os.path.join(shard_dir, sub))
        pages = read_pages(frag_group, columns=["url", "html"])
        _ts = time.time()
        tables = extract_tables_ds(pages, cfg).materialize()
        metrics["extract_sec"] = metrics.get("extract_sec", 0.0) + time.time() - _ts

        # distinct mentions → resolve → broadcast BEFORE the shard pass, so
        # the one map over the tables can merge the links in place.  The
        # distinct strings come straight from the table records — cheaper
        # than the context-building mention map.  top_k=1 at emission: run_full persists only the rank-0 decision,
        # so producing the top-5 candidate edges just to filter 80 % away
        # wasted 5× the edge volume through the object store (2.46M → 493k
        # rows at sf0.1; edge set verified identical to top1(top_k=5))
        _ts = time.time()
        merge_kw, resolved = link_merge_plan(
            distinct_mentions(tables, from_tables=True), index_dir, cfg,
            top_k=1)
        committed: list[dict] = []
        if resolved is not None:
            # co-partitioned path: the resolved set is too large to
            # broadcast, so the edges come from their own bucket exchange
            edges = _link_merge_join(
                tables.map_batches(mentions_from_tables_batch,
                                   batch_format="pyarrow"),
                resolved, merge_kw, link_merge_buckets())
            committed += edges.map_batches(
                _edges_pass, fn_kwargs=dict(shard_dir=shard_dir),
                batch_format="pyarrow", batch_size=None).take_all()
            merge_kw = None
        metrics["link_sec"] = metrics.get("link_sec", 0.0) + time.time() - _ts

        # run-file compression adapts to the shard's volume (spill bytes ≈
        # ~9× the input parquet at this corpus shape): under ~1 GB of input
        # parquet the runs stay page-cache-resident and uncompressed IPC is
        # measurably faster (~0.5 s at sf0.1); above it — real-scale shards
        # whose runs dir is remote/shared storage — lz4's 3.3× byte
        # reduction is the right spill policy (A/B at 256k pages: triples
        # 42.9→30.9 s at 16 cpus, within the machine noise band; see
        # BASELINE.md #37).  GRAFT_RUN_COMPRESSION overrides.
        _ts = time.time()
        shard_bytes = sum(os.path.getsize(f) for f in frag_group
                          if os.path.isfile(f))
        run_comp = os.environ.get(
            "GRAFT_RUN_COMPRESSION",
            "uncompressed" if shard_bytes < (1 << 30) else "lz4")
        runs_dir = _fresh_runs_dir(shard_dir)
        # batch_size=None: one task per extracted block, as in stage A.
        # The task results are the commit record of the runs AND the side
        # files: a retried task's orphan is never read or kept
        committed += tables.map_batches(
            _shard_pass,
            fn_kwargs=dict(split_write=_run_splitter(
                runs_dir, partitions_per_shard, run_comp),
                shard_dir=shard_dir, merge_kw=merge_kw),
            batch_format="pyarrow", batch_size=None).take_all()
        part_stats = _merge_runs(
            [c for c in committed if c["run_id"] is not None], shard_dir,
            runs_dir, ";".join(os.path.basename(f) for f in frag_group),
            split_rows=None)
        _prune_side_files(shard_dir,
                          {c["file"] for c in committed if c["file"]})
        metrics["triples_sec"] = metrics.get("triples_sec", 0.0) + time.time() - _ts
        n_tr = sum(m["rows"] for m in part_stats)
        rows_triples += n_tr
        manifest = {"shard": si, "rows": n_tr,
                    "fragments": [os.path.basename(f) for f in frag_group],
                    "partitions": len(part_stats), "completed_at": time.time()}
        fsio.write_json_atomic(None, _shard_manifest_path(out_dir, si),
                               manifest)
    metrics["phase1_sec"] = time.time() - t1
    metrics["triples"] = rows_triples

    # --- phase 2: global canonicalize + final materialize ---
    t2 = time.time()
    final_dir = os.path.join(out_dir, "final")
    final_manifest = os.path.join(out_dir, "final_manifest.json")
    committed_final = fsio.read_json(None, final_manifest)
    if committed_final is None:
        from ..stages.canonicalize import (
            alias_edges_from_labels,
            alias_edges_local,
            apply_canonical_mapping,
            mapping_ds_from_edges,
            mapping_from_edges,
        )

        # dict on the guarded small path; (uri, canon) Dataset on the scale
        # path — the scale mapping never lands on the driver
        mapping: "dict | object" = {}
        n_merged = 0
        if canonicalize:
            label_files: list[str] = []
            for si in completed_shards(out_dir):
                d = os.path.join(out_dir, f"shard={si:05d}", "labels")
                if os.path.isdir(d):
                    label_files.extend(
                        os.path.join(d, f) for f in sorted(os.listdir(d))
                        if f.endswith(".parquet"))
            if label_files:
                import pyarrow.parquet as pq

                # adaptive: Parquet metadata gives the label row count for
                # free; small sets run the driver-local blocking (identical
                # semantics, none of the per-op scheduling overhead)
                n_labels = sum(pq.ParquetFile(f).metadata.num_rows
                               for f in label_files)
                if n_labels <= local_label_limit:
                    labels_df = pq.read_table(label_files[0]).to_pandas() \
                        if len(label_files) == 1 else \
                        pa.concat_tables([pq.read_table(f) for f in label_files]).to_pandas()
                    mapping = mapping_from_edges(alias_edges_local(labels_df, cfg), cfg)
                    n_merged = len(mapping)
                else:
                    # Dataset-native end-to-end: edge Dataset → distributed
                    # CC → (uri, canon) Dataset → co-partitioned join rewrite
                    edges_ds = alias_edges_from_labels(
                        rd.read_parquet(label_files), cfg)
                    mapping = mapping_ds_from_edges(edges_ds, cfg).materialize()
                    n_merged = mapping.count()
        if n_merged:
            triples_all = read_output(out_dir)
            part_cols = [c for c in ("shard", "part")
                         if c in (triples_all.schema().names or [])]
            if part_cols:
                triples_all = triples_all.drop_columns(part_cols)
            part_stats = materialize_triples(
                apply_canonical_mapping(triples_all, mapping), final_dir,
                num_partitions=cfg.num_output_partitions, fingerprint="phase2")
            n_final = sum(m["rows"] for m in part_stats)
            layout = "final"
        else:
            # identity mapping: phase-1 partitions (already hash(subj)-
            # partitioned and sorted) ARE the final output — commit that fact
            # instead of rewriting 100% of the data
            n_final = sum(
                fsio.read_json(None, _shard_manifest_path(out_dir, si))["rows"]
                for si in completed_shards(out_dir))
            layout = "phase1"
        fsio.write_json_atomic(None, final_manifest,
                               {"rows": n_final, "layout": layout,
                                "merged_uris": n_merged,
                                "completed_at": time.time()})
        metrics["final_rows"] = n_final
        metrics["merged_uris"] = n_merged
    else:
        metrics["final_rows"] = committed_final["rows"]
    metrics["phase2_sec"] = time.time() - t2
    metrics["wall_sec"] = time.time() - t0
    return metrics


def read_output(out_dir: str, fs=None):
    """All committed triples (only shards with manifests)."""
    import ray.data as rd

    from ..state import fsio

    done = completed_shards(out_dir, fs=fs)
    paths = []
    for si in sorted(done):
        shard_dir = os.path.join(out_dir, f"shard={si:05d}")
        for d in fsio.listdir(fs, shard_dir):
            if d.startswith("part=") and not d.endswith(".tmp"):
                part_dir = os.path.join(shard_dir, d)
                paths.extend(
                    os.path.join(part_dir, f)
                    for f in fsio.listdir(fs, part_dir)
                    if f.endswith(".parquet")
                )
    if not paths:
        raise FileNotFoundError(f"no completed shards under {out_dir}")
    return rd.read_parquet(paths, filesystem=fs)
