"""Graph materialize: sorted, hash-partitioned Parquet triple tables with
per-partition lineage manifests (the resume commit records).

Replaces the reference's N-Triples text sink (SJ/IO/Triplifier.java writeLines)
and file-granular resume flags (SearchJoin.java:76-128 .searchresults,
searchJoins.conf:103-109 misc.reuse*) with the north-rule design:

  * output partition = hash64(subj) % num_partitions — co-locates all triples
    of a subject, stable across runs and cluster sizes;
  * triples sorted by (subj, pred, obj, obj_type, source_url) within each
    partition, so its bytes do not depend on the order the runs arrive;
  * each partition directory is written to a temp path and renamed, then a
    JSON manifest (row count, partition id, input fingerprint) is written —
    the MANIFEST, not the data file, is the commit record;
  * resume = list manifests, skip completed partitions.

All functions take ``fs: pyarrow.fs.FileSystem | None`` (default None = the
POSIX fast path) so the output directory can live on shared/object storage —
see ``state/fsio.py`` for the indirection and its atomicity notes.
"""

from __future__ import annotations

import os
import time

import pyarrow as pa

from ..state import fsio

# rows tied on (subj, pred) need the rest of the triple in the sort key too:
# the runs of a partition concatenate in task completion order
SORT_KEY = ("subj", "pred", "obj", "obj_type", "source_url")


def sort_triples(table: pa.Table) -> pa.Table:
    """``table`` sorted by the ``SORT_KEY`` columns it has."""
    return table.sort_by([(c, "ascending") for c in SORT_KEY
                          if c in table.column_names])


def manifest_path(out_dir: str, part: int) -> str:
    return os.path.join(out_dir, f"manifest_part{part:05d}.json")


def manifest_ids(out_dir: str, prefix: str, key: str, fs=None) -> set[int]:
    """The ``key`` of every ``<prefix>*.json`` manifest directly under
    ``out_dir``; a torn or unparseable manifest is no commit and is
    skipped (a ``.json.tmp`` is never listed)."""
    done = set()
    for f in fsio.listdir(fs, out_dir):
        if f.startswith(prefix) and f.endswith(".json"):
            m = fsio.read_json(fs, os.path.join(out_dir, f))
            try:
                done.add(int(m[key]))
            except (TypeError, ValueError, KeyError):
                continue
    return done


def completed_partitions(out_dir: str, fs=None) -> set[int]:
    return manifest_ids(out_dir, "manifest_part", "partition", fs)


def partition_files(out_dir: str, fs=None) -> list[str]:
    """The data files of every ``part=P`` directory under ``out_dir``, in
    name order; ``part=P.tmp`` staging directories are skipped.  A
    skew-split partition holds several range-sorted ``data-*.parquet``."""
    paths = []
    for d in fsio.listdir(fs, out_dir):
        if d.startswith("part=") and not d.endswith(".tmp"):
            part_dir = os.path.join(out_dir, d)
            paths.extend(os.path.join(part_dir, f)
                         for f in fsio.listdir(fs, part_dir)
                         if f.endswith(".parquet"))
    return paths


def commit_partition_dir(out_dir: str, part: int, rows: int,
                         distinct_subjects: int,
                         input_fingerprint: str = "",
                         files: int = 1, fs=None) -> dict:
    """Atomic commit of an already-written ``part=P.tmp`` staging directory:
    rename to ``part=P``, then write the JSON manifest (the commit record).
    Shared by the single-task path (:func:`write_partition`) and the
    skew-split path where several sub-merge tasks each wrote one range file
    into the staging dir and the driver commits once all have reported."""
    part_dir = os.path.join(out_dir, f"part={part:05d}")
    tmp_dir = part_dir + ".tmp"
    if fsio.isdir(fs, part_dir):
        fsio.rmtree(fs, part_dir)
    fsio.move(fs, tmp_dir, part_dir)

    manifest = {
        "partition": part,
        "rows": rows,
        "distinct_subjects": distinct_subjects,
        "input_fingerprint": input_fingerprint,
        "files": files,
        "completed_at": time.time(),
    }
    fsio.write_json_atomic(fs, manifest_path(out_dir, part), manifest)
    return manifest


def write_partition(table: pa.Table, out_dir: str, part: int,
                    input_fingerprint: str = "", fs=None) -> dict:
    """Atomically write one sorted partition + its manifest; returns metrics.

    Runs inside a Ray task (one per partition) — partition-parallel, no shared
    writer (vs the reference's synchronized single IndexWriter/SequenceFile
    writer, SJ/hadoop/SynchronizedSequenceFileWriter).
    """
    fsio.makedirs(fs, out_dir)
    if "part" in table.column_names:
        table = table.drop_columns(["part"])
    table = sort_triples(table)

    part_dir = os.path.join(out_dir, f"part={part:05d}")
    tmp_dir = part_dir + ".tmp"
    if fsio.isdir(fs, tmp_dir):
        fsio.rmtree(fs, tmp_dir)
    fsio.makedirs(fs, tmp_dir)
    fsio.write_parquet(fs, table, os.path.join(tmp_dir, "data.parquet"))

    import pyarrow.compute as pc

    distinct = (int(pc.count_distinct(table.column("subj")).as_py())
                if table.num_rows else 0)
    return commit_partition_dir(out_dir, part, table.num_rows, distinct,
                                input_fingerprint, fs=fs)


def read_materialized(out_dir: str, fs=None):
    """Read back all completed partitions as one Dataset."""
    import ray.data as rd

    # expand to files: Ray treats list entries as files, not directories
    return rd.read_parquet(partition_files(out_dir, fs), filesystem=fs)
