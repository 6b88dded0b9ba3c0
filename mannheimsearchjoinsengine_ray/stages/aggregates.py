"""Grouped aggregation, the repo's one hash-bucket exchange and its one
pass over materialized blocks.

``bucket_map`` is the exchange behind every wide step (joins, dedup, CC
star rounds, link merge, sessionizing): an input that ``fits`` goes through
the function once on the driver (the one-bucket case — a sort exchange is
~0.3 s of fixed scheduling for kilobytes of rows); above it rows tag with
``hash64(key) % B`` and ONE sort-based groupby over the B bucket ids hands
each bucket to the vectorized function — key cardinality never meets Ray's
per-group machinery.

A bare ``groupby(key).aggregate(...)`` shuffles every row and, in this Ray
version, carries heavy per-block/per-group overhead (measured 35s vs 0.6s on
a 600k-row join output).  ``two_phase_agg`` computes partials per batch with
vectorized pandas, moves ONLY the partials through ``bucket_map`` and
merges them there — the combiner pattern the reference implements ad hoc
with synchronized accumulators (TableColumn.valuesInfo, JoinResult sums,
SearchJoin.java:827-840).

Supported functions: sum, count, min, max, mean (mean = sum/count derived
after the final merge).  Output column names are exactly the spec keys.

``run_blocks`` is the pass over data that already exists — the blocks of a
materialized Dataset, files, work rows — without starting a Ray Data
execution: plain tasks, or the driver itself when the pass would launch a
single task.  Within the same driver guard, ``read_parquet_blocks`` reads a
table's files and ``map_blocks`` maps a materialized Dataset's blocks
through it, so small relational inputs start no execution at all; lazy
inputs and larger ones keep ``read_parquet``/``map_batches``.  ``fits``
is the engine's one size guard, for these choices and every other one.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import hash64

# per-bucket input target; B = total_bytes / this, clamped
_TARGET_BUCKET_BYTES = 64 << 20
_MIN_BUCKETS, _MAX_BUCKETS = 8, 65_536
# the one size guard (``fits``): the most bytes pulled to the driver
DRIVER_FINAL_BYTES = 32 << 20


def auto_bucket_count(*datasets,
                      target_bucket_bytes: int = _TARGET_BUCKET_BYTES) -> int:
    """Bucket count from the measured bytes of MATERIALIZED datasets (so
    size_bytes is metadata, not an execution) — a fixed count caps reduce
    parallelism and requires each bucket to fit one worker's heap at any
    scale.  Floor = cluster CPU count so small exchanges still use every
    core; the cap keeps the reduce-task count sane."""
    total = sum((ds.size_bytes() or 0) for ds in datasets)
    b = 1 << int(np.ceil(np.log2(max(1.0, total / target_bucket_bytes))))
    lo = _MIN_BUCKETS
    try:
        import ray

        if ray.is_initialized():
            lo = max(lo, int(ray.cluster_resources().get("CPU", 0)))
    except Exception:
        pass
    return int(np.clip(b, lo, _MAX_BUCKETS))


def _key_text(col):
    """A key column's string form, the same for one value in every block.
    Arrow keeps a column's type whatever its block holds, so a cast is
    enough.  Pandas does not: Ray hands an int column holding a null to
    pandas as float64, and ``astype(str)`` drops a datetime's time part
    when a whole block falls on midnight — so integral floats print as
    ints and datetimes as their nanosecond ticks."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
        if pa.types.is_floating(col.type):
            # -0.0 + 0.0 is +0.0: Arrow casts -0.0 to "-0", 0.0 to "0"
            col = pc.add(col, pa.scalar(0.0, col.type))
        return pc.cast(col, pa.string())
    if col.dtype.kind in "mM":
        return pd.Series(col.dt.as_unit("ns").array.asi8).astype(str)
    text = col.astype(str)
    if col.dtype.kind == "f":
        whole = (np.isfinite(col) & (np.floor(col) == col)
                 & (col.abs() < 2.0**63))
        text[whole] = col[whole].astype("int64").astype(str)
    return text


def cpu_slots() -> int:
    """The cluster's CPU slots: the width of every pass over blocks (tests
    monkeypatch it to force either branch of ``run_blocks``)."""
    import ray

    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def block_refs(data) -> list:
    """The refs of the non-empty blocks of a Dataset returned by
    ``materialize()``, in block order (row counts come from the block
    metadata: nothing is fetched).  A ``from_arrow``/``from_pandas``
    Dataset itself starts an execution to list its blocks; its
    ``materialize()`` does not."""
    return [ref for bundle in data.iter_internal_ref_bundles()
            for ref, meta in bundle.blocks if meta.num_rows]


def is_materialized(ds) -> bool:
    """Whether ``ds``'s blocks already exist (``materialize()``,
    ``from_arrow``…): a pass over them needs no execution of a plan."""
    from ray.data.dataset import MaterializedDataset

    return isinstance(ds, MaterializedDataset)


def materialized(ds):
    """``ds.materialize()``, or ``ds`` itself when it is already the output
    of one (its plan holds the block list).  Every ``materialize()`` builds
    two Dataset objects, and each asks Ray Data's stats actor for an id: a
    round trip to another process (~6 ms per call on a one-CPU local
    cluster), that the pass over blocks otherwise pays again at every
    operator boundary."""
    if is_materialized(ds) and ds._plan.has_computed_output():
        return ds
    return ds.materialize()


# the entries of the open ``record_passes`` block
_passes: "Record | None" = None
# ``_run_share`` as a Ray remote function, made on first use
_remote_share = None


class Record(list):
    """A ``record_passes`` block's pass entries, with its ``decisions``."""
    decisions: list[dict]


@contextlib.contextmanager
def record_passes():
    """Collect one ``{site, items, tasks}`` entry per ``run_blocks`` call
    made inside the ``with`` block: ``site`` is the function's name and
    ``tasks`` is 0 when the pass ran in-process on the driver.  Its
    ``decisions`` list collects one ``{site, measured, limit, choice}``
    entry per ``fits`` call and the plan choices passed to ``note``."""
    global _passes
    outer, _passes = _passes, Record()
    _passes.decisions = []
    try:
        yield _passes
    finally:
        _passes = outer


def note(site: str, **fields) -> None:
    """Append ``{site, **fields}`` to the decisions of the open
    ``record_passes`` block, if any."""
    if _passes is not None:
        _passes.decisions.append({"site": site, **fields})


def fits(site: str, nbytes: float) -> bool:
    """Whether ``nbytes`` — the Arrow bytes ``site`` would pull to the
    driver or broadcast — is within ``DRIVER_FINAL_BYTES`` (read per call).
    True takes the site's driver or broadcast path, False its distributed
    one.  Each site has its own name, so a test can force any one of them
    by wrapping this function."""
    limit = DRIVER_FINAL_BYTES
    choice = nbytes <= limit
    note(site, measured=nbytes, limit=limit, choice=choice)
    return choice


def driver_share(items: int, reserved: int = 0) -> int:
    """One of ``items`` equal shares of ``DRIVER_FINAL_BYTES`` (read per
    call) left after ``reserved`` bytes: the output budget of each item of a
    pass whose results all come to the driver."""
    return max(0, DRIVER_FINAL_BYTES - reserved) // max(1, items)


def _run_share(fn, items: list, kw: dict, batch_format: str) -> list:
    """``fn(item, **kw)`` for each item in order; a block ref is fetched
    when its turn comes (one block held at a time) and passed in
    ``batch_format``."""
    import ray
    from ray.data.block import BlockAccessor

    out = []
    for item in items:
        if isinstance(item, ray.ObjectRef):
            item = BlockAccessor.for_block(ray.get(item)) \
                .to_batch_format(batch_format)
        out.append(fn(item, **kw))
    return out


def run_blocks(fn, items, fn_kwargs: dict | None = None,
               batch_format: str = "pyarrow") -> list:
    """``fn(item, **fn_kwargs)`` for every item, results in item order —
    the pass over data that already exists, without a Ray Data execution.

    ``items`` are block refs of a materialized Dataset (``block_refs``;
    ``fn`` gets each block in ``batch_format``, Arrow by default) or plain
    values such as file paths or work rows.  With n = min(len(items),
    ``cpu_slots()``):

    * n == 1: ``fn`` runs in-process on the driver, one item at a time.  A
      remote task would add nothing but its launch.
    * n > 1: n Ray tasks, task i over ``items[i::n]``; ``fn_kwargs`` goes
      to the object store once and reaches every task.

    Measured over 4 materialized blocks at one CPU: a no-op
    ``map_batches`` takes 72-76 ms, 4 tasks 15 ms, in-process 1 ms.  The
    results come back to the driver, so ``fn`` returns what the caller
    keeps: commit records, or a table the caller broadcasts anyway."""
    import ray

    global _remote_share
    items = list(items)
    kw = fn_kwargs or {}
    n = min(len(items), cpu_slots())
    if _passes is not None:
        _passes.append({"site": getattr(fn, "__name__", repr(fn)),
                        "items": len(items), "tasks": n if n > 1 else 0})
    if n <= 1:
        return _run_share(fn, items, kw, batch_format)
    if _remote_share is None:
        _remote_share = ray.remote(_run_share)
    kw_ref = ray.put(kw)
    shares = ray.get([_remote_share.remote(fn, items[i::n], kw_ref,
                                           batch_format)
                      for i in range(n)])
    out: list = [None] * len(items)
    for i, share in enumerate(shares):
        out[i::n] = share
    return out


def driver_dataset(blocks: list):
    """Blocks held by the driver → an already-materialized Dataset, one
    block each.  ``from_blocks`` reads each block's metadata in-process;
    ``from_arrow``/``from_pandas`` run one Ray task per block for it, a
    worker round trip per block of every driver pass.  Its plan is then
    marked executed the way ``materialize()`` marks its own output (the
    plan's source already holds the blocks, so nothing runs), without the
    two further Dataset objects ``materialize()`` builds: measured 4.2 ms
    against 8.8 ms per call on a one-CPU local cluster."""
    import ray.data as rd

    data = rd.from_blocks(blocks)
    data._plan.execute()
    return data


def _as_dataset(batches: list):
    """Batches → an already-materialized Dataset, one block each, of the
    block kind ``map_batches`` gives for them: pandas when every batch is a
    DataFrame, else Arrow.  Empty batches drop, unless all are empty — the
    first then stays, so the schema survives."""
    from ray.data.block import BlockAccessor

    blocks = [BlockAccessor.batch_to_block(b) for b in batches]
    kept = [b for b in blocks if BlockAccessor.for_block(b).num_rows()] \
        or blocks[:1]
    if all(isinstance(b, pd.DataFrame) for b in kept):
        return driver_dataset(kept)
    return driver_dataset([BlockAccessor.for_block(b).to_arrow()
                            for b in kept])


def map_blocks(ds, fn, batch_format: str):
    """``ds.map_batches(fn, batch_format=...)`` — or, when ``ds`` is
    materialized and its bytes ``fits``, the same calls as a ``run_blocks``
    pass, one per block, returned as an already-materialized Dataset of the
    block kind ``map_batches`` would give: no Ray Data execution starts.
    A lazy ``ds`` keeps its fused ``map_batches``: it is never
    materialized just to take the pass."""
    if is_materialized(ds):
        data = materialized(ds)
        if fits("map_blocks", data.size_bytes() or 0):
            refs = block_refs(data)
            if refs:
                return _as_dataset(run_blocks(fn, refs,
                                              batch_format=batch_format))
    return ds.map_batches(fn, batch_format=batch_format)


# Arrow bytes per value of a parquet physical type (a string's 4 are its
# offset; its characters are added from the chunk's statistics)
_VALUE_WIDTH = {"BOOLEAN": 1, "INT32": 4, "FLOAT": 4, "INT64": 8,
                "DOUBLE": 8, "INT96": 12, "BYTE_ARRAY": 4}


def _decoded_bytes(chunk) -> float:
    """A parquet column chunk's Arrow bytes once read, estimated from its
    footer entry alone: the larger of its uncompressed size and one value
    width per value, a string's width taken from its min/max statistics.
    The uncompressed size alone understates a dictionary-encoded chunk,
    whose data pages hold indices — up to 39× on the sf0.1 tables'
    low-cardinality string columns — so a dictionary-encoded string chunk
    that holds values but no min/max statistics (written without them, or
    dropped for long values) measures as infinite and keeps the read
    lazy."""
    width = _VALUE_WIDTH.get(chunk.physical_type, 0)
    if chunk.physical_type in ("BYTE_ARRAY", "FIXED_LEN_BYTE_ARRAY"):
        stats = chunk.statistics
        if stats is not None and stats.has_min_max:
            width += (len(stats.min_raw) + len(stats.max_raw)) // 2
        elif chunk.has_dictionary_page and chunk.num_values:
            return float("inf")
    return max(chunk.total_uncompressed_size, chunk.num_values * width)


def parquet_bytes(path, columns: list[str] | None = None, fs=None) -> float:
    """The Arrow bytes of ``columns`` (all when None) of the parquet data at
    ``path`` — a file, a directory or a list of files on ``fs`` (None:
    local) — once read, estimated from the footers alone
    (``_decoded_bytes`` per column chunk)."""
    import pyarrow.parquet as pq

    nbytes = 0
    for frag in pq.ParquetDataset(path, filesystem=fs,
                                  partitioning=None).fragments:
        md = frag.metadata
        for i in range(md.num_row_groups):
            rg = md.row_group(i)
            nbytes += sum(
                _decoded_bytes(rg.column(j)) for j in range(rg.num_columns)
                if columns is None
                or rg.column(j).path_in_schema.split(".")[0] in columns)
    return nbytes


def read_parquet_blocks(path: str, columns: list[str] | None = None):
    """``rd.read_parquet(path, columns=columns)``: the same columns, types
    and rows in the same order (files sorted).  When the selected columns
    ``fits`` — their Arrow bytes estimated from the parquet footers
    (``parquet_bytes``), nothing else is read to decide — the files are
    read as a ``run_blocks`` pass and come back as an already-materialized
    Dataset, one block per file: no Ray Data execution starts.  Above the
    guard, and for a hive-partitioned path (``key=value`` directories, whose
    columns only Ray's reader adds), this is the lazy ``rd.read_parquet``."""
    import pyarrow.parquet as pq
    import ray.data as rd

    dataset = pq.ParquetDataset(path, partitioning=None)
    files = [frag.path for frag in dataset.fragments]
    if files and not any("=" in os.path.dirname(f) for f in files) \
            and fits("read_parquet_blocks", parquet_bytes(path, columns)):
        kw = {"columns": columns, "filesystem": dataset.filesystem}
        return driver_dataset(run_blocks(pq.read_table, files, kw))
    return rd.read_parquet(path, columns=columns)


def bucket_map(ds, key: str | list[str], num_buckets: int, fn,
               batch_format: str = "pandas"):
    """Run ``fn`` once per hash bucket: every row whose key hashes to
    bucket b (``hash64`` of the key's string form, list keys joined with
    ``"\\x00"``, modulo ``num_buckets``) reaches the same ``fn`` call, which
    gets the bucket in ``batch_format`` without the bucket column.

    ``ds`` may be a list of Datasets (the sides of a join); the sides are
    materialized — a lazy one through a union of all of them — so their
    measured bytes decide the engine:

    * when their bytes ``fits``: ``fn`` runs ONCE on the driver over every
      row in side and block order — the ``num_buckets = 1`` case of this
      contract.  Sides that are all materialized already are read side by
      side, without the union's execution.  The
      sort exchange is about 0.3 s of fixed scheduling for kilobytes of
      rows.  The result is split into min(num_buckets, cluster CPUs, rows)
      blocks without a shuffle, so downstream width stays one task per
      CPU slot.  With zero input rows ``fn`` is not called.
    * above it: the tag map adds the bucket column in ``batch_format`` —
      every tagged block then has one format, because Ray's sort cannot
      sample a mix of pandas and Arrow blocks — and the sort-based
      ``groupby().map_groups`` hands each bucket to ``fn``.

    In ``"pyarrow"`` format ``fn`` sees the union's block types unified
    on both paths (a column all-null in one block types ``null`` there, an
    int column holding a null converts from pandas as double): the driver
    path concatenates permissively, and the exchange casts every block to
    the unified schema before hashing, so one key hashes alike in every
    block and every bucket gets the same types.

    Rows reach ``fn`` in the order of their blocks on either path (a stable
    sort keeps it inside a bucket)."""
    sides = list(ds) if isinstance(ds, (list, tuple)) else [ds]
    if not all(is_materialized(s) for s in sides):
        sides = [sides[0].union(*sides[1:]) if len(sides) > 1
                 else sides[0]]
    sides = [materialized(s) for s in sides]
    if fits("bucket_map", sum(s.size_bytes() or 0 for s in sides)):
        return _driver_map(sides, num_buckets, fn, batch_format)
    data = sides[0].union(*sides[1:]).materialize() if len(sides) > 1 \
        else sides[0]
    refs = block_refs(data)
    if refs and len(refs) < data.num_blocks():
        # a map hands an empty block on as a column-less pandas frame, and
        # one such block in the sort sends its Arrow partners through
        # pandas: int columns holding nulls came back float64 and ``fn``
        # got columns typed null.  The exchange reads the non-empty blocks
        import ray.data as rd

        data = rd.from_arrow_refs(refs)

    keys = [key] if isinstance(key, str) else list(key)
    modulus = np.uint64(num_buckets)
    arrow = batch_format == "pyarrow"
    schema = _unified_schema(data) if arrow else None

    def add_bucket(batch):
        if arrow and batch.num_rows and batch.schema != schema:
            batch = batch.select(schema.names).cast(schema)
        texts = [_key_text(batch.column(k) if arrow else batch[k])
                 for k in keys]
        if arrow:
            joined = pc.binary_join_element_wise(*texts, "\x00") \
                .to_numpy(zero_copy_only=False)
        else:
            joined = texts[0].to_numpy()
            for t in texts[1:]:
                joined = joined + "\x00" + t.to_numpy()
        bucket = (hash64(joined) % modulus).astype("int64")
        if arrow:
            return batch.append_column("__bucket", pa.array(bucket))
        batch = batch.copy(deep=False)
        batch["__bucket"] = bucket
        return batch

    def run(group):
        return fn(group.drop_columns("__bucket") if arrow
                  else group.drop(columns="__bucket"))

    # ds.stats() names the reduce operator after this function
    run.__name__ = getattr(fn, "__name__", "run")

    tagged = data.map_batches(add_bucket, batch_format=batch_format,
                              batch_size=None)
    return tagged.groupby("__bucket").map_groups(run,
                                                 batch_format=batch_format)


def _unified_schema(data) -> pa.Schema | None:
    """The permissive unification of a MATERIALIZED Dataset's non-empty
    block schemas, read where each block lives (Ray's own schema is its
    first block's); None when every block is empty."""
    import ray
    from ray.data.block import BlockAccessor

    read = ray.remote(lambda block: BlockAccessor.for_block(block)
                      .to_arrow().schema)
    refs = block_refs(data)
    if not refs:
        return None
    return pa.unify_schemas(ray.get([read.remote(r) for r in refs]),
                            promote_options="permissive")


def _driver_map(sides: list, num_buckets: int, fn, batch_format: str):
    """``bucket_map``'s driver finish over MATERIALIZED Datasets: their
    non-empty blocks in ``batch_format``, concatenated in side and block
    order, go through ``fn`` once; the result comes back as an
    already-executed Dataset of min(num_buckets, CPU slots, rows)
    contiguous blocks."""
    import ray
    from ray.data.block import BlockAccessor

    arrow = batch_format == "pyarrow"
    parts = []
    for block in ray.get([r for side in sides for r in block_refs(side)]):
        acc = BlockAccessor.for_block(block)
        parts.append(acc.to_arrow() if arrow else acc.to_pandas())
    if not parts:
        return _as_dataset([pa.table({}) if arrow else pd.DataFrame()])
    batch = (pa.concat_tables(parts, promote_options="permissive")
             .combine_chunks() if arrow
             else pd.concat(parts, ignore_index=True))
    out = BlockAccessor.batch_to_block(fn(batch))
    rows = BlockAccessor.for_block(out).num_rows()
    n = max(1, min(num_buckets, cpu_slots(), rows))
    bounds = [i * rows // n for i in range(n + 1)]
    if isinstance(out, pa.Table):
        return _as_dataset([out.slice(a, b - a) for a, b
                            in zip(bounds, bounds[1:])])
    return _as_dataset([out.iloc[a:b].reset_index(drop=True) for a, b
                        in zip(bounds, bounds[1:])])


def dedupe_by_key(ds, key: str, num_buckets: int | None = 32):
    """Global distinct-by-key.  The per-batch drop_duplicates pass (map-side
    combine) always runs and is materialized, then ``bucket_map`` by key
    drops duplicates per bucket — on the driver in one call while the
    surviving set ``fits`` (measured on
    distinct_mentions: 2.5 s → 0.1 s for 1000 distinct strings), as B
    buckets above it, so a high-cardinality groupby's per-group overhead
    never appears.  First row per key in global block order wins on both
    paths.  ``num_buckets=None`` derives B from the measured bytes; the
    driver path returns min(B, cluster CPUs) blocks."""
    deduped = materialized(map_blocks(ds, lambda df: df.drop_duplicates(key),
                                      "pandas"))
    if deduped.num_blocks() > 64 \
            and not fits("dedupe_by_key", deduped.size_bytes() or 0):
        # second combine level: per-block distinct sets repeat hot keys once
        # per block, so at large block counts the bucket exchange would
        # carry blocks × distinct rows — bundle ~32 partial blocks per task
        # and dedupe again (within the guard the driver finish dedupes the
        # whole set at once)
        rows_per_block = max(1, deduped.count() // deduped.num_blocks())
        deduped = deduped.map_batches(
            lambda df: df.drop_duplicates(key), batch_format="pandas",
            batch_size=max(4096, rows_per_block * 32)).materialize()
    if num_buckets is None:
        num_buckets = auto_bucket_count(deduped)
    return bucket_map(deduped, key, num_buckets,
                      lambda g: g.drop_duplicates(key))


def _extreme(df: pd.DataFrame, g, col: str, how: str) -> pd.Series:
    """``g[col].min()`` or ``.max()`` (``how``) over ``df``'s groupby ``g``.
    An object column (strings) takes one sort by (group, value) and the
    first row per group instead of pandas' per-group Python fallback, one
    ``Series.min`` call per group (2.6k rows in 2,156 groups on one core:
    4 ms against 76 ms), which also raises on a null beside a string.
    Nulls are skipped, an all-null group gives NaN as in pandas, and the
    result carries ``g``'s group index (null keys included)."""
    if df[col].dtype != object:
        return getattr(g[col], how)()
    size = g.size()
    keep = df[col].notna().to_numpy()
    rows = pd.DataFrame({"g": g.ngroup().to_numpy()[keep],
                         "v": df[col].to_numpy()[keep]})
    first = rows.sort_values(["g", "v"], ascending=[True, how == "min"]) \
        .drop_duplicates("g")
    out = np.full(len(size), np.nan, dtype=object)
    out[first["g"].to_numpy()] = first["v"].to_numpy()
    return pd.Series(out, index=size.index, name=col)


def two_phase_agg(ds, keys: list[str],
                  spec: dict[str, tuple[str | None, str]]):
    """spec: output_name -> (input_column | None, fn); fn ∈ {sum,count,min,max,mean}.

    Returns a Dataset with columns keys + list(spec).

    Partials are always materialized (they are combiner output — bounded by
    #blocks × per-block distinct keys, tiny for low-cardinality groupbys)
    and merged through ``bucket_map`` by key with ONE vectorized pandas
    groupby per call: on the driver when the measured partial bytes
    ``fits``, else in buckets sized from those bytes — key
    cardinality never meets Ray's per-group machinery (a bare
    groupby(keys).aggregate measured 508 s where the bucket final takes
    ~8 s on a 6M-row/2M-key posting set).
    """
    sum_cols: dict[str, str] = {}
    min_cols: dict[str, str] = {}
    max_cols: dict[str, str] = {}
    mean_cols: dict[str, str] = {}
    count_names: list[str] = []
    for out, (col, fn) in spec.items():
        if fn == "sum":
            sum_cols[out] = col
        elif fn == "min":
            min_cols[out] = col
        elif fn == "max":
            max_cols[out] = col
        elif fn == "mean":
            mean_cols[out] = col
        elif fn == "count":
            count_names.append(out)
        else:
            raise ValueError(f"unsupported agg fn {fn}")
    need_count = bool(count_names or mean_cols)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys, sort=False, dropna=False)
        parts = {}
        for out, col in sum_cols.items():
            parts[out] = g[col].sum()
        for out, col in min_cols.items():
            parts[out] = _extreme(df, g, col, "min")
        for out, col in max_cols.items():
            parts[out] = _extreme(df, g, col, "max")
        for out, col in mean_cols.items():
            parts[f"__sum_{out}"] = g[col].sum()
        if need_count:
            parts["__n"] = g.size()
        return pd.DataFrame(parts).reset_index()

    def merge_partials(pdf: pd.DataFrame) -> pd.DataFrame:
        """Partial rows → final rows (shared by the driver finish and the
        per-bucket finish — identical code, identical dtypes either way)."""
        g = pdf.groupby(keys, sort=False, dropna=False)
        parts = {}
        for out in sum_cols:
            parts[out] = g[out].sum()
        for out in min_cols:
            parts[out] = _extreme(pdf, g, out, "min")
        for out in max_cols:
            parts[out] = _extreme(pdf, g, out, "max")
        for out in mean_cols:
            parts[f"__sum_{out}"] = g[f"__sum_{out}"].sum()
        if need_count:
            parts["__n"] = g["__n"].sum()
        final = pd.DataFrame(parts).reset_index()
        for out in mean_cols:
            final[out] = final[f"__sum_{out}"] / final["__n"]
        for out in count_names:
            final[out] = final["__n"]
        return final[keys + list(spec)]

    partials = materialized(map_blocks(ds, partial, "pandas"))
    if partials.count() == 0:
        import ray.data as rd

        return rd.from_pandas(pd.DataFrame(columns=keys + list(spec)))
    return bucket_map(partials, keys, auto_bucket_count(partials),
                      merge_partials)
