"""Grouped aggregation and the repo's one hash-bucket exchange.

``bucket_map`` is the exchange behind every wide step (joins, dedup, CC
star rounds, link merge, sessionizing): rows tag with
``hash64(key) % B`` and ONE sort-based groupby over the B bucket ids hands
each bucket to a vectorized function — key cardinality never meets Ray's
per-group machinery, and the exchange engine is decided in one place.

A bare ``groupby(key).aggregate(...)`` shuffles every row and, in this Ray
version, carries heavy per-block/per-group overhead (measured 35s vs 0.6s on
a 600k-row join output).  ``two_phase_agg`` computes partials per batch with
vectorized pandas, shuffles ONLY the partials, and finishes with a small
groupby — the combiner pattern the reference implements ad hoc with
synchronized accumulators (TableColumn.valuesInfo, JoinResult sums,
SearchJoin.java:827-840).

Supported functions: sum, count, min, max, mean (mean = sum/count derived
after the final merge).  Output column names are exactly the spec keys.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import hash64

# per-bucket input target; B = total_bytes / this, clamped
_TARGET_BUCKET_BYTES = 64 << 20
_MIN_BUCKETS, _MAX_BUCKETS = 8, 65_536


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
        return pc.cast(col.combine_chunks(), pa.string())
    if col.dtype.kind in "mM":
        return pd.Series(col.dt.as_unit("ns").array.asi8).astype(str)
    text = col.astype(str)
    if col.dtype.kind == "f":
        whole = (np.isfinite(col) & (np.floor(col) == col)
                 & (col.abs() < 2.0**63))
        text[whole] = col[whole].astype("int64").astype(str)
    return text


def bucket_map(ds, key: str | list[str], num_buckets: int, fn,
               batch_format: str = "pandas"):
    """Run ``fn`` once per hash bucket: every row whose key hashes to
    bucket b (``hash64`` of the key's string form, list keys joined with
    ``"\\x00"``, modulo ``num_buckets``) reaches the same ``fn`` call, which
    gets the bucket in ``batch_format`` without the bucket column.

    ``ds`` may be a list of Datasets (the sides of a join): each side is
    tagged separately and the tagged sides are unioned, so the tag map fuses
    into each side's last map and both sides always hash the same way.  The
    tag map runs in ``batch_format`` too: every tagged block then has one
    format (Ray's sort cannot sample a mix of pandas and Arrow blocks) and
    the buckets reach ``fn`` without another conversion.  The exchange is
    the sort-based ``groupby().map_groups`` over the bucket ids."""
    keys = [key] if isinstance(key, str) else list(key)
    modulus = np.uint64(num_buckets)
    arrow = batch_format == "pyarrow"

    def add_bucket(batch):
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

    sides = ds if isinstance(ds, (list, tuple)) else [ds]
    tagged = [d.map_batches(add_bucket, batch_format=batch_format,
                            batch_size=None) for d in sides]
    tagged = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    return tagged.groupby("__bucket").map_groups(run,
                                                 batch_format=batch_format)


def dedupe_by_key(ds, key: str, num_buckets: int | None = 32,
                  driver_final_bytes: int | None = None):
    """Global distinct-by-key.  The per-batch drop_duplicates pass (map-side
    combine) always runs and is materialized to MEASURE the surviving set:

    * under the driver guard (default ``DRIVER_FINAL_BYTES``): one pandas
      drop_duplicates on the driver, split back into ``num_buckets`` blocks
      WITHOUT a shuffle — the bucket sort-exchange costs ~2 s of fixed task
      overhead for kilobytes of distinct rows (measured on distinct_mentions:
      2.5 s → 0.1 s for 1000 distinct strings).  First row per key in global
      block order wins — the same first-wins contract as the bucket path.
    * above it: ``bucket_map`` by key, drop_duplicates per bucket.  B
      groups regardless of key cardinality — the per-group overhead of a
      high-cardinality groupby never appears.
      ``num_buckets=None`` derives B from the measured bytes."""
    import ray.data as rd

    if driver_final_bytes is None:
        driver_final_bytes = DRIVER_FINAL_BYTES
    deduped = ds.map_batches(lambda df: df.drop_duplicates(key),
                             batch_format="pandas").materialize()
    if deduped.num_blocks() > 64:
        # second combine level: per-block distinct sets repeat hot keys once
        # per block, so at large block counts the driver pull (and the
        # bucket exchange above the guard) would carry blocks × distinct
        # rows — bundle ~32 partial blocks per task and dedupe again
        rows_per_block = max(1, deduped.count() // deduped.num_blocks())
        deduped = deduped.map_batches(
            lambda df: df.drop_duplicates(key), batch_format="pandas",
            batch_size=max(4096, rows_per_block * 32)).materialize()
    if deduped.size_bytes() <= driver_final_bytes:
        out = deduped.to_pandas().drop_duplicates(key).reset_index(drop=True)
        if out.empty:
            return rd.from_pandas(out)
        n = int(min(num_buckets or 32, max(1, len(out))))
        return rd.from_pandas(
            [c.reset_index(drop=True) for c in np.array_split(out, n)])
    if num_buckets is None:
        num_buckets = auto_bucket_count(deduped)
    return bucket_map(deduped, key, num_buckets,
                      lambda g: g.drop_duplicates(key))


DRIVER_FINAL_BYTES = 32 << 20


def two_phase_agg(ds, keys: list[str], spec: dict[str, tuple[str | None, str]],
                  driver_final_bytes: int = DRIVER_FINAL_BYTES):
    """spec: output_name -> (input_column | None, fn); fn ∈ {sum,count,min,max,mean}.

    Returns a Dataset with columns keys + list(spec).

    Partials are always materialized (they are combiner output — bounded by
    #blocks × per-block distinct keys, tiny for low-cardinality groupbys).
    When the measured partial bytes fit ``driver_final_bytes`` the final
    merge happens ON THE DRIVER in one pandas groupby — a repartition + sort
    shuffle for kilobytes of partials costs ~2 s of fixed task overhead per
    query at any cluster size.  Above the guard (corpus-cardinality keys)
    the partials ``bucket_map`` by key into a bucket count sized from the
    measured partial bytes, and each bucket merges with ONE vectorized
    pandas groupby — key cardinality never meets Ray's per-group machinery
    (a bare groupby(keys).aggregate measured 508 s where the bucket final
    takes ~8 s on a 6M-row/2M-key posting set).
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
            parts[out] = g[col].min()
        for out, col in max_cols.items():
            parts[out] = g[col].max()
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
            parts[out] = g[out].min()
        for out in max_cols:
            parts[out] = g[out].max()
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

    partials = ds.map_batches(partial, batch_format="pandas").materialize()
    if partials.size_bytes() <= driver_final_bytes:
        import ray.data as rd

        pdf = partials.to_pandas()
        if pdf.empty:
            return rd.from_pandas(pd.DataFrame(columns=keys + list(spec)))
        return rd.from_pandas(merge_partials(pdf))

    # Above the guard the keys are corpus-cardinality (millions of groups):
    # a bare groupby(keys).aggregate(...) here pays Ray's per-group overhead
    # on every one of them (measured 508 s for a 6M-row / ~2M-token posting
    # df at 16 cpus).  Bucket the partials by key hash instead — B groups
    # regardless of key cardinality, one vectorized pandas merge per bucket
    # (the dedupe_by_key shape; same data, 8 s).
    return bucket_map(partials, keys, auto_bucket_count(partials),
                      merge_partials)
