"""Partitioned hash join built from groupby primitives (the portable
large-large join).

``Dataset.join`` exists in this Ray version but its actor-based hash shuffle
carries heavy fixed costs at moderate scale; these operators express the same
exchange as ONE ``aggregates.bucket_map`` call over both sides:

    left  → copy the key to ``__key``, tag side=0
    right → copy the key to ``__key``, tag side=1
    bucket_map([left, right], "__key", B, merge inside each bucket)

Partitioning assumption: both sides co-locate by ``hash(__key) % B`` (one
``bucket_map`` call hashes both the same way); B sizes the per-task merge to
worker memory.

Auto planning (the 100×-safe default): with ``bucket_count=None`` both sides
are materialized (the shuffle reads every row anyway) and B is derived from
the measured byte size / ``target_bucket_bytes`` — a literal 16 caps reduce
parallelism AND requires each bucket to fit one worker's heap at any scale.
Whatever B is, ``bucket_map`` measures the tagged sides and, when they
``aggregates.fits``, merges them in ONE call on the driver (no sort
exchange); B then only sets the output block count.
With ``salt=None`` (auto) a probe side above ``skew_threshold`` rows runs
``detect_hot_keys`` (bounded partials) and salts automatically, so one hot
key never pins a reduce task without the caller having to know about skew.
The auto plan (bucket count, salt, hot keys) goes into the decisions of an
open ``aggregates.record_passes`` block.

Interior format: Arrow end to end.  The tag maps run with
``batch_format="pyarrow"``, so Ray converts a side held in pandas blocks
there; they build the tagged block column by column (``pa.nulls`` padding
for the other side's columns, typed from that side's Arrow schema when it
has one, no row copies).  No column is cast to a declared type: a column
all-null in its first block reads as type ``null`` in Ray's schema, so
``bucket_map`` unifies the block types of both sides instead.  The
in-bucket merge is ``pa.Table.join`` (Acero hash join), or for
``asof_join`` a sort plus Arrow ``take``, so every dtype survives and no
restore step exists.

The tag maps, the semi/anti key map and ``detect_hot_keys`` are
``aggregates.map_blocks`` passes: over a materialized side within the
driver guard they start no Ray Data execution, and ``bucket_map`` then
reads the already-materialized tagged sides without a union.

Null-key semantics follow SQL on every plan, salted included: a null key
never matches (the DuckDB oracles agree).

Used by the fusion operator (DataFuser analog) and the relational queries.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import aggregates
from .aggregates import (
    _TARGET_BUCKET_BYTES,
    auto_bucket_count,
    bucket_map,
    map_blocks,
    materialized,
)

# probe sides below this row count skip hot-key detection entirely
_AUTO_SKEW_ROWS = 1_000_000
_AUTO_SALT = 8

_JOIN_TYPES = {"inner": "inner", "left": "left outer",
               "right": "right outer", "outer": "full outer"}


def _schema_names(ds) -> list[str]:
    sch = ds.schema()
    names = getattr(sch, "names", None)
    if names:
        return list(names)
    base = getattr(sch, "base_schema", sch)
    out = []
    for f in base:
        out.append(f.name if hasattr(f, "name") else str(f))
    return out


def _arrow_types(ds) -> dict[str, pa.DataType]:
    """Column → Arrow type when the Dataset's schema is Arrow, else {} (a
    side in pandas blocks pads with type ``null`` and takes its types from
    its rows once ``bucket_map`` unifies the blocks)."""
    base = getattr(ds.schema(), "base_schema", None)
    if not isinstance(base, pa.Schema):
        return {}
    return {f.name: f.type for f in base}


def _tag(ds, on: str, side: int, cols: list[str],
         types: dict[str, pa.DataType], salt: int = 1, hot_keys=None):
    """Arrow tag map: ``__key`` + ``cols`` (this side's own columns as they
    are, the others null) + ``__side``.  With ``salt > 1`` an int
    ``__salt`` follows: hot probe rows (side 0) spread over the salts by
    row number, hot build rows (side 1) replicate into every salt."""
    hot = None if salt <= 1 else pa.array(list(hot_keys))

    def tag(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        key = tbl.column(on)
        if pa.types.is_floating(key.type):
            # -0.0 + 0.0 is +0.0: Acero hashes a float key by its bits, so
            # -0.0 would never meet 0.0 (pandas and SQL match them)
            key = pc.add(key, pa.scalar(0.0, key.type))
        out = {"__key": key}
        for c in cols:
            out[c] = (tbl.column(c) if c in tbl.column_names
                      else pa.nulls(n, type=types.get(c, pa.null())))
        out["__side"] = pa.array(np.full(n, side, dtype="int8"))
        if hot is None:
            return pa.table(out)
        is_hot = pc.is_in(out["__key"], value_set=hot).to_numpy(
            zero_copy_only=False)
        if side == 0:
            out["__salt"] = pa.array(np.where(is_hot, np.arange(n) % salt, 0))
            return pa.table(out)
        out["__salt"] = pa.array(np.zeros(n, dtype="int64"))
        tagged = pa.table(out)
        rows = tagged.filter(is_hot)
        pos = tagged.column_names.index("__salt")
        return pa.concat_tables([tagged] + [
            rows.set_column(pos, "__salt",
                            pa.array(np.full(rows.num_rows, s)))
            for s in range(1, salt)])

    return map_blocks(ds, tag, "pyarrow")


def _sides(group: pa.Table, left: list[str], right: list[str]):
    """A bucket's rows split by ``__side`` → (left rows, right rows)."""
    mask = pc.equal(group.column("__side"), 0)
    return (group.filter(mask).select(left),
            group.filter(pc.invert(mask)).select(right))


def _hash_join(l: pa.Table, r: pa.Table, keys: list[str],
               join_type: str) -> pa.Table:
    """Acero hash join of one bucket.  Acero rejects a payload column of
    type ``null`` (one no input row types), so such columns skip the join
    and come back as nulls.  ``use_threads=False``: the task owns ONE cpu
    slot — Acero's default thread pool would oversubscribe across
    concurrent bucket merges."""
    void = [f.name for f in (*l.schema, *r.schema)
            if pa.types.is_null(f.type) and f.name not in keys]
    out = l.drop_columns([c for c in void if c in l.column_names]).join(
        r.drop_columns([c for c in void if c in r.column_names]),
        keys=keys, join_type=join_type, use_threads=False)
    for c in void:
        out = out.append_column(c, pa.nulls(out.num_rows))
    return out


def detect_hot_keys(ds, col: str, min_count: int = 100_000,
                    top_n: int = 64) -> set:
    """Keys whose row count exceeds ``min_count`` (bounded to the top_n):
    per-batch partial counts keep only candidates above min_count/#batches…
    simplified to per-batch top counts merged on the driver — the partials
    are top_n rows per batch, so the merge is bounded by batches × top_n.
    A null key is never hot (it never matches)."""
    def top(tbl: pa.Table) -> pa.Table:
        counts = pc.value_counts(tbl.column(col).drop_null())
        return pa.table({"k": counts.field("values"),
                         "n": counts.field("counts")}) \
            .sort_by([("n", "descending")]).slice(0, top_n)

    partials = map_blocks(ds, top, "pyarrow").to_pandas()
    if partials.empty:
        return set()
    totals = partials.groupby("k")["n"].sum()
    return set(totals[totals >= min_count].head(top_n).index)


def bucket_join(left_ds, right_ds, left_on: str, right_on: str,
                bucket_count: int | None = None, how: str = "inner",
                salt: int | None = None, hot_keys: set | None = None,
                skew_threshold: int = _AUTO_SKEW_ROWS,
                target_bucket_bytes: int = _TARGET_BUCKET_BYTES):
    """Hash-partitioned join of two Datasets → Dataset with the union of
    columns (join key kept under the LEFT name).

    ``bucket_count=None`` → derived from measured input bytes (see module
    doc).  ``salt=None`` → auto: probe sides above ``skew_threshold`` rows
    run ``detect_hot_keys`` and salt by ``_AUTO_SALT`` when any key exceeds
    5 % of the probe rows.  Explicit ``salt``/``hot_keys`` override auto.

    Skew mechanics: hot LEFT rows spread over ``salt`` sub-buckets while hot
    RIGHT rows REPLICATE into every sub-bucket — the classic salted join,
    equivalence-tested against the unsalted join."""
    if bucket_count is None:
        # full auto: materialize (the shuffle reads every row anyway), size
        # B from bytes, and skew-scan the probe side above the row threshold.
        # The schema reads below come after, so they are metadata — read
        # from a lazy side they would execute it once more under a limit
        left_ds = materialized(left_ds)
        right_ds = materialized(right_ds)
        bucket_count = auto_bucket_count(
            left_ds, right_ds, target_bucket_bytes=target_bucket_bytes)
        if salt is None:
            n_left = left_ds.count()
            if n_left >= skew_threshold:
                hot_keys = detect_hot_keys(
                    left_ds, left_on,
                    min_count=max(skew_threshold // 20, int(n_left * 0.05)))
                if hot_keys:
                    salt = _AUTO_SALT
        aggregates.note("joins.auto_plan", bucket_count=bucket_count,
                        salt=salt or 1,
                        hot_keys=sorted(hot_keys or (), key=str))
    salt = (salt or 1) if hot_keys else 1
    left_cols = _schema_names(left_ds)
    right_cols = _schema_names(right_ds)
    shared = (set(left_cols) - {left_on}) & (set(right_cols) - {right_on})
    if shared:
        raise ValueError(f"overlapping non-key columns: {shared}")
    lc = [c for c in left_cols if c != left_on]
    rc = [c for c in right_cols if c != right_on]
    all_cols = sorted(lc + rc)
    types = {**_arrow_types(left_ds), **_arrow_types(right_ds)}
    l2 = _tag(left_ds, left_on, 0, all_cols, types, salt, hot_keys)
    r2 = _tag(right_ds, right_on, 1, all_cols, types, salt, hot_keys)
    # salted rows match on (key, salt): one call may hold several salts of
    # a hot key (two salts sharing a bucket, or the driver finish), and a
    # probe row must meet the replicated build rows of its own salt only
    on = ["__key", "__salt"] if salt > 1 else ["__key"]

    def merge_arrow(group: pa.Table) -> pa.Table:
        l, r = _sides(group, on + lc, on + rc)
        out = _hash_join(l, r, on, _JOIN_TYPES[how])
        return out.select(["__key"] + lc + rc) \
            .rename_columns([left_on] + lc + rc)

    # salted rows co-locate by (key, salt) over salt × B buckets
    return bucket_map([l2, r2], on, bucket_count * salt, merge_arrow,
                      batch_format="pyarrow")


def _bucket_semi_anti(left_ds, right_ds, left_on: str, right_on: str,
                      bucket_count: int | None, keep_matched: bool):
    """Shared body of bucket_semi_join / bucket_anti_join: LEFT rows kept by
    whether their key has a match on the right (Acero left-semi/left-anti
    per bucket).  The right side ships only its per-batch-deduped KEYS
    (map-side combine), so the shuffle volume is bounded by distinct keys,
    not fact-table rows."""
    if bucket_count is None:
        # materialized first: the schema reads are then metadata, not a
        # limit-1 execution of a lazy side
        left_ds = materialized(left_ds)
        bucket_count = auto_bucket_count(left_ds)
    left_cols = _schema_names(left_ds)
    types = _arrow_types(left_ds)
    l2 = _tag(left_ds, left_on, 0, left_cols, types)
    keys = map_blocks(
        right_ds,
        lambda tbl: pa.table({right_on: pc.unique(
            tbl.column(right_on).combine_chunks())}),
        "pyarrow")
    r2 = _tag(keys, right_on, 1, left_cols, types)
    jt = "left semi" if keep_matched else "left anti"

    def pick_arrow(group: pa.Table) -> pa.Table:
        l, rk = _sides(group, left_cols + ["__key"], ["__key"])
        return _hash_join(l, rk, ["__key"], jt).select(left_cols)

    return bucket_map([l2, r2], "__key", bucket_count, pick_arrow,
                      batch_format="pyarrow")


def bucket_anti_join(left_ds, right_ds, left_on: str, right_on: str,
                     bucket_count: int | None = 32):
    """LEFT rows whose key has NO match on the right — the exact anti-join,
    expressed as the same ``bucket_map`` exchange as ``bucket_join``."""
    return _bucket_semi_anti(left_ds, right_ds, left_on, right_on,
                             bucket_count, keep_matched=False)


def bucket_semi_join(left_ds, right_ds, left_on: str, right_on: str,
                     bucket_count: int | None = 32):
    """LEFT rows whose key HAS a match on the right (exact semi-join; each
    left row appears at most once regardless of right multiplicity).  Same
    exchange as ``bucket_anti_join`` — right ships deduped keys only."""
    return _bucket_semi_anti(left_ds, right_ds, left_on, right_on,
                             bucket_count, keep_matched=True)


def _asof_match(code: np.ndarray, ts: np.ndarray, valid: np.ndarray,
                is_left: np.ndarray) -> np.ndarray:
    """Per row, the row of the latest valid right row (``is_left`` False)
    with the same ``code`` and ``ts`` at or before its own, else -1: one
    stable sort by (code, ts, side) puts right rows first on a tie (backward
    is inclusive), and a running max of right-row positions finds the
    latest one, which matches when its code is the row's code."""
    order = np.lexsort((is_left, ts, code))
    pos = np.where(~is_left[order] & valid[order], np.arange(len(order)), -1)
    last = np.maximum.accumulate(pos)
    prev = order[np.maximum(last, 0)]
    hit = (last >= 0) & valid[order] & (code[prev] == code[order])
    match = np.empty(len(order), dtype=np.int64)
    match[order] = np.where(hit, prev, -1)
    return match


def asof_join(left_ds, right_ds, left_on: str, right_on: str,
              left_ts: str, right_ts: str, bucket_count: int | None = 16,
              inner: bool = True):
    """As-of join (nearest right row with right_ts <= left_ts per key) —
    the range-join pattern from the Ray guide: hash(key) buckets, then per
    bucket one sort of both sides by (key, ts) and a running max of the
    right rows (``_asof_match``).  The two ts columns compare in their
    common type (the finer unit of two timestamps).  A row with a null key
    or ts never matches; ``inner=False`` keeps unmatched left rows.  One
    ``bucket_map`` exchange; ordering assumption: ts sortable within a
    bucket's memory.  ``bucket_count=None`` derives B from measured input
    bytes."""
    if bucket_count is None:
        # materialized first: the schema reads are then metadata, not a
        # limit-1 execution of a lazy side
        left_ds = materialized(left_ds)
        right_ds = materialized(right_ds)
        bucket_count = auto_bucket_count(left_ds, right_ds)
    left_cols = _schema_names(left_ds)
    right_cols = _schema_names(right_ds)
    shared = (set(left_cols) - {left_on}) & (set(right_cols) - {right_on})
    if shared:
        raise ValueError(f"overlapping non-key columns: {shared}")
    lc = [c for c in left_cols if c != left_on]
    rc = [c for c in right_cols if c != right_on]
    all_cols = sorted(lc + rc)
    types = {**_arrow_types(left_ds), **_arrow_types(right_ds)}
    l2 = _tag(left_ds, left_on, 0, all_cols, types)
    r2 = _tag(right_ds, right_on, 1, all_cols, types)

    def merge(group: pa.Table) -> pa.Table:
        key = pc.dictionary_encode(group.column("__key").combine_chunks())
        typ = pa.unify_schemas(
            [pa.schema([("ts", group.schema.field(left_ts).type)]),
             pa.schema([("ts", group.schema.field(right_ts).type)])],
            promote_options="permissive").field("ts").type
        is_left = group.column("__side").to_numpy() == 0
        ts = pc.if_else(pa.array(is_left),
                        *(pc.cast(pc.cast(group.column(c), typ), pa.int64())
                          for c in (left_ts, right_ts)))
        valid = pc.and_(pc.is_valid(key), pc.is_valid(ts))
        match = _asof_match(
            pc.fill_null(key.indices, -1).to_numpy(),
            pc.fill_null(ts, 0).to_numpy(),
            valid.to_numpy(zero_copy_only=False), is_left)
        rows = np.flatnonzero(is_left)
        hit = match[rows]
        if inner:
            rows, hit = rows[hit >= 0], hit[hit >= 0]
        left = group.select(["__key"] + lc).take(rows)
        right = group.select(rc).take(pa.array(hit, mask=hit < 0))
        return pa.table(left.columns + right.columns,
                        names=[left_on] + lc + rc)

    return bucket_map([l2, r2], "__key", bucket_count, merge,
                      batch_format="pyarrow")
