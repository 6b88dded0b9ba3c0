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
Whatever B is, ``bucket_map`` measures the tagged sides and, at or under
``aggregates.DRIVER_FINAL_BYTES``, merges them in ONE call on the driver
(no sort exchange); B then only sets the output block count.
With ``salt=None`` (auto) a probe side above ``skew_threshold`` rows runs
``detect_hot_keys`` (bounded partials) and salts automatically, so one hot
key never pins a reduce task without the caller having to know about skew.

Interior formats: the default interior is Arrow end-to-end — tag maps build
the tagged block column-by-column (``pa.nulls`` padding, no row copies) and
the in-group merge is ``pa.Table.join`` (Acero hash join), which preserves
every input dtype exactly so no restore step exists on that path.  The
pandas interior (``GRAFT_JOIN_IMPL=pandas``) is kept selectable for A/B and
as the fallback when a side's schema is not Arrow-resolvable (pandas object
blocks) or when the salted skew path runs; there merged groups pass through
pandas concat/merge where None-padding upcasts int64 → float64/object, and
output columns are restored to each side's Arrow-declared dtype (skipping
int columns that genuinely carry nulls after an outer merge), so join
pass-through columns hash identically to a DuckDB oracle on BOTH paths.

Null-key semantics: the Arrow interior follows SQL (a null key never
matches — same as the DuckDB oracles); the pandas interior inherits
pandas' NaN == NaN merge quirk.  Every oracled call site carries non-null
keys, so the interiors are equivalent there (pinned by
``test_join_interiors_equivalent``); callers with nullable keys should
stay on the default interior.

Used by the fusion operator (DataFuser analog) and the relational queries.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from .aggregates import _TARGET_BUCKET_BYTES, auto_bucket_count, bucket_map

# probe sides below this row count skip hot-key detection entirely
_AUTO_SKEW_ROWS = 1_000_000
_AUTO_SALT = 8

# the most recent auto-planned (bucket_count, salt, hot_keys) — observability
# for tests and ds.stats() debugging, not part of the operator contract
last_auto_plan: dict = {}
# which interior the most recent bucket_join/semi/anti chose ("arrow" /
# "pandas") — a driver-side diagnostic for tests and A/Bs, not control flow
last_interior: str = ""


def _join_impl() -> str:
    """'arrow' (default) or 'pandas' — read per call so tests/benches can
    flip the env var without re-importing."""
    return os.environ.get("GRAFT_JOIN_IMPL", "arrow")


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


def _schema_dtypes(ds) -> dict[str, np.dtype]:
    """Column → numpy dtype for the numeric/bool/timestamp columns of a
    Dataset, from either an Arrow schema or a PandasBlockSchema."""
    sch = ds.schema()
    base = getattr(sch, "base_schema", sch)
    out: dict[str, np.dtype] = {}
    if isinstance(base, pa.Schema):
        for f in base:
            try:
                if (pa.types.is_integer(f.type) or pa.types.is_floating(f.type)
                        or pa.types.is_boolean(f.type)
                        or pa.types.is_timestamp(f.type)):
                    out[f.name] = np.dtype(f.type.to_pandas_dtype())
            except (pa.ArrowNotImplementedError, TypeError):
                continue
        return out
    names = getattr(base, "names", None)
    types = getattr(base, "types", None)
    if names and types is not None:
        for name, t in zip(names, types):
            try:
                dt = np.dtype(t)
            except TypeError:
                continue
            if dt.kind in "iufbM":
                out[name] = dt
    return out


def _dtype_restorer(dtype_maps: list[dict], rename: dict | None = None):
    """Returns a frame-level restore fn from per-side dtype maps.  Int
    columns that picked up real nulls (outer merge misses) stay as-is —
    there is no lossless cast for them."""
    targets: dict[str, np.dtype] = {}
    for m in dtype_maps:
        for name, dt in m.items():
            targets.setdefault((rename or {}).get(name, name), dt)

    def restore(df: pd.DataFrame) -> pd.DataFrame:
        for c, dt in targets.items():
            if c not in df.columns or df[c].dtype == dt:
                continue
            col = df[c]
            if (np.issubdtype(dt, np.integer) or np.issubdtype(dt, np.bool_)) \
                    and col.isna().any():
                continue
            try:
                df[c] = col.astype(dt)
            except (TypeError, ValueError):
                continue
        return df

    return restore


def _arrow_types(ds) -> dict[str, pa.DataType] | None:
    """Column → Arrow type when the Dataset's schema is Arrow-resolvable,
    else None (→ the pandas interior, which needs no declared types)."""
    base = getattr(ds.schema(), "base_schema", None)
    if not isinstance(base, pa.Schema):
        return None
    return {f.name: f.type for f in base}


def _prep_arrow(ds, on: str, side: int, all_cols: list[str],
                types: dict[str, pa.DataType], key_type: pa.DataType):
    """Arrow tag map: tagged block built column-by-column (``pa.nulls``
    padding for the other side's columns — no row materialization)."""
    import pyarrow.compute as pc

    def tag(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        key = tbl.column(on)
        if key.type != key_type:
            key = pc.cast(key, key_type)
        names, arrays = ["__key"], [key]
        for c in all_cols:
            names.append(c)
            if c in tbl.column_names:
                col = tbl.column(c)
                if col.type != types[c]:
                    col = pc.cast(col, types[c])
                arrays.append(col)
            else:
                arrays.append(pa.nulls(n, type=types[c]))
        names.append("__side")
        arrays.append(pa.array(np.full(n, side, dtype="int8")))
        return pa.table(dict(zip(names, arrays)))

    return ds.map_batches(tag, batch_format="pyarrow")


def _tag_pandas(df: pd.DataFrame, on: str, side: int,
                all_cols: list[str]) -> pd.DataFrame:
    """Pandas tag: ``__key`` + every column of both sides (None-padded) +
    ``__side``."""
    out = pd.DataFrame()
    out["__key"] = df[on]
    for c in all_cols:
        if c in df.columns and c != on:
            out[c] = df[c]
        elif c != on:
            out[c] = None
    out["__side"] = np.int8(side)
    return out


def _prep(ds, on: str, side: int, all_cols: list[str]):
    return ds.map_batches(lambda df: _tag_pandas(df, on, side, all_cols),
                          batch_format="pandas")


def detect_hot_keys(ds, col: str, min_count: int = 100_000,
                    top_n: int = 64) -> set:
    """Keys whose row count exceeds ``min_count`` (bounded to the top_n):
    per-batch partial counts keep only candidates above min_count/#batches…
    simplified to per-batch top counts merged on the driver — the partials
    are top_n rows per batch, so the merge is bounded by batches × top_n."""
    partials = ds.map_batches(
        lambda df: df[col].value_counts().head(top_n).rename("n")
        .rename_axis("k").reset_index(),
        batch_format="pandas").to_pandas()
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
        left_ds = left_ds.materialize()
        right_ds = right_ds.materialize()
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
        last_auto_plan.clear()
        last_auto_plan.update({"bucket_count": bucket_count, "salt": salt or 1,
                               "hot_keys": set(hot_keys or ())})
    if salt is None:
        salt = 1
    left_cols = _schema_names(left_ds)
    right_cols = _schema_names(right_ds)
    shared = (set(left_cols) - {left_on}) & (set(right_cols) - {right_on})
    if shared:
        raise ValueError(f"overlapping non-key columns: {shared}")
    all_cols = sorted((set(left_cols) - {left_on}) | (set(right_cols) - {right_on}))
    restore = _dtype_restorer([_schema_dtypes(left_ds), _schema_dtypes(right_ds)],
                              rename={right_on: left_on})

    use_salt = salt > 1 and hot_keys
    if use_salt:
        import ray

        hot_ref = ray.put(set(hot_keys))

        def prep_salted(ds, on, side):
            def tag(df: pd.DataFrame) -> pd.DataFrame:
                out = _tag_pandas(df, on, side, all_cols)
                is_hot = df[on].isin(ray.get(hot_ref)).to_numpy()
                if side == 0:
                    # spread hot probe rows by a per-row salt
                    out["__salt"] = np.where(
                        is_hot, np.arange(len(df)) % salt, 0)
                    return out
                # build side: replicate hot rows into every salt
                out["__salt"] = 0
                hot_rows = out[is_hot]
                return pd.concat(
                    [out] + [hot_rows.assign(__salt=s)
                             for s in range(1, salt)], ignore_index=True)

            return ds.map_batches(tag, batch_format="pandas")

        l2 = prep_salted(left_ds, left_on, 0)
        r2 = prep_salted(right_ds, right_on, 1)
    lc = [c for c in left_cols if c != left_on]
    rc = [c for c in right_cols if c != right_on]

    lt, rt = _arrow_types(left_ds), _arrow_types(right_ds)
    if (not use_salt and _join_impl() == "arrow"
            and lt is not None and rt is not None):
        global last_interior
        last_interior = "arrow"
        # Arrow interior: typed null padding + Acero hash join per group —
        # dtypes survive exactly, so there is no restore step on this path
        types = {c: rt[c] if c in rc else lt[c] for c in all_cols}
        jt = {"inner": "inner", "left": "left outer",
              "right": "right outer", "outer": "full outer"}[how]
        l2 = _prep_arrow(left_ds, left_on, 0, all_cols, types, lt[left_on])
        r2 = _prep_arrow(right_ds, right_on, 1, all_cols, types, lt[left_on])

        def merge_arrow(group: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            mask = pc.equal(group.column("__side"), 0)
            l = group.filter(mask).select(["__key"] + lc)
            r = group.filter(pc.invert(mask)).select(["__key"] + rc)
            # use_threads=False: the task owns ONE cpu slot — Acero's
            # default thread pool would oversubscribe across concurrent
            # bucket merges
            out = l.join(r, keys="__key", join_type=jt, use_threads=False)
            out = out.select(["__key"] + lc + rc)
            return out.rename_columns([left_on] + lc + rc)

        return bucket_map([l2, r2], "__key", bucket_count, merge_arrow,
                          batch_format="pyarrow")

    globals()["last_interior"] = "pandas"
    if not use_salt:
        l2 = _prep(left_ds, left_on, 0, all_cols)
        r2 = _prep(right_ds, right_on, 1, all_cols)

    # salted rows match on (key, salt): one call may hold several salts of
    # a hot key (two salts sharing a bucket, or the driver finish), and a
    # probe row must meet the replicated build rows of its own salt only
    on = ["__key", "__salt"] if use_salt else ["__key"]

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        l = group[group["__side"] == 0]
        r = group[group["__side"] == 1]
        m = l[on + lc].merge(r[on + rc], on=on, how=how)
        return restore(m.drop(columns=on[1:])
                       .rename(columns={"__key": left_on}))

    # salted rows co-locate by (key, salt) over salt × B buckets
    return bucket_map([l2, r2], on,
                      bucket_count * salt if use_salt else bucket_count, merge)


def _bucket_semi_anti(left_ds, right_ds, left_on: str, right_on: str,
                      bucket_count: int | None, keep_matched: bool):
    """Shared body of bucket_semi_join / bucket_anti_join: LEFT rows kept by
    whether their key has a match on the right.  The right side ships only
    its per-batch-deduped KEYS (map-side combine), so the shuffle volume is
    bounded by distinct keys, not fact-table rows."""
    if bucket_count is None:
        # materialized first: the schema reads are then metadata, not a
        # limit-1 execution of a lazy side
        left_ds = left_ds.materialize()
        bucket_count = auto_bucket_count(left_ds)
    left_cols = _schema_names(left_ds)
    restore = _dtype_restorer([_schema_dtypes(left_ds)])

    lt = _arrow_types(left_ds)
    if _join_impl() == "arrow" and lt is not None:
        global last_interior
        last_interior = "arrow"
        # Arrow interior: Acero left-semi/left-anti per group.  The right
        # side still ships per-batch-deduped KEYS only (cast to the left
        # key type so the union schema is exact).
        key_type = lt[left_on]

        def tag_left_a(tbl: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            key = tbl.column(left_on)
            cols = {c: tbl.column(c) for c in left_cols}
            cols["__key"] = (key if key.type == key_type
                             else pc.cast(key, key_type))
            cols["__side"] = pa.array(
                np.zeros(tbl.num_rows, dtype="int8"))
            return pa.table(cols)

        def tag_right_a(tbl: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            keys = pc.unique(tbl.column(right_on).combine_chunks()
                             if isinstance(tbl.column(right_on),
                                           pa.ChunkedArray)
                             else tbl.column(right_on))
            if keys.type != key_type:
                keys = pc.cast(keys, key_type)
            n = len(keys)
            cols = {c: pa.nulls(n, type=lt[c]) for c in left_cols}
            cols["__key"] = keys
            cols["__side"] = pa.array(np.ones(n, dtype="int8"))
            return pa.table(cols)

        l2 = left_ds.map_batches(tag_left_a, batch_format="pyarrow")
        r2 = right_ds.map_batches(tag_right_a, batch_format="pyarrow")
        jt = "left semi" if keep_matched else "left anti"

        def pick_arrow(group: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            mask = pc.equal(group.column("__side"), 0)
            l = group.filter(mask).select(left_cols + ["__key"])
            rk = group.filter(pc.invert(mask)).select(["__key"])
            return l.join(rk, keys="__key", join_type=jt,
                          use_threads=False).select(left_cols)

        return bucket_map([l2, r2], "__key", bucket_count, pick_arrow,
                          batch_format="pyarrow")

    globals()["last_interior"] = "pandas"

    def tag_left(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["__key"] = df[left_on]
        out["__side"] = np.int8(0)
        return out

    def tag_right(df: pd.DataFrame) -> pd.DataFrame:
        keys = df[right_on].drop_duplicates()
        out = pd.DataFrame({"__key": keys})
        for c in left_cols:
            out[c] = None
        out["__side"] = np.int8(1)
        return out

    l2 = left_ds.map_batches(tag_left, batch_format="pandas")
    r2 = right_ds.map_batches(tag_right, batch_format="pandas")

    def pick(group: pd.DataFrame) -> pd.DataFrame:
        l = group[group["__side"] == 0]
        rkeys = set(group.loc[group["__side"] == 1, "__key"])
        matched = l["__key"].isin(rkeys)
        keep = l[matched] if keep_matched else l[~matched]
        return restore(keep[left_cols].copy())

    return bucket_map([l2, r2], "__key", bucket_count, pick)


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


def asof_join(left_ds, right_ds, left_on: str, right_on: str,
              left_ts: str, right_ts: str, bucket_count: int | None = 16,
              inner: bool = True):
    """As-of join (nearest right row with right_ts <= left_ts per key): sort
    both sides by (key, ts) within hash(key) buckets and ``pd.merge_asof``
    per bucket — the range-join pattern from the Ray guide.  One
    ``bucket_map`` exchange; ordering assumption: ts sortable within a bucket's memory.
    ``bucket_count=None`` derives B from measured input bytes."""
    if bucket_count is None:
        # materialized first: the schema reads are then metadata, not a
        # limit-1 execution of a lazy side
        left_ds = left_ds.materialize()
        right_ds = right_ds.materialize()
        bucket_count = auto_bucket_count(left_ds, right_ds)
    left_cols = _schema_names(left_ds)
    right_cols = _schema_names(right_ds)
    shared = (set(left_cols) - {left_on}) & (set(right_cols) - {right_on})
    if shared:
        raise ValueError(f"overlapping non-key columns: {shared}")
    all_cols = sorted((set(left_cols) - {left_on}) | (set(right_cols) - {right_on}))
    restore = _dtype_restorer([_schema_dtypes(left_ds), _schema_dtypes(right_ds)],
                              rename={right_on: left_on})

    l2 = _prep(left_ds, left_on, 0, all_cols)
    r2 = _prep(right_ds, right_on, 1, all_cols)
    lc = [c for c in left_cols if c != left_on]
    rc = [c for c in right_cols if c != right_on]

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        l = group[group["__side"] == 0][["__key"] + lc] \
            .sort_values([left_ts, "__key"]).reset_index(drop=True)
        r = group[group["__side"] == 1][["__key"] + rc] \
            .sort_values([right_ts, "__key"]).reset_index(drop=True)
        # blocks may carry different timestamp resolutions (us vs ns)
        # depending on which stage produced them — merge_asof needs equal dtypes
        if pd.api.types.is_datetime64_any_dtype(l[left_ts]):
            l[left_ts] = l[left_ts].astype("datetime64[ns]")
        if pd.api.types.is_datetime64_any_dtype(r[right_ts]):
            r[right_ts] = r[right_ts].astype("datetime64[ns]")
        if l.empty:
            return pd.DataFrame(columns=["__key"] + lc + rc).rename(
                columns={"__key": left_on})
        if r.empty:
            m = l.copy()
            for c in rc:
                m[c] = None
        else:
            m = pd.merge_asof(l, r, left_on=left_ts, right_on=right_ts,
                              by="__key", direction="backward")
        if inner:
            m = m[m[right_ts].notna()]
        return restore(m.rename(columns={"__key": left_on}))

    return bucket_map([l2, r2], "__key", bucket_count, merge)
