"""Fusion: matched entities ⋈ triples → augmented (long) view + pivot.

Re-expresses DataFuser.fuseCompleteTableFast / addValuesToColumn
(SJ/datafusion/DataFuser.java:271-462, 489-556) at triple granularity
(SURVEY §7.4: the reference pivots into hundreds of ``header|table|colIdx``
columns; at scale the fused view stays a LONG (query_key, pred, obj) table
and pivots only for small exports):

  * the predicate (header) filter is applied to the TRIPLES before any join
    (DataFuser.java:497-506) — pruning the big side first;
  * SMALL edge sets (bounded by top-k caps) broadcast once via ``ray.put``
    and fuse with a vectorized pandas merge per triple batch;
  * LARGE edge sets go through ``bucket_join`` (one union + one groupby
    shuffle co-partitioned on the subject hash) — edges scale with mention
    count (~one per table row), so the broadcast path is gated by the
    broadcast frame's bytes (``aggregates.fits``), not assumed;
  * ``pivot_fused`` builds the reference-shaped wide table for small results,
    column key = ``pred|source_url`` (the header|tablePath analog), cells
    resolved by first-wins like TableColumn.addNewValue.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..functions.normalize import clear_string
from . import aggregates

FUSED_SCHEMA = pa.schema([
    ("query_key", pa.string()),      # the mention that matched
    ("entity_uri", pa.string()),
    ("pred", pa.string()),
    ("obj", pa.string()),
    ("obj_type", pa.string()),
    ("source_url", pa.string()),
])

_FUSED_COLS = list(FUSED_SCHEMA.names)

def _filter_triples_by_header(triples_ds, header_filter, exact_headers: bool):
    allowed = set(header_filter) if exact_headers else {
        clear_string(h, True) for h in header_filter}

    def filt(df: pd.DataFrame) -> pd.DataFrame:
        header = df["pred"].str.rsplit("/", n=1).str[-1]
        key = header if exact_headers else header.map(
            lambda h: clear_string(h, True))
        return df[key.isin(allowed)]

    return triples_ds.map_batches(filt, batch_format="pandas")


def fuse_edges_with_triples(edges, triples_ds,
                            header_filter: list[str] | None = None,
                            exact_headers: bool = False,
                            bucket_count: int | None = None):
    """Long fused view: one row per (matched mention × entity triple).

    edges: (mention, entity_uri, ...) link edges — pandas DataFrame or
    Dataset.  triples: (subj, pred, obj, obj_type, source_url).  The
    (mention, entity_uri) frame broadcasts when its bytes
    ``aggregates.fits`` (top-k-capped link results are bounded, raw edges
    are not); above it the co-partitioned shuffle join runs.
    """
    import ray
    import ray.data as rd

    if header_filter:
        triples_ds = _filter_triples_by_header(triples_ds, header_filter,
                                               exact_headers)

    if isinstance(edges, pd.DataFrame):
        pairs = rd.from_pandas(edges[["mention", "entity_uri"]])
    else:
        pairs = aggregates.materialized(
            edges.select_columns(["mention", "entity_uri"]))

    if aggregates.fits("fusion.edges", pairs.size_bytes() or 0):
        edges_ref = ray.put(pairs.to_pandas())

        def fuse(df: pd.DataFrame) -> pd.DataFrame:
            e = ray.get(edges_ref)
            m = df.merge(e, left_on="subj", right_on="entity_uri")
            return pd.DataFrame({
                "query_key": m["mention"].astype(str),
                "entity_uri": m["subj"].astype(str),
                "pred": m["pred"].astype(str),
                "obj": m["obj"].astype(str),
                "obj_type": m["obj_type"].astype(str),
                "source_url": m["source_url"].astype(str),
            })

        return triples_ds.map_batches(fuse, batch_format="pandas")

    # --- scale path: co-partitioned shuffle join on the subject hash ---
    from .joins import bucket_join

    edges_ds = pairs.map_batches(
        lambda df: df.rename(columns={"mention": "query_key"}),
        batch_format="pandas")
    joined = bucket_join(edges_ds, triples_ds, left_on="entity_uri",
                         right_on="subj", bucket_count=bucket_count)

    def shape(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["query_key", "entity_uri", "pred", "obj", "obj_type",
                  "source_url"]].copy()
        for c in _FUSED_COLS:
            out[c] = out[c].astype(str)
        return out

    return joined.map_batches(shape, batch_format="pandas")


def pivot_fused(long_df: pd.DataFrame) -> pd.DataFrame:
    """Wide AugmentedTable view for SMALL fused results: one row per
    query_key, one column per (pred | source_url), first value wins
    (TableColumn.addNewValue insert semantics)."""
    if long_df.empty:
        return pd.DataFrame({"query_key": []})
    long_df = long_df.copy()
    long_df["col"] = long_df["pred"].str.rsplit("/", n=1).str[-1] + "|" + \
        long_df["source_url"]
    wide = long_df.pivot_table(index="query_key", columns="col", values="obj",
                               aggfunc="first")
    wide.columns.name = None
    return wide.reset_index()
