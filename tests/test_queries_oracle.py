"""Mimic the driver's correctness gate locally: every SQL-oracled query must
match DuckDB on the same parquet tables (row count, schema names, values)."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pytest

from mannheimsearchjoinsengine_ray.pipelines.queries import ORACLE_SQL, QUERIES

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def _duck(sf_dir: str):
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")
    return con


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1).copy()
    for c in df.columns:
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64")
        elif pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = pd.to_datetime(df[c]).astype("datetime64[us]")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.parametrize("name", sorted(ORACLE_SQL))
def test_query_matches_oracle(name, ray_session, sf_dir):
    ray_df = QUERIES[name](sf_dir)
    if not isinstance(ray_df, pd.DataFrame):
        ray_df = ray_df.to_pandas()
    con = _duck(sf_dir)
    sql_df = con.execute(ORACLE_SQL[name]).df()
    con.close()

    a, b = _normalize(ray_df), _normalize(sql_df)
    assert list(a.columns) == list(b.columns), (list(a.columns), list(b.columns))
    assert len(a) == len(b), f"{name}: rows {len(a)} vs {len(b)}"
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=False,
                                  rtol=0, atol=1e-9)


def test_rows_only_queries_run(ray_session, sf_dir):
    for name in set(QUERIES) - set(ORACLE_SQL):
        out = QUERIES[name](sf_dir)
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
        assert len(out) >= 0 and len(out.columns) > 0


def test_top_orders_per_segment_join_path_matches_broadcast(ray_session, sf_dir,
                                                           force_site):
    """Guarded custkey→segment broadcast vs the above-guard bucket join."""
    from mannheimsearchjoinsengine_ray.pipelines.queries import q_top_orders_per_segment

    bc = _normalize(q_top_orders_per_segment(sf_dir))
    force_site("queries.segment_customers", False)
    joined = _normalize(q_top_orders_per_segment(sf_dir))
    pd.testing.assert_frame_equal(bc, joined, check_dtype=False)


def test_revenue_by_nation_join_path_matches_broadcast(ray_session, sf_dir,
                                                       force_site):
    """The guarded dimension chain: broadcast path (default) and the
    above-guard co-partitioned bucket-join path must hash-match."""
    from mannheimsearchjoinsengine_ray.pipelines.queries import q_revenue_by_nation

    bc = _normalize(q_revenue_by_nation(sf_dir))
    force_site("queries.revenue_dimensions", False)
    joined = _normalize(q_revenue_by_nation(sf_dir))
    pd.testing.assert_frame_equal(bc, joined, check_dtype=False)
