"""``aggregates.read_parquet_blocks`` and ``aggregates.map_blocks`` — the
reads and passes over materialized blocks that start no Ray Data
execution within the driver guard — against ``rd.read_parquet`` and
``map_batches``, on both ``run_blocks`` branches (Ray tasks on the
four-CPU session cluster; in-process under the ``in_process`` fixture),
plus the execution count of the ``operator_mix`` benchmark queries."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mannheimsearchjoinsengine_ray.stages import aggregates
from mannheimsearchjoinsengine_ray.stages.aggregates import (
    is_materialized,
    map_blocks,
    read_parquet_blocks,
)


def _executions(run):
    """(``run()``'s result, the number of Ray Data executions it started)."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    count = [0]
    real_execute = StreamingExecutor.execute

    def execute(self, *args, **kwargs):
        count[0] += 1
        return real_execute(self, *args, **kwargs)

    StreamingExecutor.execute = execute
    try:
        out = run()
    finally:
        StreamingExecutor.execute = real_execute
    return out, count[0]


@pytest.fixture
def ordered(monkeypatch):
    """Datasets made in the test yield their blocks in order (Ray's reader
    otherwise yields a file's blocks as its read tasks finish)."""
    from ray.data import DataContext

    monkeypatch.setattr(DataContext.get_current().execution_options,
                        "preserve_order", True)


def _arrow(ds) -> pa.Table:
    """A Dataset's rows as one Arrow table typed by its schema (Ray's
    reader hands an empty file back as column-less empty blocks)."""
    import ray

    schema = ds.schema().base_schema
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables([t.cast(schema) for t in tables]) if tables \
        else schema.empty_table()


def _table(n: int, start: int = 0) -> pa.Table:
    i = np.arange(start, start + n)
    return pa.table({
        "id": pa.array(i, pa.int64()),
        "maybe": pa.array([None if v % 3 == 0 else int(v) for v in i],
                          pa.int64()),
        "name": pa.array([f"n{v % 7}" for v in i], pa.string()),
        "x": pa.array(i * 0.5, pa.float64()),
    })


def _write_input(kind: str, root) -> tuple[str, list | None]:
    """→ (path, columns) of one read shape."""
    if kind == "multi_row_group":
        path = str(root / "multi.parquet")
        pq.write_table(_table(350), path, row_group_size=100)
        return path, None
    if kind == "directory":
        d = root / "dir"
        d.mkdir()
        # written out of name order: the read order is the sorted one
        for name, start in (("c", 200), ("a", 0), ("b", 100)):
            pq.write_table(_table(100, start), str(d / f"{name}.parquet"),
                           row_group_size=40)
        return str(d), None
    if kind == "columns_subset":
        path = str(root / "subset.parquet")
        pq.write_table(_table(120), path, row_group_size=50)
        return path, ["x", "id"]
    if kind == "empty_row_group":
        path = str(root / "empty.parquet")
        pq.write_table(_table(0), path)
        return path, None
    if kind == "no_row_groups":
        path = str(root / "none.parquet")
        pq.ParquetWriter(path, _table(0).schema).close()
        return path, None
    assert kind == "nullable_int"
    path = str(root / "nullable.parquet")
    pq.write_table(pa.table({"k": pa.array([1, None, 3, None], pa.int64())}),
                   path)
    return path, None


READS = ["multi_row_group", "directory", "columns_subset", "empty_row_group",
         "no_row_groups", "nullable_int"]


@pytest.mark.parametrize("kind", READS)
def test_read_parquet_blocks_matches_read_parquet(ray_session, ordered,
                                                  tmp_path, kind):
    """Same columns, types and row order as ``rd.read_parquet``, already
    materialized and without an execution; files read as Ray tasks where
    there are several."""
    import ray.data as rd

    path, columns = _write_input(kind, tmp_path)
    got, runs = _executions(lambda: read_parquet_blocks(path, columns))
    assert runs == 0 and is_materialized(got)
    want = rd.read_parquet(path, columns=columns)
    have, expect = _arrow(got), _arrow(want)
    assert have.schema.names == expect.schema.names
    assert have.schema.types == expect.schema.types
    assert have.equals(expect)
    pd.testing.assert_frame_equal(got.to_pandas(), want.to_pandas())


@pytest.mark.parametrize("kind", READS)
def test_read_parquet_blocks_matches_read_parquet_in_process(
        ray_session, in_process, ordered, tmp_path, kind):
    """The same with the files read in-process on the driver."""
    test_read_parquet_blocks_matches_read_parquet(ray_session, None,
                                                  tmp_path, kind)


def test_read_parquet_blocks_above_guard_is_lazy(ray_session, tmp_path,
                                                 monkeypatch):
    """A read measuring more than the guard is the lazy ``read_parquet``."""
    path, _ = _write_input("multi_row_group", tmp_path)
    monkeypatch.setattr(aggregates, "DRIVER_FINAL_BYTES", 1000)
    got, runs = _executions(lambda: read_parquet_blocks(path))
    assert runs == 0 and not is_materialized(got)
    assert got.count() == 350


def test_read_parquet_blocks_guard_counts_decoded_bytes(ray_session,
                                                        tmp_path,
                                                        monkeypatch):
    """A dictionary-encoded column's pages hold indices: the guard weighs
    the Arrow bytes the read would hold, not the far smaller page bytes."""
    path = str(tmp_path / "low_cardinality.parquet")
    table = pa.table({"flag": pa.array(["AB", "CD"] * 50_000)})
    pq.write_table(table, path)
    pages = pq.read_metadata(path).row_group(0).column(0) \
        .total_uncompressed_size
    assert pages * 10 < table.nbytes
    monkeypatch.setattr(aggregates, "DRIVER_FINAL_BYTES", table.nbytes // 2)
    got, runs = _executions(lambda: read_parquet_blocks(path))
    assert runs == 0 and not is_materialized(got)

    # without min/max statistics a string's width is unknown: the
    # dictionary-encoded chunk keeps the read lazy under any guard
    bare = str(tmp_path / "no_statistics.parquet")
    pq.write_table(table, bare, write_statistics=False)
    chunk = pq.read_metadata(bare).row_group(0).column(0)
    assert chunk.has_dictionary_page and not chunk.is_stats_set
    monkeypatch.setattr(aggregates, "DRIVER_FINAL_BYTES", 1 << 40)
    got, runs = _executions(lambda: read_parquet_blocks(bare))
    assert runs == 0 and not is_materialized(got)
    assert got.count() == table.num_rows
    assert is_materialized(read_parquet_blocks(path))


def _materialized(kind: str):
    """A materialized Dataset of four blocks, Arrow or pandas."""
    import ray.data as rd

    tables = [_table(60, 60 * i) for i in range(4)]
    if kind == "arrow":
        return rd.from_arrow(tables).materialize()
    return rd.from_pandas([t.to_pandas() for t in tables]).materialize()


def _fns() -> dict:
    """name → (fn, batch_format); nested, so Ray tasks get them by value."""
    def keep_even(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["id"] % 2 == 0].assign(y=df["x"] * 2)

    def project(t: pa.Table) -> pa.Table:
        return pa.table({"id": t["id"], "maybe": t["maybe"]})

    def nothing(df: pd.DataFrame) -> pd.DataFrame:
        return df.iloc[:0]

    return {"pandas": (keep_even, "pandas"), "arrow": (project, "pyarrow"),
            "empty": (nothing, "pandas")}


FNS = sorted(_fns())


@pytest.mark.parametrize("blocks", ["arrow", "pandas"])
@pytest.mark.parametrize("fn", FNS)
def test_map_blocks_matches_map_batches(ray_session, fn, blocks):
    """Over a materialized Dataset within the guard: the rows, columns and
    dtypes of ``map_batches``, already materialized and without an
    execution — including a function whose every batch comes back empty."""
    func, batch_format = _fns()[fn]
    ds = _materialized(blocks)
    got, runs = _executions(lambda: map_blocks(ds, func, batch_format))
    assert runs == 0 and is_materialized(got)
    want = ds.map_batches(func, batch_format=batch_format)
    pd.testing.assert_frame_equal(got.to_pandas(), want.to_pandas())
    assert got.schema().names == want.schema().names


@pytest.mark.parametrize("blocks", ["arrow", "pandas"])
@pytest.mark.parametrize("fn", FNS)
def test_map_blocks_matches_map_batches_in_process(ray_session, in_process,
                                                   fn, blocks):
    """The same with every block mapped in-process on the driver."""
    test_map_blocks_matches_map_batches(ray_session, fn, blocks)


def test_map_blocks_lazy_branches(ray_session, monkeypatch):
    """A lazy input keeps its fused ``map_batches`` (it is not executed to
    take the pass), and so does a materialized one above the guard."""
    import ray.data as rd

    lazy = rd.range(100).map_batches(lambda b: b, batch_format="pyarrow")
    got, runs = _executions(
        lambda: map_blocks(lazy, lambda t: t, "pyarrow"))
    assert runs == 0 and not is_materialized(got)
    assert got.count() == 100

    ds = _materialized("arrow")
    monkeypatch.setattr(aggregates, "DRIVER_FINAL_BYTES",
                        ds.size_bytes() - 1)
    keep_even = _fns()["pandas"][0]
    got, runs = _executions(lambda: map_blocks(ds, keep_even, "pandas"))
    assert runs == 0 and not is_materialized(got)
    pd.testing.assert_frame_equal(
        got.to_pandas(),
        ds.map_batches(keep_even, batch_format="pandas").to_pandas())


# the ``operator_mix`` benchmark workload's queries
OPERATOR_MIX = ["revenue_by_nation", "customers_with_orders",
                "orders_without_lineitems", "events_last_order",
                "exact_dedup", "user_sessions"]
TABLES = ["customer", "nation", "orders", "lineitem", "events", "documents"]


def _digest(df: pd.DataFrame) -> int:
    """Row-order-insensitive hash of a query result's values; ints hash as
    int64 and floats as float64 rounded to 6 places, so an int column that
    comes back float64 changes it."""
    df = df.reindex(sorted(df.columns), axis=1).copy()
    for c in df.columns:
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64").round(6)
        elif pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = pd.to_datetime(df[c]).astype("datetime64[us]")
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    return int(pd.util.hash_pandas_object(df, index=False).sum())


def _oracle_digests(sf_dir: str) -> dict[str, int]:
    from mannheimsearchjoinsengine_ray.pipelines.queries import ORACLE_SQL

    con = duckdb.connect()
    try:
        for t in TABLES:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"read_parquet('{sf_dir}/{t}.parquet')")
        return {q: _digest(con.execute(ORACLE_SQL[q]).df())
                for q in OPERATOR_MIX}
    finally:
        con.close()


def _run_queries(sf_dir: str) -> tuple[dict[str, int], dict[str, int]]:
    """→ per query (result digest, Ray Data executions started)."""
    from mannheimsearchjoinsengine_ray.pipelines.queries import QUERIES

    digests, runs = {}, {}
    for q in OPERATOR_MIX:
        out, runs[q] = _executions(lambda: QUERIES[q](sf_dir))
        digests[q] = _digest(out if isinstance(out, pd.DataFrame)
                             else out.to_pandas())
    return digests, runs


def test_operator_mix_starts_no_execution(ray_session, in_process, sf_dir):
    """At one CPU slot the six ``operator_mix`` queries read their tables,
    join, dedupe and aggregate without a single Ray Data execution (18
    before reads and passes over materialized blocks went through
    ``run_blocks``), and still match their DuckDB oracles."""
    digests, runs = _run_queries(sf_dir)
    assert runs == {q: 0 for q in OPERATOR_MIX}
    assert digests == _oracle_digests(sf_dir)


def test_operator_mix_exchange_path_same_results(ray_session, exchange_path,
                                                 in_process, sf_dir):
    """With the guard forced off, reads stay lazy, ``map_blocks`` runs
    ``map_batches`` and every exchange sorts — the six results are the
    same."""
    digests, runs = _run_queries(sf_dir)
    assert all(runs[q] > 0 for q in OPERATOR_MIX)
    assert digests == _oracle_digests(sf_dir)


def _tasks(run):
    """(``run()``'s result, the number of Ray tasks it submitted)."""
    from ray.remote_function import RemoteFunction

    count = [0]
    real_remote = RemoteFunction._remote

    def remote(self, *args, **kwargs):
        count[0] += 1
        return real_remote(self, *args, **kwargs)

    RemoteFunction._remote = remote
    try:
        out = run()
    finally:
        RemoteFunction._remote = real_remote
    return out, count[0]


def test_operator_mix_submits_no_task(ray_session, in_process, sf_dir):
    """At one CPU slot the six ``operator_mix`` queries submit no Ray task
    either: blocks held by the driver become a Dataset through
    ``from_blocks``, whose block metadata is read in-process
    (``from_arrow``/``from_pandas`` ran one metadata task per block)."""
    from mannheimsearchjoinsengine_ray.pipelines.queries import QUERIES

    tasks = {q: _tasks(lambda: QUERIES[q](sf_dir))[1] for q in OPERATOR_MIX}
    assert tasks == {q: 0 for q in OPERATOR_MIX}


def test_materialized_keeps_an_executed_dataset(ray_session):
    """``materialized`` hands back the output of ``materialize()`` or of a
    driver pass as it is, and materializes anything else once."""
    import ray.data as rd

    done = rd.range(8).materialize()
    assert aggregates.materialized(done) is done
    passed = map_blocks(done, lambda t: t, "pyarrow")
    assert aggregates.materialized(passed) is passed
    assert passed.take_all() == done.take_all()
    for ds in (rd.range(8).map_batches(lambda b: b),
               rd.from_arrow(pa.table({"id": list(range(8))}))):
        got = aggregates.materialized(ds)
        assert got is not ds and is_materialized(got)
        assert sorted(r["id"] for r in got.take_all()) == list(range(8))
