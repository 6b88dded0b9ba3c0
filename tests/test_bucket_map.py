"""``aggregates.bucket_map`` — the one hash-bucket exchange — on adversarial
shapes, plus guards that keep the exchange from being hand-rolled again and
every size choice on ``aggregates.fits``."""

from __future__ import annotations

import pathlib
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from mannheimsearchjoinsengine_ray.stages.aggregates import bucket_map

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "mannheimsearchjoinsengine_ray"


def _shape(name: str):
    """→ (list of input frames, key).  Frames listed together go through
    one bucket_map call as separate sides."""
    n = 300
    if name == "empty":
        return [pd.DataFrame({"k": pd.Series([], dtype=object),
                              "v": pd.Series([], dtype="int64")})], "k"
    if name == "hot_key":
        return [pd.DataFrame({"k": ["hot"] * n, "v": np.arange(n)})], "k"
    if name == "null_keys":
        keys = [None if i % 3 == 0 else f"k{i % 7}" for i in range(n)]
        return [pd.DataFrame({"k": keys, "v": np.arange(n)})], "k"
    if name == "two_column_key":
        return [pd.DataFrame({"a": [f"a{i % 5}" for i in range(n)],
                              "b": np.arange(n) % 4,
                              "v": np.arange(n)})], ["a", "b"]
    if name == "int_keys":
        return [pd.DataFrame({"k": np.arange(n) % 37, "v": np.arange(n)})], "k"
    if name == "int_keys_nulls_in_one_block":
        # nulls only in the first of the three blocks: Ray hands that block
        # to pandas as float64 and the others as int64
        keys = pd.array([None if i < n // 3 and i % 4 == 0 else i % 37
                         for i in range(n)], dtype="Int64")
        return [pd.DataFrame({"k": keys, "v": np.arange(n)})], "k"
    if name == "datetime_keys":
        # the first two blocks fall on midnight, the third does not
        i = np.arange(n)
        days = pd.to_timedelta(i % 9, unit="D")
        hours = pd.to_timedelta(np.where((i >= 200) & (i % 50 == 49), 3, 0),
                                unit="h")
        return [pd.DataFrame({"k": pd.Timestamp("2024-01-01") + days + hours,
                              "v": i})], "k"
    if name == "signed_zero_float_keys":
        # -0.0 and 0.0 are one key (Arrow casts them to "-0" and "0")
        return [pd.DataFrame({"k": [(-0.0, 0.0, 1.5)[i % 3]
                                    for i in range(n)],
                              "v": np.arange(n)})], "k"
    if name == "string_keys":
        return [pd.DataFrame({"k": [str(i % 37) for i in range(n)],
                              "v": np.arange(n)})], "k"
    assert name == "two_sides"
    return [pd.DataFrame({"k": np.arange(n) % 37, "v": np.arange(n)}),
            pd.DataFrame({"k": np.arange(50) % 37,
                          "v": np.arange(n, n + 50)})], "k"


def _arrow(df: pd.DataFrame) -> pa.Table:
    """Arrow table without pandas metadata, as a parquet file written by
    Arrow reads: an int column holding a null reaches pandas as float64."""
    return pa.Table.from_pandas(df, preserve_index=False) \
        .replace_schema_metadata(None)


def _dataset(df: pd.DataFrame, arrow_blocks: bool):
    import ray.data as rd

    if arrow_blocks:
        return rd.from_arrow(_arrow(df)).repartition(3)
    # a pandas map keeps pandas blocks
    return rd.from_pandas(df).repartition(3).map_batches(
        lambda b: b, batch_format="pandas")


SHAPES = ["empty", "hot_key", "null_keys", "two_column_key", "int_keys",
          "int_keys_nulls_in_one_block", "datetime_keys",
          "signed_zero_float_keys", "string_keys", "two_sides"]


@pytest.mark.parametrize("batch_format", ["pandas", "pyarrow"])
@pytest.mark.parametrize("shape", SHAPES)
def test_bucket_map_key_in_one_call(ray_session, shape, batch_format):
    """Every key's rows reach exactly one fn call, fn never sees the bucket
    column, and the union of fn outputs is exactly the input.  Sides
    alternate Arrow and pandas blocks — both must hash a key the same
    way.  These inputs are small, so fn runs once on the driver."""
    frames, key = _shape(shape)
    keys = [key] if isinstance(key, str) else key
    sides = [_dataset(df, arrow_blocks=i % 2 == 0)
             for i, df in enumerate(frames)]

    def tag_call(group):
        call = uuid.uuid4().hex
        if batch_format == "pyarrow":
            assert isinstance(group, pa.Table)
            assert "__bucket" not in group.column_names
            return group.append_column(
                "call", pa.array([call] * group.num_rows, pa.string()))
        assert isinstance(group, pd.DataFrame)
        assert "__bucket" not in group.columns
        return group.assign(call=call)

    ds = sides if len(sides) > 1 else sides[0]
    out = bucket_map(ds, key, 4, tag_call, batch_format=batch_format) \
        .to_pandas()
    want = pd.concat(frames, ignore_index=True)
    if want.empty:
        assert len(out) == 0
        return
    calls = out.groupby(keys, dropna=False)["call"].nunique()
    assert (calls == 1).all(), calls[calls > 1]
    got = out.drop(columns="call")[list(want.columns)] \
        .sort_values("v").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want.sort_values("v").reset_index(
        drop=True), check_dtype=False)


@pytest.mark.parametrize("batch_format", ["pandas", "pyarrow"])
@pytest.mark.parametrize("shape", SHAPES)
def test_bucket_map_key_in_one_call_exchange(ray_session, exchange_path,
                                             shape, batch_format):
    """The same contract through the sort exchange."""
    test_bucket_map_key_in_one_call(ray_session, shape, batch_format)


def _sort_operators(run) -> list[int]:
    """Per Ray Data execution that ``run()`` starts, its number of
    all-to-all (sort) operators."""
    from ray.data._internal.execution.operators.base_physical_operator import (
        AllToAllOperator,
    )
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    counts: list[int] = []
    real_execute = StreamingExecutor.execute

    def execute(self, dag, *args, **kwargs):
        ops, todo = [], [dag]
        while todo:
            op = todo.pop()
            ops.append(op)
            todo.extend(op.input_dependencies)
        counts.append(sum(isinstance(op, AllToAllOperator) for op in ops))
        return real_execute(self, dag, *args, **kwargs)

    StreamingExecutor.execute = execute
    try:
        run()
    finally:
        StreamingExecutor.execute = real_execute
    return counts


def _semi_join():
    import ray.data as rd

    from mannheimsearchjoinsengine_ray.stages.joins import bucket_semi_join

    left = pd.DataFrame({"k": np.arange(200) % 30, "v": np.arange(200)})
    right = pd.DataFrame({"rk": np.arange(0, 30, 3)})
    out = bucket_semi_join(rd.from_pandas([left.iloc[i:i + 70]
                                           for i in range(0, 200, 70)]),
                           rd.from_pandas(right), "k", "rk",
                           bucket_count=8).to_pandas()
    assert sorted(out["v"]) == [v for v in range(200) if v % 30 % 3 == 0]


def _user_sessions(sf_dir):
    from mannheimsearchjoinsengine_ray.pipelines.queries import q_user_sessions

    assert len(q_user_sessions(sf_dir)) > 0


@pytest.mark.parametrize("query", ["semi_join", "user_sessions"])
def test_small_exchange_runs_no_sort(ray_session, sf_dir, monkeypatch, query):
    """Under the driver guard a small semi join and ``q_user_sessions`` run
    no sort operator; with every exchange forced, exactly one."""
    from mannheimsearchjoinsengine_ray.stages import aggregates

    run = _semi_join if query == "semi_join" else \
        (lambda: _user_sessions(sf_dir))
    assert sum(_sort_operators(run)) == 0
    monkeypatch.setattr(aggregates, "DRIVER_FINAL_BYTES", -1)
    assert sum(_sort_operators(run)) == 1


@pytest.mark.parametrize("fmt", ["arrow", "pandas"])
def test_joins_nullable_int_key(ray_session, fmt):
    """Inner, semi and anti joins on an int key whose nulls sit in one of
    the left side's blocks match pandas, whether the blocks are Arrow (one
    int64 type) or pandas as Ray hands them out (float64 where the block
    holds a null, int64 elsewhere): the key 5 must hash the same in the
    block holding nulls as in the others."""
    import ray.data as rd

    from mannheimsearchjoinsengine_ray.stages import joins

    n = 300
    keys = pd.array([None if i < n // 3 and i % 4 == 0 else i % 37
                     for i in range(n)], dtype="Int64")
    left = pd.DataFrame({"k": keys, "v": np.arange(n)})
    right = pd.DataFrame({"rk": np.arange(0, 40, 2), "w": np.arange(20)})

    def sides():
        if fmt == "arrow":
            return (rd.from_arrow(_arrow(left)).repartition(3),
                    rd.from_arrow(_arrow(right)).repartition(2))
        thirds = [left.iloc[i * n // 3:(i + 1) * n // 3] for i in range(3)]
        blocks = [b.astype({"k": "float64" if b["k"].isna().any()
                            else "int64"}).reset_index(drop=True)
                  for b in thirds]
        return rd.from_pandas(blocks), rd.from_pandas([right[:10],
                                                       right[10:]])

    matched = left["k"].isin(right["rk"]).fillna(False).astype(bool)
    want = {"inner": left[matched].merge(right, left_on="k", right_on="rk")
            [["v", "w"]],
            "semi": left[matched][["v"]], "anti": left[~matched][["v"]]}
    got = {"inner": joins.bucket_join(*sides(), "k", "rk", bucket_count=8),
           "semi": joins.bucket_semi_join(*sides(), "k", "rk", bucket_count=8),
           "anti": joins.bucket_anti_join(*sides(), "k", "rk", bucket_count=8)}
    for name, ds in got.items():
        out = ds.to_pandas()
        cols = list(want[name].columns)
        pd.testing.assert_frame_equal(
            out[cols].sort_values("v").reset_index(drop=True),
            want[name].sort_values("v").reset_index(drop=True),
            check_dtype=False, obj=f"{fmt} {name}")


@pytest.mark.parametrize("fmt", ["arrow", "pandas"])
def test_joins_nullable_int_key_exchange(ray_session, exchange_path, fmt):
    test_joins_nullable_int_key(ray_session, fmt)


def test_bucket_column_only_in_aggregates():
    """The ``__bucket`` exchange idiom lives in ``stages/aggregates.py``
    alone; every other module goes through ``bucket_map``."""
    offenders = [
        str(p.relative_to(PACKAGE))
        for p in sorted(PACKAGE.rglob("*.py"))
        if "__bucket" in p.read_text(encoding="utf-8")
        and p.relative_to(PACKAGE).as_posix() != "stages/aggregates.py"
    ]
    assert offenders == [], f"hand-rolled bucket exchange in {offenders}"


# ``.map_groups(`` outside the exchange itself is one Ray task per group;
# these sites keep it on purpose, one group per output file
MAP_GROUPS_SITES = {
    "stages/aggregates.py",  # the bucket_map exchange
    "stages/ann.py",  # one IVF partition file per centroid
    "state/index.py",  # one index file per shard
    "pipelines/queries.py",  # one top-k frame per market segment
}


def test_map_groups_only_at_one_group_per_output_sites():
    """A keyed exchange goes through ``bucket_map``; ``.map_groups(``
    appears only in the exchange and the one-group-per-output-file sites."""
    offenders = [
        str(p.relative_to(PACKAGE))
        for p in sorted(PACKAGE.rglob("*.py"))
        if ".map_groups(" in p.read_text(encoding="utf-8")
        and p.relative_to(PACKAGE).as_posix() not in MAP_GROUPS_SITES
    ]
    assert offenders == [], f"per-group map_groups in {offenders}"


def test_no_actor_pools():
    """Stages run as task functions: no package source sizes an actor pool
    (``concurrency=``) or constructs a callable class per worker
    (``fn_constructor_kwargs``).  A fixed pool holds its CPU slots while
    the same execution's tasks wait for one; per-worker state goes in a
    module-level cache such as ``link._WORKER_CORES``."""
    offenders = [
        str(p.relative_to(PACKAGE))
        for p in sorted(PACKAGE.rglob("*.py"))
        if any(w in p.read_text(encoding="utf-8")
               for w in ("concurrency=", "fn_constructor_kwargs"))
    ]
    assert offenders == [], f"actor pool in {offenders}"


def test_one_join_interior():
    """Joins have one interior, Arrow: no package source reads a join
    interior switch (``GRAFT_JOIN_IMPL``), and ``stages/joins.py`` neither
    tags a side in pandas nor merges with pandas."""
    offenders = [
        str(p.relative_to(PACKAGE))
        for p in sorted(PACKAGE.rglob("*.py"))
        if "GRAFT_JOIN_IMPL" in p.read_text(encoding="utf-8")
    ]
    assert offenders == [], f"join interior switch in {offenders}"
    src = (PACKAGE / "stages" / "joins.py").read_text(encoding="utf-8")
    for word in ('batch_format="pandas"', ".merge(", "merge_asof"):
        assert word not in src, word


def test_link_merge_is_set_at_a_time():
    """The link merge neither pickles rows through the co-partitioned
    exchange nor finalizes one row at a time: ``stages/link.py`` imports
    no ``pickle`` and never calls ``finalize_candidates(``."""
    import ast

    src = (PACKAGE / "stages" / "link.py").read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
            imported.update(a.name for a in node.names)
    assert "pickle" not in imported
    assert "finalize_candidates(" not in src


def _trees():
    """(package-relative path, parsed module with ``.parent`` links) for
    every module of the package."""
    import ast

    for p in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(p.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                child.parent = node
        yield p.relative_to(PACKAGE).as_posix(), tree


def _enclosing_function(node) -> str | None:
    import ast

    while hasattr(node, "parent"):
        node = node.parent
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node.name
    return None


def test_one_size_threshold():
    """Every driver-or-distributed choice goes through ``aggregates.fits``:
    no module-level ``*_LIMIT``/``*_BYTES`` threshold exists besides
    ``DRIVER_FINAL_BYTES`` and the bucket sizing target, and
    ``DRIVER_FINAL_BYTES`` is read only by ``fits`` and the per-item
    budget ``driver_share``."""
    import ast
    import re

    thresholds, readers = [], []
    for path, tree in _trees():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            thresholds += [f"{path}:{t.id}" for t in targets
                           if isinstance(t, ast.Name)
                           and re.fullmatch(r"_?[A-Z0-9_]*_(LIMIT|BYTES)", t.id)]
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else None
            if name == "DRIVER_FINAL_BYTES" and isinstance(node.ctx, ast.Load):
                readers.append(f"{path}:{_enclosing_function(node)}")
    assert sorted(thresholds) == ["stages/aggregates.py:DRIVER_FINAL_BYTES",
                                  "stages/aggregates.py:_TARGET_BUCKET_BYTES"]
    assert set(readers) == {"stages/aggregates.py:fits",
                            "stages/aggregates.py:driver_share"}


def test_environment_read_only_for_bench_pages():
    """The package reads ``os.environ`` for ``GRAFT_BENCH_PAGES`` alone:
    no size guard or debug switch is set from the environment."""
    import ast

    keys = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("environ",
                                                                 "getenv"):
                use = node.parent
                if isinstance(use, ast.Attribute):
                    use = use.parent
                arg = use.args[0] if isinstance(use, ast.Call) and use.args \
                    else use.slice if isinstance(use, ast.Subscript) else None
                keys.append(arg.value if isinstance(arg, ast.Constant)
                            else f"{path}:{ast.unparse(use)}")
    assert keys == ["GRAFT_BENCH_PAGES"] * 2


def test_fits_sites_are_unique():
    """Every ``fits`` call names its site with a string literal of its own,
    so the decisions record and the ``force_site`` fixture tell the sites
    apart."""
    import ast
    import collections

    sites = collections.Counter()
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) == "fits"
                    or getattr(node.func, "attr", None) == "fits"):
                arg = node.args[0] if node.args else None
                assert isinstance(arg, ast.Constant) \
                    and isinstance(arg.value, str), \
                    f"{path}: {ast.unparse(node)}"
                sites[arg.value] += 1
    assert sites
    assert [s for s, n in sites.items() if n > 1] == []
