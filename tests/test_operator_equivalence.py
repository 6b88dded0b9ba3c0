"""Operator equivalence vs pure-pandas ground truth on randomized inputs —
the distributed operators must match single-process semantics exactly."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from mannheimsearchjoinsengine_ray.stages.aggregates import dedupe_by_key, two_phase_agg
from mannheimsearchjoinsengine_ray.stages.joins import asof_join, bucket_join


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(123)


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(9)
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[ns]")
        if df[c].dtype == object:  # pandas pads NaN, Arrow None
            df[c] = df[c].where(df[c].notna(), None)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_bucket_join_matches_pandas(ray_session, rng):
    import ray.data as rd

    left = pd.DataFrame({
        "k": rng.integers(0, 50, size=500),
        "a": rng.standard_normal(500),
    })
    right = pd.DataFrame({
        "rk": rng.integers(0, 60, size=200),
        "b": rng.integers(0, 1000, size=200),
    })
    got = bucket_join(rd.from_pandas(left).repartition(4),
                      rd.from_pandas(right).repartition(3),
                      "k", "rk", bucket_count=8).to_pandas()
    want = left.merge(right, left_on="k", right_on="rk").drop(columns="rk")
    pd.testing.assert_frame_equal(_norm(got), _norm(want), check_dtype=False)


def test_asof_join_matches_pandas(ray_session, rng):
    import ray.data as rd

    left = pd.DataFrame({
        "k": rng.integers(0, 10, size=300),
        "ts": pd.to_datetime(rng.integers(0, 10**6, size=300), unit="s"),
        "x": np.arange(300),
    })
    right = pd.DataFrame({
        "rk": rng.integers(0, 10, size=80),
        "rts": pd.to_datetime(rng.integers(0, 10**6, size=80), unit="s"),
        "y": np.arange(80),
    }).drop_duplicates(["rk", "rts"])
    got = asof_join(rd.from_pandas(left).repartition(4),
                    rd.from_pandas(right).repartition(2),
                    "k", "rk", "ts", "rts", bucket_count=4).to_pandas()
    want = pd.merge_asof(
        left.sort_values(["ts", "k"]),
        right.rename(columns={"rk": "k"}).sort_values(["rts", "k"]),
        left_on="ts", right_on="rts", by="k", direction="backward")
    want = want[want["rts"].notna()]
    pd.testing.assert_frame_equal(_norm(got), _norm(want), check_dtype=False)


def test_two_phase_agg_matches_pandas(ray_session, rng):
    import ray.data as rd

    df = pd.DataFrame({
        "g": rng.integers(0, 25, size=2000).astype(str),
        "v": rng.standard_normal(2000),
        "w": rng.integers(0, 100, size=2000),
    })
    got = two_phase_agg(rd.from_pandas(df).repartition(6), ["g"], {
        "s": ("v", "sum"), "mn": ("w", "min"), "mx": ("w", "max"),
        "avg": ("v", "mean"), "n": (None, "count"),
    }).to_pandas()
    want = df.groupby("g").agg(
        s=("v", "sum"), mn=("w", "min"), mx=("w", "max"),
        avg=("v", "mean"), n=("v", "size")).reset_index()
    pd.testing.assert_frame_equal(_norm(got), _norm(want),
                                  check_dtype=False, atol=1e-9, rtol=0)


def test_two_phase_agg_bucket_final_matches_pandas(ray_session, rng,
                                                   force_site):
    """The ``bucket_map`` site forced to its exchange: bucket-by-key-hash
    + per-bucket vectorized merge (the corpus-cardinality final).  Values,
    dtypes and columns must equal the driver path / plain pandas."""
    import ray.data as rd

    df = pd.DataFrame({
        "g": rng.integers(0, 500, size=4000).astype(str),
        "h": rng.integers(0, 3, size=4000),      # multi-key, non-string
        "v": rng.standard_normal(4000),
        "w": rng.integers(0, 100, size=4000),
    })
    spec = {
        "s": ("v", "sum"), "mn": ("w", "min"), "mx": ("w", "max"),
        "avg": ("v", "mean"), "n": (None, "count"),
    }
    force_site("bucket_map", False)
    got = two_phase_agg(rd.from_pandas(df).repartition(6), ["g", "h"],
                        spec).to_pandas()
    want = df.groupby(["g", "h"]).agg(
        s=("v", "sum"), mn=("w", "min"), mx=("w", "max"),
        avg=("v", "mean"), n=("v", "size")).reset_index()
    key = lambda d: d.sort_values(["g", "h"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(key(got), key(want),
                                  check_dtype=False, atol=1e-9, rtol=0)
    # driver path on the same input: identical values AND dtypes
    force_site("bucket_map", True)
    drv = two_phase_agg(rd.from_pandas(df).repartition(6),
                        ["g", "h"], spec).to_pandas()
    pd.testing.assert_frame_equal(key(got), key(drv), atol=1e-9, rtol=0)


@pytest.mark.parametrize("driver", [True, False], ids=["driver", "exchange"])
def test_two_phase_agg_string_min_max(ray_session, rng, force_site, driver):
    """min/max over a string column, on the driver finish and on the bucket
    final: nulls are skipped, an all-null group gives null, and a null key
    is a group of its own."""
    import ray.data as rd

    n = 1500
    t = rng.choice(["pear", "apple", "fig", "kiwi", "date"], n).astype(object)
    t[rng.random(n) < 0.3] = None
    g = rng.integers(0, 120, n).astype(str).astype(object)
    g[rng.random(n) < 0.05] = None
    t[g == "7"] = None
    df = pd.DataFrame({"g": g, "t": t})
    want: dict = {}
    for k, v in zip(g, t):
        lo, hi, c = want.get(k, (None, None, 0))
        if v is not None:
            lo, hi = (v, v) if lo is None else (min(lo, v), max(hi, v))
        want[k] = (lo, hi, c + 1)
    assert want["7"][:2] == (None, None) and None in want
    force_site("bucket_map", driver)
    got = _norm(two_phase_agg(
        rd.from_pandas(df).repartition(6), ["g"],
        {"lo": ("t", "min"), "hi": ("t", "max"),
         "n": (None, "count")}).to_pandas())
    assert {r.g: (r.lo, r.hi, r.n) for r in got.itertuples()} == want
    assert len(got) == len(want)


def test_dedupe_by_key_matches_pandas(ray_session, rng):
    import ray.data as rd

    df = pd.DataFrame({
        "id": rng.integers(0, 100, size=1000).astype(str),
        "payload": rng.integers(0, 10, size=1000),
    })
    # payload must be a function of id for order-independent equality
    df["payload"] = df["id"].astype(int) % 7
    got = dedupe_by_key(rd.from_pandas(df).repartition(5), "id").to_pandas()
    want = df.drop_duplicates("id")
    assert sorted(got["id"]) == sorted(want["id"])
    assert dict(zip(got["id"], got["payload"])) == \
        dict(zip(want["id"], want["payload"]))


def test_bucket_anti_join_matches_pandas(ray_session, rng):
    import ray.data as rd

    from mannheimsearchjoinsengine_ray.stages.joins import bucket_anti_join

    left = pd.DataFrame({"k": rng.integers(0, 500, 2000),
                         "payload": rng.integers(0, 9, 2000)})
    right = pd.DataFrame({"rk": rng.integers(0, 300, 5000)})
    got = bucket_anti_join(rd.from_pandas(left), rd.from_pandas(right),
                           left_on="k", right_on="rk",
                           bucket_count=8).to_pandas()
    want = left[~left["k"].isin(set(right["rk"]))]
    a = got.sort_values(["k", "payload"]).reset_index(drop=True)
    b = want.sort_values(["k", "payload"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a.astype({"k": "int64", "payload": "int64"}), b)


def test_bloom_no_false_negatives(rng):
    from mannheimsearchjoinsengine_ray.functions.hashing import (
        bloom_contains,
        bloom_partial,
    )

    keys = rng.integers(0, 10**9, 20_000)
    half = len(keys) // 2
    bloom = bloom_partial(keys[:half]) | bloom_partial(keys[half:])
    assert bloom_contains(bloom, keys).all()  # no false negatives, ever
    absent = rng.integers(2 * 10**9, 3 * 10**9, 20_000)
    fp = bloom_contains(bloom, absent).mean()
    assert fp < 0.01  # 4 MiB filter, 20k keys -> tiny fp rate
    assert not bloom_contains(bloom, np.array([], dtype=np.int64)).any()


def test_bucket_join_heavy_skew(ray_session, rng):
    """One key holds 50% of the probe side (the hot-key regime): the join
    must stay correct (the salting note in joins.py is about speed, never
    correctness)."""
    import ray.data as rd

    from mannheimsearchjoinsengine_ray.stages.joins import bucket_join

    n = 20_000
    keys = np.where(rng.random(n) < 0.5, 7, rng.integers(0, 1000, n))
    left = pd.DataFrame({"k": keys, "payload": np.arange(n)})
    right = pd.DataFrame({"rk": np.arange(1000), "dim": np.arange(1000) * 10})
    got = bucket_join(rd.from_pandas(left), rd.from_pandas(right),
                      left_on="k", right_on="rk", bucket_count=8).to_pandas()
    want = left.merge(right, left_on="k", right_on="rk")[["k", "payload", "dim"]]
    a = got[["k", "payload", "dim"]].sort_values(["k", "payload"]) \
        .reset_index(drop=True).astype("int64")
    b = want.sort_values(["k", "payload"]).reset_index(drop=True).astype("int64")
    pd.testing.assert_frame_equal(a, b)
    # the hot key dominates and every copy survives
    assert (a["k"] == 7).sum() == (keys == 7).sum()


@pytest.mark.parametrize("hot_key", [7, 10, 13])
def test_bucket_join_salted_equivalence(ray_session, rng, hot_key):
    """Salted join (hot probe rows spread, hot build rows replicated) must
    produce exactly the unsalted result, for inner and left joins.  Two
    salts of key 10 or 13 share one of the 32 exchange buckets, and the
    driver finish holds every salt in one call: rows match on (key, salt)
    or a probe row meets the replicated build rows more than once."""
    import ray.data as rd

    from mannheimsearchjoinsengine_ray.stages.joins import (
        bucket_join,
        detect_hot_keys,
    )

    n = 30_000
    keys = np.where(rng.random(n) < 0.4, hot_key,
                    rng.integers(0, 500, n))
    left = pd.DataFrame({"k": keys, "payload": np.arange(n)})
    right = pd.DataFrame({"rk": np.concatenate([np.arange(400),
                                                [hot_key] * 3]),
                          "dim": np.arange(403)})      # hot key also dup'd
    lds, rds = rd.from_pandas(left), rd.from_pandas(right)
    hot = detect_hot_keys(lds, "k", min_count=5000)
    assert hot_key in hot

    for how in ("inner", "left"):
        plain = bucket_join(rd.from_pandas(left), rd.from_pandas(right),
                            "k", "rk", bucket_count=8, how=how).to_pandas()
        salted = bucket_join(rd.from_pandas(left), rd.from_pandas(right),
                             "k", "rk", bucket_count=8, how=how,
                             salt=4, hot_keys=hot).to_pandas()
        cols = ["k", "payload", "dim"]
        a = plain[cols].sort_values(cols).reset_index(drop=True)
        b = salted[cols].sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(a.astype("float64"), b.astype("float64"))


def test_bucket_semi_join_matches_pandas(ray_session, rng):
    import ray.data as rd

    from mannheimsearchjoinsengine_ray.stages.joins import bucket_semi_join

    left = pd.DataFrame({"k": rng.integers(0, 500, 2000),
                         "payload": rng.integers(0, 9, 2000)})
    right = pd.DataFrame({"rk": rng.integers(0, 300, 5000)})
    got = bucket_semi_join(rd.from_pandas(left), rd.from_pandas(right),
                           left_on="k", right_on="rk",
                           bucket_count=8).to_pandas()
    want = left[left["k"].isin(set(right["rk"]))]
    a = got.sort_values(["k", "payload"]).reset_index(drop=True)
    b = want.sort_values(["k", "payload"]).reset_index(drop=True)
    # Arrow types keep int64 through the null-padded exchange
    pd.testing.assert_frame_equal(a, b)
    assert a["k"].dtype == np.int64 and a["payload"].dtype == np.int64


def test_bucket_join_auto_plan_salts_on_skew(ray_session, rng):
    """With bucket_count=None (full auto) a 50%-skewed probe side must pick
    salt > 1 WITHOUT the caller asking, and the result must equal the
    explicit unsalted join."""
    import ray.data as rd

    from mannheimsearchjoinsengine_ray.stages import aggregates, joins

    n = 20_000
    keys = np.where(rng.random(n) < 0.5, 7, rng.integers(0, 1000, n))
    left = pd.DataFrame({"k": keys, "payload": np.arange(n)})
    right = pd.DataFrame({"rk": np.arange(1000), "dim": np.arange(1000) * 10})
    with aggregates.record_passes() as record:
        got = joins.bucket_join(rd.from_pandas(left), rd.from_pandas(right),
                                left_on="k", right_on="rk",
                                skew_threshold=1000).to_pandas()
    [plan] = [d for d in record.decisions if d["site"] == "joins.auto_plan"]
    assert plan["salt"] > 1
    assert 7 in plan["hot_keys"]
    want = left.merge(right, left_on="k", right_on="rk")[["k", "payload", "dim"]]
    a = got[["k", "payload", "dim"]].sort_values(["k", "payload"]) \
        .reset_index(drop=True)
    b = want.sort_values(["k", "payload"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)  # Arrow dtypes -> exact compare


def test_bucket_join_dtype_restore(ray_session, rng):
    """int64/float64/timestamp columns survive the null-padded exchange
    with their dtypes intact (no .astype masking in the assert)."""
    import ray.data as rd

    from mannheimsearchjoinsengine_ray.stages.joins import bucket_join

    left = pd.DataFrame({
        "k": rng.integers(0, 50, 500),
        "li": rng.integers(0, 10**9, 500),
        "lf": rng.random(500),
        "lt": pd.to_datetime("2024-01-01")
              + pd.to_timedelta(rng.integers(0, 10**6, 500), unit="s"),
    })
    right = pd.DataFrame({"rk": np.arange(50), "ri": np.arange(50) * 7})
    got = bucket_join(rd.from_pandas(left), rd.from_pandas(right),
                      "k", "rk", bucket_count=8).to_pandas()
    assert got["k"].dtype == np.int64
    assert got["li"].dtype == np.int64
    assert got["ri"].dtype == np.int64
    assert got["lf"].dtype == np.float64
    assert str(got["lt"].dtype).startswith("datetime64")
    want = left.merge(right, left_on="k", right_on="rk")
    assert len(got) == len(want)
    assert int(got["li"].sum()) == int(want["li"].sum())


def _blocks(df: pd.DataFrame, fmt: str, n: int):
    """``df`` as a Dataset of ``n`` blocks, Arrow or pandas."""
    import ray.data as rd

    parts = [df.iloc[i * len(df) // n:(i + 1) * len(df) // n]
             .reset_index(drop=True) for i in range(n)]
    if fmt == "pandas":
        return rd.from_pandas(parts)
    return rd.from_arrow([pa.Table.from_pandas(p, preserve_index=False)
                          for p in parts])


def test_join_interiors_equivalent(ray_session, rng):
    """The Arrow interior matches plain pandas — ``pd.merge`` for
    inner/left/right/outer joins, ``isin`` for semi/anti — in values AND
    dtypes, whether the sides arrive in Arrow blocks or in pandas blocks
    (which the tag maps convert to Arrow)."""
    from mannheimsearchjoinsengine_ray.stages.joins import (
        bucket_anti_join,
        bucket_join,
        bucket_semi_join,
    )

    left = pd.DataFrame({
        "k": rng.integers(0, 40, 600),
        "li": rng.integers(0, 10**9, 600),
        "ls": rng.integers(0, 10, 600).astype(str),
        "lt": pd.to_datetime("2024-01-01")
              + pd.to_timedelta(rng.integers(0, 10**6, 600), unit="s"),
        "ln": [None] * 600,  # no row types it: Arrow type null
    })
    right = pd.DataFrame({
        "rk": rng.integers(0, 55, 120),
        "rf": rng.random(120),
    })
    renamed = right.rename(columns={"rk": "k"})
    want = {how: left.merge(renamed, on="k", how=how)
            for how in ("inner", "left", "right", "outer")}
    matched = left["k"].isin(right["rk"])
    want["semi"], want["anti"] = left[matched], left[~matched]

    for fmt in ("arrow", "pandas"):
        l, r = _blocks(left, fmt, 5), _blocks(right, fmt, 3)
        got = {how: bucket_join(l, r, "k", "rk", how=how, bucket_count=8)
               for how in ("inner", "left", "right", "outer")}
        got["semi"] = bucket_semi_join(l, r, left_on="k", right_on="rk",
                                       bucket_count=8)
        got["anti"] = bucket_anti_join(l, r, left_on="k", right_on="rk",
                                       bucket_count=8)
        for name, ds in got.items():
            pd.testing.assert_frame_equal(
                _norm(ds.to_pandas()), _norm(want[name]),
                obj=f"{fmt} {name}")


def test_bucket_join_salted_null_keys(ray_session, rng):
    """The salted plan follows SQL: a NULL key on either side never
    matches, on an auto plan that really salts (a hot key plus NULL keys
    on both sides), for inner and left joins."""
    import ray.data as rd

    from mannheimsearchjoinsengine_ray.stages import aggregates, joins

    n = 20_000
    keys = pd.array(np.where(rng.random(n) < 0.5, 7,
                             rng.integers(0, 300, n)), dtype="Int64")
    keys[rng.random(n) < 0.1] = pd.NA
    left = pd.DataFrame({"k": keys, "payload": np.arange(n)})
    right = pd.DataFrame({
        "rk": pd.array(list(range(300)) + [None] * 5, dtype="Int64"),
        "dim": np.arange(305)})
    want = {how: left.merge(right.dropna(subset=["rk"]), left_on="k",
                            right_on="rk", how=how)
            for how in ("inner", "left")}
    for how, ref in want.items():
        with aggregates.record_passes() as record:
            got = joins.bucket_join(
                rd.from_arrow(pa.Table.from_pandas(left)).repartition(4),
                rd.from_arrow(pa.Table.from_pandas(right)).repartition(2),
                left_on="k", right_on="rk", how=how,
                skew_threshold=1000).to_pandas()
        [plan] = [d for d in record.decisions
                  if d["site"] == "joins.auto_plan"]
        assert plan["salt"] > 1
        assert 7 in plan["hot_keys"]
        cols = ["payload", "k", "dim"]
        a = got[cols].sort_values("payload").reset_index(drop=True)
        b = ref[cols].sort_values("payload").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False, obj=how)
        assert len(got) == (len(left) if how == "left"
                            else int(left["k"].notna().sum()))


def test_bucket_join_timestamp_key_units(ray_session, exchange_path):
    """A timestamp key read in microseconds on one side and held in
    nanoseconds (pandas blocks) on the other joins on its instant: every
    block is cast to the unified type before hashing, so the key lands in
    one bucket from both sides."""
    import ray.data as rd

    from mannheimsearchjoinsengine_ray.stages.joins import bucket_join

    keys = pd.Timestamp("2024-01-01") + pd.to_timedelta(np.arange(50),
                                                        unit="h")
    left = pa.table({"k": pa.array(keys.to_numpy().astype("datetime64[us]")),
                     "a": np.arange(50)})
    right = pd.DataFrame({"rk": keys[::2], "b": np.arange(25)})
    got = bucket_join(rd.from_arrow(left).repartition(3),
                      rd.from_pandas([right[:12], right[12:]]),
                      "k", "rk", bucket_count=8).to_pandas()
    assert sorted(zip(got["a"], got["b"])) == [(2 * i, i) for i in range(25)]


def test_bucket_join_signed_zero_float_keys(ray_session, exchange_path):
    """Float keys -0.0 and 0.0 are one key on the exchange path, as in
    ``pd.merge``: the bucket hash reads both as "0"."""
    import ray.data as rd

    left = pd.DataFrame({"k": [-0.0, 0.0, 1.5, -2.0, 0.0],
                         "a": np.arange(5)})
    right = pd.DataFrame({"rk": [0.0, -0.0, 1.5, 2.0], "b": np.arange(4)})
    got = bucket_join(rd.from_arrow(pa.Table.from_pandas(left)).repartition(2),
                      rd.from_arrow(pa.Table.from_pandas(right)),
                      "k", "rk", bucket_count=8).to_pandas()
    want = left.merge(right, left_on="k", right_on="rk")
    assert len(want) == 7
    assert sorted(zip(got["a"], got["b"])) == sorted(zip(want["a"], want["b"]))


def _asof_case(name: str):
    """→ (left, right, inner) for one as-of edge case; keys ``k``/``rk``,
    timestamps ``ts``/``rts``, right unique per (key, ts)."""
    base = pd.Timestamp("2024-01-01")
    sec = lambda v: base + pd.to_timedelta(v, unit="s")
    if name == "right_side_missing_keys":
        # keys 5..9 have no right rows: their buckets hold left rows only
        left = pd.DataFrame({"k": np.arange(40) % 10,
                             "ts": sec(np.arange(40) * 10), "x": np.arange(40)})
        right = pd.DataFrame({"rk": np.arange(10) % 5,
                              "rts": sec(np.arange(10) * 25),
                              "y": np.arange(10)})
        return left, right, True
    if name == "left_outer":
        left = pd.DataFrame({"k": [1, 1, 2, 3, 3], "ts": sec([5, 50, 5, 1, 9]),
                             "x": np.arange(5)})
        right = pd.DataFrame({"rk": [1, 3, 3, 4], "rts": sec([10, 2, 9, 1]),
                              "y": np.arange(4)})
        return left, right, False
    if name == "tie":
        # backward is inclusive: right ts == left ts matches
        left = pd.DataFrame({"k": [1, 1, 2], "ts": sec([10, 20, 7]),
                             "x": np.arange(3)})
        right = pd.DataFrame({"rk": [1, 1, 2], "rts": sec([10, 15, 7]),
                              "y": np.arange(3)})
        return left, right, True
    if name == "across_epoch":
        # negative ticks before 1970, positive after
        at = lambda v: pd.Timestamp("1969-12-31 23:59:55") \
            + pd.to_timedelta(v, unit="s")
        left = pd.DataFrame({"k": [1, 1, 1, 2], "ts": at([0, 3, 8, 9]),
                             "x": np.arange(4)})
        right = pd.DataFrame({"rk": [1, 1, 2], "rts": at([1, 7, 2]),
                              "y": np.arange(3)})
        return left, right, True
    if name == "float_key":
        # an int key holding a null, as a pandas block carries it: float64;
        # the null right key sits after every left ts, so pandas, which
        # matches NaN with NaN, cannot pair it either
        left = pd.DataFrame({"k": [1.0, np.nan, 2.0, 1.0],
                             "ts": sec([5, 6, 7, 8]), "x": np.arange(4)})
        right = pd.DataFrame({"rk": [1.0, 2.0, np.nan], "rts": sec([4, 8, 99]),
                              "y": np.arange(3)})
        return left, right, False
    assert name == "us_vs_ns"
    # left in microseconds, right in nanoseconds off the microsecond grid
    ns = lambda v: pd.to_datetime(np.asarray(v, dtype="int64"), unit="ns")
    left = pd.DataFrame({"k": [1, 1, 1, 2],
                         "ts": ns([5000, 6000, 7000, 5000])
                         .astype("datetime64[us]"),
                         "x": np.arange(4)})
    right = pd.DataFrame({"rk": [1, 1, 2], "rts": ns([5500, 6000, 4999]),
                          "y": np.arange(3)})
    return left, right, True


@pytest.mark.parametrize("case", ["right_side_missing_keys", "left_outer",
                                  "tie", "across_epoch", "float_key",
                                  "us_vs_ns"])
def test_asof_join_edge_cases(ray_session, case):
    """``asof_join`` against ``pd.merge_asof(direction="backward")`` on
    both sides' timestamps in nanoseconds."""
    import ray.data as rd

    left, right, inner = _asof_case(case)
    got = asof_join(rd.from_pandas(left).repartition(2),
                    rd.from_pandas(right).repartition(2),
                    "k", "rk", "ts", "rts", bucket_count=4,
                    inner=inner).to_pandas()
    want = pd.merge_asof(
        left.astype({"ts": "datetime64[ns]"}).sort_values("ts"),
        right.rename(columns={"rk": "k"}).sort_values("rts"),
        left_on="ts", right_on="rts", by="k", direction="backward")
    if inner:
        want = want[want["rts"].notna()]
    assert len(got) == len(want)
    pd.testing.assert_frame_equal(_norm(got), _norm(want), check_dtype=False)


# the join equivalence tests again, with every exchange running its sort


def test_bucket_join_matches_pandas_exchange(ray_session, exchange_path, rng):
    test_bucket_join_matches_pandas(ray_session, rng)


def test_asof_join_matches_pandas_exchange(ray_session, exchange_path, rng):
    test_asof_join_matches_pandas(ray_session, rng)


@pytest.mark.parametrize("case", ["right_side_missing_keys", "left_outer"])
def test_asof_join_edge_cases_exchange(ray_session, exchange_path, case):
    test_asof_join_edge_cases(ray_session, case)


def test_bucket_semi_join_matches_pandas_exchange(ray_session, exchange_path,
                                                  rng):
    test_bucket_semi_join_matches_pandas(ray_session, rng)


def test_bucket_anti_join_matches_pandas_exchange(ray_session, exchange_path,
                                                  rng):
    test_bucket_anti_join_matches_pandas(ray_session, rng)


@pytest.mark.parametrize("hot_key", [7, 10, 13])
def test_bucket_join_salted_equivalence_exchange(ray_session, exchange_path,
                                                 rng, hot_key):
    test_bucket_join_salted_equivalence(ray_session, rng, hot_key)
