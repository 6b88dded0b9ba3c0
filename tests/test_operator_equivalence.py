"""Operator equivalence vs pure-pandas ground truth on randomized inputs —
the distributed operators must match single-process semantics exactly."""

from __future__ import annotations

import numpy as np
import pandas as pd
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


def test_two_phase_agg_bucket_final_matches_pandas(ray_session, rng):
    """driver_final_bytes=0 forces the above-guard path: bucket-by-key-hash
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
    got = two_phase_agg(rd.from_pandas(df).repartition(6), ["g", "h"], spec,
                        driver_final_bytes=0).to_pandas()
    want = df.groupby(["g", "h"]).agg(
        s=("v", "sum"), mn=("w", "min"), mx=("w", "max"),
        avg=("v", "mean"), n=("v", "size")).reset_index()
    key = lambda d: d.sort_values(["g", "h"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(key(got), key(want),
                                  check_dtype=False, atol=1e-9, rtol=0)
    # driver path on the same input: identical values AND dtypes
    drv = two_phase_agg(rd.from_pandas(df).repartition(6),
                        ["g", "h"], spec).to_pandas()
    pd.testing.assert_frame_equal(key(got), key(drv), atol=1e-9, rtol=0)


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
    # dtype restore keeps int64 through the None-padded exchange
    pd.testing.assert_frame_equal(a, b)
    assert a["k"].dtype == np.int64 and a["payload"].dtype == np.int64


def test_bucket_join_auto_plan_salts_on_skew(ray_session, rng):
    """With bucket_count=None (full auto) a 50%-skewed probe side must pick
    salt > 1 WITHOUT the caller asking, and the result must equal the
    explicit unsalted join."""
    import ray.data as rd

    from mannheimsearchjoinsengine_ray.stages import joins

    n = 20_000
    keys = np.where(rng.random(n) < 0.5, 7, rng.integers(0, 1000, n))
    left = pd.DataFrame({"k": keys, "payload": np.arange(n)})
    right = pd.DataFrame({"rk": np.arange(1000), "dim": np.arange(1000) * 10})
    got = joins.bucket_join(rd.from_pandas(left), rd.from_pandas(right),
                            left_on="k", right_on="rk",
                            skew_threshold=1000).to_pandas()
    assert joins.last_auto_plan["salt"] > 1
    assert 7 in joins.last_auto_plan["hot_keys"]
    want = left.merge(right, left_on="k", right_on="rk")[["k", "payload", "dim"]]
    a = got[["k", "payload", "dim"]].sort_values(["k", "payload"]) \
        .reset_index(drop=True)
    b = want.sort_values(["k", "payload"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)  # dtypes restored -> exact compare


def test_bucket_join_dtype_restore(ray_session, rng):
    """int64/float64/timestamp columns survive the None-padded exchange with
    their dtypes intact (no .astype masking in the assert)."""
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


def test_join_interiors_equivalent(ray_session, rng, monkeypatch):
    """The Arrow interior (default) and the pandas interior
    (GRAFT_JOIN_IMPL=pandas) must produce identical frames AND dtypes for
    inner/left/right/outer joins and for semi/anti — the env switch exists
    for A/B and as the non-Arrow-schema fallback, so divergence here would
    make the fallback silently change answers.  Inputs are ARROW-backed
    (from_arrow): from_pandas datasets have no Arrow-resolvable schema and
    always fall back to pandas, which would make this test vacuous — each
    leg asserts via joins.last_interior that it really took its path."""
    import pyarrow as pa
    import ray.data as rd

    from mannheimsearchjoinsengine_ray.stages import joins
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
    })
    right = pd.DataFrame({
        "rk": rng.integers(0, 55, 120),
        "rf": rng.random(120),
    })

    def run_all(expect_interior):
        l = rd.from_arrow(pa.Table.from_pandas(left)).repartition(5)
        r = rd.from_arrow(pa.Table.from_pandas(right)).repartition(3)
        out = {}
        for how in ("inner", "left", "right", "outer"):
            res = bucket_join(l, r, "k", "rk", how=how, bucket_count=8)
            assert joins.last_interior == expect_interior
            out[how] = res.to_pandas()
        out["semi"] = bucket_semi_join(l, r, left_on="k", right_on="rk",
                                       bucket_count=8).to_pandas()
        assert joins.last_interior == expect_interior
        out["anti"] = bucket_anti_join(l, r, left_on="k", right_on="rk",
                                       bucket_count=8).to_pandas()
        assert joins.last_interior == expect_interior
        return out

    monkeypatch.setenv("GRAFT_JOIN_IMPL", "arrow")
    arrow = run_all("arrow")
    monkeypatch.setenv("GRAFT_JOIN_IMPL", "pandas")
    pandas_ = run_all("pandas")

    for name in arrow:
        a, b = _norm(arrow[name]), _norm(pandas_[name])
        pd.testing.assert_frame_equal(a, b, check_dtype=False,
                                      obj=f"{name} interior mismatch")
        # dtype parity where no nulls force a representation choice
        for c in a.columns:
            if not a[c].isna().any() and not b[c].isna().any():
                assert a[c].dtype == b[c].dtype, (name, c, a[c].dtype,
                                                  b[c].dtype)


# the join equivalence tests again, with every exchange running its sort


def test_bucket_join_matches_pandas_exchange(ray_session, exchange_path, rng):
    test_bucket_join_matches_pandas(ray_session, rng)


def test_asof_join_matches_pandas_exchange(ray_session, exchange_path, rng):
    test_asof_join_matches_pandas(ray_session, rng)


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
