"""``canonicalize._band_pairs`` — the one vectorized LSH pair generator —
against a reference port of the per-band-group generator it replaced:
identical pair frames, payloads and dtypes."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from mannheimsearchjoinsengine_ray.config import PipelineConfig
from mannheimsearchjoinsengine_ray.stages import canonicalize as C

MAX_BLOCK = 50
BAND_COLS = ["band_idx", "band_hash", "id"]


def _ref_group_pairs(group: pd.DataFrame, max_block: int) -> pd.DataFrame:
    """One (band_idx, band_hash) group → its pairs, one group at a time."""
    g = group.drop_duplicates("id").sort_values("id")
    payload = [c for c in g.columns if c not in BAND_COLS]
    k = len(g)
    if k < 2:
        data = {"left_id": pd.Series(dtype=group["id"].dtype),
                "right_id": pd.Series(dtype=group["id"].dtype)}
        for c in payload:
            data[f"left_{c}"] = pd.Series(dtype=g[c].dtype)
            data[f"right_{c}"] = pd.Series(dtype=g[c].dtype)
        return pd.DataFrame(data)
    if k <= max_block:
        li, ri = np.triu_indices(k, 1)
    else:
        li = np.zeros(k - 1, dtype=np.int64)
        ri = np.arange(1, k, dtype=np.int64)
    data = {"left_id": g["id"].to_numpy()[li],
            "right_id": g["id"].to_numpy()[ri]}
    for c in payload:
        v = g[c].to_numpy()
        data[f"left_{c}"] = v[li]
        data[f"right_{c}"] = v[ri]
    return pd.DataFrame(data)


def _ref_band_pairs(blocked: pd.DataFrame, max_block: int) -> pd.DataFrame:
    """The per-group loop over every band group, in (band_idx, band_hash)
    order."""
    parts = [_ref_group_pairs(g, max_block)
             for _, g in blocked.groupby(["band_idx", "band_hash"], sort=True)]
    parts = [p for p in parts if len(p)]
    if not parts:
        return _ref_group_pairs(blocked.iloc[:0], max_block)
    return pd.concat(parts, ignore_index=True)


def _frame(rows, payload: dict | None = None) -> pd.DataFrame:
    """rows = [(band_idx, band_hash, id), ...] with int32 band_idx and
    int64 band_hash, as the blockers emit them."""
    df = pd.DataFrame({
        "band_idx": np.array([r[0] for r in rows], dtype=np.int32),
        "band_hash": np.array([r[1] for r in rows], dtype=np.int64),
        "id": pd.Series([r[2] for r in rows], dtype=object),
    })
    for name, values in (payload or {}).items():
        df[name] = values
    return df


def _assert_same(blocked: pd.DataFrame, max_block: int = MAX_BLOCK):
    got = C._band_pairs(blocked, max_block)
    want = _ref_band_pairs(blocked, max_block)
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want,
                                  check_index_type=False)
    return got


def test_empty_input():
    blocked = _frame([], {"name": pd.Series([], dtype=object)})
    got = _assert_same(blocked)
    assert list(got.columns) == ["left_id", "right_id", "left_name",
                                 "right_name"]
    assert got.empty


def test_singleton_groups_only():
    blocked = _frame([(0, 1, "a"), (0, 2, "b"), (1, 1, "c")],
                     {"name": ["x", "y", "z"]})
    assert _assert_same(blocked).empty


@pytest.mark.parametrize("k", [2, 3, MAX_BLOCK, MAX_BLOCK + 1, 2 * MAX_BLOCK])
def test_group_sizes(k):
    """k ≤ max_block → every i < j; k = max_block + 1 → the star around the
    minimum id, so the pair count drops from k(k-1)/2 to k-1."""
    ids = [f"id{i:03d}" for i in np.random.default_rng(k).permutation(k)]
    blocked = _frame([(3, 77, i) for i in ids], {"name": [f"n-{i}" for i in ids]})
    got = _assert_same(blocked)
    if k <= MAX_BLOCK:
        assert len(got) == k * (k - 1) // 2
    else:
        assert len(got) == k - 1
        assert (got["left_id"] == min(ids)).all()


def test_repeated_id_first_row_wins():
    blocked = _frame([(0, 5, "b"), (0, 5, "a"), (0, 5, "b"), (0, 5, "c"),
                      (0, 5, "a")],
                     {"name": ["b-first", "a-first", "b-second", "c",
                               "a-second"]})
    got = _assert_same(blocked)
    assert set(got["left_name"]) | set(got["right_name"]) == {
        "a-first", "b-first", "c"}


def test_equal_hash_under_different_band_idx_stays_apart():
    # band_hash 9 under bands 0 and 1 must be two groups: the pairs are
    # (a, b) from band 0 and (c, d) from band 1, never a cross pair
    blocked = _frame([(0, 9, "a"), (1, 9, "c"), (0, 9, "b"), (1, 9, "d")],
                     {"name": ["A", "C", "B", "D"]})
    got = _assert_same(blocked)
    assert sorted(zip(got["left_id"], got["right_id"])) == [("a", "b"),
                                                           ("c", "d")]


def test_null_names_and_int_payload():
    """Dedup-shaped payloads: NULL label names and an int64 simhash."""
    rng = np.random.default_rng(5)
    n = 400
    blocked = _frame(
        [(int(rng.integers(0, 4)), int(rng.integers(0, 30)),
          f"d{int(rng.integers(0, 150))}") for _ in range(n)],
        {"name": [None if i % 5 == 0 else f"name {i}" for i in range(n)],
         "sh": rng.integers(-2**62, 2**62, size=n, dtype=np.int64)})
    got = _assert_same(blocked)
    assert got["left_sh"].dtype == np.int64
    assert got["left_name"].isna().any()


def test_int_ids_without_payload():
    """Id-only band rows (payloads joined back later) with int64 ids."""
    rng = np.random.default_rng(11)
    blocked = pd.DataFrame({
        "band_idx": rng.integers(0, 8, size=3000).astype(np.int32),
        "band_hash": rng.integers(0, 40, size=3000).astype(np.int64),
        "id": rng.integers(0, 2000, size=3000).astype(np.int64)})
    got = _assert_same(blocked, max_block=20)
    assert list(got.columns) == ["left_id", "right_id"]
    assert got["left_id"].dtype == np.int64
    assert (got["left_id"] < got["right_id"]).all()


def _ref_alias_edges_local(labels_df: pd.DataFrame, cfg: PipelineConfig,
                           min_jaccard: float) -> pd.DataFrame:
    """``alias_edges_local`` with the per-band-group pair loop."""
    df = labels_df.drop_duplicates("id")
    blocker = C.LshBlocker(cfg.minhash_num_perm, cfg.minhash_bands)
    blocked = blocker(pa.Table.from_pandas(df, preserve_index=False)).to_pandas()
    blocked = blocked[blocked.duplicated(["band_idx", "band_hash"], keep=False)]
    L, R, LN, RN = [], [], [], []
    for _, g in blocked.groupby(["band_idx", "band_hash"], sort=False):
        g = g.drop_duplicates("id").sort_values("id")
        ids, names = g["id"].tolist(), g["name"].tolist()
        rng = range(len(ids)) if len(ids) <= 50 else range(1)
        for i in rng:
            for j in range(i + 1, len(ids)):
                L.append(ids[i]); R.append(ids[j])
                LN.append(names[i]); RN.append(names[j])
    pairs = pd.DataFrame({"left_id": L, "right_id": R,
                          "left_name": LN, "right_name": RN})
    return C._verify_df(pairs.drop_duplicates(["left_id", "right_id"]),
                        min_jaccard)


def test_alias_edges_local_same_edges():
    """Near-duplicate label families of every size around max_block (a
    hot family forces the star), NULL names and repeated label rows."""
    rows = []
    for fam, size in enumerate([1, 2, 3, 49, 50, 51, 120]):
        base = f"family {fam} grand hotel budapest"
        for i in range(size):
            name = base if i % 3 else f"{base} annex {i % 4}"
            rows.append((f"f{fam}-{i:03d}", name))
    rows += [(f"null{i}", None) for i in range(3)]
    rows += rows[:20]
    labels = pd.DataFrame(rows, columns=["id", "name"])
    cfg = PipelineConfig()
    got = C.alias_edges_local(labels, cfg, min_jaccard=0.5)
    want = _ref_alias_edges_local(labels, cfg, 0.5)
    key = ["left_id", "right_id"]
    pd.testing.assert_frame_equal(
        got.sort_values(key).reset_index(drop=True),
        want.sort_values(key).reset_index(drop=True))
    assert len(got) > 0


def test_candidate_pairs_dataset_matches_reference(ray_session):
    """The distributed path (bloom semi-filter, then ``_band_pairs`` per
    hash bucket of many band groups) emits the reference pair multiset."""
    import ray.data as rd

    rng = np.random.default_rng(21)
    n = 2000
    blocked = _frame(
        [(int(rng.integers(0, 8)), int(rng.integers(0, 300)),
          f"e{int(rng.integers(0, 900)):04d}") for _ in range(n)])
    blocked["name"] = "n-" + blocked["id"]
    blocked.loc[:59, ["band_idx", "band_hash"]] = (2, 12345)  # one hot band
    got = C.candidate_pairs(
        rd.from_pandas([blocked.iloc[i::3] for i in range(3)])).to_pandas()
    want = _ref_band_pairs(blocked, MAX_BLOCK)
    cols = list(want.columns)
    pd.testing.assert_frame_equal(
        got[cols].sort_values(cols).reset_index(drop=True),
        want.sort_values(cols).reset_index(drop=True), check_dtype=False)
