"""Dedup suite + ANN + multimodal plumbing tests (planted duplicates)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from mannheimsearchjoinsengine_ray.stages import ann as A
from mannheimsearchjoinsengine_ray.stages import dedup as D
from mannheimsearchjoinsengine_ray.stages import multimodal as M


@pytest.fixture(scope="module")
def planted_docs(ray_session):
    """40 distinct docs + 3 planted near-dup groups."""
    import ray.data as rd

    rng = np.random.default_rng(7)
    vocab = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
             "hotel", "india", "juliet", "kilo", "lima", "mike", "november"]
    texts, ids = [], []
    for i in range(40):
        words = [vocab[int(rng.integers(0, len(vocab)))] for _ in range(30)]
        texts.append(" ".join(words))
        ids.append(i)
    base = texts[0]
    texts.append(base)                                   # 40: exact dup of 0
    texts.append(base.replace("alpha", "alphaX", 1))     # 41: near dup of 0
    b2 = texts[5]
    texts.append(b2 + " extra tail words here")          # 42: near dup of 5
    ids.extend([40, 41, 42])
    return rd.from_arrow(pa.table({"doc_id": ids, "text": texts})), ids


def test_exact_dedup(ray_session, planted_docs):
    docs, ids = planted_docs
    firsts = D.exact_dedup(docs).to_pandas()
    # 43 rows, one exact dup pair → 42 distinct hashes
    assert len(firsts) == 42
    assert 40 not in set(firsts["keep_id"])  # 0 kept, 40 dropped


def test_minhash_dedup_finds_planted(ray_session, planted_docs):
    docs, ids = planted_docs
    pairs = D.minhash_dedup_pairs(docs, min_jaccard=0.6).to_pandas()
    found = {tuple(sorted(p)) for p in zip(pairs["left_id"], pairs["right_id"])}
    assert (0, 40) in found
    assert (0, 41) in found
    assert (5, 42) in found
    comp = D.assign_components(pairs, all_ids=ids)
    m = dict(zip(comp["id"], comp["component"]))
    assert m[0] == m[40] == m[41] == 0
    assert m[5] == m[42] == 5
    # a doc with no dup maps to itself
    assert m[17] == 17


def test_simhash_dedup(ray_session, planted_docs):
    docs, ids = planted_docs
    pairs = D.simhash_dedup_pairs(docs, max_hamming=4).to_pandas()
    found = {tuple(sorted((int(a), int(b))))
             for a, b in zip(pairs["left_id"], pairs["right_id"])}
    assert (0, 40) in found  # identical text → hamming 0
    if (0, 41) in found:     # one-token change usually within hamming 4
        pass


def test_ngram_jaccard_pairs(ray_session, planted_docs):
    docs, ids = planted_docs
    pairs = D.ngram_jaccard_pairs(docs, min_jaccard=0.7).to_pandas()
    found = {tuple(sorted(p)) for p in zip(pairs["left_id"], pairs["right_id"])}
    assert (0, 40) in found and (0, 41) in found


def test_embedding_dedup(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((60, 32)).astype(np.float32)
    vecs[50] = vecs[10] + rng.standard_normal(32).astype(np.float32) * 0.01
    vecs[51] = vecs[10]  # exact
    ds = rd.from_arrow(pa.table({
        "vec_id": list(range(60)),
        "embedding": [v.tolist() for v in vecs],
    }))
    pairs = D.embedding_dedup_pairs(ds, min_cosine=0.95, dim=32).to_pandas()
    # distributed LSH path must find the same planted near-identical pairs
    lsh_pairs = D.embedding_dedup_pairs(ds, min_cosine=0.95, dim=32,
                                        exact_threshold=0).to_pandas()
    lsh_found = {tuple(sorted((int(a), int(b))))
                 for a, b in zip(lsh_pairs["left_id"], lsh_pairs["right_id"])}
    assert (10, 51) in lsh_found
    found = {tuple(sorted((int(a), int(b))))
             for a, b in zip(pairs["left_id"], pairs["right_id"])}
    assert (10, 51) in found
    assert (10, 50) in found


def test_simhash_dedup_pairs_distinct(ray_session):
    """Two identical docs share all four SimHash chunks, so they meet in
    four bands; the pair comes back once."""
    import ray.data as rd

    docs = rd.from_arrow(pa.table({
        "doc_id": [0, 1, 2],
        "text": ["the quick brown fox jumps over the lazy dog"] * 2
        + ["an entirely different sentence about something else"]}))
    pairs = D.simhash_dedup_pairs(docs).to_pandas()
    assert sorted(zip(pairs["left_id"], pairs["right_id"])) == [(0, 1)]


def test_embedding_dedup_lsh_pairs_distinct(ray_session):
    """The LSH path returns a duplicate vector pair once, like the exact
    path, though the pair shares every hyperplane band."""
    import ray.data as rd

    rng = np.random.default_rng(11)
    vecs = rng.standard_normal((6, 16)).astype(np.float32)
    vecs[5] = vecs[0]
    ds = rd.from_arrow(pa.table({"vec_id": list(range(6)),
                                 "embedding": [v.tolist() for v in vecs]}))
    exact = D.embedding_dedup_pairs(ds, dim=16).to_pandas()
    lsh = D.embedding_dedup_pairs(ds, dim=16, exact_threshold=0).to_pandas()
    assert sorted(zip(exact["left_id"], exact["right_id"])) == [(0, 5)]
    assert sorted(zip(lsh["left_id"], lsh["right_id"])) == [(0, 5)]


def test_embedding_dedup_exact_blocks_match_full_matrix(ray_session):
    """The exact path's row blocks give the pairs of the full n×n upper
    triangle, in its order, for n over one block (near-duplicates planted
    inside each block and across the block boundary)."""
    import ray.data as rd

    n = D._EXACT_BLOCK_ROWS + 300
    rng = np.random.default_rng(5)
    vecs = rng.standard_normal((n, 16))
    for a, b in [(3, 70), (100, n - 1), (D._EXACT_BLOCK_ROWS - 1,
                                         D._EXACT_BLOCK_ROWS),
                 (D._EXACT_BLOCK_ROWS + 5, D._EXACT_BLOCK_ROWS + 9)]:
        vecs[b] = vecs[a] + rng.standard_normal(16) * 0.01
    ids = np.arange(n) * 7
    got = D.embedding_dedup_pairs(
        rd.from_pandas(pd.DataFrame({"vec_id": ids,
                                     "embedding": list(vecs)})),
        min_cosine=0.9, exact_threshold=n).to_pandas()

    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = unit @ unit.T
    iu = np.triu_indices(n, k=1)
    mask = sims[iu] >= 0.9
    want = pd.DataFrame({"left_id": ids[iu[0][mask]],
                         "right_id": ids[iu[1][mask]],
                         "cosine": sims[iu][mask]})
    assert len(want) >= 4
    pd.testing.assert_frame_equal(got[["left_id", "right_id"]],
                                  want[["left_id", "right_id"]])
    np.testing.assert_allclose(got["cosine"], want["cosine"], rtol=0,
                               atol=1e-12)


@pytest.mark.parametrize("id_type,want", [(pa.int64(), pa.int64()),
                                           (pa.string(), object)])
def test_embedding_dedup_exact_empty_input(ray_session, id_type, want):
    """An empty input takes the exact path and gives no pairs, typed as
    (left_id, right_id, cosine) with the input's id type (string ids stay
    pandas object columns)."""
    import ray.data as rd

    emb = rd.from_arrow(pa.table({
        "vec_id": pa.array([], id_type),
        "embedding": pa.array([], pa.list_(pa.float32()))}))
    got = D.embedding_dedup_pairs(emb)
    assert got.count() == 0
    schema = got.schema()
    assert schema.names == ["left_id", "right_id", "cosine"]
    assert schema.types == [want, want, pa.float64()]


def test_ann_brute_vs_numpy(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(5)
    vecs = rng.standard_normal((200, 16)).astype(np.float32)
    ds = rd.from_arrow(pa.table({"vec_id": list(range(200)),
                                 "embedding": [v.tolist() for v in vecs]}))
    q = vecs[:3]
    res = A.knn_brute(ds, q, k=4, query_ids=np.arange(3))
    # ground truth in pure numpy
    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    qq = q / np.linalg.norm(q, axis=1, keepdims=True)
    sims = qq.astype(np.float64) @ unit.astype(np.float64).T
    for qi in range(3):
        expect = set(np.argsort(-sims[qi])[:4].tolist())
        got = set(res[res["query_id"] == qi]["neighbor_id"].tolist())
        assert got == expect


def test_ann_ivf_recall(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(11)
    # clustered data (IVF's favorable regime, like the labeled embeddings table)
    centers = rng.standard_normal((8, 32)).astype(np.float32) * 3
    vecs = np.concatenate([
        centers[i % 8] + rng.standard_normal((1, 32)).astype(np.float32)
        for i in range(400)
    ])
    ds = rd.from_arrow(pa.table({"vec_id": list(range(400)),
                                 "embedding": [v.tolist() for v in vecs]}))
    q = vecs[:10]
    brute = A.knn_brute(ds, q, k=5, query_ids=np.arange(10))
    ivf = A.knn_ivf(ds, q, k=5, n_centroids=8, nprobe=3,
                    query_ids=np.arange(10))
    recalls = []
    for qi in range(10):
        b = set(brute[brute["query_id"] == qi]["neighbor_id"])
        v = set(ivf[ivf["query_id"] == qi]["neighbor_id"])
        recalls.append(len(b & v) / len(b))
    assert np.mean(recalls) >= 0.8, recalls


def test_ivf_physical_partitioning(ray_session, tmp_path):
    """build_ivf_index writes centroid=<id>/ partitions; knn_ivf_index reads
    ONLY the union of the queries' nprobe partitions (file-access count) and
    matches the in-memory equivalent where both scan the same centroids."""
    import os

    import ray.data as rd

    rng = np.random.default_rng(11)
    centers = rng.standard_normal((8, 32)).astype(np.float32) * 3
    vecs = np.concatenate([
        centers[i % 8] + rng.standard_normal((1, 32)).astype(np.float32)
        for i in range(400)
    ])
    ds = rd.from_arrow(pa.table({"vec_id": list(range(400)),
                                 "embedding": [v.tolist() for v in vecs]}))
    index_dir = str(tmp_path / "ivf_index")
    cents = A.build_ivf_index(ds, index_dir, n_centroids=8)
    parts = [d for d in os.listdir(index_dir) if d.startswith("centroid=")]
    assert len(parts) > 1  # physically partitioned
    # idempotent rebuild (marker)
    cents2 = A.build_ivf_index(ds, index_dir, n_centroids=8)
    assert np.allclose(cents, cents2)

    q = vecs[:2]
    stats: dict = {}
    res = A.knn_ivf_index(index_dir, q, k=5, nprobe=2,
                          query_ids=np.arange(2), stats=stats)
    # pruning evidence: fewer partitions read than exist, bounded by Q*nprobe
    assert stats["partitions_read"] < stats["partitions_total"]
    assert stats["partitions_read"] <= 2 * 2
    assert stats["files_read"] < stats["files_total"]

    # recall vs brute force on clustered data
    brute = A.knn_brute(ds, q, k=5, query_ids=np.arange(2))
    recalls = []
    for qi in range(2):
        b = set(brute[brute["query_id"] == qi]["neighbor_id"])
        v = set(res[res["query_id"] == qi]["neighbor_id"])
        recalls.append(len(b & v) / len(b))
    assert np.mean(recalls) >= 0.8, recalls


class TestMultimodal:
    def test_decode_fake_deterministic(self, ray_session):
        import ray.data as rd

        media = rd.from_arrow(M.make_fake_media(20, seed=1))
        f1 = M.decode_features(media, deterministic_fake=True).to_pandas()
        f2 = M.decode_features(rd.from_arrow(M.make_fake_media(20, seed=1)),
                               deterministic_fake=True).to_pandas()
        assert len(f1) == 20
        a = f1.sort_values("media_id")["features"].tolist()
        b = f2.sort_values("media_id")["features"].tolist()
        assert all(list(x) == list(y) for x, y in zip(a, b))

    def test_real_decode_png_ppm(self, ray_session):
        """REAL decode: fake media now carries genuine PNG/PPM payloads —
        the stdlib codecs (functions/codecs.py) extract stable features."""
        import ray.data as rd

        media = rd.from_arrow(M.make_fake_media(12, seed=3))
        f1 = M.decode_features(media, deterministic_fake=False).to_pandas()
        assert len(f1) == 12
        feats = np.array(f1.sort_values("media_id")["features"].tolist())
        assert feats.shape == (12, 16)
        # channel means live in [0,1]; features differ across images
        assert ((feats[:, :3] >= 0) & (feats[:, :3] <= 1)).all()
        assert len({tuple(f) for f in feats}) == 12

    def test_decoder_unsupported_format_raises(self):
        import pyarrow as _pa

        bad = _pa.table({"media_id": _pa.array([0], _pa.int64()),
                         "payload": _pa.array([b"JFIF garbage"], _pa.binary())})
        with pytest.raises(ValueError):
            M.image_features_batch(bad, deterministic_fake=False)

    def test_real_resize_roundtrip(self, ray_session):
        import ray.data as rd

        from mannheimsearchjoinsengine_ray.functions import codecs

        media = rd.from_arrow(M.make_fake_media(6, seed=5))
        resized = media.map_batches(
            M.resize_batch, fn_kwargs={"target_w": 10, "target_h": 8},
            batch_format="pyarrow",
            batch_size=M.MEDIA_BATCH_SIZE).to_pandas()
        for p in resized["payload"]:
            img = codecs.decode_image(p)
            assert img.shape == (8, 10, 3)

    def test_audio_features_real(self, ray_session):
        import ray.data as rd

        media = rd.from_arrow(M.make_fake_media(10, media_type="audio", seed=7))
        feats = M.audio_features(media).to_pandas()
        assert len(feats) == 10
        assert (feats["rms"] > 0.2).all()          # 0.5-amplitude sine
        assert (feats["duration_ms"] > 0).all()
        assert feats["band_energy"].map(len).eq(4).all()

    def test_real_frame_sampling(self, ray_session):
        import ray.data as rd

        from mannheimsearchjoinsengine_ray.functions import codecs

        media = rd.from_arrow(M.make_fake_media(5, media_type="video", seed=9))
        frames = M.sample_frames(media, num_frames=2).to_pandas()
        assert set(frames["frame_idx"]) == {0, 1}
        for fr in frames["frame"]:
            assert codecs.decode_image(fr).shape == (12, 16, 3)

    def test_resize_and_frames(self, ray_session):
        import ray.data as rd

        media = rd.from_arrow(M.make_fake_media(8, media_type="video"))
        resized = media.map_batches(
            M.resize_batch, fn_kwargs={"deterministic_fake": True},
            batch_format="pyarrow",
            batch_size=M.MEDIA_BATCH_SIZE).to_pandas()
        assert (resized["width"] == 32).all()
        assert resized["payload"].map(len).eq(32 * 24).all()

        frames = media.map_batches(
            M.frames_batch, fn_kwargs={"deterministic_fake": True,
                                       "num_frames": 4},
            batch_format="pyarrow",
            batch_size=M.MEDIA_BATCH_SIZE).to_pandas()
        assert len(frames) == 8 * 4
        assert set(frames["frame_idx"]) == {0, 1, 2, 3}


def test_png_all_filter_types_decode():
    """Externally-encoded PNGs may use scanline filters 1-4 (Sub/Up/Avg/
    Paeth); craft a raw stream with every filter and verify the decoder
    reconstructs the image exactly."""
    import struct
    import zlib

    from mannheimsearchjoinsengine_ray.functions import codecs

    rng = np.random.default_rng(13)
    img = rng.integers(0, 256, (5, 6, 3), dtype=np.uint8)
    h, w, ch = img.shape

    def paeth(a, b, c):
        p = int(a) + int(b) - int(c)
        pa_, pb, pc = abs(p - a), abs(p - b), abs(p - c)
        return a if pa_ <= pb and pa_ <= pc else (b if pb <= pc else c)

    raw = bytearray()
    filters = [0, 1, 2, 3, 4]
    prev = np.zeros((w, ch), dtype=np.uint8)
    for y in range(h):
        f = filters[y % len(filters)]
        raw.append(f)
        cur = img[y]
        for x in range(w):
            for c in range(ch):
                left = int(cur[x - 1][c]) if x else 0
                up = int(prev[x][c])
                ul = int(prev[x - 1][c]) if x else 0
                v = int(cur[x][c])
                if f == 0:
                    fb = v
                elif f == 1:
                    fb = (v - left) % 256
                elif f == 2:
                    fb = (v - up) % 256
                elif f == 3:
                    fb = (v - (left + up) // 2) % 256
                else:
                    fb = (v - paeth(left, up, ul)) % 256
                raw.append(fb)
        prev = cur

    def chunk(ctype, payload):
        return struct.pack(">I", len(payload)) + ctype + payload + \
            struct.pack(">I", zlib.crc32(ctype + payload) & 0xFFFFFFFF)

    sig = b"\x89PNG\r\n\x1a\n"
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    png = sig + chunk(b"IHDR", ihdr) + \
        chunk(b"IDAT", zlib.compress(bytes(raw))) + chunk(b"IEND", b"")
    out = codecs.decode_png(png)
    assert np.array_equal(out, img)


def test_attach_pair_payloads_join_path_matches_broadcast(ray_session, planted_docs,
                                                         force_site):
    """Above the byte guard the payload attach runs as two co-partitioned
    bucket joins; the result must equal the broadcast path row-for-row."""
    import pandas as pd

    docs, ids = planted_docs
    docs = docs.materialize()
    blocked = docs.map_batches(D.shingle_band_rows, batch_format="pyarrow")
    from mannheimsearchjoinsengine_ray.stages.canonicalize import candidate_pairs

    pairs = D._distinct_pairs(candidate_pairs(blocked)).materialize()
    cols = ["left_id", "right_id", "left_name", "right_name"]
    bc = D.attach_pair_payloads(pairs, docs, "doc_id", "text") \
        .to_pandas()[cols].sort_values(cols[:2]).reset_index(drop=True)
    force_site("dedup.pair_payloads", False)
    jn = D.attach_pair_payloads(pairs, docs, "doc_id", "text") \
        .to_pandas()[cols].sort_values(cols[:2]).reset_index(drop=True)
    pd.testing.assert_frame_equal(bc, jn)
    assert len(bc) > 0


def test_assign_components_ds_matches_local(ray_session, planted_docs,
                                            force_site):
    """Dataset-native component assignment (guarded CC + anti-join identity
    fill) must equal the driver path, on both sides of the edge guard."""
    docs, ids = planted_docs
    pairs = D.minhash_dedup_pairs(docs, min_jaccard=0.6).materialize()
    force_site("dedup.components", True)
    local = D.assign_components(pairs, all_ids=ids)
    for driver in (True, False):   # driver CC vs distributed CC
        force_site("dedup.components_ds", driver)
        ds = D.assign_components_ds(pairs, docs,
                                    id_col="doc_id").to_pandas()
        ds = ds.sort_values("id").reset_index(drop=True)
        assert dict(zip(ds["id"], ds["component"])) == \
            dict(zip(local["id"], local["component"]))


def test_assign_components_ds_matches_local_exchange(ray_session,
                                                     exchange_path,
                                                     planted_docs,
                                                     force_site):
    test_assign_components_ds_matches_local(ray_session, planted_docs,
                                            force_site)


def test_remove_duplicate_spans_planted(ray_session):
    """A 5-gram repeated across two docs is removed from both; unique text
    survives; short docs (<k words) pass through untouched."""
    import ray.data as rd

    span = "alpha beta gamma delta epsilon"
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": [f"one two {span} three four",
                 f"five six {span} seven eight",
                 "totally unique words here nine ten eleven",
                 "tiny doc"],
    })
    out = D.remove_duplicate_spans(rd.from_pandas(docs), k=5) \
        .to_pandas().sort_values("id").reset_index(drop=True)
    assert out.loc[0, "clean_text"] == "one two three four"
    assert out.loc[1, "clean_text"] == "five six seven eight"
    assert out.loc[0, "dup_grams"] == 1 and out.loc[1, "dup_grams"] == 1
    assert out.loc[2, "clean_text"] == docs.loc[2, "text"]
    assert out.loc[3, "total_grams"] == 0
    assert out.loc[3, "clean_text"] == "tiny doc"


def test_remove_duplicate_spans_join_path_matches_broadcast(ray_session, sf_dir,
                                                           force_site):
    """Above the byte guard the duplicated set attaches via bucket semi join
    + per-doc position collection; must equal the flat-columnar broadcast."""
    import ray.data as rd

    docs = rd.read_parquet(sf_dir + "/documents.parquet",
                           columns=["doc_id", "text"])
    a = D.remove_duplicate_spans(docs, k=5).to_pandas() \
        .sort_values("id").reset_index(drop=True)
    force_site("dedup.span_hashes", False)
    b = D.remove_duplicate_spans(docs, k=5).to_pandas() \
        .sort_values("id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()),
                                  check_dtype=False)
    assert (a["dup_grams"] > 0).any()
