"""``canonicalize.band_rows`` is the one band-row layout of every LSH
blocker.  Each builder must emit, row for row and type for type, what the
hand-built layout it replaced emitted.  The ports below are those layouts:
the per-class tile/repeat code and the per-row list loops."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from mannheimsearchjoinsengine_ray.functions import hashing
from mannheimsearchjoinsengine_ray.functions.normalize import tokenize_string
from mannheimsearchjoinsengine_ray.stages import canonicalize as C
from mannheimsearchjoinsengine_ray.stages import dedup as D


# --- ports of the replaced layouts ----------------------------------------

def port_doc_shingler(batch, num_perm=128, num_bands=32, k=3,
                      id_col="doc_id", text_col="text"):
    mh = hashing.MinHasher(num_perm=num_perm)
    ids = batch.column(id_col).to_pylist()
    texts = batch.column(text_col).to_pylist()
    sigs = mh.signatures([hashing.word_shingle_hashes((t or "").split(), k)
                          for t in texts])
    bk = hashing.band_keys(sigs, num_bands)
    n = len(ids)
    return pa.table({
        "band_idx": pa.array(np.repeat(np.arange(num_bands, dtype=np.int32), n)),
        "band_hash": pa.array(bk.T.reshape(-1).astype("int64")),
        "id": pa.array(np.tile(np.array(ids), num_bands)),
    })


def port_simhash(batch, id_col="doc_id", text_col="text"):
    ids = batch.column(id_col).to_pylist()
    texts = batch.column(text_col).to_pylist()
    sims = np.array(
        [hashing.simhash64(hashing.hash64((t or "").split() or [""]))
         for t in texts], dtype=np.uint64)
    t = pa.table({"id": pa.array(ids),
                  "simhash": pa.array(sims.astype("int64"))})
    # explode_chunks
    ids = t.column("id").to_pylist()
    sh = np.array(t.column("simhash").to_pylist(),
                  dtype=np.int64).astype(np.uint64)
    n = len(ids)
    out_idx, out_chunk, out_id, out_sim = [], [], [], []
    for c in range(4):
        chunk = ((sh >> np.uint64(16 * c)) & np.uint64(0xFFFF)).astype("int64")
        out_idx.extend([c] * n)
        out_chunk.extend(chunk.tolist())
        out_id.extend(ids)
        out_sim.extend(sh.astype("int64").tolist())
    return pa.table({
        "band_idx": pa.array(out_idx, pa.int32()),
        "band_hash": pa.array(out_chunk, pa.int64()),
        "id": pa.array(out_id),
        "sh": pa.array(out_sim, pa.int64()),
    })


def port_hyperplane(batch, dim, num_tables=4, bits=12, seed=42,
                    id_col="vec_id", vec_col="embedding"):
    planes = np.random.default_rng(seed).standard_normal(
        (num_tables, bits, dim)).astype(np.float32)
    ids = batch.column(id_col).to_pylist()
    vecs = np.asarray(batch.column(vec_col).to_pylist(), dtype=np.float32)
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    unit = vecs / np.maximum(norms, 1e-12)
    n = len(ids)
    vec_bytes = [unit[i].astype("<f4").tobytes() for i in range(n)]
    out_idx, out_bucket, out_id, out_vec = [], [], [], []
    weights = (1 << np.arange(bits)).astype(np.int64)
    for t in range(num_tables):
        proj = unit @ planes[t].T
        bucket = ((proj > 0).astype(np.int64) * weights).sum(axis=1)
        out_idx.extend([t] * n)
        out_bucket.extend(bucket.tolist())
        out_id.extend(ids)
        out_vec.extend(vec_bytes)
    return pa.table({
        "band_idx": pa.array(out_idx, pa.int32()),
        "band_hash": pa.array(out_bucket, pa.int64()),
        "id": pa.array(out_id),
        "vec": pa.array(out_vec, pa.binary()),
    })


def port_lsh_blocker(batch, num_perm=64, num_bands=8):
    mh = hashing.MinHasher(num_perm=num_perm)

    def token_hashes(name):
        toks = tokenize_string(name, remove_brackets=True)
        return hashing.hash64(toks if toks else [name])

    ids = batch.column("id").to_pylist()
    names = batch.column("name").to_pylist()
    sigs = mh.signatures([token_hashes(n or "") for n in names])
    bk = hashing.band_keys(sigs, num_bands)
    n = len(ids)
    return pa.table({
        "band_idx": pa.array(np.repeat(np.arange(num_bands, dtype=np.int32), n)),
        "band_hash": pa.array(bk.T.reshape(-1).astype("int64")),
        "id": pa.array(np.tile(np.array(ids, dtype=object), num_bands)),
        "name": pa.array(np.tile(np.array(names, dtype=object), num_bands)),
    })


# --- inputs -----------------------------------------------------------------

TEXTS = ["the quick brown fox jumps over the lazy dog",
         "the quick brown fox jumps over the lazy cat",
         None, "", "Grand Hotel (Budapest)", "a b", "the quick brown fox"]
INT_IDS = pa.array([7, 3, 11, 0, -5, 42, 1 << 40], pa.int64())
STR_IDS = pa.array(["d7", "d3", "d11", "d0", "d-5", "d42", "dx"], pa.string())


def _docs(ids, n=None, text_col="text"):
    n = len(ids) if n is None else n
    return pa.table({"doc_id": ids[:n], text_col: pa.array(TEXTS[:n], pa.string())})


def _vecs(ids, n=None, dim=16):
    n = len(ids) if n is None else n
    rng = np.random.default_rng(5)
    v = rng.standard_normal((n, dim)).astype(np.float32)
    if n > 1:
        v[1] = v[0] * 3   # same unit vector
    if n > 2:
        v[2] = 0          # zero vector: norm clamps at 1e-12
    return pa.table({"vec_id": ids[:n],
                     "embedding": pa.array(v.tolist(), pa.list_(pa.float32()))})


def _assert_same(new: pa.Table, old: pa.Table):
    assert new.schema == old.schema
    assert new.to_pylist() == old.to_pylist()


SIZES = [7, 1]
IDS = [INT_IDS, STR_IDS]


@pytest.mark.parametrize("ids", IDS, ids=["int", "str"])
@pytest.mark.parametrize("n", SIZES)
def test_shingle_band_rows_equal_port(ids, n):
    batch = _docs(ids, n)
    _assert_same(D.shingle_band_rows(batch), port_doc_shingler(batch))
    _assert_same(D.shingle_band_rows(batch, num_perm=16, num_bands=4, k=2),
                 port_doc_shingler(batch, num_perm=16, num_bands=4, k=2))


@pytest.mark.parametrize("ids", IDS, ids=["int", "str"])
@pytest.mark.parametrize("n", SIZES)
def test_simhash_band_rows_equal_port(ids, n):
    batch = _docs(ids, n)
    _assert_same(D.simhash_band_rows(batch), port_simhash(batch))


@pytest.mark.parametrize("ids", IDS, ids=["int", "str"])
@pytest.mark.parametrize("n", SIZES)
def test_hyperplane_band_rows_equal_port(ids, n):
    batch = _vecs(ids, n)
    _assert_same(D.hyperplane_band_rows(batch, dim=16),
                 port_hyperplane(batch, dim=16))


@pytest.mark.parametrize("ids", IDS, ids=["int", "str"])
@pytest.mark.parametrize("n", SIZES)
def test_lsh_blocker_equal_port(ids, n):
    batch = pa.table({"id": ids[:n], "name": pa.array(TEXTS[:n], pa.string())})
    _assert_same(C.LshBlocker()(batch), port_lsh_blocker(batch))
    _assert_same(C.lsh_block_batch(batch, 16, 4),
                 port_lsh_blocker(batch, 16, 4))


@pytest.mark.parametrize("ids", IDS, ids=["int", "str"])
def test_empty_batch_keeps_the_port_schema(ids):
    """An empty batch gives zero rows with the schema a non-empty batch
    has.  The replaced layouts raised here (the MinHash stack and the
    hyperplane norm need a row) or typed the id column null."""
    cases = [
        (D.shingle_band_rows, _docs(ids, 0), port_doc_shingler(_docs(ids, 1))),
        (D.simhash_band_rows, _docs(ids, 0), port_simhash(_docs(ids, 1))),
        (lambda b: D.hyperplane_band_rows(b, dim=16), _vecs(ids, 0),
         port_hyperplane(_vecs(ids, 1), dim=16)),
        (C.LshBlocker(), pa.table({"id": ids[:0], "name": pa.array([], pa.string())}),
         port_lsh_blocker(pa.table({"id": ids[:1],
                                    "name": pa.array(TEXTS[:1], pa.string())}))),
    ]
    for fn, empty, ref in cases:
        out = fn(empty)
        assert out.num_rows == 0
        assert out.schema == ref.schema


def test_band_rows_layout():
    """Band-major rows: row b*n + i is input row i in band b; payload
    columns ride along per row, nulls kept."""
    ids = pa.chunked_array([[10, 20], [30]])
    bh = np.array([[1, 2], [3, 4], [5, 6]], dtype=np.uint64)
    out = C.band_rows(ids, bh, name=pa.chunked_array([["a", None], ["c"]]))
    assert out.column_names == ["band_idx", "band_hash", "id", "name"]
    assert out.schema.field("band_idx").type == pa.int32()
    assert out.schema.field("band_hash").type == pa.int64()
    assert out.column("band_idx").to_pylist() == [0, 0, 0, 1, 1, 1]
    assert out.column("band_hash").to_pylist() == [1, 3, 5, 2, 4, 6]
    assert out.column("id").to_pylist() == [10, 20, 30] * 2
    assert out.column("name").to_pylist() == ["a", None, "c"] * 2
