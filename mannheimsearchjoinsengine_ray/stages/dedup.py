"""Deduplication suite for training-data pipelines (SURVEY brief):

  * exact           — content hash → groupby(hash) → first (also available as
                      the SQL-oracled ``exact_dedup`` query)
  * MinHash + LSH   — word-shingle signatures → band buckets → groupby(band)
                      candidates → true-Jaccard verify → connected components
  * SimHash         — 64-bit simhash, banded into 4×16-bit chunks for
                      candidate generation → Hamming verify
  * n-gram Jaccard  — char-n-gram Jaccard verification over LSH candidates
  * embedding cosine— random-hyperplane bucketing → within-bucket matmul →
                      cosine ≥ τ pairs

Every variant ends in the same shape: verified pair Dataset → components →
(id, component) assignment; ids equal to their component are the kept
representatives.  All shuffles key on bounded-size sketch values; oversized
buckets degrade to star-pairing (see canonicalize.candidate_pairs).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions import hashing
from ..functions.similarity import jaccard, ngrams_in_bounds
from . import aggregates
from .canonicalize import band_rows, candidate_pairs, connected_components_local


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def add_content_hash(batch: pa.Table, text_col: str = "text") -> pa.Table:
    h = hashing.hash64(batch.column(text_col).to_pylist()).astype("int64")
    return batch.append_column("content_hash", pa.array(h))


def exact_dedup(docs_ds, id_col: str = "doc_id", text_col: str = "text"):
    """(content_hash, keep_id) — keep_id = min id per hash group.  Two-phase
    (map-side partials, derived final width): content_hash is
    corpus-cardinality, so a bare groupby().aggregate() is the exact
    anti-pattern the repo bans (CLAUDE.md)."""
    from .aggregates import two_phase_agg

    hashed = docs_ds.map_batches(
        lambda t: add_content_hash(t, text_col), batch_format="pyarrow")
    return two_phase_agg(hashed.select_columns(["content_hash", id_col]),
                         ["content_hash"], {"keep_id": (id_col, "min")})


# ---------------------------------------------------------------------------
# Substring (word n-gram span) dedup — Lee et al. 2021, "Deduplicating
# Training Data Makes Language Models Better": find every word k-gram that
# occurs >= min_count times CORPUS-WIDE (within- and cross-document
# occurrences both count) and drop the words covered by any duplicated span.
# ---------------------------------------------------------------------------

def _doc_gram_hashes(words: list[str], k: int) -> np.ndarray:
    """uint64 hash per k-gram start position (len-k+1 entries, may be 0)."""
    n = len(words) - k + 1
    if n <= 0:
        return np.empty(0, dtype=np.uint64)
    grams = [" ".join(words[i:i + k]) for i in range(n)]
    return hashing.hash64(grams)


def duplicated_gram_hashes(docs_ds, k: int = 5, min_count: int = 2,
                           text_col: str = "text"):
    """Global k-gram occurrence counts → Dataset of (gram_hash, n) rows with
    n >= min_count.  Scale shape: the exchange carries (hash, partial count)
    with map-side combine — gram TEXT never rides a shuffle; two_phase_agg
    keeps corpus-cardinality counts distributed above its driver guard."""
    from .aggregates import two_phase_agg

    def partial(batch: pa.Table) -> pa.Table:
        hs = [
            _doc_gram_hashes(t.split(" "), k)
            for t in batch.column(text_col).to_pylist()
        ]
        flat = np.concatenate(hs) if hs else np.empty(0, dtype=np.uint64)
        return pa.table({"gram_hash": pa.array(flat.astype("int64"))})

    counts = two_phase_agg(
        docs_ds.map_batches(partial, batch_format="pyarrow"),
        ["gram_hash"], {"n": (None, "count")})
    return counts.filter(lambda r: r["n"] >= min_count)


def remove_duplicate_spans(docs_ds, k: int = 5, min_count: int = 2,
                           id_col: str = "doc_id", text_col: str = "text"):
    """→ (id, total_grams, dup_grams, clean_text): words covered by any
    duplicated k-gram span are removed, the remainder re-joins with single
    spaces.  The duplicated-hash set ships FLAT-COLUMNAR (one sorted uint64
    array via ray.put, membership = searchsorted per batch) when its bytes
    ``aggregates.fits``; above it the set attaches through a co-partitioned
    bucket semi join on (doc, position) gram rows.  Both paths
    equivalence-tested."""
    import ray
    import ray.data as rd

    docs_ds = docs_ds.materialize()
    dup = duplicated_gram_hashes(docs_ds, k, min_count, text_col) \
        .materialize()

    def stats_from_mask(doc_id, words: list[str], dup_pos: np.ndarray):
        n_grams = max(len(words) - k + 1, 0)
        covered = np.zeros(len(words), dtype=bool)
        for p in dup_pos:
            covered[p:p + k] = True
        clean = " ".join(w for w, c in zip(words, covered) if not c)
        return {"id": doc_id, "total_grams": n_grams,
                "dup_grams": int(len(dup_pos)), "clean_text": clean}

    if aggregates.fits("dedup.span_hashes", dup.size_bytes() or 0):
        arr = np.sort(dup.to_pandas()["gram_hash"].to_numpy()
                      .astype("int64").view(np.uint64))
        dup_ref = ray.put(arr)

        def clean_batch(batch: pa.Table) -> pd.DataFrame:
            hashes = ray.get(dup_ref)
            rows = []
            for doc_id, t in zip(batch.column(id_col).to_pylist(),
                                 batch.column(text_col).to_pylist()):
                words = t.split(" ")
                gh = _doc_gram_hashes(words, k)
                if len(gh):
                    idx = np.searchsorted(hashes, gh) \
                        .clip(0, max(len(hashes) - 1, 0))
                    dup_pos = np.flatnonzero(
                        hashes[idx] == gh) if len(hashes) else \
                        np.empty(0, dtype=np.int64)
                else:
                    dup_pos = np.empty(0, dtype=np.int64)
                rows.append(stats_from_mask(doc_id, words, dup_pos))
            return pd.DataFrame(rows, columns=["id", "total_grams",
                                               "dup_grams", "clean_text"])

        return docs_ds.map_batches(clean_batch, batch_format="pyarrow")

    # scale path: explode (doc, pos, gram_hash), SEMI-filter against the
    # duplicated set, co-locate each doc's dup positions with one bucket
    # exchange, then join the position lists back onto the docs
    from .aggregates import auto_bucket_count, bucket_map
    from .joins import bucket_join, bucket_semi_join

    def explode(batch: pa.Table) -> pd.DataFrame:
        ids, pos, ghs = [], [], []
        for doc_id, t in zip(batch.column(id_col).to_pylist(),
                             batch.column(text_col).to_pylist()):
            gh = _doc_gram_hashes(t.split(" "), k)
            ids.extend([doc_id] * len(gh))
            pos.extend(range(len(gh)))
            ghs.extend(gh.astype("int64").tolist())
        return pd.DataFrame({"__doc": ids, "__pos": pos, "gram_hash": ghs})

    gram_rows = docs_ds.map_batches(explode, batch_format="pyarrow")
    dup_rows = bucket_semi_join(gram_rows,
                                dup.select_columns(["gram_hash"]),
                                "gram_hash", "gram_hash").materialize()

    def collect(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("__doc")["__pos"].agg(
            lambda s: ",".join(map(str, sorted(s))))
        return out.rename("__dups").rename_axis("__doc").reset_index()

    # exchange width from MEASURED surviving bytes (a fixed count would cap
    # the per-doc collection at any scale)
    per_doc = bucket_map(dup_rows.select_columns(["__doc", "__pos"]),
                         "__doc", auto_bucket_count(dup_rows), collect)
    joined = bucket_join(
        docs_ds.map_batches(
            lambda df: df[[id_col, text_col]], batch_format="pandas"),
        per_doc, id_col, "__doc", how="left")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for doc_id, t, dups in zip(df[id_col], df[text_col], df["__dups"]):
            words = t.split(" ")
            dup_pos = np.array([int(x) for x in dups.split(",")],
                               dtype=np.int64) \
                if isinstance(dups, str) and dups else \
                np.empty(0, dtype=np.int64)
            rows.append(stats_from_mask(doc_id, words, dup_pos))
        return pd.DataFrame(rows, columns=["id", "total_grams",
                                           "dup_grams", "clean_text"])

    return joined.map_batches(finish, batch_format="pandas")

def shingle_band_rows(batch: pa.Table, num_perm: int = 128,
                      num_bands: int = 32, k: int = 3,
                      id_col: str = "doc_id",
                      text_col: str = "text") -> pa.Table:
    """(id, text) → LSH band rows over word k-shingles.

    Band rows carry (band_idx, band_hash, id) ONLY — tiling the document
    text into every band row would amplify the blocking shuffle by
    ``num_bands``× the corpus text (measured ×32 at the defaults); the
    verify stage joins text back onto the few surviving candidate ids via
    :func:`attach_pair_payloads`."""
    sigs = hashing.MinHasher(num_perm=num_perm).signatures(
        [hashing.word_shingle_hashes((t or "").split(), k)
         for t in batch.column(text_col).to_pylist()])
    return band_rows(batch.column(id_col), hashing.band_keys(sigs, num_bands))


def _distinct_pairs(pairs_ds):
    """Distinct (left_id, right_id) BEFORE the payload join or verify — a
    pair found via several bands would otherwise multiply that work and
    reach the caller once per band."""
    from .aggregates import dedupe_by_key

    def add_key(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["left_id", "right_id"])
        return df.assign(__pair=df["left_id"].astype(str) + "|"
                         + df["right_id"].astype(str))

    keyed = pairs_ds.map_batches(add_key, batch_format="pandas")
    return dedupe_by_key(keyed, "__pair").map_batches(
        lambda df: df.drop(columns="__pair"), batch_format="pandas")


def attach_pair_payloads(pairs_ds, docs_ds, id_col: str, payload_col: str,
                         left_out: str = "left_name",
                         right_out: str = "right_name"):
    """(left_id, right_id) pairs + (id, payload) docs → pairs with
    left/right payload columns.  The doc table is first SEMI-filtered to ids
    that appear in any pair (Bloom partials + exact bucket semi join), so
    only candidate payloads move — the full corpus text never rides a
    shuffle.  The filtered payload set (bounded by 2×pairs rows) broadcasts
    via ray.put when its bytes ``aggregates.fits``; above it, two
    co-partitioned bucket joins attach the sides."""
    import ray
    import ray.data as rd

    from .joins import bucket_join, bucket_semi_join

    pairs_ds = pairs_ds.materialize()
    if pairs_ds.count() == 0:
        empty = pairs_ds.limit(0).to_pandas()
        empty[left_out] = pd.Series(dtype=object)
        empty[right_out] = pd.Series(dtype=object)
        return rd.from_pandas(empty)

    mentioned = pairs_ds.map_batches(
        lambda df: pd.DataFrame(
            {"pid": pd.concat([df["left_id"], df["right_id"]],
                              ignore_index=True)}),
        batch_format="pandas")
    docs_small = bucket_semi_join(
        docs_ds.map_batches(lambda df: df[[id_col, payload_col]],
                            batch_format="pandas"),
        mentioned, id_col, "pid").materialize()

    if aggregates.fits("dedup.pair_payloads", docs_small.size_bytes() or 0):
        dsmall = docs_small.to_pandas()
        lookup_ref = ray.put(dict(zip(dsmall[id_col], dsmall[payload_col])))

        def attach(df: pd.DataFrame) -> pd.DataFrame:
            lookup = ray.get(lookup_ref)
            df = df.copy()
            df[left_out] = df["left_id"].map(lookup)
            df[right_out] = df["right_id"].map(lookup)
            return df

        return pairs_ds.map_batches(attach, batch_format="pandas")

    left_side = docs_small.map_batches(
        lambda df: df.rename(columns={id_col: "__lid",
                                      payload_col: left_out}),
        batch_format="pandas")
    j1 = bucket_join(pairs_ds, left_side, "left_id", "__lid")
    right_side = docs_small.map_batches(
        lambda df: df.rename(columns={id_col: "__rid",
                                      payload_col: right_out}),
        batch_format="pandas")
    return bucket_join(j1, right_side, "right_id", "__rid")


def _verify_jaccard_shingles(pairs_df: pd.DataFrame, k: int,
                             min_jaccard: float) -> pd.DataFrame:
    if pairs_df.empty:
        return pairs_df.assign(jaccard=pd.Series(dtype=float))
    jac = []
    for ln, rn in zip(pairs_df["left_name"], pairs_df["right_name"]):
        lt, rt = (ln or "").split(), (rn or "").split()
        ls = set(zip(*[lt[i:] for i in range(k)])) if len(lt) >= k else {tuple(lt)}
        rs = set(zip(*[rt[i:] for i in range(k)])) if len(rt) >= k else {tuple(rt)}
        jac.append(jaccard(ls, rs))
    out = pairs_df.assign(jaccard=jac)
    return out[out["jaccard"] >= min_jaccard]


def minhash_dedup_pairs(docs_ds, min_jaccard: float = 0.7, num_perm: int = 128,
                        num_bands: int = 32, k: int = 3,
                        id_col: str = "doc_id", text_col: str = "text"):
    """Verified near-duplicate pairs (left_id, right_id, jaccard).

    Scale shape: the blocking shuffle carries (band_idx, band_hash, id)
    rows only; distinct candidate pairs join text back through a
    semi-filtered co-partitioned join (attach_pair_payloads) before the
    exact-Jaccard verify."""
    docs_ds = docs_ds.materialize()  # consumed twice: blocking + payloads
    blocked = docs_ds.map_batches(
        shingle_band_rows,
        fn_kwargs={"num_perm": num_perm, "num_bands": num_bands, "k": k,
                   "id_col": id_col, "text_col": text_col},
        batch_format="pyarrow")
    pairs = _distinct_pairs(candidate_pairs(blocked))
    pairs = attach_pair_payloads(pairs, docs_ds, id_col, text_col)
    return pairs.map_batches(
        lambda df: _verify_jaccard_shingles(df, k, min_jaccard),
        batch_format="pandas")


def assign_components(pairs_ds, all_ids=None) -> pd.DataFrame:
    """Pairs → (id, component) DataFrame.  Ids not in any pair map to
    themselves when ``all_ids`` is given.  A pair Dataset whose bytes do
    not ``aggregates.fits`` runs the distributed large/small-star CC
    instead of driver union-find (the RESULT is still driver-sized — use
    :func:`assign_components_ds` when the id universe itself is
    corpus-scale)."""
    if hasattr(pairs_ds, "to_pandas"):
        pairs_ds = pairs_ds.materialize()
        if not aggregates.fits("dedup.components",
                               pairs_ds.size_bytes() or 0):
            from .canonicalize import connected_components_distributed

            comp = connected_components_distributed(
                pairs_ds.select_columns(["left_id", "right_id"])).to_pandas()
            df = None
        else:
            df = pairs_ds.to_pandas()
    else:
        df = pairs_ds
    if df is not None:
        if df.empty:
            comp = pd.DataFrame({"id": [], "component": []})
        else:
            comp = connected_components_local(df[["left_id", "right_id"]])
    if all_ids is not None:
        extra = sorted(set(all_ids) - set(comp["id"]))
        comp = pd.concat([comp, pd.DataFrame({"id": extra, "component": extra})],
                         ignore_index=True)
    return comp.sort_values("id").reset_index(drop=True)


def assign_components_ds(pairs_ds, ids_ds=None, id_col: str = "doc_id"):
    """Dataset-native (id, component): verified-pair sets whose bytes
    ``aggregates.fits`` finish with driver union-find (exact,
    post-blocking-small); above it the distributed CC runs.  Ids in no
    pair fill identity through a bucket ANTI join — the id universe never
    lands on the driver."""
    import ray.data as rd

    from .joins import bucket_anti_join

    pairs_ds = pairs_ds.materialize()
    if pairs_ds.count() == 0:
        comp_ds = None
    elif aggregates.fits("dedup.components_ds", pairs_ds.size_bytes() or 0):
        comp = connected_components_local(
            pairs_ds.select_columns(["left_id", "right_id"]).to_pandas())
        comp_ds = rd.from_pandas(comp)
    else:
        from .canonicalize import connected_components_distributed

        comp_ds = connected_components_distributed(
            pairs_ds.select_columns(["left_id", "right_id"]))
    if ids_ds is None:
        if comp_ds is None:
            return rd.from_pandas(pd.DataFrame({"id": [], "component": []}))
        return comp_ds

    ids_only = ids_ds.map_batches(
        lambda df: pd.DataFrame({"id": df[id_col]}), batch_format="pandas")
    if comp_ds is None:
        return ids_only.map_batches(
            lambda df: df.assign(component=df["id"]), batch_format="pandas")
    comp_ds = comp_ds.materialize()
    rest = bucket_anti_join(ids_only, comp_ds.select_columns(["id"]),
                            "id", "id")
    rest = rest.map_batches(lambda df: df.assign(component=df["id"]),
                            batch_format="pandas")
    return comp_ds.union(rest)


# ---------------------------------------------------------------------------
# SimHash near-dedup
# ---------------------------------------------------------------------------

def simhash_band_rows(batch: pa.Table, id_col: str = "doc_id",
                      text_col: str = "text") -> pa.Table:
    """(id, text) → 64-bit simhash band rows: the 4 16-bit chunks are the
    band hashes, and the simhash rides along as ``sh`` — the 8-byte verify
    payload is small enough for the band shuffle (unlike document text)."""
    sh = np.array(
        [hashing.simhash64(hashing.hash64((t or "").split() or [""]))
         for t in batch.column(text_col).to_pylist()], dtype=np.uint64)
    chunks = (sh[:, None] >> (np.uint64(16) * np.arange(4, dtype=np.uint64))) \
        & np.uint64(0xFFFF)
    return band_rows(batch.column(id_col), chunks,
                     sh=pa.array(sh.astype(np.int64)))


def simhash_dedup_pairs(docs_ds, max_hamming: int = 3,
                        id_col: str = "doc_id", text_col: str = "text"):
    """SimHash banding: 4 chunks of 16 bits — two docs within Hamming ≤ 3 of
    each other share at least one exact chunk (pigeonhole) → groupby(chunk)
    candidates → Hamming verify."""
    pairs = _distinct_pairs(candidate_pairs(docs_ds.map_batches(
        simhash_band_rows, fn_kwargs={"id_col": id_col, "text_col": text_col},
        batch_format="pyarrow")))

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return df.assign(hamming=pd.Series(dtype=int))
        l = df["left_sh"].to_numpy(dtype=np.int64).view(np.uint64)
        r = df["right_sh"].to_numpy(dtype=np.int64).view(np.uint64)
        ham = hashing.hamming_distance64(l, r)
        out = df.assign(hamming=ham)
        return out[out["hamming"] <= max_hamming]

    return pairs.map_batches(verify, batch_format="pandas")


# ---------------------------------------------------------------------------
# char-n-gram Jaccard near-dedup (different verifier over the same blocking)
# ---------------------------------------------------------------------------

def ngram_jaccard_pairs(docs_ds, min_jaccard: float = 0.6,
                        min_n: int = 2, max_n: int = 4,
                        id_col: str = "doc_id", text_col: str = "text"):
    """LSH-blocked candidates verified by char 2-4-gram Jaccard — the
    reference's string similarity (InstanceBasedComparer.java:556-575) at
    document granularity.  Same id-only blocking + payload-join shape as
    ``minhash_dedup_pairs``."""
    docs_ds = docs_ds.materialize()  # consumed twice: blocking + payloads
    blocked = docs_ds.map_batches(
        shingle_band_rows, fn_kwargs={"id_col": id_col, "text_col": text_col},
        batch_format="pyarrow")
    pairs = attach_pair_payloads(
        _distinct_pairs(candidate_pairs(blocked)), docs_ds, id_col, text_col)

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return df.assign(jaccard=pd.Series(dtype=float))
        jac = [jaccard(set(ngrams_in_bounds(ln or "", min_n, max_n)),
                       set(ngrams_in_bounds(rn or "", min_n, max_n)))
               for ln, rn in zip(df["left_name"], df["right_name"])]
        out = df.assign(jaccard=jac)
        return out[out["jaccard"] >= min_jaccard]

    return pairs.map_batches(verify, batch_format="pandas")


# ---------------------------------------------------------------------------
# embedding-cosine near-dedup
# ---------------------------------------------------------------------------

def hyperplane_band_rows(batch: pa.Table, dim: int, num_tables: int = 4,
                         bits: int = 12, seed: int = 42,
                         id_col: str = "vec_id",
                         vec_col: str = "embedding") -> pa.Table:
    """Random-hyperplane LSH for unit vectors: ``bits`` signed projections
    → one bucket per table (band); near-identical vectors share buckets with
    high probability, and more tables boost recall.  The unit vectors ride
    the band shuffle as fixed-width little-endian f32 bytes (``vec``)."""
    planes = np.random.default_rng(seed).standard_normal(
        (num_tables, bits, dim)).astype(np.float32)
    ids = batch.column(id_col)
    vecs = np.asarray(batch.column(vec_col).to_pylist(),
                      dtype=np.float32).reshape(len(ids), dim)
    unit = np.ascontiguousarray(
        vecs / np.maximum(np.linalg.norm(vecs, axis=1, keepdims=True), 1e-12),
        dtype="<f4")
    weights = np.int64(1) << np.arange(bits, dtype=np.int64)
    buckets = np.stack([((unit @ p.T > 0) * weights).sum(axis=1)
                        for p in planes], axis=1)
    offsets = np.arange(len(ids) + 1, dtype=np.int32) * (4 * dim)
    vec = pa.Array.from_buffers(pa.binary(), len(ids),
                                [None, pa.py_buffer(offsets), pa.py_buffer(unit)])
    return band_rows(ids, buckets, vec=vec)


# the exact path's row block: a 2048 × n float64 slice of the similarities
_EXACT_BLOCK_ROWS = 2048


def embedding_dedup_pairs(emb_ds, min_cosine: float = 0.95, dim: int = 64,
                          id_col: str = "vec_id", vec_col: str = "embedding",
                          exact_threshold: int = 20_000):
    """Cosine-similar pairs.  Adaptive: below ``exact_threshold`` vectors the
    exact all-pairs matmul runs on the driver (hyperplane LSH only has recall
    for near-identical vectors; exact is both cheap and complete at this
    size); above it, the hyperplane-bucketed distributed path runs."""
    n = emb_ds.count()
    if n <= exact_threshold:
        import ray.data as rd

        df = emb_ds.to_pandas()
        if n == 0:  # an empty Dataset's frame has no columns
            schema = emb_ds.schema()
            ids = np.empty(0, np.int64 if schema is None else
                           schema.base_schema.field(id_col).type.to_pandas_dtype())
        else:
            ids = df[id_col].to_numpy()
            vecs = np.asarray(df[vec_col].tolist(), dtype=np.float64)
            unit = vecs / np.maximum(
                np.linalg.norm(vecs, axis=1, keepdims=True), 1e-12)
        # typed empty pieces first, so an empty input still concatenates
        li, ri, cos = [ids[:0]], [ids[:0]], [np.empty(0)]
        # row blocks against the rows from their start onward, j > i kept:
        # the pairs of the full upper triangle in its order, without the
        # n×n matrix and its index arrays (~6 GB at n = 20k)
        for s in range(0, n, _EXACT_BLOCK_ROWS):
            sims = unit[s:s + _EXACT_BLOCK_ROWS] @ unit[s:].T
            i, j = np.nonzero(np.triu(sims >= min_cosine, k=1))
            li.append(ids[s + i])
            ri.append(ids[s + j])
            cos.append(sims[i, j])
        return rd.from_pandas(pd.DataFrame({"left_id": np.concatenate(li),
                                            "right_id": np.concatenate(ri),
                                            "cosine": np.concatenate(cos)}))

    blocked = emb_ds.map_batches(
        hyperplane_band_rows,
        fn_kwargs={"dim": dim, "id_col": id_col, "vec_col": vec_col},
        batch_format="pyarrow")
    pairs = _distinct_pairs(candidate_pairs(blocked, max_block=200))

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return df.assign(cosine=pd.Series(dtype=float))[
                ["left_id", "right_id", "cosine"]]
        lv = np.stack([np.frombuffer(b, dtype="<f4") for b in df["left_vec"]])
        rv = np.stack([np.frombuffer(b, dtype="<f4") for b in df["right_vec"]])
        cos = (lv.astype(np.float64) * rv.astype(np.float64)).sum(axis=1)
        out = df.assign(cosine=cos)
        out = out[out["cosine"] >= min_cosine]
        return out[["left_id", "right_id", "cosine"]]

    return pairs.map_batches(verify, batch_format="pandas")
