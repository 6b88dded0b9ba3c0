"""Token-sharded inverted label index (the Lucene value index re-expressed).

Reference: IndexManager.indexValue (SJ/index/IndexManager.java:239-272) builds
one Lucene doc per cell posting behind a single synchronized 1-GB-buffer
IndexWriter; search tokenizes the query and ORs term queries with optional
fuzzy expansion (searchIndex :290-458).

New design (SURVEY §2.3): the index is DATA, not a side effect —

  build:  entities Dataset → explode (alias → posting rows) → tokenize →
          distinct (token, entry) posting Dataset → hash(ENTITY) %
          num_shards → one Parquet file per shard (written in parallel, no
          shared writer), plus a global term dictionary (``vocab/``: token →
          document frequency) and ``_meta.json`` (global entry count, shard
          list, byte size).
  serve:  two modes —
          * replicated (small gazetteer): each LinkerActor loads ALL shards
            once in __init__ — the broadcast-small-side pattern.
          * shard-routed (large KB): each serving task loads ONE shard =
            a complete mini-index over 1/N of the entities (the Lucene
            scatter-gather design, one index many searchers:
            SJ/index/IndexManager.java:239-272).  Because entries are
            ENTITY-sharded, a candidate's whole score accumulates inside
            its home shard; with the build-time GLOBAL df/n_entries the
            per-shard scores equal the full-index scores exactly, and the
            gather step just concatenates candidate lists per mention.
            Token-routed sharding (mentions to their rarest token's shard)
            was rejected: a multi-token mention's idf contributions span
            token shards, so no single shard can reproduce the full score.
          Fuzzy expansion stays exact under sharding: the trigger "token
          missing from the GLOBAL vocabulary" consults the term dictionary
          (hash64-membership; 64-bit collisions are the documented
          approximation), and each shard expands over its LOCAL vocabulary
          only — the union over shards equals the full-index expansion
          because a fuzzy token contributes only through its own postings.

Schema of a posting row:
  (token, entry_id, entity_uri, name_norm, n_tokens, is_primary)
entry_id indexes the per-shard string tables; is_primary marks the canonical
label vs aliases (IndexEntry.isPrimaryKey analog).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from ..functions.hashing import hash64
from ..functions.normalize import tokenize_string
from ..functions.similarity import jaccard, levenshtein
from . import fsio

POSTING_SCHEMA = pa.schema([
    ("token", pa.string()),
    ("entity_uri", pa.string()),
    ("name_norm", pa.string()),
    ("n_tokens", pa.int32()),
    ("is_primary", pa.bool_()),
    ("entity_type", pa.string()),
    ("attrs_norm", pa.string()),   # '\x1f'-joined normalized sibling attrs
])

_ATTR_SEP = "\x1f"


def postings_from_entities_batch(batch: pa.Table) -> pa.Table:
    """entities(entity_uri, label, aliases[, entity_type, attrs]) → posting
    rows (one per token per name variant).  ``attrs`` (list<str>) are the
    entity's sibling-attribute values — indexed alongside every posting so the
    serving structure can score row context (refine-attrs,
    IndexManager.java:677-746) without a second lookup."""
    uris = batch.column("entity_uri").to_pylist()
    labels = batch.column("label").to_pylist()
    aliases = batch.column("aliases").to_pylist() if "aliases" in batch.column_names \
        else [[] for _ in uris]
    types = batch.column("entity_type").to_pylist() \
        if "entity_type" in batch.column_names else [""] * len(uris)
    attrs = batch.column("attrs").to_pylist() \
        if "attrs" in batch.column_names else [[] for _ in uris]
    cols = {n: [] for n in POSTING_SCHEMA.names}
    for uri, label, als, etype, ats in zip(uris, labels, aliases, types, attrs):
        attrs_norm = _ATTR_SEP.join(
            " ".join(tokenize_string(a, remove_brackets=True))
            for a in (ats or []) if a)
        names = [(label, True)] + [(a, False) for a in (als or [])]
        seen_norms = set()
        for name, primary in names:
            toks = tokenize_string(name, remove_brackets=True)
            norm = " ".join(toks)
            if not toks or norm in seen_norms:
                continue
            seen_norms.add(norm)
            for t in set(toks):
                cols["token"].append(t)
                cols["entity_uri"].append(uri)
                cols["name_norm"].append(norm)
                cols["n_tokens"].append(len(toks))
                cols["is_primary"].append(primary)
                cols["entity_type"].append(etype)
                cols["attrs_norm"].append(attrs_norm)
    return pa.Table.from_pydict(cols, schema=POSTING_SCHEMA)


_VOCAB_DIR = "vocab"
_META_FILE = "_meta.json"
# LabelIndex resident bytes ≈ this × uncompressed Arrow posting bytes
# (measured 6.6× at a 1M-entity/3M-posting gazetteer on the former
# dict-of-arrays index, rounded up; the flat CSR index holds ~0.6× at 200k
# entities, so this now overstates — kept until the replicate guard is
# re-tuned with it)
_MEM_INFLATION = 7


def add_shard_column(batch: pa.Table, num_shards: int) -> pa.Table:
    """ENTITY-hash shard assignment: an entry (uri, name_norm) and all its
    postings land on ONE shard, so each shard file is a complete mini-index
    over 1/N of the entities (the shard-routed serving contract)."""
    import pyarrow.compute as pc

    ent = pc.binary_join_element_wise(
        batch.column("entity_uri"), batch.column("name_norm"), "\x00")
    shard = hash64(ent.to_pylist()) % num_shards
    return batch.append_column("shard", pa.array(shard.astype("int32")))


def build_index(entities_ds, index_dir: str, num_shards: int = 8,
                fs=None) -> int:
    """Index build: postings → distinct (token, entry) → [global df per
    token → ``vocab/``] + [entity-shard split → one Parquet file per
    shard] + ``_meta.json`` (global n_entries, live shards, bytes).
    Returns the number of distinct postings.

    The posting map runs once and its output is measured (the
    ``two_phase_agg`` pattern): over a materialized input that
    ``aggregates.fits`` it is an ``aggregates.run_blocks`` pass (no Ray
    Data execution), otherwise ONE Dataset job, materialized.  When the
    postings fit, the dedupe/df/vocab/shard finish happens ON THE DRIVER —
    the distributed tail is three more exchanges over the posting set
    (distinct, df aggregate, shard groupby), ~1.5–2 s of fixed task
    overhead for a kilobyte-scale gazetteer (BASELINE.md #44).  Above the
    guard every step stays distributed; the artifact layout is identical
    either way (equivalence pinned by
    ``test_index_build_local_distributed_identical``).

    ``fs``: optional ``pyarrow.fs.FileSystem`` for ``index_dir`` — the
    shared-storage index build (shard writers run in Ray tasks and carry
    the pickled fs).  ``None`` = POSIX fast path (see ``state/fsio.py``)."""
    import ray
    import ray.data as rd

    from ..stages import aggregates

    fsio.makedirs(fs, index_dir)
    # a rebuild with fewer live shards must not leave stale files behind —
    # the full-load LabelIndex globs shard_*.parquet
    for f in fsio.listdir(fs, index_dir):
        if f.startswith("shard_") or f == _META_FILE:
            fsio.remove(fs, os.path.join(index_dir, f))
    fsio.rmtree(fs, os.path.join(index_dir, _VOCAB_DIR))

    blocks = postings = None
    if aggregates.is_materialized(entities_ds) and aggregates.fits(
            "index.entities", entities_ds.size_bytes() or 0):
        # entities that already exist and fit the guard: the posting map is
        # a pass over their blocks (in-process at one CPU slot)
        blocks = aggregates.run_blocks(
            postings_from_entities_batch,
            aggregates.block_refs(entities_ds.materialize()))
        nbytes = sum(b.nbytes for b in blocks)
    else:
        postings = entities_ds.map_batches(postings_from_entities_batch,
                                           batch_format="pyarrow").materialize()
        nbytes = postings.size_bytes() or 0
    if aggregates.fits("index.postings", nbytes):
        if blocks is None:
            blocks = ray.get(postings.to_arrow_refs())
        # empty blocks pass a map_batches through with the INPUT schema (Ray
        # never calls the UDF on them) — an all-empty pull must still be
        # POSTING_SCHEMA
        blocks = [b for b in blocks if b.num_rows]
        tbl = pa.concat_tables(blocks) if blocks \
            else POSTING_SCHEMA.empty_table()
        return _build_index_driver(tbl, index_dir, num_shards, fs)
    if postings is None:
        postings = rd.from_arrow(blocks)

    def add_key(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ent = pc.binary_join_element_wise(
            t.column("entity_uri"), t.column("name_norm"), "\x00")
        key = pc.binary_join_element_wise(t.column("token"), ent, "\x00")
        return t.append_column("__key", key)

    # duplicate gazetteer rows (same uri+norm) must collapse BEFORE df:
    # document frequency is distinct-entry count per token — the serving
    # structure factorizes to the same set, so idf stays bit-identical
    # between the replicated and shard-routed paths
    deduped = aggregates.dedupe_by_key(
        postings.map_batches(add_key, batch_format="pyarrow"),
        "__key").materialize()
    n_postings = deduped.count()

    vocab_tmp = os.path.join(index_dir, _VOCAB_DIR + ".tmp")
    vocab_dir = os.path.join(index_dir, _VOCAB_DIR)
    fsio.rmtree(fs, vocab_tmp)
    df_ds = aggregates.two_phase_agg(deduped, ["token"],
                                     {"df": (None, "count")})
    if fs is None:
        df_ds.write_parquet(vocab_tmp)
    else:
        df_ds.write_parquet(vocab_tmp, filesystem=fs)
    fsio.rmtree(fs, vocab_dir)
    fsio.move(fs, vocab_tmp, vocab_dir)

    sharded = deduped.map_batches(
        lambda t: add_shard_column(t.drop_columns(["__key"]), num_shards),
        batch_format="pyarrow")

    def write_shard(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        sid = int(group.column("shard")[0].as_py())
        out = group.drop_columns(["shard"]).sort_by([("token", "ascending")])
        tmp = os.path.join(index_dir, f"shard_{sid:04d}.parquet.tmp")
        fsio.write_parquet(fs, out, tmp)
        fsio.move(fs, tmp, os.path.join(index_dir, f"shard_{sid:04d}.parquet"))
        # entity-sharding makes shard-local entry sets DISJOINT, so the
        # global n_entries is the plain sum of per-shard distincts
        ents = pc.binary_join_element_wise(
            out.column("entity_uri"), out.column("name_norm"), "\x00")
        return pa.table({"shard": [sid], "postings": [out.num_rows],
                         "entries": [int(pc.count_distinct(ents).as_py())],
                         "arrow_bytes": [int(out.nbytes)]})

    stats = sharded.groupby("shard").map_groups(
        write_shard, batch_format="pyarrow").take_all()
    return _write_index_meta(fs, index_dir, num_shards, stats)["postings"]


def _write_index_meta(fs, index_dir: str, num_shards: int,
                      stats: list[dict]) -> dict:
    """``_meta.json`` from per-shard (shard, postings, entries, arrow_bytes)
    stats — shared by the driver-local and distributed builds."""
    live = sorted(int(r["shard"]) for r in stats)
    arrow_bytes = int(sum(r["arrow_bytes"] for r in stats))
    meta = {
        "version": 1,
        "sharding": "entity",
        "num_shards": num_shards,
        "shards": live,
        "n_entries": int(sum(r["entries"] for r in stats)),
        "postings": int(sum(r["postings"] for r in stats)),
        "bytes": sum(fsio.size(fs, os.path.join(index_dir, f))
                     for f in fsio.listdir(fs, index_dir)
                     if f.startswith("shard_") and f.endswith(".parquet")),
        # what the REPLICATED mode would cost per worker: LabelIndex's
        # resident bytes, estimated from the uncompressed Arrow posting
        # bytes.  Parquet file size is the WRONG basis for the
        # replicate-vs-shard-route decision — measured at a 1M-entity
        # gazetteer on the former dict index: 76 MB parquet → 360 MB Arrow
        # → ~2.4 GB resident (~6.6× Arrow, ~30× disk; BASELINE.md round 5)
        "arrow_bytes": arrow_bytes,
        "mem_bytes_est": arrow_bytes * _MEM_INFLATION,
    }
    fsio.write_json_atomic(fs, os.path.join(index_dir, _META_FILE), meta)
    return meta


def _build_index_driver(tbl: pa.Table, index_dir: str, num_shards: int,
                        fs) -> int:
    """Driver-local finish for a measured-small posting set: identical
    artifact layout (``vocab/``, ``shard_*.parquet``, ``_meta.json``)
    without the dedupe/df/shard Dataset exchanges.  The whole posting set
    fits the 32 MB driver guard, so dedupe is one ``np.unique`` and each
    shard file is a filtered, token-sorted slice written directly."""
    import numpy as np
    import pyarrow.compute as pc

    tbl = tbl.combine_chunks()
    ent = pc.binary_join_element_wise(
        tbl.column("entity_uri"), tbl.column("name_norm"), "\x00")
    key = pc.binary_join_element_wise(tbl.column("token"), ent, "\x00")
    karr = np.asarray(key.to_pylist(), dtype=object)
    _, first = np.unique(karr, return_index=True)
    if len(first) != len(karr):
        sel = pa.array(np.sort(first))
        tbl = tbl.take(sel)
        ent = ent.take(sel)

    # postings are now distinct per (token, entry) → df = rows per token
    utok, dfc = np.unique(
        np.asarray(tbl.column("token").to_pylist(), dtype=object),
        return_counts=True)
    vocab_tmp = os.path.join(index_dir, _VOCAB_DIR + ".tmp")
    vocab_dir = os.path.join(index_dir, _VOCAB_DIR)
    fsio.rmtree(fs, vocab_tmp)
    fsio.makedirs(fs, vocab_tmp)
    fsio.write_parquet(
        fs,
        pa.table({"token": pa.array(utok.tolist(), pa.string()),
                  "df": pa.array(dfc.astype("int64"))}),
        os.path.join(vocab_tmp, "vocab-00000.parquet"))
    fsio.rmtree(fs, vocab_dir)
    fsio.move(fs, vocab_tmp, vocab_dir)

    shard = hash64(ent.to_pylist()) % num_shards
    stats: list[dict] = []
    for sid in np.unique(shard):
        idx = np.flatnonzero(shard == sid)
        out = tbl.take(pa.array(idx)).sort_by([("token", "ascending")])
        tmp = os.path.join(index_dir, f"shard_{int(sid):04d}.parquet.tmp")
        fsio.write_parquet(fs, out, tmp)
        fsio.move(fs, tmp,
                  os.path.join(index_dir, f"shard_{int(sid):04d}.parquet"))
        ents = pc.binary_join_element_wise(
            out.column("entity_uri"), out.column("name_norm"), "\x00")
        stats.append({"shard": int(sid), "postings": out.num_rows,
                      "entries": int(pc.count_distinct(ents).as_py()),
                      "arrow_bytes": int(out.nbytes)})
    return _write_index_meta(fs, index_dir, num_shards, stats)["postings"]


def index_meta(index_dir: str, fs=None) -> dict | None:
    """The build's ``_meta.json`` (None for a pre-meta or missing index).
    ``fs``, here and in every loader below: the ``pyarrow.fs.FileSystem``
    the index was built through (``build_index(fs=)``); None is POSIX."""
    return fsio.read_json(fs, os.path.join(index_dir, _META_FILE))


class VocabStats:
    """The global term dictionary (token → document frequency) + global
    entry count, loaded once per worker process and shared by every shard
    index of the same ``index_dir``.  Membership/df lookups go through a
    sorted hash64 array — ~12 bytes per vocabulary token, the only global
    state a shard-routed worker holds (the postings + entry metadata, which
    dominate the index, stay 1/N per shard)."""

    def __init__(self, index_dir: str, fs=None):
        meta = index_meta(index_dir, fs)
        if meta is None:
            raise FileNotFoundError(f"no {_META_FILE} under {index_dir}")
        self.n_entries = max(1, int(meta["n_entries"]))
        vdir = os.path.join(index_dir, _VOCAB_DIR)
        if not fsio.isdir(fs, vdir):
            raise FileNotFoundError(f"no {_VOCAB_DIR}/ under {index_dir}")
        tabs = [fsio.read_parquet(fs, os.path.join(vdir, f),
                                  columns=["token", "df"])
                for f in fsio.listdir(fs, vdir) if f.endswith(".parquet")]
        t = pa.concat_tables(tabs) if tabs else pa.table(
            {"token": pa.array([], pa.string()),
             "df": pa.array([], pa.int64())})
        hashes = hash64(t.column("token").to_numpy(zero_copy_only=False)) \
            .astype(np.uint64)
        order = np.argsort(hashes, kind="stable")
        self._h = hashes[order]
        self._df = t.column("df").to_numpy(zero_copy_only=False)[order] \
            .astype(np.int64)

    def df_many(self, tokens) -> np.ndarray:
        """Global document frequency per token (0 = not in the vocabulary):
        one ``hash64`` call and one ``searchsorted`` for the whole batch."""
        h = hash64(tokens)
        if not len(self._h):
            return np.zeros(len(h), dtype=np.int64)
        i = np.minimum(np.searchsorted(self._h, h), len(self._h) - 1)
        return np.where(self._h[i] == h, self._df[i], 0)

    def contains_many(self, tokens) -> np.ndarray:
        return self.df_many(tokens) > 0

    def df_of(self, token: str) -> int:
        return int(self.df_many([token])[0])

    def contains(self, token: str) -> bool:
        return bool(self.contains_many([token])[0])


def index_stamp(index_dir: str, fs=None) -> tuple | None:
    """The build stamp of ``index_dir``: its ``_meta.json``'s
    ``fsio.stamp`` — (mtime_ns, inode) on POSIX, (mtime_ns, size) through
    ``fs`` — None for a pre-meta index.  A build writes the file by atomic
    rename, so a rebuild at the same path gets a new inode.  Per-process
    caches of a loaded index key on it next to the path, or an index
    rebuilt in place would be served stale."""
    return fsio.stamp(fs, os.path.join(index_dir, _META_FILE))


_VOCAB_CACHE: dict[tuple, VocabStats] = {}


def vocab_stats_for(index_dir: str, fs=None) -> VocabStats:
    """Per-process VocabStats cache (Ray reuses worker processes), keyed by
    path and build stamp."""
    key = (index_dir, index_stamp(index_dir, fs))
    v = _VOCAB_CACHE.get(key)
    if v is None:
        if len(_VOCAB_CACHE) > 4:
            _VOCAB_CACHE.clear()
        v = VocabStats(index_dir, fs)
        _VOCAB_CACHE[key] = v
    return v


def _utf8_buffers(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """A string array's (byte offsets int64[n+1], UTF-8 bytes uint8) as
    zero-copy numpy views."""
    bufs = arr.buffers()
    offs = np.frombuffer(bufs[1], dtype=np.int32)[
        arr.offset:arr.offset + len(arr) + 1].astype(np.int64)
    return offs, np.frombuffer(bufs[2], dtype=np.uint8)


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + l)`` for every (start, length) pair."""
    total = int(lens.sum())
    ends = np.cumsum(lens)
    return np.arange(total, dtype=np.int64) + np.repeat(starts - ends + lens,
                                                        lens)


def _fuzzy_keys(offs: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Fuzzy bucket key per string: its first character's UTF-8 bytes in
    the high 32 bits, its length in characters in the low 32."""
    lead = (data & 0xC0) != 0x80
    cs = np.zeros(len(data) + 1, dtype=np.int64)
    np.cumsum(lead, out=cs[1:])
    nchar = (cs[offs[1:]] - cs[offs[:-1]]).astype(np.uint64)
    pad = np.concatenate([data, np.zeros(4, dtype=np.uint8)]).astype(np.uint64)
    st = offs[:-1]
    b0 = pad[st]
    nbytes = 1 + (b0 >= 0xC0) + (b0 >= 0xE0) + (b0 >= 0xF0)
    first = b0
    for k in (1, 2, 3):
        first = (first << np.uint64(8)) | np.where(k < nbytes, pad[st + k], 0) \
            .astype(np.uint64)
    first = np.where(offs[1:] > st, first, 0).astype(np.uint64)
    return (first << np.uint64(32)) | nchar


_HIST_BINS = 32


def _char_hist(offs: np.ndarray, data: np.ndarray,
               ids: np.ndarray) -> np.ndarray:
    """Per string ``ids[i]``: character counts over ``_HIST_BINS`` bins
    (a character's bin is its UTF-8 lead byte mod the bin count; a-z get
    a bin each)."""
    st = offs[ids]
    lens = offs[ids + 1] - st
    b = data[_ranges(st, lens)]
    row = np.repeat(np.arange(len(ids), dtype=np.int64), lens)
    lead = (b & 0xC0) != 0x80
    flat = row[lead] * _HIST_BINS + (b[lead] % _HIST_BINS)
    return np.bincount(flat, minlength=len(ids) * _HIST_BINS) \
        .reshape(len(ids), _HIST_BINS)


def attrs_toksets(attrs_norm: str) -> tuple:
    """An entry's ``attrs_norm`` string → one token set per sibling
    attribute (the refine-attrs context, IndexManager.java:677-746)."""
    if not attrs_norm:
        return ()
    return tuple(frozenset(a.split()) for a in attrs_norm.split(_ATTR_SEP)
                 if a)


def has_attr_tokens(attrs_norm: pa.Array) -> np.ndarray:
    """Vectorized ``bool(attrs_toksets(s))`` over a string array."""
    import pyarrow.compute as pc

    stripped = pc.replace_substring(pc.fill_null(attrs_norm, ""), _ATTR_SEP, "")
    return pc.greater(pc.binary_length(stripped), 0) \
        .to_numpy(zero_copy_only=False)


def rank_keys(uri: pa.Array, norm: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Per (uri, name_norm) row: its position in (uri, name_norm) order and
    the dense rank of its uri — the numeric keys of the vectorized top-k
    (Arrow's byte order on UTF-8 equals Python's code-point order)."""
    import pyarrow.compute as pc

    n = len(uri)
    order = pc.sort_indices(pa.table({"u": uri, "n": norm}),
                            sort_keys=[("u", "ascending"),
                                       ("n", "ascending")]).to_numpy()
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    su = uri.take(pa.array(order))
    new = np.ones(n, dtype=np.int64)
    if n > 1:
        new[1:] = pc.not_equal(su.slice(1), su.slice(0, n - 1)) \
            .to_numpy(zero_copy_only=False)
    urank = np.empty(n, dtype=np.int64)
    urank[order] = np.cumsum(new) - 1
    return rank, urank


def _python_round9(scores: np.ndarray) -> np.ndarray:
    """Bitwise ``round(s, 9)`` per score, vectorized.

    Python's round takes the nearest 9-decimal value n·1e-9 of the EXACT
    binary score (half-even) and returns the double nearest to it;
    ``np.rint(x * 1e9) / 1e9`` gets the same n whenever the product's
    rounding error cannot carry it across a half-way point (for |x| < 1e3
    that error is under 6.2e-5, well inside the 1e-3 window), and the IEEE
    division is the nearest double to n·1e-9.  Scores near a half-way
    point, |x| >= 1e3 and non-finite values take Python's round (np.round
    differs from it at half-way cases, and finalize_candidates and its SQL
    oracle rank by Python's)."""
    x = np.asarray(scores, dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):
        y = x * 1e9
        out = np.rint(y) / 1e9
        slow = ~(np.abs(x) < 1e3) | \
            (np.abs(y - np.floor(y) - 0.5) <= 1e-3)
    for i in np.flatnonzero(slow).tolist():
        out[i] = round(float(x[i]), 9)
    return out


def top_hits(mid: np.ndarray, n_mentions: int, scores: np.ndarray,
             rank: np.ndarray, urank: np.ndarray,
             top_k: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`finalize_candidates` without context over flat
    candidates (``mid`` = mention of each, ``rank``/``urank`` from
    :func:`rank_keys`): per mention, order by (-round(score, 9), uri,
    name_norm), keep each uri's first candidate, cut at ``top_k``.
    → (candidate indices in output order, hit count per mention)."""
    order = np.lexsort((rank, -_python_round9(scores), mid))
    pair = mid[order].astype(np.int64) * (int(urank.max(initial=0)) + 1) \
        + urank[order]
    keep = np.zeros(len(order), dtype=bool)
    keep[np.unique(pair, return_index=True)[1]] = True
    order = order[keep]
    m = mid[order]
    counts = np.bincount(m, minlength=n_mentions)
    pos = np.arange(len(order)) - (np.cumsum(counts) - counts)[m]
    return order[pos < top_k], np.minimum(counts, top_k)


def score_gaps(mid: np.ndarray, n_mentions: int,
               scores: np.ndarray) -> np.ndarray:
    """Per mention: best minus second-best candidate score (inf with fewer
    than two candidates) — the margin the context gate compares."""
    counts = np.bincount(mid, minlength=n_mentions)
    starts = np.cumsum(counts) - counts
    s = scores[np.lexsort((-scores, mid))]
    gap = np.full(n_mentions, np.inf)
    two = counts > 1
    gap[two] = s[starts[two]] - s[starts[two] + 1]
    return gap


class LabelIndex:
    """In-memory serving structure over the shard files (loaded once per
    process).  Mirrors IValueIndex (SJ/index/IValueIndex.java:7-11) with
    TF-IDF scoring in place of Lucene BM25.

    Flat CSR layout — the load builds no per-token or per-posting Python
    object (a 1M-entity dict-of-arrays index was ~30× its parquet size):

    * ``tokens``: Arrow strings, one per token id; ids follow ``hash64``
      order, so ``_tok_hash`` (sorted) is the token → id lookup.
    * ``offsets`` (int64[T+1]) / ``entry_ids`` (int32): the postings of
      token id t are ``entry_ids[offsets[t]:offsets[t+1]]``, sorted and
      distinct.  ``idf``: float64 per token id.
    * per entry (identity = (uri, name_norm), ids in first-seen order):
      ``entries_uri``/``_norm``/``_type``/``_attrs`` Arrow strings (attrs =
      the '\\x1f'-joined ``attrs_norm``), ``entries_ntok``, ``entries_nuniq``
      (distinct name tokens), ``entries_has_attrs``, and the sort ranks
      ``entries_rank``/``entries_uri_rank`` (:func:`rank_keys`).
    * fuzzy buckets: token ids sorted by (first character, length).
    """

    def __init__(self, index_dir: str, shards: list[int] | None = None,
                 vocab: VocabStats | None = None, fs=None):
        import pyarrow.compute as pc

        files = [f for f in fsio.listdir(fs, index_dir)
                 if f.startswith("shard_") and f.endswith(".parquet")]
        if shards is not None:
            keep = {f"shard_{s:04d}.parquet" for s in shards}
            files = [f for f in files if f in keep]
        if not files:
            raise FileNotFoundError(f"no index shards under {index_dir}")

        tables = [fsio.read_parquet(fs, os.path.join(index_dir, f))
                  for f in files]
        t = pa.concat_tables(tables, promote_options="default") \
            if len(tables) > 1 else tables[0]

        def col(name: str) -> pa.Array:
            if name not in t.column_names:
                return pa.array([""] * t.num_rows, pa.string())
            return pc.fill_null(t.column(name).combine_chunks(), "")

        uri, norm = col("entity_uri"), col("name_norm")
        # entry identity is (uri, name_norm); ids in first-seen order
        ent = pc.dictionary_encode(
            pc.binary_join_element_wise(uri, norm, "\x00"))
        eid = ent.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        n_entries = len(ent.dictionary)
        first = pa.array(np.unique(eid, return_index=True)[1])
        self.entries_uri = uri.take(first)
        self.entries_norm = norm.take(first)
        self.entries_type = col("entity_type").take(first)
        self.entries_attrs = col("attrs_norm").take(first)
        self.entries_ntok = t.column("n_tokens").combine_chunks().take(first) \
            .to_numpy(zero_copy_only=False).astype(np.int32)
        self.entries_has_attrs = has_attr_tokens(self.entries_attrs)
        self.entries_rank, self.entries_uri_rank = rank_keys(
            self.entries_uri, self.entries_norm)

        # token ids: one factorize, then renumbered into hash64 order
        tok = pc.dictionary_encode(col("token"))
        tok_obj = tok.dictionary.to_numpy(zero_copy_only=False)
        h = hash64(tok_obj)
        perm = np.argsort(h, kind="stable")
        tid_of = np.empty(len(perm), dtype=np.int64)
        tid_of[perm] = np.arange(len(perm), dtype=np.int64)
        self.tokens = tok.dictionary.take(pa.array(perm))
        self._tok_hash = h[perm]
        n_tokens = len(perm)

        # distinct (token, entry) postings, sorted by token id then entry
        stride = max(1, n_entries)
        key = np.unique(
            tid_of[tok.indices.to_numpy(zero_copy_only=False)] * stride + eid)
        self.entry_ids = (key % stride).astype(np.int32)
        df = np.bincount(key // stride, minlength=n_tokens)
        self.offsets = np.zeros(n_tokens + 1, dtype=np.int64)
        np.cumsum(df, out=self.offsets[1:])
        self.entries_nuniq = np.bincount(
            self.entry_ids, minlength=n_entries).astype(np.int32)

        # shard-routed serving (``vocab`` given): idf from the GLOBAL term
        # dictionary + global entry count so a shard's per-candidate scores
        # equal the full-index scores exactly (local df under-counts a token
        # whose entries span shards — entity sharding spreads a token's
        # postings even though each ENTRY stays whole)
        self._vocab = vocab
        if vocab is not None:
            gdf = vocab.df_many(tok_obj)[perm]
            self.idf = np.log1p(vocab.n_entries / np.maximum(1, gdf))
        else:
            self.idf = np.log1p(max(1, n_entries) / np.maximum(1, df))

        # (first char, length) fuzzy buckets: token ids in bucket-key order
        self._tok_offs, self._tok_data = _utf8_buffers(self.tokens)
        bkey = _fuzzy_keys(self._tok_offs, self._tok_data)
        self._bucket_ids = np.argsort(bkey, kind="stable")
        self._bucket_keys = bkey[self._bucket_ids]

    def _token_ids(self, tokens: list[str]) -> np.ndarray:
        """Token id per string (-1 when absent): a hash64 lookup, confirmed
        by comparing the strings."""
        import pyarrow.compute as pc

        out = np.full(len(tokens), -1, dtype=np.int64)
        q = np.asarray(tokens, dtype=object)
        h = hash64(q)
        i = np.minimum(np.searchsorted(self._tok_hash, h),
                       len(self._tok_hash) - 1)
        hit = np.flatnonzero(self._tok_hash[i] == h)
        same = pc.equal(self.tokens.take(pa.array(i[hit])),
                        pa.array(q[hit], pa.string())) \
            .to_numpy(zero_copy_only=False)
        out[hit[same]] = i[hit[same]]
        return out

    def _fuzzy_ids(self, tokens: list[str], max_edit: int) -> list[np.ndarray]:
        """Per token: the ids of vocabulary tokens with the same first
        character, length ±1, not equal to it and within ``max_edit``
        (Levenshtein) — the cheap analog of Lucene's fuzzy term enumeration
        (IndexManager.java:341-358).  A character-histogram lower bound
        (bag distance ≤ edit distance) drops most of a bucket before the
        exact ``levenshtein`` runs on the survivors."""
        q = pa.array(tokens, pa.string())
        qoffs, qdata = _utf8_buffers(q)
        qkey = _fuzzy_keys(qoffs, qdata)
        nq = len(tokens)
        # candidate (query, token id) pairs: the length-1, length and
        # length+1 buckets per query (the key's low bits are the length;
        # query tokens are never empty, so length-1 cannot borrow)
        one = np.uint64(1)
        keys = np.stack([qkey - one, qkey, qkey + one], axis=1)
        lo = np.searchsorted(self._bucket_keys, keys, "left")
        hi = np.searchsorted(self._bucket_keys, keys, "right")
        lens = (hi - lo).ravel()
        pq_ = np.repeat(np.repeat(np.arange(nq), 3), lens)
        cand = self._bucket_ids[_ranges(lo.ravel(), lens)]
        if len(cand):
            uniq, inv = np.unique(cand, return_inverse=True)
            d = _char_hist(self._tok_offs, self._tok_data, uniq)[inv] \
                - _char_hist(qoffs, qdata, np.arange(nq))[pq_]
            bag = np.maximum(np.clip(d, 0, None).sum(1),
                             np.clip(-d, 0, None).sum(1))
            near = bag <= max_edit
            pq_, cand = pq_[near], cand[near]
        strs = self.tokens.take(pa.array(cand)).to_pylist()
        ok = np.array([s != tokens[i] and levenshtein(tokens[i], s, max_edit)
                       <= max_edit for i, s in zip(pq_.tolist(), strs)],
                      dtype=bool)
        pq_, cand = pq_[ok], cand[ok]
        bounds = np.searchsorted(pq_, np.arange(nq + 1))
        return [cand[bounds[i]:bounds[i + 1]] for i in range(nq)]

    def fuzzy_expand(self, token: str, max_edit: int = 1) -> list[str]:
        """Vocabulary tokens within edit distance (candidates bucketed by
        first char and length±1)."""
        if not token:
            return []
        ids = self._fuzzy_ids([token], max_edit)[0]
        return self.tokens.take(pa.array(ids)).to_pylist()

    def postings_of(self, token: str) -> np.ndarray:
        """Entry ids holding ``token`` (empty when it is not indexed)."""
        t = int(self._token_ids([token])[0])
        if t < 0:
            return np.zeros(0, dtype=np.int32)
        return self.entry_ids[self.offsets[t]:self.offsets[t + 1]]

    def score_many(self, mentions: list[str], fuzzy: bool = True,
                   max_edit: int = 1
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Context-independent candidate scan of a batch of mentions →
        flat ``(mention offsets int64[n+1], entry ids, base scores)``;
        mention i's candidates are ``[offsets[i]:offsets[i+1]]``, by entry id.

        Scoring: sum of idf over matched tokens, normalized by the larger of
        the mention/name token counts (OR-query TF-IDF), then blended 50/50
        with token-set Jaccard; exact normalized match pins to the top
        (exact-mode post-filter analog, IndexManager.java:409-436).  A
        mention token missing from the index fuzzy-expands at half idf —
        unless the GLOBAL vocabulary has it (shard-routed mode): then its
        exact postings live on another shard, so this shard contributes
        nothing, as the full index would have taken the exact branch.
        Context re-scoring happens in ``finalize``."""
        import pyarrow.compute as pc

        n = len(mentions)
        tok_m: list[int] = []
        tok_s: list[str] = []
        norms: list[str] = []
        n_uniq = np.zeros(n, dtype=np.int64)
        n_tok = np.zeros(n, dtype=np.int64)
        for i, m in enumerate(mentions):
            toks = tokenize_string(m, remove_brackets=True)
            uniq = list(dict.fromkeys(toks))
            tok_s.extend(uniq)
            tok_m.extend([i] * len(uniq))
            norms.append(" ".join(toks))
            n_uniq[i], n_tok[i] = len(uniq), len(toks)
        tok_m_a = np.asarray(tok_m, dtype=np.int64)
        tid = self._token_ids(tok_s)

        # contributions (mention, token id, weight, exact?) in token order
        c_m, c_t = [tok_m_a[tid >= 0]], [tid[tid >= 0]]
        c_w = [self.idf[c_t[0]]]
        c_x = [np.ones(len(c_t[0]))]
        miss = np.flatnonzero(tid < 0)
        if fuzzy and len(miss) and self._vocab is not None:
            miss = miss[~self._vocab.contains_many([tok_s[i] for i in miss])]
        if fuzzy and len(miss):
            words = list(dict.fromkeys(tok_s[i] for i in miss))
            expand = dict(zip(words, self._fuzzy_ids(words, max_edit)))
            for i in miss:
                ft = expand[tok_s[i]]
                c_m.append(np.full(len(ft), tok_m_a[i]))
                c_t.append(ft)
                c_w.append(self.idf[ft] * 0.5)  # fuzzy matches at half weight
                c_x.append(np.zeros(len(ft)))
        c_t_a = np.concatenate(c_t).astype(np.int64)
        starts = self.offsets[c_t_a]
        lens = self.offsets[c_t_a + 1] - starts
        p_e = self.entry_ids[_ranges(starts, lens)].astype(np.int64)
        p_m = np.repeat(np.concatenate(c_m).astype(np.int64), lens)

        # segment sums per (mention, entry)
        stride = max(1, len(self.entries_ntok))
        key, inv = np.unique(p_m * stride + p_e, return_inverse=True)
        acc = np.bincount(inv, weights=np.repeat(np.concatenate(c_w), lens),
                          minlength=len(key))
        inter = np.bincount(inv, weights=np.repeat(np.concatenate(c_x), lens),
                            minlength=len(key))
        m, e = key // stride, key % stride

        nu, nn = n_uniq[m], self.entries_nuniq[e]
        denom = np.maximum(nu, self.entries_ntok[e]).astype(np.float64)
        tfidf = acc / np.maximum(1e-9, denom)
        jac = inter / (nu + nn - inter)
        scores = 0.5 * tfidf + 0.5 * jac
        # exact normalized match: same distinct tokens and token count,
        # then the strings compared
        maybe = np.flatnonzero((inter == nu) & (nn == nu)
                               & (self.entries_ntok[e] == n_tok[m]))
        if len(maybe):
            same = pc.equal(self.entries_norm.take(pa.array(e[maybe])),
                            pa.array(norms, pa.string())
                            .take(pa.array(m[maybe]))) \
                .to_numpy(zero_copy_only=False)
            scores[maybe[same]] += 10.0  # exact normalized match dominates
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(m, minlength=n), out=offsets[1:])
        return offsets, e, scores

    def search_scored(self, mention: str, fuzzy: bool = True,
                      max_edit: int = 1) -> list[tuple[int, float]]:
        """One mention's candidate scan → [(entry_id, base_score)] (see
        :meth:`score_many`).  The result is cacheable per mention."""
        _, eids, scores = self.score_many([mention], fuzzy, max_edit)
        return list(zip(eids.tolist(), scores.tolist()))

    def candidates(self, scored: list[tuple[int, float]],
                   with_attrs: bool = True) -> list[tuple]:
        """(entry_id, base) pairs → the index-free candidate form
        [(entity_uri, base_score, name_norm, entity_type, attrs_toksets)]
        (``attrs_toksets`` left empty unless ``with_attrs``)."""
        ids = pa.array(np.asarray([e for e, _ in scored], dtype=np.int64))
        attrs = [attrs_toksets(a) for a in
                 self.entries_attrs.take(ids).to_pylist()] if with_attrs \
            else [()] * len(scored)
        return list(zip(self.entries_uri.take(ids).to_pylist(),
                        (float(s) for _, s in scored),
                        self.entries_norm.take(ids).to_pylist(),
                        self.entries_type.take(ids).to_pylist(), attrs))

    def search_candidates(self, mention: str, fuzzy: bool = True,
                          max_edit: int = 1) -> list[tuple]:
        """Context-independent candidate scan in the index-free CANDIDATE
        form: [(entity_uri, base_score, name_norm, entity_type,
        attrs_toksets)] — everything :func:`finalize_candidates` needs, so
        shard partials can merge and context-rescore without any index."""
        return self.candidates(self.search_scored(mention, fuzzy, max_edit))

    def finalize(self, scored: list[tuple[int, float]], top_k: int,
                 context: list[str] | None = None,
                 refine_factor: float = 0.0
                 ) -> list[tuple[str, float, str, str]]:
        """(entry_id, base) candidates → deduped top-k via the pure
        :func:`finalize_candidates` (same semantics, shared with the
        shard-routed gather so the two paths cannot drift).  Attr token
        sets are parsed only when the context term can apply."""
        with_attrs = bool(context) and refine_factor > 0.0 and len(scored) > 1
        return finalize_candidates(self.candidates(scored, with_attrs),
                                   top_k, context, refine_factor)

    def search(self, mention: str, top_k: int = 10, fuzzy: bool = True,
               max_edit: int = 1, context: list[str] | None = None,
               refine_factor: float = 0.0
               ) -> list[tuple[str, float, str, str]]:
        """→ [(entity_uri, score, matched_name_norm, entity_type)] by score
        desc; ``context`` (sibling cells of the mention's row) adds the
        refine-attrs term per assessIndexEntry."""
        return self.finalize(self.search_scored(mention, fuzzy, max_edit),
                             top_k, context, refine_factor)


def context_bonus_for(attrs: tuple, context_toksets: list[set[str]],
                      refine_factor: float) -> float:
    """Refine-attrs term (ScoreEvaluator.assessIndexEntry,
    SJ/scoring/ScoreEvaluator.java:24-33): for each sibling cell of the
    query row, the best token-Jaccard against the entity's own attribute
    values counts as a refine hit when >= 0.5 (the cell value 'appears in
    that entity's row'); hit scores sum, weighted by refineAttrsFactor."""
    if not attrs or not context_toksets:
        return 0.0
    bonus = 0.0
    for ctoks in context_toksets:
        if not ctoks:
            continue
        best = 0.0
        for atoks in attrs:
            j = jaccard(ctoks, atoks)
            if j > best:
                best = j
        if best >= 0.5:
            bonus += best
    return refine_factor * bonus


def finalize_candidates(cands: list[tuple], top_k: int,
                        context: list[str] | None = None,
                        refine_factor: float = 0.0
                        ) -> list[tuple[str, float, str, str]]:
    """[(uri, base_score, name_norm, entity_type, attrs_toksets)] → deduped
    top-k [(entity_uri, score, matched_name_norm, entity_type)] with the
    refine-attrs context term blended in.  Pure — no index state — so the
    shard-routed gather and the merge-stage context re-score run it over
    candidate payloads directly.

    Short-circuit: tokenizing the row context dominates linker cost
    (measured 3.6× at sf0.01), so the context term is only computed when
    it COULD change the top entity — ≥2 candidates, at least one with
    indexed attrs, and a top-two base-score margin within the maximum
    attainable bonus (refine_factor × context cells).  When skipped, the
    reported scores are the base scores (the top-1 decision is
    invariant)."""
    use_ctx = bool(context) and refine_factor > 0.0 and len(cands) > 1
    if use_ctx:
        cells = [c for c in context if c and c != "null"]
        max_bonus = refine_factor * len(cells)
        if not cells:
            use_ctx = False
        else:
            top2 = sorted(c[1] for c in cands)[-2:]
            if top2[1] - top2[0] > max_bonus:
                use_ctx = False
            elif not any(c[4] for c in cands):
                use_ctx = False
    if use_ctx:
        ctoksets = [set(tokenize_string(c, remove_brackets=True))
                    for c in cells]
        rows = [(u, s + context_bonus_for(a, ctoksets, refine_factor), n, e)
                for u, s, n, e, a in cands]
    else:
        rows = [(u, s, n, e) for u, s, n, e, _ in cands]
    # rank by the score ROUNDED to 9 decimals with uri tie-break — the
    # exact ordering the SQL oracle uses, so a float-summation drift
    # inside the rounding window can never flip the top-1 between sides.
    # name_norm breaks the last tie (one entity's labels at one score), so
    # the order is total: matched_name never depends on arrival order
    rows.sort(key=lambda r: (-round(r[1], 9), r[0], r[2]))
    # dedup per entity uri keeping best name (per-(value,table) dedup analog)
    seen: set[str] = set()
    out = []
    for uri, score, name, etype in rows:
        if uri in seen:
            continue
        seen.add(uri)
        out.append((uri, score, name, etype))
        if len(out) >= top_k:
            break
    return out
