"""Entity linking: mention Dataset → edge Dataset.

Re-expresses the reference's search join core (SearchJoin.findJoinsForColumnFast,
SJ/searchjoin/SearchJoin.java:547-855): per key cell, search the value index
(candidate generation), score, re-rank, then aggregate per target into
JoinResult-style records (accumulation :827-840) ranked by the ScoreEvaluator
modes (SJ/scoring/ScoreEvaluator.java:48-122).

Ray design (SURVEY §3.2): the hand-rolled producer/consumer + bounded queue
backpressure (:398-410) disappears.  Each DISTINCT mention resolves once
cluster-wide (``resolve_mentions_batch``, or the shard-routed scatter-gather
for a large KB), and stateless tasks merge the resolved rows back into the
mention stream (``merge_links_batch`` over a broadcast table, or one
hash(mention) bucket exchange when the resolved set is too large to
broadcast).  Every path ends in the one set-at-a-time merge core
``_link_rows``; the "group by entity table" thread becomes a groupby
shuffle over the edge Dataset.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..config import DEFAULT_CONFIG, PipelineConfig
from ..functions.normalize import tokenize_string
from ..state.index import (
    _ATTR_SEP,
    LabelIndex,
    _ranges,
    has_attr_tokens,
    index_stamp,
    rank_keys,
    score_gaps,
    top_hits,
)
from . import aggregates
from .aggregates import (
    block_refs,
    bucket_map,
    dedupe_by_key,
    is_materialized,
    materialized,
    run_blocks,
)

EDGE_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("table_idx", pa.int32()),
    ("row_idx", pa.int32()),
    ("mention", pa.string()),
    ("entity_uri", pa.string()),
    ("score", pa.float64()),
    ("rank", pa.int32()),
    ("matched_name", pa.string()),
    ("entity_type", pa.string()),
])


CONTEXT_SEP = "\x1f"

MENTION_SCHEMA = pa.schema([
    ("url", pa.string()), ("table_idx", pa.int32()),
    ("row_idx", pa.int32()), ("mention", pa.string()),
    ("context", pa.string())])   # '\x1f'-joined sibling cells (see below)

_MAX_CONTEXT_CELLS = 8

# every character Python's str.isspace() accepts: a key cell made only of
# these is blank (``not k.strip()``).  Spelled out because Arrow's own
# whitespace class is not guaranteed to be Python's.
PY_WHITESPACE = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
                 "\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007"
                 "\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")


def _lengths(col) -> np.ndarray:
    """Per list (null = 0): its length, as int64 numpy."""
    return pc.fill_null(pc.list_value_length(col), 0) \
        .to_numpy(zero_copy_only=False).astype(np.int64)


def _starts(lens: np.ndarray) -> np.ndarray:
    return np.cumsum(lens) - lens


def _list_column(offsets: np.ndarray, values: pa.Array) -> pa.Array:
    return pa.ListArray.from_arrays(pa.array(offsets.astype(np.int32)),
                                    values)


def _offsets(counts: np.ndarray) -> np.ndarray:
    offs = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offs[1:])
    return offs


def _key_idx(batch: pa.Table) -> np.ndarray:
    return pc.fill_null(batch.column("key_idx"), -1) \
        .to_numpy(zero_copy_only=False).astype(np.int64)


def _key_cells(batch: pa.Table) -> tuple:
    """Table records → every key cell flattened: (its table, its row index,
    the cells, whether it is a mention).  A mention is a non-blank cell
    (Python ``k and k.strip()``) of a table with a key (``has_key`` and
    ``key_idx`` >= 0)."""
    key_idx = _key_idx(batch)
    keyed = pc.fill_null(batch.column("has_key"), False) \
        .to_numpy(zero_copy_only=False) & (key_idx >= 0)
    keys_col = batch.column("raw_keys").combine_chunks()
    klen = _lengths(keys_col)
    k_tab = np.repeat(np.arange(batch.num_rows), klen)
    k_pos = np.arange(len(k_tab)) - np.repeat(_starts(klen), klen)
    keys = pc.list_flatten(keys_col)
    blank = pc.equal(pc.binary_length(pc.utf8_trim(
        keys, characters=PY_WHITESPACE)), 0)
    keep = keyed[k_tab] & ~pc.fill_null(blank, True) \
        .to_numpy(zero_copy_only=False)
    return k_tab, k_pos, keys, keep


def mentions_from_tables_batch(batch: pa.Table) -> pa.Table:
    """Table records (stages.extract) → one mention per key cell, carrying the
    row's sibling cells as ``context`` (the refine attributes the reference
    searches per candidate, SearchJoin.java key handling +
    IndexManager.findRefineAttrsMatches :677-746).

    ``context`` travels as ONE '\\x1f'-joined string, not a list column —
    mentions are ~one per corpus row, so the per-row Arrow list overhead was
    measurable at 64k pages; the linker splits the string only for the rare
    rows whose margin gate passes.  Built with Arrow list ops: a table
    without a key (``has_key`` false or ``key_idx`` < 0) emits nothing, a
    blank key cell (Python ``not k.strip()``) is skipped, and a row's
    context drops the key cell, empty cells and ``"null"`` FIRST and then
    keeps at most ``_MAX_CONTEXT_CELLS`` (capping before the filter
    under-caps whenever ``key_idx`` falls outside the cap)."""
    key_idx = _key_idx(batch)
    k_tab, k_pos, keys, keep = _key_cells(batch)
    m_tab, m_row = k_tab[keep], k_pos[keep]
    n = len(m_tab)

    counts = np.zeros(n, dtype=np.int64)
    cells = pa.array([], pa.string())
    if "rows" in batch.column_names and n:
        rows_col = batch.column("rows").combine_chunks()
        rlen = _lengths(rows_col)
        has_row = np.flatnonzero(m_row < rlen[m_tab])
        row_cells = pc.list_flatten(rows_col).take(pa.array(
            _starts(rlen)[m_tab[has_row]] + m_row[has_row]))
        clen = _lengths(row_cells)
        c_men = np.repeat(has_row, clen)
        c_pos = np.arange(len(c_men)) - np.repeat(_starts(clen), clen)
        cells = pc.list_flatten(row_cells)
        ok = pc.fill_null(pc.and_(pc.greater(pc.binary_length(cells), 0),
                                  pc.not_equal(cells, "null")), False) \
            .to_numpy(zero_copy_only=False) & (c_pos != key_idx[m_tab][c_men])
        c_men = c_men[ok]
        counts = np.bincount(c_men, minlength=n)
        capped = np.arange(len(c_men)) - _starts(counts)[c_men] \
            < _MAX_CONTEXT_CELLS
        cells = cells.filter(pa.array(ok)).filter(pa.array(capped))
        counts = np.minimum(counts, _MAX_CONTEXT_CELLS)
    context = pc.binary_join(_list_column(_offsets(counts), cells),
                             CONTEXT_SEP)
    tab = pa.array(m_tab)
    return pa.table({
        "url": batch.column("url").take(tab),
        "table_idx": batch.column("table_idx").take(tab),
        "row_idx": pa.array(m_row.astype(np.int32)),
        "mention": keys.filter(pa.array(keep)),
        "context": context,
    }, schema=MENTION_SCHEMA)


# ---------------------------------------------------------------------------
# Distinct-resolve + broadcast-merge linking (the scale path)
# ---------------------------------------------------------------------------
# A web corpus repeats the same key cells enormously (measured: 1.58M mention
# rows over 1,000 distinct strings at 64k pages), and the cold index scan per
# distinct mention is ~6× the warm cost — so per-ACTOR caches re-pay the cold
# scan once per worker, which is exactly what broke 4→16-CPU scaling of the
# link stage (efficiency 0.31 measured).  The fix is the broadcast idiom:
# resolve each distinct mention ONCE cluster-wide, ray.put the per-mention
# result table, and merge it back into the mention stream with stateless
# tasks (full-width scheduling, no reserved actor pool).

RESOLVED_SCHEMA = pa.schema([
    ("mention", pa.string()),
    ("uris", pa.list_(pa.string())),
    ("scores", pa.list_(pa.float64())),
    ("names", pa.list_(pa.string())),
    ("etypes", pa.list_(pa.string())),
    ("gap", pa.float64()),
    ("has_attrs", pa.bool_()),
    ("cand_eids", pa.list_(pa.int64())),
    ("cand_scores", pa.list_(pa.float64())),
    # candidate PAYLOAD (shard-routed mode only; empty lists when the index
    # is replicated): everything the context re-score needs per candidate,
    # so the merge stage never loads any index — cand_attrs is the
    # '\x1f'-joined attr string per candidate (see state.index._ATTR_SEP)
    ("cand_uris", pa.list_(pa.string())),
    ("cand_norms", pa.list_(pa.string())),
    ("cand_etypes", pa.list_(pa.string())),
    ("cand_attrs", pa.list_(pa.string())),
])

# per-WORKER-process caches (Ray reuses worker processes across tasks):
# linker cores keyed by params and the index's build stamp, broadcast
# resolved tables keyed by ObjectRef
_WORKER_CORES: dict[tuple, "LinkerActor"] = {}
_WORKER_STATES: dict[str, pa.Table] = {}


def _core_for(index_dir: str, top_k: int, max_edit: int, fuzzy: bool,
              refine_factor: float, fs=None) -> "LinkerActor":
    key = (index_dir, index_stamp(index_dir, fs), top_k, max_edit, fuzzy,
           refine_factor)
    core = _WORKER_CORES.get(key)
    if core is None:
        if len(_WORKER_CORES) > 8:
            _WORKER_CORES.clear()
        core = LinkerActor(index_dir, top_k=top_k, max_edit=max_edit,
                           fuzzy=fuzzy, refine_factor=refine_factor, fs=fs)
        _WORKER_CORES[key] = core
    return core


def _resolved_table(mentions: pa.Array, moffs: np.ndarray,
                    scores: np.ndarray, uri: pa.Array, norm: pa.Array,
                    etype: pa.Array, has_attrs: np.ndarray, rank: np.ndarray,
                    urank: np.ndarray, top_k: int, cands: dict) -> pa.Table:
    """Flat candidates (mention i's are ``[moffs[i]:moffs[i+1]]``) →
    RESOLVED_SCHEMA rows: the vectorized no-context top-k, the top-two gap,
    the attr flag, and the ``cands`` candidate columns (flat values in the
    order given; a column left out is empty lists) — ``cand_eids`` for a
    replicated index, the payload columns when shard-routed."""
    n = len(mentions)
    mid = np.repeat(np.arange(n), np.diff(moffs))
    hit, hit_counts = top_hits(mid, n, scores, rank, urank, top_k)
    hoffs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(hit_counts, out=hoffs[1:])
    take = pa.array(hit)
    cols = {
        "mention": mentions,
        "uris": _list_column(hoffs, uri.take(take)),
        "scores": _list_column(hoffs, pa.array(scores[hit])),
        "names": _list_column(hoffs, norm.take(take)),
        "etypes": _list_column(hoffs, etype.take(take)),
        "gap": score_gaps(mid, n, scores),
        "has_attrs": np.bincount(mid, weights=has_attrs, minlength=n) > 0,
        "cand_scores": _list_column(moffs, pa.array(scores)),
    }
    for name in ("cand_eids", "cand_uris", "cand_norms", "cand_etypes",
                 "cand_attrs"):
        vals = cands.get(name)
        cols[name] = _list_column(moffs, vals) if vals is not None \
            else _list_column(np.zeros(n + 1, dtype=np.int64), pa.array(
                [], RESOLVED_SCHEMA.field(name).type.value_type))
    return pa.table(cols, schema=RESOLVED_SCHEMA)


def _resolve_on(idx: LabelIndex, mentions: pa.Array, top_k: int,
                fuzzy: bool, max_edit: int) -> pa.Table:
    """Distinct mentions → RESOLVED_SCHEMA rows on a replicated index, from
    one ``score_many`` scan."""
    moffs, eids, scores = idx.score_many(mentions.to_pylist(), fuzzy=fuzzy,
                                         max_edit=max_edit)
    take = pa.array(eids)
    return _resolved_table(
        mentions, moffs, scores, idx.entries_uri.take(take),
        idx.entries_norm.take(take), idx.entries_type.take(take),
        idx.entries_has_attrs[eids], idx.entries_rank[eids],
        idx.entries_uri_rank[eids], top_k,
        {"cand_eids": pa.array(eids.astype(np.int64))})


def resolve_mentions_batch(batch: pa.Table, index_dir: str, top_k: int,
                           max_edit: int, fuzzy: bool,
                           refine_factor: float, fs=None) -> pa.Table:
    """DISTINCT mentions → one resolved row each: the finalized no-context
    top-k hits plus everything the per-row margin gate and context re-score
    need later (top-two gap, attr flag, full candidate list)."""
    idx = _core_for(index_dir, top_k, max_edit, fuzzy, refine_factor,
                    fs).index
    return _resolve_on(
        idx, batch.column("mention").combine_chunks().cast(pa.string()),
        top_k, fuzzy, max_edit)


def _unique_mentions_batch(batch: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    return pa.table({"mention": pc.unique(batch.column("mention"))})


def distinct_mentions_from_tables_batch(batch: pa.Table) -> pa.Table:
    """Table records → unique mention strings (sorted), skipping the
    per-row context assembly that makes the full mention map ~10× more
    expensive — the distinct-resolve pass only needs the key strings."""
    _, _, keys, keep = _key_cells(batch)
    uniq = pc.unique(keys.filter(pa.array(keep)))
    return pa.table({"mention": uniq.take(pc.array_sort_indices(uniq))})


def distinct_mentions(source_ds, from_tables: bool = False):
    """EXACT distinct mention strings: per-block unique (the combiner —
    blocks repeat the same head mentions, so this is the big reduction) →
    one bucket-hash exchange over the already-tiny per-block-unique set →
    per-bucket unique → one block per CPU slot for the resolve pass.

    The exchange is NOT optional: a near-distinct set (per-block unique
    only) repeats each mention once per block, so the resolve pass paid
    the cold index scan blocks× per mention and the broadcast table grew
    blocks× (measured 53k rows / 130 MB for ~1k true mentions at 160
    blocks — worker state builds alone cost 149 CPU-s).  The exchange
    input is bounded by true-distinct × block-count, the same magnitude
    as the resolve output itself.

    A materialized ``source_ds`` (run_full's table records) gets its
    per-block unique as an ``aggregates.run_blocks`` pass, straight into
    ``bucket_map``; a lazy one keeps the map fused with its upstream."""
    import ray.data as rd

    fn = distinct_mentions_from_tables_batch if from_tables \
        else _unique_mentions_batch
    # the bucket count doubles as the output block count (one block per
    # bucket), so the resolve pass runs one task per CPU slot with no extra
    # exchange: a fixed count would cap it on a big cluster, and more blocks
    # than slots only add task launches (at one CPU the kg_crawl resolve
    # took 0.39-0.72 s over 8 blocks, 0.18-0.22 s over one; BASELINE.md #51)
    n_blocks = aggregates.cpu_slots()
    if not is_materialized(source_ds):
        part = source_ds.map_batches(fn, batch_format="pyarrow")
        return dedupe_by_key(part, "mention", num_buckets=n_blocks)
    parts = run_blocks(fn, block_refs(source_ds)) or \
        [pa.table({"mention": pa.array([], pa.string())})]
    return bucket_map(rd.from_arrow(parts), "mention", n_blocks,
                      lambda df: df.drop_duplicates("mention"))


# ---------------------------------------------------------------------------
# Shard-routed resolve (the large-KB path)
# ---------------------------------------------------------------------------
# The replicated resolve loads the WHOLE label index into every worker —
# invisible at a 500-entity bench gazetteer, per-worker-memory × cluster-width
# at a 10^8-entity KB (round-4 verdict, missing #2).  Here each serving task
# loads ONE entity shard (a complete mini-index over 1/N of the entities plus
# the global term dictionary — see state.index module docs), every shard
# scores every DISTINCT mention (scatter), and a hash(mention) bucket groupby
# concatenates the per-shard candidate lists and finalizes (gather).  Scores
# are exactly the full-index scores, so the downstream merge paths are
# unchanged — they just receive resolved rows that carry candidate PAYLOADS
# instead of entry ids, making the context re-score index-free.

PARTIAL_SCHEMA = pa.schema([
    ("mention", pa.string()),
    ("uri", pa.string()),
    ("score", pa.float64()),
    ("norm", pa.string()),
    ("etype", pa.string()),
    ("attrs", pa.string()),     # '\x1f'-joined attr strings ('' = none)
])

_WORKER_SHARD_IDX: dict[tuple, "LabelIndex"] = {}


def _shard_index_for(index_dir: str, shard: int, fs=None) -> "LabelIndex":
    """Per-worker cache of shard-scoped indexes (a worker typically serves a
    few shards over its lifetime; each holds 1/N of the index), keyed by
    path, build stamp and shard."""
    key = (index_dir, index_stamp(index_dir, fs), shard)
    idx = _WORKER_SHARD_IDX.get(key)
    if idx is None:
        from ..state.index import vocab_stats_for

        while len(_WORKER_SHARD_IDX) >= 4:
            # evict oldest-inserted, NOT clear-all: tasks from a few shards
            # interleave on one worker and clear-all made every task re-pay
            # the shard load
            _WORKER_SHARD_IDX.pop(next(iter(_WORKER_SHARD_IDX)))
        idx = LabelIndex(index_dir, shards=[shard],
                         vocab=vocab_stats_for(index_dir, fs), fs=fs)
        _WORKER_SHARD_IDX[key] = idx
    return idx


def score_shard_batch(batch: pa.Table, index_dir: str, shard: int,
                      fuzzy: bool, max_edit: int, fs=None) -> pa.Table:
    """distinct mentions × ONE shard → candidate partial rows (complete
    per-candidate scores: an entry lives whole in its home shard), from one
    ``score_many`` call over the block."""
    idx = _shard_index_for(index_dir, shard, fs)
    mentions = batch.column("mention").combine_chunks().cast(pa.string())
    moffs, eids, scores = idx.score_many(mentions.to_pylist(), fuzzy=fuzzy,
                                         max_edit=max_edit)
    take = pa.array(eids)
    return pa.table({
        "mention": mentions.take(pa.array(
            np.repeat(np.arange(len(mentions)), np.diff(moffs)))),
        "uri": idx.entries_uri.take(take),
        "score": pa.array(scores),
        "norm": idx.entries_norm.take(take),
        "etype": idx.entries_type.take(take),
        "attrs": idx.entries_attrs.take(take),
    }, schema=PARTIAL_SCHEMA)


def _marker_batch(batch: pa.Table) -> pa.Table:
    """One null-uri marker row per distinct mention, unioned with the
    partials so zero-candidate mentions still get a (empty) resolved row —
    the merge stage then never needs an index fallback."""
    ments = batch.column("mention")
    n = len(ments)
    return pa.Table.from_pydict({
        "mention": ments,
        "uri": pa.nulls(n, pa.string()),
        "score": pa.nulls(n, pa.float64()),
        "norm": pa.nulls(n, pa.string()),
        "etype": pa.nulls(n, pa.string()),
        "attrs": pa.nulls(n, pa.string()),
    }, schema=PARTIAL_SCHEMA)


def _gather_resolved_group(group: pa.Table, top_k: int) -> pa.Table:
    """One hash(mention) bucket of partials → resolved rows with candidate
    payloads, Arrow-native: a stable sort by mention groups the candidates
    (each keeps the order it arrived in), then the same vectorized top-k,
    gap and attr flag as the replicated resolve."""
    import pyarrow.compute as pc

    enc = pc.dictionary_encode(group.column("mention").combine_chunks())
    code = enc.indices.to_numpy(zero_copy_only=False)
    rows = np.flatnonzero(group.column("uri").is_valid()
                          .to_numpy(zero_copy_only=False))
    rows = rows[np.argsort(code[rows], kind="stable")]
    cand = group.take(pa.array(rows)).combine_chunks()
    moffs = np.zeros(len(enc.dictionary) + 1, dtype=np.int64)
    np.cumsum(np.bincount(code[rows], minlength=len(enc.dictionary)),
              out=moffs[1:])
    uri, norm = cand.column("uri").combine_chunks(), \
        cand.column("norm").combine_chunks()
    attrs = cand.column("attrs").combine_chunks()
    etype = cand.column("etype").combine_chunks()
    rank, urank = rank_keys(uri, norm)
    return _resolved_table(
        enc.dictionary, moffs,
        cand.column("score").to_numpy().astype(np.float64, copy=False),
        uri, norm, etype, has_attr_tokens(attrs), rank, urank, top_k,
        {"cand_uris": uri, "cand_norms": norm, "cand_etypes": etype,
         "cand_attrs": attrs})


def _slices_per_shard(shards: list[int]) -> int:
    """ceil(W / S) for W CPU slots and S shards: the distinct set's slices
    per shard in the scatter's (shard × slice) grid.

    SHARD-MAJOR scatter: every (shard, slice) task pays a shard-index load
    if its worker hasn't served that shard yet — so the distinct set is cut
    into ceil(W / S) slices, making tasks-per-shard ≈ workers-per-shard ≈ 1
    at cluster width (each shard loads ~once cluster-wide).  A
    mention-major grid (S × 2W tasks) measured 25× slower: every worker
    cycled through every shard."""
    return -(-aggregates.cpu_slots() // max(1, len(shards)))


def _score_shard_slice(item: tuple, mentions: pa.Table, budget: int,
                       **kw) -> pa.Table | None:
    """One (shard, row range) item of the resolve pass: ``score_shard_batch``
    over that slice of the distinct mentions, or None when the partial
    measures over ``budget`` bytes.  The partial holds every candidate that
    shares a token with a mention, not a top-k, so the input bytes do not
    bound it: the pass measures what it would send to the driver."""
    shard, lo, hi = item
    part = score_shard_batch(mentions.slice(lo, hi - lo), shard=shard, **kw)
    return part if part.nbytes <= budget else None


def _resolve_block(block: pa.Table, budget: int, **kw) -> pa.Table | int:
    """One distinct-mention block of the replicated resolve pass: its
    resolved rows (``resolve_mentions_batch``), or only their byte count
    when they measure over ``budget``, so the driver never receives more
    than its share."""
    part = resolve_mentions_batch(block, **kw)
    return part if part.nbytes <= budget else part.nbytes


def _scored_in_passes(distinct_ds, shards: list[int], kw: dict):
    """The shard scatter as one ``run_blocks`` pass over the distinct set,
    when it is materialized and its bytes ``fits``: [the markers, then each
    shard's partials in shard order] as one already-materialized Dataset,
    whose bytes stay within ``DRIVER_FINAL_BYTES``.
    None when the set is lazy or larger, or when some item's partial
    overflows its share of the guard."""
    import ray
    from ray.data.block import BlockAccessor

    if not is_materialized(distinct_ds):
        return None
    data = materialized(distinct_ds)
    if not aggregates.fits("link.scored_in_passes", data.size_bytes() or 0):
        return None
    # the blocks are pandas, out of ``dedupe_by_key``
    schema = pa.schema([("mention", pa.string())])
    mentions = pa.concat_tables(
        [BlockAccessor.for_block(b).to_arrow().select(["mention"]).cast(schema)
         for b in ray.get(block_refs(data))] or [schema.empty_table()]) \
        .combine_chunks()
    markers = _marker_batch(mentions)
    # shard-major items, so the round-robin deal of ``run_blocks`` gives a
    # task about one shard
    slices = _slices_per_shard(shards)
    n = mentions.num_rows
    bounds = [i * n // slices for i in range(slices + 1)]
    items = [(s, lo, hi) for s in shards
             for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    budget = aggregates.driver_share(len(items), markers.nbytes)
    parts = run_blocks(_score_shard_slice, items,
                       dict(kw, mentions=mentions, budget=budget))
    if any(p is None for p in parts):
        return None
    return aggregates.driver_dataset([markers] + parts)


def _scored_by_scatter(distinct_ds, shards: list[int], kw: dict) -> list:
    """The shard scatter as Ray Data maps over the distinct set
    repartitioned to ``_slices_per_shard`` blocks: [the markers, then one
    scoring map per shard], lazy."""
    scatter_src = distinct_ds.repartition(_slices_per_shard(shards)) \
        .materialize()
    parts = [scatter_src.map_batches(score_shard_batch,
                                     fn_kwargs=dict(shard=s, **kw),
                                     batch_format="pyarrow",
                                     batch_size=None)
             for s in shards]
    markers = scatter_src.map_batches(_marker_batch,
                                      batch_format="pyarrow",
                                      batch_size=None)
    return [markers] + parts


def resolve_mentions_sharded(distinct_ds, index_dir: str, top_k: int,
                             max_edit: int, fuzzy: bool, shards: list[int],
                             fs=None):
    """DISTINCT mentions → resolved rows via shard scatter-gather: every
    live shard scores every distinct mention (each scoring call holds 1/N
    of the index), one hash(mention) ``bucket_map`` gathers the candidate
    partials, and each bucket finalizes its mentions.  Exchange width =
    distinct mentions × their candidate counts — the same magnitude the
    replicated path already materializes as its resolved table.

    The scatter runs one of two ways:

    * a materialized distinct set that ``fits`` is scored
      in one ``run_blocks`` pass (``_scored_in_passes``): no Ray Data
      execution, and each item returns its partial only while it fits its
      share of the same guard, so the gather input — and the driver —
      never holds more;
    * a lazy or larger set, or a pass whose partials overflow, takes the
      ``repartition`` and the union of Ray Data maps
      (``_scored_by_scatter``).

    The pass hands the gather the markers first, then the shards in order,
    so each mention's candidate list is in shard order; the union hands
    them over as its maps finish.  The edges are the same either way: the
    top-k and the context re-score order candidates by (score, uri,
    name)."""
    kw = dict(index_dir=index_dir, fuzzy=fuzzy, max_edit=max_edit, fs=fs)
    scored = _scored_in_passes(distinct_ds, shards, kw)
    if scored is None:
        scored = _scored_by_scatter(distinct_ds, shards, kw)
    return bucket_map(scored, "mention", link_merge_buckets(),
                      lambda g: _gather_resolved_group(g, top_k),
                      batch_format="pyarrow")


def _resolved_rows(mentions, resolved: pa.Table) -> np.ndarray:
    """Per mention: its row in ``resolved`` (-1 when absent)."""
    pos = pc.index_in(mentions, value_set=resolved.column("mention")
                      .combine_chunks())
    return pc.fill_null(pos, -1).to_numpy(zero_copy_only=False) \
        .astype(np.int64)


def _flat_values(tbl: pa.Table, col: str) -> pa.Array:
    return pc.list_flatten(tbl.column(col)).combine_chunks()


def _context_bonus(cells: list[list[str]], p_row: np.ndarray,
                   attrs: pa.Array) -> np.ndarray:
    """Per (gated row, candidate) pair: the refine-attrs sum of
    ``state.index.context_bonus_for`` before the factor — over the row's
    ``cells``, in order, the best token-Jaccard against the candidate's
    attrs when it is >= 0.5, summed from 0.0 — bit for bit.

    Set-at-a-time: only a (cell, attr) pair that shares a token can have a
    nonzero Jaccard (the count filter), so intersections are counted by one
    join on token ids.  Each distinct cell is tokenized once and each
    distinct attrs string parsed once (``attrs_toksets``: ``frozenset(
    a.split())`` per non-empty '\\x1f' piece; ``|a|`` counts all its tokens,
    only those found in some cell join); the best Jaccard per (cell, attrs
    string) then reaches every candidate carrying that string."""
    n_pos = max(len(c) for c in cells)
    pos_cell = np.full((len(cells), n_pos), -1, dtype=np.int64)
    cell_id: dict[str, int] = {}
    tok_id: dict[str, int] = {}
    c_size: list[int] = []
    ct_cell: list[int] = []
    ct_tok: list[int] = []
    for g, row in enumerate(cells):
        for p, c in enumerate(row):
            cid = cell_id.get(c)
            if cid is None:
                cid = cell_id[c] = len(c_size)
                toks = set(tokenize_string(c, remove_brackets=True))
                c_size.append(len(toks))
                for t in toks:
                    ct_cell.append(cid)
                    ct_tok.append(tok_id.setdefault(t, len(tok_id)))
            pos_cell[g, p] = cid

    enc = pc.dictionary_encode(pc.fill_null(attrs, ""))
    doc = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    a_size: list[int] = []
    a_doc: list[int] = []
    at_attr: list[int] = []
    at_tok: list[int] = []
    for d, s in enumerate(enc.dictionary.to_pylist()):
        for piece in s.split(_ATTR_SEP):
            if not piece:
                continue
            toks = frozenset(piece.split())
            for t in toks:
                ti = tok_id.get(t)
                if ti is not None:
                    at_attr.append(len(a_size))
                    at_tok.append(ti)
            a_size.append(len(toks))
            a_doc.append(d)

    # (cell, attr) pairs sharing a token → |c ∩ a| → Jaccard
    at_tok_a = np.asarray(at_tok, dtype=np.int64)
    order = np.argsort(at_tok_a, kind="stable")
    at_tok_a = at_tok_a[order]
    at_attr_a = np.asarray(at_attr, dtype=np.int64)[order]
    ct_tok_a = np.asarray(ct_tok, dtype=np.int64)
    lo = np.searchsorted(at_tok_a, ct_tok_a, "left")
    lens = np.searchsorted(at_tok_a, ct_tok_a, "right") - lo
    n_attr = max(1, len(a_size))
    key, inter = np.unique(
        np.repeat(np.asarray(ct_cell, dtype=np.int64), lens) * n_attr
        + at_attr_a[_ranges(lo, lens)], return_counts=True)
    kc, ka = key // n_attr, key % n_attr
    jac = inter / (np.asarray(c_size, dtype=np.int64)[kc]
                   + np.asarray(a_size, dtype=np.int64)[ka] - inter)

    # best Jaccard per (cell, attrs string)
    n_doc = max(1, len(enc.dictionary))
    k2 = kc * n_doc + np.asarray(a_doc, dtype=np.int64)[ka]
    order = np.lexsort((jac, k2))
    k2, jac = k2[order], jac[order]
    last = np.ones(len(k2), dtype=bool)
    last[:-1] = k2[1:] != k2[:-1]
    best_key, best = k2[last], jac[last]

    bonus = np.zeros(len(p_row), dtype=np.float64)
    if not len(best_key):
        return bonus
    for p in range(n_pos):
        cid = pos_cell[p_row, p]
        want = cid * n_doc + doc
        i = np.minimum(np.searchsorted(best_key, want), len(best_key) - 1)
        b = np.where((cid >= 0) & (best_key[i] == want), best[i], 0.0)
        bonus = bonus + np.where(b >= 0.5, b, 0.0)
    return bonus


def _link_rows(batch: pa.Table, resolved: pa.Table, rows: np.ndarray,
               factor: float, top_k: int, index_of=None) -> pa.Table:
    """The one merge core: mention rows + RESOLVED_SCHEMA rows → edges in
    input row order, hits in rank order.  ``rows[i]`` is row i's resolved
    row; -1 emits no edges.  ``index_of()`` returns the replicated
    LabelIndex that ``cand_eids`` point into, loaded only when a row is
    re-scored; None means payload mode (the ``cand_*`` columns carry the
    candidates).

    A row keeps its resolved no-context hits (one gather over the
    flattened hit lists) unless BOTH margin gates pass: the raw one (some
    candidate has attrs, and the '\\x1f' piece count × factor covers the
    top-two gap) and finalize_candidates' own (the same over the
    non-empty, non-"null" cells).  Gated rows re-score all their
    candidates at once as flat (row, candidate) arrays — base +
    factor × ``_context_bonus`` — and rank with ``top_hits``, exactly as
    finalize_candidates would."""
    n = batch.num_rows
    if n == 0:
        return EDGE_SCHEMA.empty_table()
    found = rows >= 0
    used, local = np.unique(rows[found], return_inverse=True)
    res = resolved.take(pa.array(used))
    r = np.full(n, -1, dtype=np.int64)
    r[found] = local
    rf = np.where(found, r, 0)
    gap = res.column("gap").to_numpy().astype(np.float64, copy=False)
    has_attrs = res.column("has_attrs").to_numpy().astype(bool, copy=False)
    hlen = _lengths(res.column("uris"))

    gated = np.zeros(0, dtype=np.int64)
    cells: list[list[str]] = []
    if factor > 0.0 and "context" in batch.column_names and has_attrs.any():
        ctx = pc.fill_null(batch.column("context"), "")
        pieces = np.where(
            pc.binary_length(ctx).to_numpy(zero_copy_only=False) > 0,
            pc.count_substring(ctx, CONTEXT_SEP)
            .to_numpy(zero_copy_only=False) + 1, 0)
        cand = np.flatnonzero(found & (pieces > 0) & has_attrs[rf]
                              & (gap[rf] <= factor * pieces))
        cells = [[c for c in t.split(CONTEXT_SEP) if c and c != "null"]
                 for t in ctx.take(pa.array(cand)).to_pylist()]
        n_cells = np.array([len(c) for c in cells], dtype=np.int64)
        second = (n_cells > 0) & (gap[r[cand]] <= factor * n_cells)
        gated = cand[second]
        cells = [c for c, k in zip(cells, second.tolist()) if k]

    uri = _flat_values(res, "uris")
    score = pc.list_flatten(res.column("scores")).to_numpy() \
        .astype(np.float64, copy=False)
    name = _flat_values(res, "names")
    etype = _flat_values(res, "etypes")
    counts = np.zeros(n, dtype=np.int64)
    counts[found] = hlen[r[found]]
    plain = np.flatnonzero(found)
    if len(gated):
        g_count, g_score, g_vals = _rescore(res, r[gated], cells, factor,
                                            top_k, index_of)
        counts[gated] = g_count
        plain = np.setdiff1d(plain, gated, assume_unique=True)
    out_offs = _offsets(counts)
    src = np.empty(int(out_offs[-1]), dtype=np.int64)
    src[_ranges(out_offs[plain], counts[plain])] = \
        _ranges(_starts(hlen)[r[plain]], counts[plain])
    if len(gated):
        # gated hits go after the resolved ones in the value arrays
        src[_ranges(out_offs[gated], g_count)] = \
            len(score) + np.arange(len(g_score))
        score = np.concatenate([score, g_score])
        uri, name, etype = (pa.concat_arrays([a, v]) for a, v in
                            zip((uri, name, etype), g_vals))
    take = pa.array(src)
    row_of = pa.array(np.repeat(np.arange(n), counts))
    return pa.table({
        "url": batch.column("url").take(row_of),
        "table_idx": batch.column("table_idx").take(row_of)
        .cast(pa.int32()),
        "row_idx": batch.column("row_idx").take(row_of).cast(pa.int32()),
        "mention": batch.column("mention").take(row_of),
        "entity_uri": uri.take(take),
        "score": score[src],
        "rank": (np.arange(len(src)) - np.repeat(out_offs[:-1], counts))
        .astype(np.int32),
        "matched_name": name.take(take),
        "entity_type": etype.take(take),
    }, schema=EDGE_SCHEMA)


def _rescore(res: pa.Table, gr: np.ndarray, cells: list[list[str]],
             factor: float, top_k: int, index_of) -> tuple:
    """Context re-score of the gated rows (``gr``: their resolved rows,
    ``cells``: their filtered context cells) → (hit count per row, then
    the hits' scores and (uri, name, type) arrays, in output order)."""
    clen = _lengths(res.column("cand_scores"))
    glen = clen[gr]
    p_row = np.repeat(np.arange(len(gr)), glen)
    p_cand = _ranges(_starts(clen)[gr], glen)
    base = pc.list_flatten(res.column("cand_scores")).to_numpy() \
        .astype(np.float64, copy=False)[p_cand]
    if index_of is None:
        pick = pa.array(p_cand)
        uri, name, etype, attrs = (_flat_values(res, c).take(pick) for c in
                                   ("cand_uris", "cand_norms", "cand_etypes",
                                    "cand_attrs"))
        rank, urank = rank_keys(uri, name)
    else:
        idx = index_of()
        eids = pc.list_flatten(res.column("cand_eids")).to_numpy()[p_cand]
        pick = pa.array(eids)
        uri, name, etype, attrs = (
            idx.entries_uri.take(pick), idx.entries_norm.take(pick),
            idx.entries_type.take(pick), idx.entries_attrs.take(pick))
        rank, urank = idx.entries_rank[eids], idx.entries_uri_rank[eids]
    scores = base + factor * _context_bonus(cells, p_row, attrs)
    hit, count = top_hits(p_row, len(gr), scores, rank, urank, top_k)
    take = pa.array(hit)
    return count, scores[hit], tuple(v.take(take) for v in (uri, name, etype))


class LinkerActor:
    """Stateful linker: loads the label index ONCE (__init__) and links one
    batch of mentions per __call__ — the batch's distinct mentions resolve
    in one ``score_many`` scan and the shared merge core ``_link_rows``
    emits the edges, the same resolve and merge as the broadcast path, so
    the two cannot drift.

    The package keeps one per worker process in ``_WORKER_CORES``
    (:func:`_core_for`), reached from task functions; the CLI builds one on
    the driver."""

    def __init__(self, index_dir: str, top_k: int = 5,
                 max_edit: int = 1, fuzzy: bool = True,
                 refine_factor: float = 0.0, fs=None):
        self.index = LabelIndex(index_dir, fs=fs)
        self.top_k = top_k
        self.max_edit = max_edit
        self.fuzzy = fuzzy
        self.refine_factor = refine_factor
        # per mention string: the scalar reference entry of _entry_for
        self._cache: dict[str, tuple] = {}

    def _entry_for(self, m: str) -> tuple:
        """Scalar reference for one mention: (candidate scan, finalized
        no-context hits, top-two base-score gap, any candidate with attrs).
        The merge core computes the same per distinct mention, vectorized;
        the equivalence tests compare the two."""
        entry = self._cache.get(m)
        if entry is None:
            scored = self.index.search_scored(m, fuzzy=self.fuzzy,
                                              max_edit=self.max_edit)
            base_hits = self.index.finalize(scored, self.top_k)
            if len(scored) > 1:
                top2 = sorted(s for _, s in scored)[-2:]
                gap = top2[1] - top2[0]
            else:
                gap = float("inf")
            has_attrs = bool(self.index.entries_has_attrs[
                [eid for eid, _ in scored]].any())
            entry = (scored, base_hits, gap, has_attrs)
            if len(self._cache) < 200_000:
                self._cache[m] = entry
        return entry

    def __call__(self, batch: pa.Table) -> pa.Table:
        mentions = batch.column("mention").combine_chunks()
        resolved = _resolve_on(
            self.index, pc.unique(pc.drop_null(mentions)).cast(pa.string()),
            self.top_k, self.fuzzy, self.max_edit)
        return _link_rows(batch, resolved, _resolved_rows(mentions, resolved),
                          self.refine_factor, self.top_k, lambda: self.index)


def _broadcast_table(ref) -> pa.Table:
    """ref → the broadcast resolved table, fetched once per worker process
    (plasma-local get).  It stays flat-columnar: each batch takes only the
    resolved rows its mentions use (BASELINE.md #24: per-mention Python
    state built for the whole broadcast in every worker cost 495 CPU-s)."""
    # only ObjectRefs are cacheable: a plain pa.Table (the co-partitioned
    # merge passes one per bucket) can be freed and its id() reused by a NEW
    # table, so id-keyed caching would serve stale state
    if isinstance(ref, pa.Table):
        return ref
    tbl = _WORKER_STATES.get(ref.hex())
    if tbl is None:
        import ray

        tbl = ray.get(ref)
        if len(_WORKER_STATES) > 4:
            _WORKER_STATES.clear()
        _WORKER_STATES[ref.hex()] = tbl
    return tbl


def merge_links_batch(batch: pa.Table, ref, index_dir: str, top_k: int,
                      max_edit: int, fuzzy: bool, refine_factor: float,
                      payload_mode: bool = False, fs=None) -> pa.Table:
    """mention rows + broadcast resolved table → edges through the merge
    core ``_link_rows``.  Mentions absent from the broadcast table
    (nondeterministic upstream recompute) resolve on the per-worker index
    with the same ``score_many`` resolve instead of erroring.

    ``payload_mode`` (shard-routed resolve): candidates arrive as payload
    columns and NO index is ever loaded here — resolved rows cover every
    distinct mention including zero-candidate ones (marker rows), so a
    missing mention means upstream recompute drift and resolves to zero
    edges with a warning."""
    if batch.num_rows == 0:
        return EDGE_SCHEMA.empty_table()
    resolved = _broadcast_table(ref)
    mentions = batch.column("mention").combine_chunks()
    rows = _resolved_rows(mentions, resolved)

    def index_of() -> LabelIndex:
        return _core_for(index_dir, top_k, max_edit, fuzzy,
                         refine_factor, fs).index

    missing = pc.unique(pc.drop_null(mentions.filter(pa.array(rows < 0))))
    if len(missing) and payload_mode:
        import logging

        for m in missing.to_pylist():
            logging.getLogger(__name__).warning(
                "mention %r missing from shard-routed resolved set "
                "(upstream recompute drift?) — emitting no edges", m)
    elif len(missing):
        extra = _resolve_on(index_of(), missing.cast(pa.string()), top_k,
                            fuzzy, max_edit)
        at = _resolved_rows(mentions, extra)
        rows = np.where((rows < 0) & (at >= 0), resolved.num_rows + at, rows)
        resolved = pa.concat_tables([resolved, extra])
    return _link_rows(batch, resolved, rows, refine_factor, top_k,
                      None if payload_mode else index_of)


# co-partitioned merge rows: a mention row fills the MENTION_SCHEMA columns
# and a resolved row the RESOLVED_SCHEMA ones; the others stay null.  Both
# sides share this one Arrow schema (Ray's sort cannot mix block formats).
_COGROUP_SCHEMA = pa.schema(
    list(MENTION_SCHEMA) + [f for f in RESOLVED_SCHEMA if f.name != "mention"])


def _cogroup_rows(t: pa.Table, schema: pa.Schema) -> pa.Table:
    return pa.table({
        f.name: t.column(f.name).cast(f.type)
        if f.name in schema.names and f.name in t.column_names
        else pa.nulls(t.num_rows, f.type)
        for f in _COGROUP_SCHEMA}, schema=_COGROUP_SCHEMA)


def _merge_links_cogrouped(group: pa.Table, **kw) -> pa.Table:
    """One hash(mention) bucket of the co-partitioned merge: its resolved
    rows play the broadcast table for its mention rows."""
    resolved = pc.is_valid(group.column("uris"))
    men = group.filter(pc.invert(resolved)).select(MENTION_SCHEMA.names)
    if men.num_rows == 0:
        return EDGE_SCHEMA.empty_table()
    res = group.filter(resolved).select(RESOLVED_SCHEMA.names) \
        .cast(RESOLVED_SCHEMA)
    return merge_links_batch(men, res, **kw)


def _link_merge_join(mentions_ds, resolved_ds, kw: dict, num_buckets: int):
    """Co-partitioned merge for resolved sets too large to broadcast: both
    sides bucket by hash(mention) as Arrow rows of one schema, and each
    bucket merges its mention rows against its resolved slice — the
    resolved table never lands on the driver or in any single worker
    whole.  Same partitioning assumption as every bucket_join in the repo:
    a bucket (≈ distinct-mentions / num_buckets plus its mention rows)
    fits one worker's heap."""
    sides = [ds.map_batches(_cogroup_rows, fn_args=(schema,),
                            batch_format="pyarrow", batch_size=None)
             for ds, schema in ((mentions_ds, MENTION_SCHEMA),
                                (resolved_ds, RESOLVED_SCHEMA))]
    return bucket_map(sides, "mention", num_buckets,
                      lambda g: _merge_links_cogrouped(g, **kw),
                      batch_format="pyarrow")


def link_mentions(mentions_ds, index_dir: str,
                  cfg: PipelineConfig = DEFAULT_CONFIG, top_k: int = 5,
                  distinct_ds=None):
    """mentions → edges.

    Scale shape (see module comment): distinct mentions resolve ONCE
    cluster-wide; while its bytes ``aggregates.fits`` the resolved table
    broadcasts via ``ray.put`` and a stateless task map merges it into the
    mention stream — total cold-scan work is ``O(distinct)`` regardless of
    cluster size, and the merge schedules at full cluster width (no
    reserved actor pool).  Above the guard the merge runs as a
    co-partitioned bucket join instead (``_link_merge_join``): same
    O(distinct) resolve, one hash(mention) exchange, no broadcast — the
    10^12-document path, where the distinct-mention set is not provably
    worker-heap-sized.  The choice, the resolve and the broadcast are
    :func:`link_merge_plan`.

    ``distinct_ds``: optional pre-built distinct mention Dataset (see
    ``distinct_mentions(..., from_tables=True)``) — lets run_full derive the
    distinct set from the table records directly instead of re-running the
    context-building mention map for it."""
    merge_kw, resolved = link_merge_plan(
        distinct_ds if distinct_ds is not None
        else distinct_mentions(mentions_ds), index_dir, cfg, top_k)
    if resolved is not None:
        return _link_merge_join(mentions_ds, resolved, merge_kw,
                                link_merge_buckets())
    # batch_size MUST stay None: a row-count target makes Ray bundle input
    # blocks up to that many rows per task, and when this map fuses with the
    # lazy upstream mention map the bundling counts TABLE-record rows — at
    # 64k pages that collapsed 200 blocks into ~16 mega-tasks, capping the
    # stage at half the cluster and letting one skewed bundle run the clock
    # (measured 38 s vs 14 s for the identical work; see BASELINE.md).
    return mentions_ds.map_batches(
        merge_links_batch, fn_kwargs=merge_kw,
        batch_format="pyarrow", batch_size=None)


def link_merge_buckets() -> int:
    """Bucket count of the shard gather and the co-partitioned merge
    (``_link_merge_join``)."""
    return max(32, aggregates.cpu_slots() * 2)


def link_merge_plan(distinct_ds, index_dir: str,
                    cfg: PipelineConfig = DEFAULT_CONFIG,
                    top_k: int = 5, fs=None) -> tuple[dict, object]:
    """Everything of the link before the merge: route the resolve, resolve
    the distinct mentions ONCE, and choose how the merge meets them: the
    resolved table broadcasts when its bytes ``aggregates.fits``.

    Returns ``(merge_kw, resolved)``.  On the broadcast path ``resolved``
    is None and ``merge_kw`` are the complete ``merge_links_batch`` kwargs,
    ``ref`` (the ``ray.put`` resolved table) included — a map over any
    mention blocks then merges with them.  On the co-partitioned path
    ``resolved`` is the resolved Dataset and ``merge_kw`` carries no
    ``ref``; ``_link_merge_join`` merges the two.

    Index routing (``cfg.link_shard_route``): None (auto) shard-routes the
    resolve when the built index's ESTIMATED RESIDENT bytes
    (``_meta.json: mem_bytes_est``) exceed
    ``cfg.link_index_replicate_limit`` — replicating a small gazetteer per
    worker is the broadcast-small-side pattern and strictly faster, while a
    large KB must NOT be loaded whole into every worker (round-4 verdict,
    missing #2).  True/False force the mode (tests and the big-link bench
    use this).

    ``fs``: the ``pyarrow.fs.FileSystem`` the index lives on (None:
    POSIX).  It rides in the kwargs beside ``index_dir``, so every index
    load — resolve, shard scoring, merge fallback — reads through it."""
    import ray

    from ..state.index import index_meta

    kw = dict(index_dir=index_dir, top_k=top_k,
              max_edit=cfg.max_edit_distance, fuzzy=True,
              refine_factor=cfg.refine_attrs_factor, fs=fs)
    meta = index_meta(index_dir, fs)
    sharded = cfg.link_shard_route
    if sharded is None:
        # the guard compares what REPLICATING would cost per worker —
        # LabelIndex's resident bytes, not parquet file size (a 1M-entity
        # index is 76 MB on disk but was ~2.4 GB resident as the former
        # dict index: ~30× dictionary + compression + Python-object
        # inflation, measured round 5).  Older indexes without
        # mem_bytes_est fall back to disk bytes × 30.
        mem_est = (meta or {}).get("mem_bytes_est",
                                   (meta or {}).get("bytes", 0) * 30)
        sharded = bool(meta and len(meta.get("shards", [])) > 1
                       and mem_est > cfg.link_index_replicate_limit)
    elif sharded and not (meta and meta.get("shards")):
        raise ValueError(
            f"link_shard_route=True needs a sharded index with _meta.json "
            f"under {index_dir} (rebuild with build_index)")
    distinct = materialized(distinct_ds)
    mkw = dict(kw, payload_mode=bool(sharded))
    if sharded:
        resolved = materialized(resolve_mentions_sharded(
            distinct, index_dir, top_k=top_k,
            max_edit=cfg.max_edit_distance, fuzzy=True,
            shards=[int(s) for s in meta["shards"]], fs=fs))
        nbytes = resolved.size_bytes() or 0
    else:
        # replicated index: the resolve is a pass over the distinct blocks
        # whose items return their rows only within an equal share of the
        # guard — every share is met exactly when items × the largest part
        # fits
        refs = block_refs(distinct)
        parts = run_blocks(_resolve_block, refs,
                           dict(kw, budget=aggregates.driver_share(len(refs))))
        nbytes = len(parts) * max(
            (p if isinstance(p, int) else p.nbytes for p in parts), default=0)
    if not aggregates.fits("link.broadcast", nbytes):
        if not sharded:
            resolved = distinct.map_batches(resolve_mentions_batch,
                                            fn_kwargs=kw,
                                            batch_format="pyarrow")
        return mkw, resolved
    if sharded:
        parts = ray.get(resolved.to_arrow_refs())
    parts = [t for t in parts if len(t)]
    tbl = pa.concat_tables(parts) if parts else pa.Table.from_pydict(
        {c: [] for c in RESOLVED_SCHEMA.names}, schema=RESOLVED_SCHEMA)
    # belt-and-braces: the broadcast must hold each mention ONCE — any
    # upstream duplication multiplies every worker's state-build cost and
    # the broadcast payload (resolution is deterministic per mention, so
    # first-wins is safe)
    return dict(mkw, ref=ray.put(first_per_mention(tbl))), None


def first_per_mention(tbl: pa.Table) -> pa.Table:
    """The first row of each distinct ``mention`` (one null mention counts
    as one value), in their original order; the table itself when the
    mentions are already distinct."""
    ment = tbl.column("mention")
    if pc.count_distinct(ment, mode="all").as_py() == tbl.num_rows:
        return tbl
    codes = pc.index_in(ment, value_set=pc.unique(ment)) \
        .to_numpy(zero_copy_only=False)
    first = np.unique(codes, return_index=True)[1]
    return tbl.take(pa.array(np.sort(first)))


def rank0(edges: pa.Table) -> pa.Table:
    """The rank-0 rows of an edge table (the link decision)."""
    return edges.filter(pc.equal(edges["rank"], pa.scalar(0, pa.int32())))


def top1_links(edges_ds):
    """rank-0 edges only (the link decision)."""
    return edges_ds.map_batches(rank0, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# JoinResult-style aggregation + ranking modes
# ---------------------------------------------------------------------------

def aggregate_edges(edges_ds, left_total_mentions: int,
                    ranking: str = "queryTableCoverage",
                    label_ranks: dict | None = None,
                    min_rank: float | None = None):
    """Edge Dataset → per-entity-group JoinResult aggregates.

    JoinResult accumulation (SearchJoin.java:827-840): count, score sums;
    ranking modes (ScoreEvaluator.assessJoinResult :48-122):
      queryTableCoverage           = count * avgScore / leftDistinct
      entityTableCoverage          = count * avgScore / rightCardinality
      queryEntitySum               = count * avgScore / rightCardinality
                                     (the reference case dead-stores its sum
                                     and falls into the entityTableCoverage
                                     expression — quirk preserved)
      queryTableCoverageNormalized = (sumScore / joinPairs) / (maxScore /
                                     maxJoins), with joinPairs bumped to
                                     leftDistinct when count < 30 % of it
                                     (the few-matches penalty) — max-
                                     normalized against the best group
                                     (SearchJoin.java:203-222).
    The mode rank then blends 50/50 with the normalized label-based
    schema-matching rank (``label_ranks``: group → raw label score;
    normalization per ScoreEvaluator.getNormalizedLabelScore :124-129,
    bounds ±3×DBPEDIA_EXACT_MATCH_SCORE) — ``total_rank`` is the blended
    final, ``rank`` the mode rank (r.setRank vs r.setTotalRank).
    ``min_rank`` filters the blended rank (the reference's >= 0.6 selection
    for the normalized mode, SearchJoin.java:236-238).
    Group key here is the entity-URI prefix class (entity "table" analog).
    """
    def add_group(t: pa.Table) -> pa.Table:
        # entity "table" analog = entity_type (the gazetteer's class — the
        # skewed head types from F4 land here, absorbed by the two-phase
        # combiner); falls back to the URI namespace when untyped
        if "entity_type" in t.column_names:
            types = t.column("entity_type").to_pylist()
            uris = t.column("entity_uri").to_pylist()
            groups = [ty if ty else u.rsplit("/", 1)[0]
                      for ty, u in zip(types, uris)]
        else:
            groups = [u.rsplit("/", 1)[0]
                      for u in t.column("entity_uri").to_pylist()]
        return t.append_column("entity_group", pa.array(groups, pa.string()))

    from .aggregates import dedupe_by_key, two_phase_agg

    grouped = edges_ds.map_batches(add_group, batch_format="pyarrow").materialize()
    if grouped.count() == 0:
        import ray.data as rd

        return rd.from_pandas(pd.DataFrame({
            c: pd.Series(dtype="object" if c == "entity_group" else "float64")
            for c in ["entity_group", "count", "sum_score", "avg_score",
                      "right_cardinality", "rank", "label_rank_norm",
                      "total_rank"]}))
    agg = two_phase_agg(grouped, ["entity_group"], {
        "count": (None, "count"),
        "sum_score": ("score", "sum"),
        "avg_score": ("score", "mean"),
    })
    # right cardinality = distinct entities per group (JoinResult's
    # rightColumnCardinality): distinct via the bucket shuffle, then a tiny
    # per-group count
    distinct = dedupe_by_key(
        grouped.map_batches(
            lambda df: df[["entity_group", "entity_uri"]].assign(
                __pair=df["entity_group"] + "\0" + df["entity_uri"]),
            batch_format="pandas"),
        "__pair")
    card = two_phase_agg(distinct, ["entity_group"],
                         {"right_cardinality": (None, "count")}).to_pandas()
    card_map = dict(zip(card["entity_group"], card["right_cardinality"]))

    # the per-group table is bounded by the entity-group count (tiny next to
    # the edges), so the max-normalization + blend run driver-side pandas
    df = agg.to_pandas()
    df["right_cardinality"] = df["entity_group"].map(card_map) \
        .fillna(1).astype("int64")
    left_card = max(1, left_total_mentions)
    if ranking == "queryTableCoverage":
        df["rank"] = df["count"] * df["avg_score"] / left_card
    elif ranking == "queryEntitySum":
        # reference quirk kept: the queryEntitySum case DEAD-STORES its sum
        # expression and immediately overwrites with count*avg/rightCard
        # (ScoreEvaluator.java:62-65), so the mode behaves exactly like
        # entityTableCoverage
        df["rank"] = df["count"] * df["avg_score"] / \
            df["right_cardinality"].clip(lower=1)
    elif ranking == "entityTableCoverage":
        df["rank"] = df["count"] * df["avg_score"] / \
            df["right_cardinality"].clip(lower=1)
    elif ranking == "queryTableCoverageNormalized":
        if len(df):
            best = df["sum_score"].idxmax()
            max_score = float(df.loc[best, "sum_score"])
            max_joins = max(1, int(df.loc[best, "count"]))
            join_pairs = df["count"].where(
                df["count"] >= left_card * 0.3, left_card)
            best_score = max_score / max_joins if max_score > 0 else 1.0
            df["rank"] = (df["sum_score"] / join_pairs) / max(1e-12, best_score)
        else:
            df["rank"] = pd.Series(dtype=float)
    else:
        df["rank"] = df["avg_score"]

    # 50/50 blend with the normalized label-based schema-matching rank
    # (ScoreEvaluator.java:106-122); raw label rank defaults to 0, which
    # normalizes to the midpoint 15/31 — same constant shift for every group
    exact = 5.0  # LabelBasedComparer.DBPEDIA_EXACT_MATCH_SCORE
    lmin, lmax = -3.0 * exact, 3.0 * exact + 1
    raw_label = df["entity_group"].map(label_ranks or {}).fillna(0.0)
    df["label_rank_norm"] = (raw_label - lmin) / (lmax - lmin)
    df["total_rank"] = 0.5 * df["rank"] + 0.5 * df["label_rank_norm"]
    if min_rank is not None:
        df = df[df["total_rank"] >= min_rank]
    df = df.sort_values("total_rank", ascending=False).reset_index(drop=True)

    import ray.data as rd

    return rd.from_pandas(df)
