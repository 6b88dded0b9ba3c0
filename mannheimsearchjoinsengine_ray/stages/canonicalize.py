"""Canonicalization: near-dup blocking → verify → connected components →
per-component value resolution.

Replaces the reference's duplicate machinery (SURVEY §2.5):
  * FastJoin external fuzzy matcher (SJ/utils/FastJoinWrapper.java:83-196) →
    MinHash-LSH blocking (shingle → signature → band keys → vectorized
    pairs per band) with Jaccard verification;
  * MatchClustering.clusterMatchesAgglomerative (:182-314) → iterative
    min-label propagation connected components over the match edges;
  * DuplicateResolver.resolveDuplicates/mergeColumns (:36-84, 219-362) →
    per-component value resolution over one bucket_map exchange (string
    voting/longest, numeric median/average/voting, date mean — config enums
    preserved).

Scale notes:
  * blocking shuffle key = (band_idx, band_hash); head bands (stopword-ish
    shingles) are capped by candidate-group size (``max_block``) — an
    oversized block pairs only with its minimum id (a star), so its pair
    count is linear, not quadratic;
  * connected components: labels propagate via groupby-min until fixpoint
    (≤ cc_max_iterations); each iteration is one hash-join + one groupby —
    the alias graph is orders of magnitude smaller than the corpus;
  * a driver-side union-find fast path exists for provably small edge sets
    (candidate pairs after verification), used when |edges| < 2M.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..config import DEFAULT_CONFIG, PipelineConfig, StringResolution, NumericResolution
from ..functions.hashing import MinHasher, band_keys, hash64
from ..functions.normalize import tokenize_string
from ..functions.similarity import jaccard
from . import aggregates
from .aggregates import auto_bucket_count, bucket_map

# ---------------------------------------------------------------------------
# 1. MinHash-LSH blocking
# ---------------------------------------------------------------------------

class LshBlocker:
    """(id, name) batches → (band_idx, band_hash, id, name) band rows
    (:func:`band_rows`).  Holds the permutation tables; the function form
    :func:`lsh_block_batch` keeps one instance per worker process."""

    def __init__(self, num_perm: int = 64, num_bands: int = 8,
                 shingle_tokens: bool = True):
        self.mh = MinHasher(num_perm=num_perm)
        self.num_bands = num_bands
        self.shingle_tokens = shingle_tokens

    def _tokens(self, name: str) -> list[str]:
        toks = tokenize_string(name, remove_brackets=True)
        if self.shingle_tokens:
            return toks if toks else [name]
        return [name[i:i + 3] for i in range(max(1, len(name) - 2))]

    def __call__(self, batch: pa.Table) -> pa.Table:
        names = batch.column("name")
        docs = [self._tokens(n or "") for n in names.to_pylist()]
        # every name's tokens hashed in one call, signatures over the flat form
        sigs = self.mh.signatures_flat(
            hash64([t for d in docs for t in d]),
            np.fromiter(map(len, docs), np.int64, count=len(docs)))
        return band_rows(batch.column("id"), band_keys(sigs, self.num_bands),
                         name=names)


_BLOCKER_CACHE: dict[tuple[int, int], "LshBlocker"] = {}


def lsh_block_batch(batch: pa.Table, num_perm: int = 64,
                    num_bands: int = 8) -> pa.Table:
    """Function form of LshBlocker for stateless tasks: the hasher is cached
    at module level (once per worker process)."""
    key = (num_perm, num_bands)
    blocker = _BLOCKER_CACHE.get(key)
    if blocker is None:
        blocker = _BLOCKER_CACHE[key] = LshBlocker(num_perm, num_bands)
    return blocker(batch)


_BAND_COLS = ("band_idx", "band_hash", "id")


def band_rows(ids, band_hashes: np.ndarray, **payload) -> pa.Table:
    """The one band-row layout every LSH blocker emits: ``ids`` (an Arrow
    column of n ids) with their (n, bands) ``band_hashes`` → rows
    (band_idx int32, band_hash int64, id, payload…) in band-major order
    (row ``b * n + i`` is row i in band b).  Each ``payload`` Arrow column
    rides along per row — what ``_band_pairs`` emits as left_/right_
    columns."""
    n, bands = band_hashes.shape
    take = pa.array(np.tile(np.arange(n, dtype=np.int64), bands))
    cols = {"band_idx": pa.array(np.repeat(np.arange(bands, dtype=np.int32), n)),
            "band_hash": pa.array(band_hashes.T.reshape(-1).astype(np.int64)),
            "id": ids.take(take)}
    cols.update({c: v.take(take) for c, v in payload.items()})
    return pa.table(cols)


def _band_pairs(blocked: pd.DataFrame, max_block: int = 50) -> pd.DataFrame:
    """Band rows → unordered candidate pairs for every (band_idx, band_hash)
    group at once: one dedupe, one sort, group bounds and all pair indices
    from numpy — no per-group Python.  Within a group, a repeated id keeps
    its first row; a group of k ≤ ``max_block`` ids pairs every i < j (in id
    order), a larger one pairs its minimum id with each other id (a star:
    O(k) edges, same components).

    PAYLOAD-GENERIC: every column besides (band_idx, band_hash, id) rides
    along as left_<col> / right_<col> — callers choose what the verify stage
    needs in the shuffle (short label strings, an 8-byte simhash, a binary
    vector) or carry NOTHING and join payloads back by id
    (stages/dedup.attach_pair_payloads, the right shape when the payload is
    full document text)."""
    payload = [c for c in blocked.columns if c not in _BAND_COLS]
    g = blocked.drop_duplicates(list(_BAND_COLS)).sort_values(list(_BAND_COLS))
    n = len(g)
    bi = g["band_idx"].to_numpy()
    bh = g["band_hash"].to_numpy()
    new_group = np.ones(n, dtype=bool)
    new_group[1:] = (bi[1:] != bi[:-1]) | (bh[1:] != bh[:-1])
    starts = np.flatnonzero(new_group)
    sizes = np.diff(np.append(starts, n))
    # pairs each row opens as the left side: k-1-i in a clique, k-1 for a
    # star's first row and none for its other rows
    pos = np.arange(n) - np.repeat(starts, sizes)
    k = np.repeat(sizes, sizes)
    fan = np.where(k <= max_block, k - 1 - pos, np.where(pos == 0, k - 1, 0))
    li = np.repeat(np.arange(n), fan)
    run_start = np.repeat(np.cumsum(fan) - fan, fan)
    ri = li + 1 + (np.arange(len(li)) - run_start)
    if not len(li):
        data = {"left_id": pd.Series(dtype=blocked["id"].dtype),
                "right_id": pd.Series(dtype=blocked["id"].dtype)}
        for c in payload:
            data[f"left_{c}"] = pd.Series(dtype=blocked[c].dtype)
            data[f"right_{c}"] = pd.Series(dtype=blocked[c].dtype)
        return pd.DataFrame(data)
    ids = g["id"].to_numpy()
    data = {"left_id": ids[li], "right_id": ids[ri]}
    for c in payload:
        v = g[c].to_numpy()
        data[f"left_{c}"] = v[li]
        data[f"right_{c}"] = v[ri]
    return pd.DataFrame(data)


def candidate_pairs(blocked_ds, max_block: int = 50, bloom_bits: int = 1 << 22):
    """Band rows → unordered candidate pairs (``_band_pairs`` per hash
    bucket of (band_idx, band_hash)).  Blocks larger than ``max_block`` pair
    only with their minimum id — the skew guard; the component structure
    survives (star pattern instead of clique).

    Almost every (band_idx, band_hash) key is a singleton that cannot yield a
    pair, so singletons are dropped before the exchange: it then moves only
    the rows of pair-producing bands.  The duplicated-band-key set is found
    WITHOUT a high-cardinality Ray aggregate: per-batch pandas counts
    reduce through a CONSTANT-bucket shuffle; each bucket emits its
    pair-producing keys as an OR-mergeable Bloom PARTIAL, so what reaches
    the driver is bounded by the FIXED filter size, never by the duplicate
    count.  Bloom false positives only let a
    few singleton bands through the semi-filter — singleton groups yield no
    pairs, so the result stays exact."""
    import ray

    from ..functions.hashing import bloom_contains, bloom_partial

    blocked_ds = blocked_ds.materialize()

    def _band_keys(df: pd.DataFrame) -> np.ndarray:
        return (df["band_idx"].astype(str) + ":"
                + df["band_hash"].astype(str)).to_numpy()

    def partial_counts(df: pd.DataFrame) -> pd.DataFrame:
        n = df.groupby(["band_idx", "band_hash"], sort=False).size()
        out = n.rename("n").reset_index()
        return pd.DataFrame({"band_key": _band_keys(out), "n": out["n"]})

    def hot_bloom(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby("band_key", sort=False)["n"].sum()
        hot = tot.index[tot >= 2].to_numpy()
        bits = bloom_partial(hot, num_bits=bloom_bits)
        return pd.DataFrame({"bloom": [bits.tobytes()], "n_hot": [len(hot)]})

    parts = bucket_map(
        blocked_ds.map_batches(partial_counts, batch_format="pandas"),
        "band_key", 16, hot_bloom).to_pandas()
    if parts.empty or int(parts["n_hot"].sum()) == 0:
        return blocked_ds.limit(0).map_batches(
            lambda g: _band_pairs(g, max_block), batch_format="pandas")
    bloom = np.zeros(bloom_bits // 8, dtype=np.uint8)
    for b in parts["bloom"]:
        bloom |= np.frombuffer(b, dtype=np.uint8)
    bloom_ref = ray.put(bloom)

    def semi(df: pd.DataFrame) -> pd.DataFrame:
        mask = bloom_contains(ray.get(bloom_ref), _band_keys(df))
        return df[mask]

    # exchange width derived from the MEASURED hot-band bytes (a fixed 8
    # capped the pair-producing reduce stage at any scale)
    hot = blocked_ds.map_batches(semi, batch_format="pandas").materialize()

    def band_pairs(g: pd.DataFrame) -> pd.DataFrame:
        return _band_pairs(g, max_block)

    return bucket_map(hot, ["band_idx", "band_hash"], auto_bucket_count(hot),
                      band_pairs)


def _verify_df(df: pd.DataFrame, min_jaccard: float) -> pd.DataFrame:
    if df.empty:
        df["jaccard"] = []
        return df
    keep = []
    jac = []
    for ln, rn in zip(df["left_name"], df["right_name"]):
        j = jaccard(set(tokenize_string(ln or "")), set(tokenize_string(rn or "")))
        jac.append(j)
        keep.append(j >= min_jaccard)
    df = df.assign(jaccard=jac)[pd.Series(keep, index=df.index)]
    return df.drop_duplicates(["left_id", "right_id"])


def verify_pairs(pairs_ds, min_jaccard: float = 0.5):
    """Token-set Jaccard verification (FastJoin FJACCARD δ τ analog;
    fuzzy_min_confidence in config)."""
    return pairs_ds.map_batches(lambda df: _verify_df(df, min_jaccard),
                                batch_format="pandas")


def alias_edges_local(labels_df: pd.DataFrame,
                      cfg: PipelineConfig = DEFAULT_CONFIG,
                      min_jaccard: float | None = None) -> pd.DataFrame:
    """Driver-local blocking + verify for SMALL deduped label sets (the
    caller guards with a row-count check — e.g. Parquet metadata counts).
    Identical semantics to the distributed path, none of the per-op
    scheduling overhead."""
    mj = min_jaccard if min_jaccard is not None else cfg.fuzzy_min_confidence
    df = labels_df.drop_duplicates("id")
    if df.empty:
        return pd.DataFrame({"left_id": [], "right_id": [], "jaccard": []})
    blocker = LshBlocker(cfg.minhash_num_perm, cfg.minhash_bands)
    blocked = blocker(pa.Table.from_pandas(df, preserve_index=False)).to_pandas()
    # singleton bands can't produce pairs — drop them by hash before the
    # pair generator's sort (almost all bands are singletons)
    blocked = blocked[blocked.duplicated(["band_idx", "band_hash"], keep=False)]
    pairs = _band_pairs(blocked).drop_duplicates(["left_id", "right_id"])
    return _verify_df(pairs, mj)


# ---------------------------------------------------------------------------
# 2. Connected components
# ---------------------------------------------------------------------------

def connected_components_local(edges: pd.DataFrame,
                               left: str = "left_id", right: str = "right_id") -> pd.DataFrame:
    """Union-find on the driver — ONLY for verified candidate-pair sets that
    are provably small (they are post-blocking).  Returns (id, component)
    with component = lexicographic min member."""
    parent: dict = {}

    def find(x):
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:
            parent[x], x = r, parent[x]
        return r

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        if rb < ra:
            ra, rb = rb, ra
        parent[rb] = ra

    for a, b in zip(edges[left], edges[right]):
        union(a, b)
    nodes = sorted(set(edges[left]) | set(edges[right]))
    return pd.DataFrame({"id": nodes, "component": [find(n) for n in nodes]})


def _star_round(edges, small: bool, num_buckets: int):
    """One large-star or small-star round (Kiveris et al., "Connected
    Components in MapReduce and Beyond", 2014 — public algorithm):

      large-star(u): m = min(N(u) ∪ {u}); emit (v, m) for v ∈ N(u), v > u
      small-star(u): m = min({v ∈ N(u): v < u} ∪ {u});
                     emit (v, m) for v ∈ N(u), v < u, plus (u, m)

    Implemented as ONE ``bucket_map`` by u (never a high-cardinality Ray
    groupby) with vectorized pandas transforms inside each bucket.
    Input/output: canonical undirected edges (a < b), deduped.
    """

    def both_ends(t: pa.Table) -> pd.DataFrame:
        a = t.column("a").to_pandas()
        b = t.column("b").to_pandas()
        # group key is u — every edge appears under BOTH endpoints
        return pd.DataFrame({"u": pd.concat([a, b], ignore_index=True),
                             "v": pd.concat([b, a], ignore_index=True)})

    def star(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["u", "v"])
        if small:
            lt = g[g["v"] < g["u"]]
            mn = lt.groupby("u", sort=False)["v"].min()
            # m = min(smaller neighbors, u) = that min (it is < u); nodes with
            # no smaller neighbor keep m = u.  Built with numpy positional
            # placement — any NaN detour (reindex / Series.update) silently
            # upcasts int ids to float, and the bucket hash of "10.0" != "10"
            # then splits groups across rounds (livelock).
            uniq = pd.Index(g["u"].unique())
            vals = uniq.to_numpy().copy()
            pos = uniq.get_indexer(mn.index)
            vals[pos] = mn.to_numpy()
            m_of = pd.Series(vals, index=uniq)
            # emit (v, m) for v < u, plus (u, m)
            out_v = lt["v"]
            out_m = lt["u"].map(m_of)
            self_rows = pd.DataFrame({"x": m_of.index, "y": m_of.to_numpy()})
            out = pd.concat([pd.DataFrame({"x": out_v.to_numpy(),
                                           "y": out_m.to_numpy()}), self_rows],
                            ignore_index=True)
        else:
            mn = g.groupby("u", sort=False)["v"].min()
            u_ser = mn.index.to_series()
            m_of = mn.where(mn < u_ser, u_ser)
            gt = g[g["v"] > g["u"]]
            out = pd.DataFrame({"x": gt["v"].to_numpy(),
                                "y": gt["u"].map(m_of).to_numpy()})
        out = out[out["x"] != out["y"]]
        a = out[["x", "y"]].min(axis=1)
        b = out[["x", "y"]].max(axis=1)
        return pd.DataFrame({"a": a, "b": b}).drop_duplicates()

    return bucket_map(edges.map_batches(both_ends, batch_format="pyarrow"),
                      "u", num_buckets, star)


def _edge_stats(edges) -> tuple[int, int]:
    """(count, order-independent checksum) in one cheap map over the
    ALREADY-MATERIALIZED edge blocks (no lineage re-execution)."""
    parts = edges.map_batches(
        lambda df: pd.DataFrame({
            "n": [len(df)],
            "h": [int((hash64((df["a"].astype(str) + "\0" +
                               df["b"].astype(str)).to_numpy())
                       % np.uint64(2**61)).sum())] if len(df) else [0]}),
        batch_format="pandas").to_pandas()
    if parts.empty or "n" not in parts.columns:
        return 0, 0
    return int(parts["n"].sum()), int(parts["h"].sum())


def _local_roots(a_vals, b_vals) -> dict:
    """Union-find over one batch's edges → {node: root} (root = component
    min), the map-side combine of the distributed CC."""
    parent: dict = {}

    def find(x):
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:
            parent[x], x = r, parent[x]
        return r

    seen = set()
    for x, y in zip(a_vals, b_vals):
        seen.add(x)
        seen.add(y)
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        if ry < rx:
            rx, ry = ry, rx
        parent[ry] = rx
    return {x: find(x) for x in seen}


def connected_components_distributed(edges_ds, max_iterations: int = 50,
                                     num_buckets: int = 32):
    """Distributed connected components in three phases:

      1. PRE-CONTRACT (map-only, no shuffle): per-batch union-find collapses
         every intra-batch structure — chains/cliques that fit a block never
         reach the shuffle.  Emits contracted edges + (node → rep) mapping
         rows in one tagged pass.  Contraction typically shrinks the graph
         by orders of magnitude (the residual is only cross-batch links).
      2a. A residual whose bytes ``aggregates.fits``: finish with driver
         union-find (the residual is provably bounded by the guard — the
         same hybrid the repo uses for label blocking).
      2b. Otherwise STAR ROUNDS: alternating large-star / small-star
         (Kiveris et al., "Connected Components in MapReduce and Beyond",
         2014 — public algorithm) over the contracted cross-batch edges; ONE
         bucket shuffle per round, no joins; long chains collapse in
         O(log n) rounds.  At convergence the edge set IS the star forest
         (component-min → v).  The number of rounds goes into the
         decisions of an open ``aggregates.record_passes`` block.
      3. COMPOSE (one bucket shuffle): component(node) =
         star_label(rep(node)) or rep(node) — matched per bucket with numpy
         searchsorted, so integer/string id dtypes survive (no NaN-float
         round-trip)."""
    import ray.data as rd

    def canon_contract(t: pa.Table) -> pd.DataFrame:
        l = t.column("left_id").to_pandas()
        r = t.column("right_id").to_pandas()
        df = pd.DataFrame({"a": l.where(l < r, r), "b": r.where(l < r, l)})
        df = df[df["a"] != df["b"]].drop_duplicates()
        roots = _local_roots(df["a"].to_numpy(), df["b"].to_numpy())
        ra = df["a"].map(roots)
        rb = df["b"].map(roots)
        ea = ra.where(ra < rb, rb)
        eb = rb.where(ra < rb, ra)
        ed = pd.DataFrame({"x": ea, "y": eb})
        ed = ed[ed["x"] != ed["y"]].drop_duplicates()
        nodes = pd.unique(pd.concat([df["a"], df["b"]], ignore_index=True))
        reps = pd.Series(nodes).map(roots)
        mp = pd.DataFrame({"x": nodes, "y": reps.to_numpy()})
        ed.insert(0, "kind", np.int8(0))
        mp.insert(0, "kind", np.int8(1))
        return pd.concat([ed, mp], ignore_index=True)

    tagged = edges_ds.map_batches(canon_contract, batch_format="pyarrow") \
        .materialize()
    contracted = tagged.map_batches(
        lambda df: df[df["kind"] == 0].rename(columns={"x": "a", "y": "b"})
        [["a", "b"]], batch_format="pandas")
    mapping = tagged.map_batches(
        lambda df: df[df["kind"] == 1].rename(columns={"x": "node", "y": "rep"})
        [["node", "rep"]], batch_format="pandas")

    if tagged.count() == 0:
        return rd.from_pandas(pd.DataFrame({"id": pd.Series(dtype=object),
                                            "component": pd.Series(dtype=object)}))

    # a node seen by several batches got independent local reps — those reps
    # are one component, so link them (one bucket shuffle over the mapping)
    def link_shared(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["node", "rep"])
        mn = g.groupby("node", sort=False)["rep"].transform("min")
        extra = g["rep"] != mn
        return pd.DataFrame({"a": mn[extra].to_numpy(),
                             "b": g.loc[extra, "rep"].to_numpy()}) \
            .drop_duplicates()

    link_edges = bucket_map(mapping, "node", num_buckets, link_shared)
    edges = contracted.union(link_edges).materialize()

    n, checksum = _edge_stats(edges)

    # compose rows: label rows (kind 1) carry key = rep, val = its
    # component; probe rows (kind 0) carry key = the rep they need, val =
    # their node — one plain key column for the exchange
    def star_labels(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"rep": df["b"], "comp": df["a"]})
        roots = pd.DataFrame({"rep": df["a"].unique()})
        roots["comp"] = roots["rep"]
        out = pd.concat([out, roots], ignore_index=True).drop_duplicates("rep")
        out.insert(0, "kind", np.int8(1))
        return out.rename(columns={"rep": "key", "comp": "val"})

    if n > 0 and aggregates.fits("cc.residual", edges.size_bytes() or 0):
        # residual is guard-bounded — driver union-find, skip the rounds
        edf = edges.to_pandas()
        comp = connected_components_local(edf, left="a", right="b")
        lab_df = pd.DataFrame({"kind": np.int8(1), "key": comp["id"],
                               "val": comp["component"]})
        labels = rd.from_pandas(lab_df)
    else:
        it = 0
        while n > 0 and it < max_iterations:
            edges = _star_round(edges, small=False, num_buckets=num_buckets) \
                .materialize()
            edges = _star_round(edges, small=True, num_buckets=num_buckets) \
                .materialize()
            new_n, new_checksum = _edge_stats(edges)
            if (new_n, new_checksum) == (n, checksum):
                break
            n, checksum = new_n, new_checksum
            it += 1
        aggregates.note("cc.star_rounds", rounds=it, edges=n)
        # --- star forest labels ---
        labels = edges.map_batches(star_labels, batch_format="pandas")
    probes = mapping.map_batches(
        lambda df: pd.DataFrame({"kind": np.int8(0), "key": df["rep"],
                                 "val": df["node"]}),
        batch_format="pandas")

    def compose(g: pd.DataFrame) -> pd.DataFrame:
        lab = g[g["kind"] == 1].drop_duplicates("key")
        pr = g[g["kind"] == 0]
        if pr.empty:
            return pd.DataFrame({"id": pr["val"], "component": pr["key"]})
        rep = pr["key"].to_numpy()
        if lab.empty:
            return pd.DataFrame({"id": pr["val"].to_numpy(), "component": rep})
        # numpy searchsorted lookup — id dtypes survive (no NaN-float detour)
        order = np.argsort(lab["key"].to_numpy(), kind="stable")
        keys = lab["key"].to_numpy()[order]
        vals = lab["val"].to_numpy()[order]
        idx = np.searchsorted(keys, rep)
        idx_c = np.clip(idx, 0, len(keys) - 1)
        found = keys[idx_c] == rep
        comp = np.where(found, vals[idx_c], rep)
        return pd.DataFrame({"id": pr["val"].to_numpy(), "component": comp})

    composed = bucket_map([labels, probes], "key", num_buckets, compose)
    # a node seen by several batches composes once per distinct rep — all
    # agree on the component (the reps were linked), so keep the first
    from .aggregates import dedupe_by_key

    return dedupe_by_key(composed, "id", num_buckets=num_buckets)


# ---------------------------------------------------------------------------
# 3. Per-component value resolution (DuplicateResolver port)
# ---------------------------------------------------------------------------

def resolve_string(values: list[str], strategy: StringResolution) -> str:
    vals = [v for v in values if v not in (None, "", "null")]
    if not vals:
        return "null"
    if strategy == StringResolution.longest:
        return max(vals, key=lambda v: (len(v), v))
    # voting: most frequent, ties → first in sorted order (total order for
    # run-to-run determinism; reference ties break by insertion order)
    counts = pd.Series(vals).value_counts()
    top = counts[counts == counts.iloc[0]]
    return sorted(top.index)[0]


def resolve_numeric(values: list[float], strategy: NumericResolution) -> float | None:
    vals = [v for v in values if v is not None and not (isinstance(v, float) and np.isnan(v))]
    if not vals:
        return None
    if strategy == NumericResolution.median:
        return float(np.median(vals))
    if strategy == NumericResolution.average:
        return float(np.mean(vals))
    counts = pd.Series(vals).value_counts()
    top = counts[counts == counts.iloc[0]]
    return float(sorted(top.index)[0])


def resolve_date(values: list) -> "pd.Timestamp | None":
    """DuplicateResolver date merge: mean of the epoch seconds (:340-355)."""
    ts = pd.to_datetime(pd.Series(values), errors="coerce").dropna()
    if ts.empty:
        return None
    return pd.Timestamp(int(ts.astype("int64").mean()))


def resolve_components(values_ds, value_type: str = "string",
                       cfg: PipelineConfig = DEFAULT_CONFIG):
    """(component, value) Dataset → (component, canonical_value).  One
    ``bucket_map`` exchange by component, one pandas groupby per bucket; the
    merge functions are the DuplicateResolver resolutions (:294-355) with
    deterministic tie-breaks."""
    if value_type == "numeric":
        prep = lambda s: pd.to_numeric(s, errors="coerce")
        merge = lambda v: resolve_numeric(v, cfg.numeric_resolution)
    elif value_type == "date":
        prep, merge = (lambda s: s), resolve_date
    else:
        prep = lambda s: s.astype(str)
        merge = lambda v: resolve_string(v, cfg.string_resolution)

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        groups = prep(g["value"]).groupby(g["component"], sort=False,
                                          dropna=False)
        return pd.DataFrame([(comp, merge(list(v))) for comp, v in groups],
                            columns=["component", "canonical_value"])

    values_ds = values_ds.materialize()
    return bucket_map(values_ds, "component", auto_bucket_count(values_ds),
                      resolve)


# ---------------------------------------------------------------------------
# 4. End-to-end canonicalization of a triple Dataset
# ---------------------------------------------------------------------------

def alias_edges_from_labels(labels_ds, cfg: PipelineConfig = DEFAULT_CONFIG,
                            min_jaccard: float | None = None):
    """(id, name) label pairs → verified near-duplicate id pairs.

    Labels repeat (across pages/shards): global dedupe runs as a
    LOW-cardinality bucket shuffle (aggregates.dedupe_by_key) — per-batch
    drop_duplicates as the map-side combine, then hash(id)%32 buckets, so
    neither the per-group overhead of a high-cardinality groupby nor
    cross-shard repeats (which would defeat the singleton-band prefilter in
    candidate_pairs) survive."""
    from .aggregates import dedupe_by_key

    # label-id cardinality is corpus-sized on the distributed path —
    # num_buckets=None derives B from the measured per-batch-deduped bytes
    labels = dedupe_by_key(labels_ds, "id", num_buckets=None)
    blocked = labels.map_batches(
        lsh_block_batch,
        fn_kwargs={"num_perm": cfg.minhash_num_perm,
                   "num_bands": cfg.minhash_bands},
        batch_format="pyarrow",
    )
    pairs = candidate_pairs(blocked)
    return verify_pairs(pairs, min_jaccard=min_jaccard
                        if min_jaccard is not None else cfg.fuzzy_min_confidence)


def subject_alias_edges(triples_ds, cfg: PipelineConfig = DEFAULT_CONFIG,
                        min_jaccard: float | None = None):
    """rdfs:label triples → verified near-duplicate subject pairs."""
    import pyarrow.compute as pc

    def label_partials(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(
            t["pred"], pa.scalar("http://www.w3.org/2000/01/rdf-schema#label")))
        df = pd.DataFrame({"id": t.column("subj").to_pylist(),
                           "name": t.column("obj").to_pylist()})
        return pa.Table.from_pandas(df.drop_duplicates("id"), preserve_index=False)

    labels = triples_ds.map_batches(label_partials, batch_format="pyarrow")
    return alias_edges_from_labels(labels, cfg, min_jaccard)


def mapping_from_edges(edges_df: pd.DataFrame,
                       cfg: PipelineConfig = DEFAULT_CONFIG) -> dict:
    """Verified alias edges → {uri: canonical_uri} via connected components
    (empty dict = nothing merges; identity): driver union-find when the
    (left_id, right_id) columns' Arrow bytes ``aggregates.fits``, else the
    distributed CC.

    SMALL-PATH ONLY: the caller must bound ``edges_df`` (it is a driver
    DataFrame).  The scale path is ``mapping_ds_from_edges`` — edge Dataset
    in, (uri, canon) Dataset out, nothing driver-sized in between."""
    if edges_df.empty:
        return {}
    ids = pa.Table.from_pandas(edges_df[["left_id", "right_id"]],
                               preserve_index=False)
    if aggregates.fits("canonicalize.mapping_edges", ids.nbytes):
        comp = connected_components_local(edges_df)
    else:
        import ray.data as rd

        comp = connected_components_distributed(
            rd.from_pandas(edges_df), cfg.cc_max_iterations).to_pandas()
    return {i: c for i, c in zip(comp["id"], comp["component"]) if i != c}


def mapping_ds_from_edges(edges_ds, cfg: PipelineConfig = DEFAULT_CONFIG):
    """Verified alias-edge Dataset → (uri, canon) mapping Dataset, fully
    Dataset-native: distributed connected components, then a map-only filter
    to the non-identity rows.  The mapping NEVER lands on the driver — feed
    the result straight to ``apply_canonical_mapping_join`` (or to
    ``apply_canonical_mapping``, which dispatches on type)."""
    comp = connected_components_distributed(edges_ds, cfg.cc_max_iterations)

    def non_identity(df: pd.DataFrame) -> pd.DataFrame:
        out = df[df["id"] != df["component"]]
        return pd.DataFrame({"uri": out["id"].to_numpy(),
                             "canon": out["component"].to_numpy()})

    return comp.map_batches(non_identity, batch_format="pandas")


def build_canonical_mapping(triples_ds,
                            cfg: PipelineConfig = DEFAULT_CONFIG) -> dict:
    """Blocking + verify + connected components over a triple Dataset."""
    edges_df = subject_alias_edges(triples_ds, cfg).to_pandas()
    return mapping_from_edges(edges_df, cfg)


def mapping_arrays(mapping) -> tuple[pa.Array, pa.Array]:
    """The sameAs ``mapping`` — a dict, or a MATERIALIZED (uri, canon)
    Dataset — as (uri, canon) Arrow string arrays, the form
    :func:`rewrite_uris` takes: built once on the driver."""
    if isinstance(mapping, dict):
        return (pa.array(list(mapping), pa.string()),
                pa.array(list(mapping.values()), pa.string()))
    import ray
    from ray.data.block import BlockAccessor

    table = pa.concat_tables(
        [BlockAccessor.for_block(b).to_arrow().select(["uri", "canon"])
         for b in ray.get(aggregates.block_refs(mapping))],
        promote_options="permissive")
    return tuple(table.column(c).combine_chunks().cast(pa.string())
                 for c in ("uri", "canon"))



def rewrite_uris(table: pa.Table, mapping: tuple[pa.Array, pa.Array]
                 ) -> pa.Table:
    """Triples with ``subj`` and the uri-typed ``obj`` values rewritten
    through the (uri, canon) ``mapping`` arrays; unmapped URIs stay as they
    are."""
    uris, canon = mapping

    def rewritten(col, where=None):
        idx = pc.index_in(col, value_set=uris)
        if where is not None:
            idx = pc.if_else(where, idx, pa.scalar(None, idx.type))
        return pc.coalesce(pc.take(canon, idx), col)

    table = table.set_column(table.schema.get_field_index("subj"), "subj",
                             rewritten(table.column("subj")))
    return table.set_column(
        table.schema.get_field_index("obj"), "obj",
        rewritten(table.column("obj"),
                  pc.equal(table.column("obj_type"), "uri")))


def apply_canonical_mapping(triples_ds, mapping,
                            bucket_count: int | None = None):
    """Rewrite subj/obj URIs through the sameAs mapping.

    ``mapping`` is a dict, broadcast as (uri, canon) arrays when their bytes
    ``aggregates.fits``, or a Dataset with columns (uri, canon).  Above the
    guard the rewrite runs as co-partitioned bucket joins — a Dataset
    mapping never lands on the driver."""
    import ray

    if isinstance(mapping, dict):
        if not mapping:
            return triples_ds
        arrays = mapping_arrays(mapping)
        if aggregates.fits("canonicalize.mapping",
                           arrays[0].nbytes + arrays[1].nbytes):
            map_ref = ray.put(arrays)
            return triples_ds.map_batches(
                lambda t: rewrite_uris(t, ray.get(map_ref)),
                batch_format="pyarrow")
        mapping = arrays
    return apply_canonical_mapping_join(triples_ds, mapping, bucket_count)


def apply_canonical_mapping_join(triples_ds, mapping_ds,
                                 bucket_count: int | None = None):
    """Join-based URI rewrite: triples ⋈ (uri → canon) co-partitioned on the
    subject hash, then the uri-typed objects through a second join; literal
    rows bypass the second shuffle entirely.  ``mapping_ds`` is a (uri,
    canon) Dataset or the ``mapping_arrays`` pair."""
    import ray.data as rd

    from .joins import bucket_join

    if isinstance(mapping_ds, tuple):
        mapping_ds = rd.from_arrow(pa.table(dict(zip(("uri", "canon"),
                                                     mapping_ds))))
    mapping_ds = mapping_ds.materialize()

    def fix_subj(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["subj"] = out["canon"].where(out["canon"].notna(), out["subj"])
        return out.drop(columns=["canon"])

    joined = bucket_join(triples_ds, mapping_ds, left_on="subj",
                         right_on="uri", bucket_count=bucket_count,
                         how="left").map_batches(fix_subj,
                                                 batch_format="pandas")
    joined = joined.materialize()
    uri_rows = joined.map_batches(lambda df: df[df["obj_type"] == "uri"],
                                  batch_format="pandas")
    lit_rows = joined.map_batches(lambda df: df[df["obj_type"] != "uri"],
                                  batch_format="pandas")

    def fix_obj(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["obj"] = out["canon"].where(out["canon"].notna(), out["obj"])
        return out.drop(columns=["canon"])

    fixed_uri = bucket_join(uri_rows, mapping_ds, left_on="obj",
                            right_on="uri", bucket_count=bucket_count,
                            how="left").map_batches(fix_obj,
                                                    batch_format="pandas")
    cols = ["subj", "pred", "obj", "obj_type", "source_url"]
    return lit_rows.map_batches(lambda df: df[cols], batch_format="pandas") \
        .union(fixed_uri.map_batches(lambda df: df[cols],
                                     batch_format="pandas"))


def canonicalize_triples(triples_ds, cfg: PipelineConfig = DEFAULT_CONFIG):
    """build_canonical_mapping + apply_canonical_mapping in one call."""
    mapping = build_canonical_mapping(triples_ds, cfg)
    return apply_canonical_mapping(triples_ds, mapping)
