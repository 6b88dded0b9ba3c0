"""InfoGather execution model (holistic match via topic-sensitive PageRank).

Re-expresses the reference's InfoGather port (SJ/infogather/QueryProcessor.java
:51-205 — Q1 seed tables + DMA scores, Q2 TSP via stored PPR vectors, Q3
TSP-weighted aggregation; offline graph build in
SJ/infogather/preprocessing/PreProcessor.java; published algorithm: Yakout et
al., "InfoGather: Entity Augmentation and Attribute Discovery By Holistic
Matching with Web Tables", SIGMOD 2012) Ray-Data-first:

  * VIRTUAL TABLES: one node per (table, value column) pair — the unit the
    paper matches ("virtual table" = key column + one value column).
  * GRAPH (offline): edges between virtual tables that share normalized key
    values, weight = co-occurrence count blended with header similarity
    (the synonym-aware ``matching.label_similarity``).  Built as ONE bucket
    shuffle over exploded (key, vt) postings with a per-key cap (hot keys —
    stopword-ish values — emit a star, not a clique; same skew guard as LSH
    blocking).
  * TSP (query): instead of precomputing per-node PPR vectors into a T2PPV
    store (the reference's GraphChi + BerkeleyDB), the topic-sensitive
    PageRank runs AT QUERY TIME with the sparse preference vector β —
    Theorem 1 in the paper makes the two equivalent; one power iteration
    per round over the edge Dataset (bucket shuffles), with a driver-local
    numpy fast path under an explicit node-count guard.
  * Q3: value predictions from relevant virtual tables aggregate per
    (query key, value) with TSP weights; argmax value wins (the DataFuser
    weighted-voting analog).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..config import DEFAULT_CONFIG, PipelineConfig
from ..functions.normalize import clear_string
from . import aggregates
from .aggregates import bucket_map, two_phase_agg


# ---------------------------------------------------------------------------
# virtual tables + key postings
# ---------------------------------------------------------------------------

def virtual_tables_batch(batch: pa.Table) -> pa.Table:
    """Table records (stages.extract) → one row per (key column × value
    column) virtual table: (vt_id, url, table_idx, col_idx, header, n_rows)."""
    out = {"vt_id": [], "url": [], "table_idx": [], "col_idx": [],
           "header": [], "n_rows": []}
    for url, ti, ki, hk, headers, nrows in zip(
        batch.column("url").to_pylist(), batch.column("table_idx").to_pylist(),
        batch.column("key_idx").to_pylist(), batch.column("has_key").to_pylist(),
        batch.column("headers").to_pylist(), batch.column("n_rows").to_pylist(),
    ):
        if not hk or ki < 0:
            continue
        for ci, h in enumerate(headers):
            if ci == ki:
                continue
            out["vt_id"].append(f"{url}#{ti}#{ci}")
            out["url"].append(url)
            out["table_idx"].append(ti)
            out["col_idx"].append(ci)
            out["header"].append(h)
            out["n_rows"].append(nrows)
    return pa.Table.from_pydict(out, schema=pa.schema([
        ("vt_id", pa.string()), ("url", pa.string()),
        ("table_idx", pa.int32()), ("col_idx", pa.int32()),
        ("header", pa.string()), ("n_rows", pa.int32())]))


def key_value_postings_batch(batch: pa.Table) -> pa.Table:
    """Table records → (key_norm, vt_id, value) rows: for each data row, the
    normalized key cell and each sibling column's value (the WIKV index
    content, one posting per cell)."""
    out = {"key_norm": [], "vt_id": [], "value": []}
    for url, ti, ki, hk, rows in zip(
        batch.column("url").to_pylist(), batch.column("table_idx").to_pylist(),
        batch.column("key_idx").to_pylist(), batch.column("has_key").to_pylist(),
        batch.column("rows").to_pylist(),
    ):
        if not hk or ki < 0:
            continue
        for row in rows:
            if ki >= len(row):
                continue
            k = clear_string(row[ki], True)
            if not k or k == "null":
                continue
            for ci, cell in enumerate(row):
                if ci == ki or not cell or cell == "null":
                    continue
                out["key_norm"].append(k)
                out["vt_id"].append(f"{url}#{ti}#{ci}")
                out["value"].append(cell)
    return pa.Table.from_pydict(out, schema=pa.schema([
        ("key_norm", pa.string()), ("vt_id", pa.string()),
        ("value", pa.string())]))


# ---------------------------------------------------------------------------
# graph build (offline)
# ---------------------------------------------------------------------------

def table_graph_edges(tables_ds, max_per_key: int = 20,
                      num_buckets: int = 32):
    """Virtual-table graph: (src, dst, weight) where weight = number of
    shared normalized key values (symmetric; src < dst).  One bucket shuffle
    over key postings; keys held by more than ``max_per_key`` virtual tables
    emit a star around the lexicographic minimum (hot-key guard — stopword
    values would otherwise emit a clique)."""

    def postings(t: pa.Table) -> pd.DataFrame:
        return key_value_postings_batch(t).select(["key_norm", "vt_id"]) \
            .to_pandas().drop_duplicates()

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["key_norm", "vt_id"])
        L, R = [], []
        for _, grp in g.groupby("key_norm", sort=False):
            vts = sorted(grp["vt_id"])
            if len(vts) < 2:
                continue
            if len(vts) > max_per_key:
                L.extend([vts[0]] * (len(vts) - 1))
                R.extend(vts[1:])
            else:
                for i in range(len(vts)):
                    for j in range(i + 1, len(vts)):
                        L.append(vts[i])
                        R.append(vts[j])
        out = pd.DataFrame({"src": L, "dst": R})
        return out.groupby(["src", "dst"], sort=False).size() \
            .rename("weight").reset_index()

    raw = bucket_map(tables_ds.map_batches(postings, batch_format="pyarrow"),
                     "key_norm", num_buckets, pairs)

    # (src, dst) is HIGH-cardinality — never a bare Ray groupby on it
    # (per-group overhead); sum weights inside constant-count buckets
    return bucket_map(
        raw, ["src", "dst"], num_buckets,
        lambda g: g.groupby(["src", "dst"], sort=False)["weight"].sum()
        .reset_index())


# ---------------------------------------------------------------------------
# personalized PageRank (TSP)
# ---------------------------------------------------------------------------

def _ppr_local(edges_df: pd.DataFrame, beta: dict[str, float],
               alpha: float = 0.15, iters: int = 20) -> pd.DataFrame:
    """Driver numpy power iteration (guard-bounded fast path).
    v ← (1−α)·Wᵀv + α·β over the symmetric row-normalized weight matrix."""
    nodes = pd.Index(pd.unique(pd.concat([edges_df["src"], edges_df["dst"],
                                          pd.Series(list(beta))],
                                         ignore_index=True)))
    n = len(nodes)
    if n == 0:
        return pd.DataFrame({"vt_id": [], "tsp": []})
    si = nodes.get_indexer(edges_df["src"])
    di = nodes.get_indexer(edges_df["dst"])
    w = edges_df["weight"].to_numpy(dtype=np.float64)
    # symmetric graph: each undirected edge contributes both directions
    rows = np.concatenate([si, di])
    cols = np.concatenate([di, si])
    vals = np.concatenate([w, w])
    outsum = np.zeros(n)
    np.add.at(outsum, rows, vals)
    vals = vals / np.maximum(outsum[rows], 1e-12)

    b = np.zeros(n)
    for k, v in beta.items():
        idx = nodes.get_loc(k) if k in nodes else -1
        if idx >= 0:
            b[idx] = v
    if b.sum() > 0:
        b = b / b.sum()
    v = b.copy()
    for _ in range(iters):
        nv = np.zeros(n)
        np.add.at(nv, cols, vals * v[rows])
        v = (1.0 - alpha) * nv + alpha * b
    return pd.DataFrame({"vt_id": nodes.to_numpy(), "tsp": v})


def personalized_pagerank(edges_ds, beta: dict[str, float],
                          alpha: float = 0.15, iters: int = 20,
                          num_buckets: int = 32):
    """TSP scores for every node reachable from the seeds.

    An edge list whose bytes ``aggregates.fits`` runs the PPR on the
    driver.  Distributed path (above the guard): per round, contributions
    flow across the edge list via ONE bucket shuffle (hash(dst) groups,
    pandas vectorized inside) — the same exchange shape as the repo's
    CC/star rounds; β re-injects with weight α each round."""
    import ray
    import ray.data as rd

    edges = edges_ds.materialize()
    if aggregates.fits("infogather.ppr_edges", edges.size_bytes() or 0):
        return rd.from_pandas(_ppr_local(edges.to_pandas(), beta,
                                         alpha, iters))

    beta_total = sum(beta.values()) or 1.0
    beta_norm = {k: v / beta_total for k, v in beta.items()}
    beta_ref = ray.put(beta_norm)

    # out-weight normalization: sum of weights per node (symmetric edges)
    def outsum_partial(df: pd.DataFrame) -> pd.DataFrame:
        s = pd.concat([df[["src", "weight"]].rename(columns={"src": "node"}),
                       df[["dst", "weight"]].rename(columns={"dst": "node"})],
                      ignore_index=True)
        return s.groupby("node", sort=False)["weight"].sum().reset_index()

    outsums = bucket_map(
        edges.map_batches(outsum_partial, batch_format="pandas"), "node",
        num_buckets,
        lambda g: g.groupby("node", sort=False)["weight"].sum()
        .rename("outsum").reset_index()).materialize()

    from .joins import bucket_join

    # normalize edge weights by the SOURCE node's outsum, both directions
    def both_dirs(df: pd.DataFrame) -> pd.DataFrame:
        return pd.concat([
            df[["src", "dst", "weight"]],
            df.rename(columns={"src": "dst", "dst": "src"})
            [["src", "dst", "weight"]]], ignore_index=True)

    directed = edges.map_batches(both_dirs, batch_format="pandas")
    norm_edges = bucket_join(directed, outsums, left_on="src",
                             right_on="node", bucket_count=num_buckets) \
        .map_batches(lambda df: pd.DataFrame({
            "src": df["src"], "dst": df["dst"],
            "w": df["weight"] / df["outsum"].clip(lower=1e-12)}),
            batch_format="pandas").materialize()

    def beta_rows() -> pd.DataFrame:
        b = pd.DataFrame({"vt_id": list(beta_norm),
                          "tsp": list(beta_norm.values())})
        return b

    v = rd.from_pandas(beta_rows()).materialize()
    for _ in range(iters):
        contrib = bucket_join(norm_edges, v, left_on="src", right_on="vt_id",
                              bucket_count=num_buckets) \
            .map_batches(lambda df: pd.DataFrame({
                "vt_id": df["dst"],
                "tsp": (1.0 - alpha) * df["w"] * df["tsp"]}),
                batch_format="pandas")

        def add_beta(df: pd.DataFrame) -> pd.DataFrame:
            b = ray.get(beta_ref)
            df = df.copy()
            df["tsp"] = df["tsp"] + df["vt_id"].map(b).fillna(0.0) * alpha
            return df

        summed = bucket_map(
            contrib, "vt_id", num_buckets,
            lambda g: g.groupby("vt_id", sort=False)["tsp"].sum()
            .reset_index()).map_batches(add_beta, batch_format="pandas")
        # β nodes with no in-edges this round still need their α·β mass
        seeds_only = rd.from_pandas(beta_rows()).map_batches(
            lambda df: df.assign(tsp=df["tsp"] * alpha),
            batch_format="pandas")
        merged = bucket_map(
            [summed, seeds_only], "vt_id", num_buckets,
            lambda g: g.groupby("vt_id", sort=False)["tsp"].max()
            .reset_index())
        v = merged.materialize()
    return v.map_batches(
        lambda df: pd.DataFrame({"vt_id": df["vt_id"].astype(str),
                                 "tsp": df["tsp"].astype("float64")}),
        batch_format="pandas")


# ---------------------------------------------------------------------------
# the three query steps
# ---------------------------------------------------------------------------

def seed_tables_dma(tables_ds, query_keys: list[str],
                    attribute_name: str | None = None,
                    label_threshold: float = 0.5,
                    num_buckets: int = 32) -> pd.DataFrame:
    """Q1 (QueryProcessor.GetSeedTables :94-188): per virtual table, the
    number of query keys it holds; DMA = overlap / min(|queryKeys|, rows).
    With an attribute name, only virtual tables whose header clears the
    synonym-aware label similarity stay seeds (AttributesIndexManager ∩)."""
    import ray

    keys_norm = {clear_string(k, True) for k in query_keys}
    keys_norm.discard("")
    keys_ref = ray.put(keys_norm)

    def overlap_partial(t: pa.Table) -> pd.DataFrame:
        ks = ray.get(keys_ref)
        df = key_value_postings_batch(t).select(["key_norm", "vt_id"]) \
            .to_pandas().drop_duplicates()
        df = df[df["key_norm"].isin(ks)]
        g = df.groupby("vt_id", sort=False).size().rename("overlap") \
            .reset_index()
        return g

    overlaps = two_phase_agg(
        tables_ds.map_batches(overlap_partial, batch_format="pyarrow"),
        ["vt_id"], {"overlap": ("overlap", "sum")})

    meta = tables_ds.map_batches(virtual_tables_batch, batch_format="pyarrow")
    from .joins import bucket_join

    joined = bucket_join(overlaps, meta, left_on="vt_id", right_on="vt_id",
                         bucket_count=num_buckets).to_pandas()
    if joined.empty:
        return pd.DataFrame({"vt_id": [], "header": [], "overlap": [],
                             "dma": []})
    joined["dma"] = joined["overlap"] / np.minimum(
        len(keys_norm), joined["n_rows"].clip(lower=1))
    if attribute_name is not None:
        from .matching import label_similarity

        sim = joined["header"].map(
            lambda h: label_similarity(h, attribute_name))
        joined = joined[sim >= label_threshold]
    return joined[["vt_id", "header", "overlap", "dma"]] \
        .sort_values(["dma", "vt_id"], ascending=[False, True]) \
        .reset_index(drop=True)


def augment_by_attribute(tables_ds, query_keys: list[str],
                         attribute_name: str | None,
                         cfg: PipelineConfig = DEFAULT_CONFIG,
                         alpha: float = 0.15, iters: int = 15,
                         max_seeds: int = 50) -> pd.DataFrame:
    """Full InfoGather augmentation (AugmentTable, QueryProcessor.java:51-89):
    Q1 seeds+DMA → Q2 TSP via personalized PageRank with β = normalized DMA
    → Q3 per-key TSP-weighted value vote over the relevant virtual tables.
    Returns (key_norm, value, score) — one argmax row per query key."""
    tables_ds = tables_ds.materialize()
    # relevant tables = virtual tables sharing >= 1 query key (WIK(Q) in the
    # paper) — the ONLY nodes whose TSP scores matter for aggregation, and
    # the bound that keeps the driver-side score map small (QueryProcessor
    # computes TSP only for relevantTables, :240-280)
    relevant = seed_tables_dma(tables_ds, query_keys, attribute_name=None)
    seeds = relevant
    if attribute_name is not None:
        from .matching import label_similarity

        sim = relevant["header"].map(
            lambda h: label_similarity(h, attribute_name))
        seeds = relevant[sim >= 0.5]
    if seeds.empty:
        return pd.DataFrame({"key_norm": [], "value": [], "score": []})
    seeds = seeds.head(max_seeds)
    beta = dict(zip(seeds["vt_id"], seeds["dma"]))

    edges = table_graph_edges(tables_ds)
    import ray

    relevant_set = set(relevant["vt_id"])
    rel_ref = ray.put(relevant_set)
    tsp = personalized_pagerank(edges, beta, alpha=alpha, iters=iters) \
        .map_batches(lambda df, _r=rel_ref:
                     df[df["vt_id"].isin(ray.get(_r))],
                     batch_format="pandas").to_pandas()
    tsp_map = dict(zip(tsp["vt_id"], tsp["tsp"]))
    # seeds always count, even if isolated in the graph
    for vt, dma in beta.items():
        tsp_map.setdefault(vt, 0.0)
        tsp_map[vt] = max(tsp_map[vt], alpha * dma / max(seeds["dma"].sum(), 1e-12))

    import ray

    keys_norm = {clear_string(k, True) for k in query_keys}
    keys_norm.discard("")
    keys_ref = ray.put(keys_norm)
    tsp_ref = ray.put(tsp_map)

    def predictions(t: pa.Table) -> pd.DataFrame:
        ks = ray.get(keys_ref)
        w = ray.get(tsp_ref)
        df = key_value_postings_batch(t).to_pandas()
        df = df[df["key_norm"].isin(ks)]
        df["score"] = df["vt_id"].map(w)
        df = df[df["score"].notna() & (df["score"] > 0)]
        g = df.groupby(["key_norm", "value"], sort=False)["score"].sum() \
            .reset_index()
        return g

    votes = two_phase_agg(
        tables_ds.map_batches(predictions, batch_format="pyarrow"),
        ["key_norm", "value"], {"score": ("score", "sum")}).to_pandas()
    if votes.empty:
        return pd.DataFrame({"key_norm": [], "value": [], "score": []})
    # round BEFORE the argmax: two values backed by the same virtual-table
    # set have mathematically equal scores whose float sums differ only in
    # summation order — rounding makes the (score desc, value asc) tie-break
    # deterministic and reproducible by the SQL oracle
    votes["score"] = votes["score"].round(9)
    votes = votes.sort_values(["key_norm", "score", "value"],
                              ascending=[True, False, True])
    best = votes.drop_duplicates("key_norm").reset_index(drop=True)
    return best[["key_norm", "value", "score"]]
