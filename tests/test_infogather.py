"""InfoGather execution model tests (QueryProcessor.java port, SIGMOD 2012
semantics): seed DMA, graph build, personalized PageRank (local vs
distributed equivalence), end-to-end augmentation incl. the synonym channel."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from mannheimsearchjoinsengine_ray.stages import infogather as IG


def _table_record(url, ti, headers, rows, key_idx=0):
    n = len(headers)
    return {
        "url": url, "table_idx": ti, "n_rows": len(rows),
        "headers": headers, "col_types": ["string"] * n,
        "key_idx": key_idx, "has_key": True,
        "rows": rows, "raw_keys": [r[key_idx] for r in rows],
    }


@pytest.fixture(scope="module")
def tables_ds(ray_session):
    import ray.data as rd

    recs = [
        # T1 and T2 share keys a,b (graph edge); both carry "population"
        _table_record("u1", 0, ["name", "population", "color"],
                      [["alpha", "100", "red"], ["bravo", "200", "blue"],
                       ["charlie", "300", "green"], ["delta", "400", "red"],
                       ["echo", "500", "blue"]]),
        _table_record("u2", 0, ["name", "population"],
                      [["alpha", "100"], ["bravo", "200"],
                       ["foxtrot", "600"], ["golf", "700"],
                       ["hotel", "800"]]),
        # T3 holds the answer for 'india' under the SYNONYM header
        _table_record("u3", 0, ["name", "inhabitants"],
                      [["india", "900"], ["alpha", "100"],
                       ["juliet", "1000"], ["kilo", "1100"],
                       ["lima", "1200"]]),
        # unrelated table, different keys and attribute
        _table_record("u4", 0, ["name", "height"],
                      [["mike", "5"], ["november", "6"], ["oscar", "7"],
                       ["papa", "8"], ["quebec", "9"]]),
    ]
    df = pd.DataFrame(recs)
    return rd.from_pandas(df).materialize()


def test_virtual_tables_and_postings(tables_ds):
    vts = tables_ds.map_batches(IG.virtual_tables_batch,
                                batch_format="pyarrow").to_pandas()
    # one vt per non-key column: 2 + 1 + 1 + 1
    assert len(vts) == 5
    assert set(vts["header"]) == {"population", "color", "inhabitants",
                                  "height"}
    posts = tables_ds.map_batches(IG.key_value_postings_batch,
                                  batch_format="pyarrow").to_pandas()
    assert {"key_norm", "vt_id", "value"} == set(posts.columns)
    assert (posts[posts["key_norm"] == "india"]["value"] == "900").any()


def test_graph_edges_shared_keys(ray_session, tables_ds):
    edges = IG.table_graph_edges(tables_ds).to_pandas()
    # u1/pop ↔ u2/pop share alpha+bravo → weight 2 somewhere
    key = edges.set_index(["src", "dst"])["weight"]
    pairs = {(s.split("#")[0], d.split("#")[0]): w
             for (s, d), w in key.items()}
    assert any({a, b} == {"u1", "u2"} and w >= 2 for (a, b), w in pairs.items())
    # u4 shares no keys → no edges touching u4
    assert not any("u4" in s or "u4" in d for s, d in key.index)


def test_ppr_local_vs_distributed(ray_session, tables_ds, force_site):
    import ray.data as rd

    edges = IG.table_graph_edges(tables_ds).materialize()
    beta = {"u1#0#1": 1.0}
    local = IG._ppr_local(edges.to_pandas(), beta, alpha=0.2, iters=10)
    force_site("infogather.ppr_edges", False)
    dist = IG.personalized_pagerank(edges, beta, alpha=0.2, iters=10,
                                    num_buckets=4).to_pandas()
    a = local.sort_values("vt_id").reset_index(drop=True)
    b = dist.sort_values("vt_id").reset_index(drop=True)
    m = a.merge(b, on="vt_id", suffixes=("_l", "_d"))
    assert len(m) == len(a)
    assert np.allclose(m["tsp_l"], m["tsp_d"], atol=1e-9)
    # mass concentrates on the seed and its neighbors, not isolated nodes
    top = a.sort_values("tsp", ascending=False).iloc[0]
    assert top["vt_id"] == "u1#0#1"


def test_ppr_local_vs_distributed_exchange(ray_session, exchange_path,
                                           tables_ds, force_site):
    test_ppr_local_vs_distributed(ray_session, tables_ds, force_site)


def test_seed_dma_and_attribute_filter(ray_session, tables_ds):
    seeds = IG.seed_tables_dma(tables_ds, ["Alpha", "bravo"], "population")
    # the two population virtual tables plus the synonym-matched
    # 'inhabitants' one (which holds 'alpha') survive the header filter
    assert set(seeds["vt_id"]) == {"u1#0#1", "u2#0#1", "u3#0#1"}
    # DMA = overlap / min(|keys|, rows) = 2/2 for the population tables
    two_key = seeds[seeds["vt_id"] != "u3#0#1"]
    # dma is real float64 (Arrow join interior) — compare numerically;
    # the old `== pytest.approx` only "passed" on the object-typed column
    assert np.allclose(two_key["dma"].astype(float), 1.0)
    # the height table never matches the attribute
    assert "u4#0#1" not in set(seeds["vt_id"])
    # synonym channel: 'inhabitants' answers for 'population'
    seeds_syn = IG.seed_tables_dma(tables_ds, ["india"], "population")
    assert set(seeds_syn["vt_id"]) == {"u3#0#1"}


def test_augment_end_to_end(ray_session, tables_ds):
    out = IG.augment_by_attribute(
        tables_ds, ["alpha", "bravo", "india", "mike"], "population")
    got = dict(zip(out["key_norm"], out["value"]))
    assert got["alpha"] == "100"
    assert got["bravo"] == "200"
    # 'india' answered through the synonym-matched virtual table
    assert got["india"] == "900"
    # 'mike' only exists under 'height' — no population prediction
    assert "mike" not in got
    assert (out["score"] > 0).all()
