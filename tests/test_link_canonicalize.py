"""Linking (F4/F5) and canonicalization (F6) tests."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mannheimsearchjoinsengine_ray.config import (
    DEFAULT_CONFIG,
    NumericResolution,
    PipelineConfig,
    StringResolution,
)
from mannheimsearchjoinsengine_ray.sources import pages as P
from mannheimsearchjoinsengine_ray.stages import canonicalize as C
from mannheimsearchjoinsengine_ray.stages import extract as E
from mannheimsearchjoinsengine_ray.stages import link as L
from mannheimsearchjoinsengine_ray.state import index as IX


@pytest.fixture(scope="module")
def index_dir(ray_session, tmp_path_factory):
    import ray.data as rd

    d = str(tmp_path_factory.mktemp("label_index"))
    gaz = rd.from_arrow(pa.table(P.make_gazetteer(500)))
    n = IX.build_index(gaz, d, num_shards=4)
    assert n > 0
    return d


def test_index_build_sharded(index_dir):
    import os

    shards = [f for f in os.listdir(index_dir)
              if f.startswith("shard_") and f.endswith(".parquet")]
    assert len(shards) >= 2  # entity-hash spread across shards
    idx = IX.LabelIndex(index_dir)
    assert len(idx.entries_uri) > 500  # labels + distinct alias norms
    meta = IX.index_meta(index_dir)
    assert meta["sharding"] == "entity"
    assert meta["n_entries"] == len(idx.entries_uri)
    assert meta["bytes"] > 0 and sorted(meta["shards"]) == meta["shards"]


def test_index_build_local_distributed_identical(ray_session, tmp_path,
                                                 force_site):
    """The driver-final build (postings under the 32 MB guard) and the
    distributed build (both index sites forced False) must produce the same
    artifacts: same vocab (token, df) set, same per-shard posting sets,
    same meta."""
    import os

    import ray.data as rd

    from mannheimsearchjoinsengine_ray.stages import aggregates

    gaz = pa.table(P.make_gazetteer(300))
    # three blocks: the driver build's posting map is a run_blocks pass
    blocks = [gaz.slice(i, 100) for i in (0, 100, 200)]
    d_loc = str(tmp_path / "idx_local")
    d_dist = str(tmp_path / "idx_dist")
    with aggregates.record_passes() as passes:
        n_loc = IX.build_index(rd.from_arrow(blocks), d_loc, num_shards=4)
    assert passes == [{"site": "postings_from_entities_batch", "items": 3,
                       "tasks": 0 if aggregates.cpu_slots() == 1 else 3}]
    force_site("index.entities", False)
    force_site("index.postings", False)
    n_dist = IX.build_index(rd.from_arrow(blocks), d_dist, num_shards=4)
    assert n_loc == n_dist > 0

    def read_sorted(path):
        t = pq.read_table(path)
        return t.sort_by([(c, "ascending") for c in t.column_names]).to_pydict()

    def vocab_sorted(root):
        vdir = os.path.join(root, "vocab")
        tabs = [pq.read_table(os.path.join(vdir, f), columns=["token", "df"])
                for f in sorted(os.listdir(vdir)) if f.endswith(".parquet")]
        t = pa.concat_tables(tabs)
        return t.sort_by([("token", "ascending")]).to_pydict()

    assert vocab_sorted(d_loc) == vocab_sorted(d_dist)
    shards_loc = sorted(f for f in os.listdir(d_loc) if f.startswith("shard_"))
    shards_dist = sorted(f for f in os.listdir(d_dist) if f.startswith("shard_"))
    assert shards_loc == shards_dist
    for f in shards_loc:
        assert read_sorted(os.path.join(d_loc, f)) == \
            read_sorted(os.path.join(d_dist, f))
    m_loc, m_dist = IX.index_meta(d_loc), IX.index_meta(d_dist)
    for k in ("sharding", "num_shards", "shards", "n_entries", "postings",
              "arrow_bytes", "mem_bytes_est"):
        assert m_loc[k] == m_dist[k], k
    # serving equivalence on a real lookup
    label = P.entity_label(7)
    assert IX.LabelIndex(d_loc).search(label) == \
        IX.LabelIndex(d_dist).search(label)


def test_index_build_local_distributed_identical_in_process(ray_session,
                                                            in_process,
                                                            tmp_path,
                                                            force_site):
    """The same with the driver build's posting map in-process on the
    driver (over 3 blocks: as tasks on the session cluster otherwise)."""
    test_index_build_local_distributed_identical(ray_session, tmp_path,
                                                 force_site)


def test_search_exact_and_fuzzy(index_dir):
    idx = IX.LabelIndex(index_dir)
    label = P.entity_label(42)
    uri = P.NS + "".join(w.capitalize() for w in label.split())
    hits = idx.search(label)
    assert hits and hits[0][0] == uri
    # case noise
    assert idx.search(label.upper())[0][0] == uri
    # typo within edit distance 1 on one token
    words = label.split()
    typo = " ".join([words[0][:-1] + "x"] + words[1:])
    hits = idx.search(typo)
    assert hits and hits[0][0] == uri
    # garbage → no hits
    assert idx.search("zzzqqq xxyyy") == []
    assert idx.search("") == []


def test_linking_top1_accuracy(ray_session, index_dir, tmp_path):
    """F5: top-1 link accuracy >= 0.95 through ``link_mentions``."""
    import ray.data as rd

    n_pages = 60
    corpus = str(tmp_path / "pages")
    P.write_corpus(corpus, n_pages=n_pages, seed=42, parallelism=2)
    pages = rd.read_parquet(corpus, columns=["url", "html"])
    tables = pages.map_batches(E.TableExtractor(DEFAULT_CONFIG), batch_format="pyarrow")
    mentions = tables.map_batches(L.mentions_from_tables_batch, batch_format="pyarrow")
    cfg = PipelineConfig()
    edges = L.link_mentions(mentions, index_dir, cfg)
    top1 = L.top1_links(edges).to_pandas()

    gold = []
    for pid in range(n_pages):
        gold.extend(P.golden_links_for_page(P.make_page_spec(pid)))
    gold_df = pd.DataFrame(gold, columns=["url", "table_idx", "row_idx",
                                          "mention", "entity_uri"])
    merged = gold_df.merge(top1, on=["url", "table_idx", "row_idx"],
                           suffixes=("_gold", "_got"), how="left")
    acc = (merged["entity_uri_gold"] == merged["entity_uri_got"]).mean()
    assert acc >= 0.95, f"top-1 accuracy {acc}"


class TestRefineAttrs:
    """Refine-attributes context scoring (ScoreEvaluator.assessIndexEntry
    refine term + IndexManager.findRefineAttrsMatches): twin entities share a
    label; only the row context decides which twin wins top-1."""

    N = 12

    @pytest.fixture(scope="class")
    def amb_index_dir(self, ray_session, tmp_path_factory):
        import ray.data as rd

        d = str(tmp_path_factory.mktemp("amb_index"))
        gaz = rd.from_arrow(pa.table(P.make_gazetteer(self.N, ambiguous_pairs=self.N)))
        assert IX.build_index(gaz, d, num_shards=2) > 0
        return d

    def test_context_disambiguates(self, amb_index_dir):
        idx = IX.LabelIndex(amb_index_dir)
        correct_with_ctx = 0
        twin_wins_without_ctx = 0
        for eid in range(self.N):
            label = P.entity_label(eid)
            base_uri = P.NS + "".join(w.capitalize() for w in label.split())
            twin_uri = base_uri + "Alt"
            # no context: tie broken lexicographically → base uri
            plain = idx.search(label)
            assert plain[0][0] == base_uri
            if any(u == twin_uri for u, *_ in plain[:1]):
                twin_wins_without_ctx += 1
            # original's row context → original; twin's row context → twin
            got_base = idx.search(label, context=P.entity_attrs(eid),
                                  refine_factor=0.3)[0][0]
            got_twin = idx.search(label, context=P.entity_attrs(eid + 7),
                                  refine_factor=0.3)[0][0]
            if got_base == base_uri and got_twin == twin_uri:
                correct_with_ctx += 1
        assert twin_wins_without_ctx == 0  # context is REQUIRED for the twin
        assert correct_with_ctx == self.N

    def test_factor_zero_ignores_context(self, amb_index_dir):
        idx = IX.LabelIndex(amb_index_dir)
        label = P.entity_label(0)
        base_uri = P.NS + "".join(w.capitalize() for w in label.split())
        got = idx.search(label, context=P.entity_attrs(7), refine_factor=0.0)
        assert got[0][0] == base_uri

    def test_through_actor_pool(self, ray_session, amb_index_dir):
        """The full linker path: mention batches WITH context columns."""
        import ray.data as rd

        rows = {"url": [], "table_idx": [], "row_idx": [], "mention": [],
                "context": []}
        expected = []
        for eid in range(self.N):
            label = P.entity_label(eid)
            base_uri = P.NS + "".join(w.capitalize() for w in label.split())
            rows["url"] += ["u", "u"]
            rows["table_idx"] += [0, 0]
            rows["row_idx"] += [2 * eid, 2 * eid + 1]
            rows["mention"] += [label, label]
            rows["context"] += [P.entity_attrs(eid), P.entity_attrs(eid + 7)]
            expected += [base_uri, base_uri + "Alt"]
        mentions = pa.table({
            "url": pa.array(rows["url"]),
            "table_idx": pa.array(rows["table_idx"], pa.int32()),
            "row_idx": pa.array(rows["row_idx"], pa.int32()),
            "mention": pa.array(rows["mention"]),
            "context": pa.array([L.CONTEXT_SEP.join(c)
                                 for c in rows["context"]], pa.string()),
        })
        cfg = PipelineConfig()
        top1 = L.top1_links(L.link_mentions(rd.from_arrow(mentions),
                                            amb_index_dir, cfg)).to_pandas()
        got = top1.sort_values("row_idx")["entity_uri"].tolist()
        assert got == expected

    def test_mentions_carry_context(self, ray_session, tmp_path):
        """mentions_from_tables_batch emits the sibling cells of each row."""
        tables = pa.table({
            "url": ["u"], "table_idx": pa.array([0], pa.int32()),
            "n_rows": pa.array([1], pa.int32()),
            "headers": [["name", "region", "color"]],
            "col_types": [["string", "string", "string"]],
            "key_idx": pa.array([0], pa.int32()), "has_key": [True],
            "rows": [[["golden river", "north region", "null"]]],
            "raw_keys": [["Golden River"]],
        })
        out = L.mentions_from_tables_batch(tables)
        assert out.num_rows == 1
        ctx = out.column("context").to_pylist()[0]
        assert ctx == "north region"  # null cells dropped, key excluded


def test_edge_aggregation(ray_session, index_dir):
    import ray.data as rd

    mentions = pa.table({
        "url": ["u"] * 4, "table_idx": pa.array([0] * 4, pa.int32()),
        "row_idx": pa.array(list(range(4)), pa.int32()),
        "mention": [P.entity_label(i) for i in range(4)],
    })
    edges = L.link_mentions(rd.from_arrow(mentions), index_dir,
                            PipelineConfig())
    top1 = L.top1_links(edges)
    agg = L.aggregate_edges(top1, left_total_mentions=4).to_pandas()
    assert {"entity_group", "count", "rank", "total_rank",
            "label_rank_norm", "right_cardinality"} <= set(agg.columns)
    assert agg["count"].sum() == 4
    # every ranking mode produces a finite, sorted total_rank
    for mode in ["queryTableCoverage", "queryEntitySum", "entityTableCoverage",
                 "queryTableCoverageNormalized"]:
        r = L.aggregate_edges(top1, left_total_mentions=4, ranking=mode).to_pandas()
        assert r["total_rank"].notna().all()
        assert list(r["total_rank"]) == sorted(r["total_rank"], reverse=True)
    # entityTableCoverage divides by distinct entities per group; total_rank
    # is the 50/50 blend with the (neutral) normalized label rank
    etc = L.aggregate_edges(top1, left_total_mentions=4,
                            ranking="entityTableCoverage").to_pandas()
    row = etc.iloc[0]
    assert row["rank"] == row["count"] * row["avg_score"] / row["right_cardinality"]
    assert row["total_rank"] == pytest.approx(0.5 * row["rank"] + 0.5 * (15 / 31))


class TestRankingModes:
    """All 4 assessJoinResult modes against hand-computed goldens
    (ScoreEvaluator.java:48-122 + the SearchJoin.java:203-222 max pass)."""

    @pytest.fixture(scope="class")
    def edges(self, ray_session):
        import ray.data as rd

        # group A: 3 edges, scores 2,2,2 over 2 distinct entities
        # group B: 1 edge, score 8, 1 entity
        rows = []
        for i, (uri, score) in enumerate([("http://x/A1", 2.0),
                                          ("http://x/A2", 2.0),
                                          ("http://x/A1", 2.0),
                                          ("http://y/B1", 8.0)]):
            rows.append({"url": "u", "table_idx": 0, "row_idx": i,
                         "mention": f"m{i}", "entity_uri": uri,
                         "score": score, "rank": 0,
                         "matched_name": "n",
                         "entity_type": "TA" if "x/" in uri else "TB"})
        return rd.from_pandas(pd.DataFrame(rows))

    LEFT = 10  # leftColumnDistinctValues / cardinality

    def get(self, edges, mode, **kw):
        df = L.aggregate_edges(edges, left_total_mentions=self.LEFT,
                               ranking=mode, **kw).to_pandas()
        return df.set_index("entity_group")

    def test_query_table_coverage(self, edges):
        df = self.get(edges, "queryTableCoverage")
        assert df.loc["TA", "rank"] == pytest.approx(3 * 2.0 / self.LEFT)
        assert df.loc["TB", "rank"] == pytest.approx(1 * 8.0 / self.LEFT)

    def test_entity_table_coverage(self, edges):
        df = self.get(edges, "entityTableCoverage")
        assert df.loc["TA", "rank"] == pytest.approx(3 * 2.0 / 2)  # 2 entities
        assert df.loc["TB", "rank"] == pytest.approx(1 * 8.0 / 1)

    def test_query_entity_sum(self, edges):
        # reference quirk: the queryEntitySum switch case dead-stores its
        # sum expression and overwrites with count*avg/rightCardinality
        # (ScoreEvaluator.java:62-65) — the mode IS entityTableCoverage
        df = self.get(edges, "queryEntitySum")
        assert df.loc["TA", "rank"] == pytest.approx(3 * 2.0 / 2)
        assert df.loc["TB", "rank"] == pytest.approx(8.0 / 1)
        etc = self.get(edges, "entityTableCoverage")
        assert (df["rank"] == etc["rank"]).all()

    def test_normalized_with_penalty_and_max(self, edges):
        # maxScore = max sum_score = 8 (group B), maxJoins = its count = 1
        # bestScore = 8/1 = 8
        # TA: count 3 >= 0.3*10 → joinPairs=3; myScore = 6/3 = 2; rank = 2/8
        # TB: count 1 <  0.3*10 → joinPairs=LEFT=10; myScore = 8/10; rank = .1
        df = self.get(edges, "queryTableCoverageNormalized")
        assert df.loc["TA", "rank"] == pytest.approx((6 / 3) / 8)
        assert df.loc["TB", "rank"] == pytest.approx((8 / 10) / 8)
        # blend: neutral label rank normalizes to (0+15)/31
        assert df.loc["TA", "total_rank"] == pytest.approx(
            0.5 * 0.25 + 0.5 * (15 / 31))

    def test_label_blend_and_min_rank(self, edges):
        # exact label match (raw 5) for TA lifts its blended rank
        df = self.get(edges, "queryTableCoverageNormalized",
                      label_ranks={"TA": 5.0})
        assert df.loc["TA", "label_rank_norm"] == pytest.approx(20 / 31)
        assert df.loc["TA", "total_rank"] == pytest.approx(
            0.5 * 0.25 + 0.5 * (20 / 31))
        # the reference's >= 0.6 selection drops both groups here
        kept = L.aggregate_edges(edges, left_total_mentions=self.LEFT,
                                 ranking="queryTableCoverageNormalized",
                                 min_rank=0.6).to_pandas()
        assert len(kept) == 0


class TestConnectedComponents:
    EDGES = pd.DataFrame({
        "left_id": ["a", "b", "x", "p", "p", "p"],
        "right_id": ["b", "c", "y", "q", "r", "s"],
    })

    def test_local(self):
        comp = C.connected_components_local(self.EDGES)
        m = dict(zip(comp["id"], comp["component"]))
        assert m["a"] == m["b"] == m["c"] == "a"   # chain merges
        assert m["x"] == m["y"] == "x"
        assert m["p"] == m["q"] == m["r"] == m["s"] == "p"  # star/hot key

    def test_distributed_matches_local(self, ray_session, force_site):
        import ray.data as rd

        local = C.connected_components_local(self.EDGES)
        a = local.sort_values("id").reset_index(drop=True)
        # both residual paths: forced star rounds and driver finish.  One
        # edge per block, so the per-block contraction leaves a residual
        blocks = [self.EDGES.iloc[i:i + 1] for i in range(len(self.EDGES))]
        for driver in (False, True):
            force_site("cc.residual", driver)
            dist = C.connected_components_distributed(
                rd.from_pandas(blocks), num_buckets=2).to_pandas()
            b = dist.sort_values("id").reset_index(drop=True)
            pd.testing.assert_frame_equal(a, b)

    def test_star_rounds_forced_multiblock(self, ray_session, force_site):
        """Long chain + cliques split across blocks with the driver finish
        DISABLED — pins the distributed star rounds themselves."""
        import ray.data as rd

        rng = np.random.default_rng(11)
        chain = np.arange(400) + 1_000_000
        cl = [(5_000_000 + i, 5_000_000 + j)
              for i in range(40) for j in range(i + 1, 40)]
        edges = pd.DataFrame({
            "left_id": np.concatenate([chain[:-1], [e[0] for e in cl],
                                       rng.integers(0, 3000, 4000)]).astype("int64"),
            "right_id": np.concatenate([chain[1:], [e[1] for e in cl],
                                        rng.integers(0, 3000, 4000)]).astype("int64")})
        edges = edges[edges["left_id"] != edges["right_id"]]
        ds = rd.from_pandas(
            edges.sample(frac=1.0, random_state=5).reset_index(drop=True)) \
            .repartition(16).materialize()
        force_site("cc.residual", False)
        dist = C.connected_components_distributed(
            ds, max_iterations=30, num_buckets=8).to_pandas()
        local = C.connected_components_local(edges)
        a = local.sort_values("id").reset_index(drop=True)
        b = dist.sort_values("id").reset_index(drop=True) \
            .astype({"id": "int64", "component": "int64"})
        pd.testing.assert_frame_equal(a, b)

    def test_distributed_above_cutoff(self, ray_session):
        """2.05M edges (32.9 MB of int64 id pairs, the size of the
        ``DRIVER_FINAL_BYTES`` guard): star/clique/chain graph, rows
        shuffled across 64 blocks so cross-block merging exercises the star
        rounds, bounded iteration count."""
        import ray.data as rd

        n_star = 410_000
        base = np.arange(n_star) * 10
        L = np.concatenate([base for _ in range(1, 6)])
        R = np.concatenate([base + k for k in range(1, 6)])
        chain = np.arange(128) + 10_000_000
        cl = [(20_000_000 + i, 20_000_000 + j)
              for i in range(100) for j in range(i + 1, 100)]
        edges = pd.DataFrame({
            "left_id": np.concatenate(
                [L, chain[:-1], [e[0] for e in cl]]).astype("int64"),
            "right_id": np.concatenate(
                [R, chain[1:], [e[1] for e in cl]]).astype("int64")})
        assert len(edges) > 2_000_000
        edges = edges.sample(frac=1.0, random_state=3).reset_index(drop=True)
        ds = rd.from_pandas(edges).repartition(64).materialize()
        dist = C.connected_components_distributed(
            ds, max_iterations=25, num_buckets=16).to_pandas()
        local = C.connected_components_local(edges)
        a = local.sort_values("id").reset_index(drop=True)
        b = dist.sort_values("id").reset_index(drop=True) \
            .astype({"id": "int64", "component": "int64"})
        pd.testing.assert_frame_equal(a, b)


class TestResolution:
    def test_string_voting(self):
        assert C.resolve_string(["x", "y", "x"], StringResolution.voting) == "x"
        assert C.resolve_string(["b", "a"], StringResolution.voting) == "a"  # tie → sorted
        assert C.resolve_string(["ab", "abc"], StringResolution.longest) == "abc"
        assert C.resolve_string(["null", ""], StringResolution.voting) == "null"

    def test_numeric(self):
        assert C.resolve_numeric([1, 2, 100], NumericResolution.median) == 2
        assert C.resolve_numeric([1, 2, 3], NumericResolution.average) == 2
        assert C.resolve_numeric([5, 5, 7], NumericResolution.voting) == 5

    def test_resolve_date(self):
        import pandas as _pd

        out = C.resolve_date(["2000-01-01", "2000-01-03"])
        assert out == _pd.Timestamp("2000-01-02")
        assert C.resolve_date(["not a date"]) is None

    def test_resolve_components_ds(self, ray_session):
        import ray.data as rd

        vals = pd.DataFrame({
            "component": ["c1", "c1", "c1", "c2", "c2"],
            "value": ["red", "red", "rouge", "10", "20"],
        })
        out = C.resolve_components(rd.from_pandas(vals), "string").to_pandas()
        m = dict(zip(out["component"], out["canonical_value"]))
        assert m["c1"] == "red"

    @pytest.mark.parametrize("value_type", ["string", "numeric", "date"])
    def test_resolve_components_many(self, ray_session, value_type):
        """Many components spread over several input blocks: each resolves
        exactly once, to what the scalar resolution gives its values."""
        import ray.data as rd

        rng = np.random.default_rng(7)
        comps, values = [], []
        for c in range(40):
            for _ in range(int(rng.integers(1, 6))):
                comps.append(f"c{c:02d}")
                if value_type == "numeric":
                    values.append(None if rng.random() < 0.1
                                  else str(int(rng.integers(0, 5))))
                elif value_type == "date":
                    values.append(f"2001-0{int(rng.integers(1, 10))}-1"
                                  f"{int(rng.integers(0, 10))}")
                else:
                    values.append(["red", "rouge", "", "null"][
                        int(rng.integers(0, 4))])
        vals = pd.DataFrame({"component": comps, "value": values})
        shuffled = vals.sample(frac=1.0, random_state=3)
        ds = rd.from_pandas([shuffled.iloc[i::4] for i in range(4)])
        out = C.resolve_components(ds, value_type).to_pandas()
        assert sorted(out["component"]) == sorted(vals["component"].unique())
        got = dict(zip(out["component"], out["canonical_value"]))
        for comp, grp in vals.groupby("component"):
            if value_type == "numeric":
                want = C.resolve_numeric(
                    list(pd.to_numeric(grp["value"], errors="coerce")),
                    DEFAULT_CONFIG.numeric_resolution)
                if want is None:
                    assert pd.isna(got[comp]), comp
                else:
                    assert got[comp] == pytest.approx(want), comp
            elif value_type == "date":
                assert got[comp] == C.resolve_date(list(grp["value"])), comp
            else:
                assert got[comp] == C.resolve_string(
                    list(grp["value"]), DEFAULT_CONFIG.string_resolution), comp


def test_lsh_blocking_finds_near_dups(ray_session):
    import ray.data as rd

    names = [
        ("e1", "Grand Hotel Budapest"),
        ("e2", "Grand Hotel Budapest"),       # exact dup
        ("e3", "The Grand Hotel Budapest"),   # near dup
        ("e4", "completely different thing"),
        ("e5", "another unrelated name here"),
    ]
    ds = rd.from_arrow(pa.table({"id": [n[0] for n in names],
                                 "name": [n[1] for n in names]}))
    blocked = ds.map_batches(C.LshBlocker, batch_format="pyarrow", concurrency=1)
    pairs = C.candidate_pairs(blocked)
    verified = C.verify_pairs(pairs, min_jaccard=0.5).to_pandas()
    found = {tuple(sorted(p)) for p in zip(verified["left_id"], verified["right_id"])}
    assert ("e1", "e2") in found
    assert ("e1", "e3") in found or ("e2", "e3") in found
    assert not any("e4" in p or "e5" in p for p in found)


def test_canonicalize_triples_rewrites_subjects(ray_session):
    import ray.data as rd

    rows = []
    for subj, label in [
        ("http://x/GrandHotel", "Grand Hotel"),
        ("http://x/TheGrandHotel", "The Grand Hotel"),
        ("http://x/Unrelated", "Totally Different Entity"),
    ]:
        rows.append({"subj": subj, "pred": "http://www.w3.org/2000/01/rdf-schema#label",
                     "obj": label, "obj_type": "string", "source_url": "u"})
    rows.append({"subj": "http://x/TheGrandHotel", "pred": "http://x/seeAlso",
                 "obj": "http://x/GrandHotel", "obj_type": "uri", "source_url": "u"})
    ds = rd.from_pandas(pd.DataFrame(rows))
    cfg = PipelineConfig(fuzzy_min_confidence=0.6)
    out = C.canonicalize_triples(ds, cfg).to_pandas()
    subs = set(out["subj"])
    # both near-dup subjects collapse to the lexicographic min
    assert "http://x/TheGrandHotel" not in subs
    assert "http://x/GrandHotel" in subs
    assert "http://x/Unrelated" in subs
    # uri objects rewritten too
    see = out[out["pred"] == "http://x/seeAlso"]
    assert (see["obj"] == "http://x/GrandHotel").all()


def test_linker_vectorized_equals_per_row(ray_session, tmp_path):
    """The batch-vectorized LinkerActor.__call__ must emit exactly the edges
    of a straightforward per-row loop over the same cached index state —
    same rows, same order."""
    import pyarrow as pa

    from mannheimsearchjoinsengine_ray.sources import pages as P
    from mannheimsearchjoinsengine_ray.state.index import build_index
    import ray.data as rd

    index_dir = str(tmp_path / "idx_vec")
    gaz = rd.from_arrow(pa.table(P.make_gazetteer(60)))
    build_index(gaz, index_dir, num_shards=2)

    labels = [P.entity_label(i) for i in range(40)]
    # mix: repeats (cache/factorize path), misspellings (fuzzy), context
    mentions = labels + labels[:10] + [l + "x" for l in labels[:5]]
    ctxs = [""] * len(labels) + ["red\x1f42\x1fblue"] * 10 + [""] * 5
    batch = pa.table({
        "url": ["u"] * len(mentions),
        "table_idx": pa.array([0] * len(mentions), pa.int32()),
        "row_idx": pa.array(list(range(len(mentions))), pa.int32()),
        "mention": mentions,
        "context": ctxs,
    })
    actor = L.LinkerActor(index_dir, top_k=3, refine_factor=0.5)
    got = actor(batch).to_pandas()

    # reference per-row loop on a FRESH actor (same index, no shared cache)
    ref_actor = L.LinkerActor(index_dir, top_k=3, refine_factor=0.5)
    rows = {c: [] for c in got.columns}
    for i, (m, ctx) in enumerate(zip(mentions, ctxs)):
        scored, base_hits, gap, has_attrs = ref_actor._entry_for(m)
        hits = base_hits
        if ctx and has_attrs:
            n_cells = ctx.count("\x1f") + 1
            if n_cells and gap <= 0.5 * n_cells:
                hits = ref_actor.index.finalize(scored, 3,
                                                context=ctx.split("\x1f"),
                                                refine_factor=0.5)
        for rank, (uri, score, name, etype) in enumerate(hits):
            rows["url"].append("u")
            rows["table_idx"].append(0)
            rows["row_idx"].append(i)
            rows["mention"].append(m)
            rows["entity_uri"].append(uri)
            rows["score"].append(score)
            rows["rank"].append(rank)
            rows["matched_name"].append(name)
            rows["entity_type"].append(etype)
    want = pd.DataFrame(rows)
    assert len(got) == len(want)
    for c in got.columns:
        assert list(got[c]) == list(want[c]), c


def test_link_mentions_broadcast_fallback_pool_equivalence(ray_session, tmp_path,
                                                           force_site):
    """The three linking paths — distinct-resolve + broadcast merge (the
    scale default), the over-limit per-worker fallback, and the LinkerActor
    pool — must produce identical edges for the same mentions, including
    unicode/huge/no-hit mentions and context-gated rows."""
    import ray.data as rd

    from mannheimsearchjoinsengine_ray.state.index import build_index

    index_dir = str(tmp_path / "idx_3way")
    gaz = rd.from_arrow(pa.table(P.make_gazetteer(50)))
    build_index(gaz, index_dir, num_shards=2)

    labels = [P.entity_label(i) for i in range(20)]
    ments = labels + ["Zürich 北京 café", "x" * 5000, "—", "null"] \
        + [l.upper() for l in labels[:5]]
    rows = {"url": [], "table_idx": [], "row_idx": [], "mention": [],
            "context": []}
    for i, m in enumerate(ments * 12):
        rows["url"].append(f"http://u/{i}")
        rows["table_idx"].append(0)
        rows["row_idx"].append(i)
        rows["mention"].append(m)
        rows["context"].append("red\x1f42" if i % 3 == 0 else "")
    ds = rd.from_arrow(pa.Table.from_pydict(
        rows, schema=L.MENTION_SCHEMA)).repartition(6)

    def norm(df):
        return df.sort_values(["url", "row_idx", "rank", "entity_uri"]) \
            .reset_index(drop=True)

    cfg = PipelineConfig(refine_attrs_factor=0.3)
    a = norm(L.top1_links(L.link_mentions(ds, index_dir, cfg)).to_pandas())
    assert len(a) > 0
    force_site("link.broadcast", False)
    b = norm(L.top1_links(L.link_mentions(ds, index_dir, cfg)).to_pandas())
    pool = ds.map_batches(
        L.LinkerActor,
        fn_constructor_kwargs={"index_dir": index_dir, "top_k": 5,
                               "max_edit": cfg.max_edit_distance,
                               "refine_factor": cfg.refine_attrs_factor},
        batch_format="pyarrow", concurrency=2, num_cpus=1)
    c = norm(L.top1_links(pool).to_pandas())
    pd.testing.assert_frame_equal(a, b)
    pd.testing.assert_frame_equal(a, c)


def test_shard_routed_index_exact_scores(ray_session, tmp_path):
    """Each entity shard + the global term dictionary must reproduce the
    full index's idf table exactly, and a shard must NOT fuzzy-expand a
    token whose exact postings live on another shard (the global-vocab
    trigger) — the invariants that make shard-routed scores equal the
    full-index scores."""
    import ray.data as rd

    d = str(tmp_path / "idx_exact")
    gaz = rd.from_arrow(pa.table(P.make_gazetteer(80)))
    IX.build_index(gaz, d, num_shards=4)
    full = IX.LabelIndex(d)
    vocab = IX.VocabStats(d)
    assert vocab.n_entries == len(full.entries_uri)
    full_idf = dict(zip(full.tokens.to_pylist(), full.idf.tolist()))
    seen_tokens = set()
    for s in IX.index_meta(d)["shards"]:
        sh = IX.LabelIndex(d, shards=[s], vocab=vocab)
        for t, v in zip(sh.tokens.to_pylist(), sh.idf.tolist()):
            assert abs(v - full_idf[t]) < 1e-12, t
        seen_tokens.update(sh.tokens.to_pylist())
        # candidate scores per shard == full-index scores, keyed by ENTRY
        # (uri, matched norm) — one uri's label and alias entries can land
        # on different shards
        for eid in range(0, 80, 7):
            label = P.entity_label(eid)
            want = {(u, nm): round(sc, 9) for u, sc, nm, *_ in
                    full.search_candidates(label)}
            for u, sc, nm, *_ in sh.search_candidates(label):
                assert round(sc, 9) == want[(u, nm)], (label, u, nm)
    assert seen_tokens == set(full_idf)
    # global-vocab fuzzy trigger: a token exact-present only on OTHER shards
    # must contribute nothing here, not fuzzy-expand
    from mannheimsearchjoinsengine_ray.functions.normalize import (
        tokenize_string,
    )

    s0 = IX.index_meta(d)["shards"][0]
    sh0 = IX.LabelIndex(d, shards=[s0], vocab=vocab)
    remote_only = next(t for t in sorted(set(full_idf)
                                         - set(sh0.tokens.to_pylist()))
                       if tokenize_string(t) == [t])
    assert vocab.contains(remote_only)
    assert vocab.df_of(remote_only) == len(full.postings_of(remote_only))
    assert sh0.search_scored(remote_only, fuzzy=True) == []
    # ...while the full index scores it exactly (no fuzzy detour either way)
    assert full.search_scored(remote_only, fuzzy=True)


def _routed_case(tmp_path):
    """(a 4-shard index over the 60-entity gazetteer, a lazy 6-block mention
    Dataset over it): fuzzy, unicode, zero-candidate and context-gated
    mentions, each repeated 8 times."""
    import ray.data as rd

    d = str(tmp_path / "idx_route")
    gaz = rd.from_arrow(pa.table(P.make_gazetteer(60)))
    IX.build_index(gaz, d, num_shards=4)

    labels = [P.entity_label(i) for i in range(25)]
    ments = labels + ["Zürich 北京 café", "—", "null", "nocandidate zz"] \
        + [l.upper() for l in labels[:5]] + [l[:-1] + "x" for l in labels[:5]]
    rows = {"url": [], "table_idx": [], "row_idx": [], "mention": [],
            "context": []}
    for i, m in enumerate(ments * 8):
        rows["url"].append(f"http://u/{i}")
        rows["table_idx"].append(0)
        rows["row_idx"].append(i)
        rows["mention"].append(m)
        rows["context"].append("red\x1f42" if i % 3 == 0 else "")
    ds = rd.from_arrow(pa.Table.from_pydict(
        rows, schema=L.MENTION_SCHEMA)).repartition(6)
    return d, ds


def _norm_edges(df):
    df = df.copy()
    df["score"] = df["score"].round(9)  # the canonical ranking rounding
    return df.sort_values(["url", "row_idx", "rank", "entity_uri"]) \
        .reset_index(drop=True)


def test_link_mentions_shard_routed_equivalence(ray_session, tmp_path,
                                                force_site):
    """Shard-routed resolve (scatter-gather over entity shards) must emit
    IDENTICAL edges to the replicated-index path, through both the
    broadcast merge and the co-partitioned bucket merge — including fuzzy,
    unicode, zero-candidate mentions and context-gated rows (round-4
    verdict task 1's done-gate)."""
    import dataclasses

    d, ds = _routed_case(tmp_path)
    norm = _norm_edges

    cfg = PipelineConfig(refine_attrs_factor=0.3)
    a = norm(L.link_mentions(ds, d, cfg).to_pandas())
    assert len(a) > 0
    b = norm(L.link_mentions(
        ds, d, dataclasses.replace(cfg, link_shard_route=True)).to_pandas())
    force_site("link.broadcast", False)
    c = norm(L.link_mentions(
        ds, d, dataclasses.replace(cfg, link_shard_route=True)).to_pandas())
    pd.testing.assert_frame_equal(a, b)
    pd.testing.assert_frame_equal(a, c)

    # auto mode: a toy index stays replicated — the guard compares the
    # RESIDENT estimate (mem_bytes_est ≈ 7× uncompressed Arrow bytes; disk
    # parquet is ~30× smaller than LabelIndex's Python-object footprint and
    # would mis-route a 1M-entity KB into every worker's heap)
    meta = IX.index_meta(d)
    assert meta["mem_bytes_est"] == meta["arrow_bytes"] * 7
    assert meta["mem_bytes_est"] < cfg.link_index_replicate_limit
    # forcing shard-route on a meta-less dir is a loud error, not silent
    # full loads
    import os
    os.remove(os.path.join(d, "_meta.json"))
    with pytest.raises(ValueError):
        L.link_mentions(ds, d,
                        dataclasses.replace(cfg, link_shard_route=True))


def test_link_mentions_shard_routed_equivalence_exchange(ray_session,
                                                         exchange_path,
                                                         tmp_path,
                                                         force_site):
    """The same equivalence with the shard gather, the co-partitioned
    merge and the distinct-mentions dedupe on their sort exchanges."""
    test_link_mentions_shard_routed_equivalence(ray_session, tmp_path,
                                                force_site)


def _shard_routed_run(ds, d, cfg, monkeypatch):
    """A shard-routed ``link_mentions`` → (its normalized edges, the Ray
    Data executions it started, its ``run_blocks`` passes)."""
    import dataclasses

    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    from mannheimsearchjoinsengine_ray.stages import aggregates

    count = [0]
    real_execute = StreamingExecutor.execute

    def execute(self, *args, **kwargs):
        count[0] += 1
        return real_execute(self, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(StreamingExecutor, "execute", execute)
        with aggregates.record_passes() as passes:
            edges = L.link_mentions(
                ds, d, dataclasses.replace(cfg, link_shard_route=True)) \
                .to_pandas()
    return _norm_edges(edges), count[0], passes


def _check_resolve_pass(tmp_path, monkeypatch, tasks: int):
    d, ds = _routed_case(tmp_path)
    cfg = PipelineConfig(refine_attrs_factor=0.3)
    want = _norm_edges(L.link_mentions(ds, d, cfg).to_pandas())
    got, executions, passes = _shard_routed_run(ds, d, cfg, monkeypatch)
    # the distinct map and the merge map, both over the lazy mention input
    assert executions == 2
    assert passes == [{"site": "_score_shard_slice", "items": 4,
                       "tasks": tasks}]
    pd.testing.assert_frame_equal(want, got)


def test_link_mentions_shard_routed_two_executions(ray_session, in_process,
                                                   tmp_path, monkeypatch):
    """A shard-routed ``link_mentions`` over a lazy mention input starts 2
    Ray Data executions: the distinct set is already materialized, so the
    shard scatter is one in-process ``run_blocks`` pass (4 shards × 1 slice
    at one CPU slot) and the gather finishes on the driver.  Its edges
    equal the replicated path's."""
    _check_resolve_pass(tmp_path, monkeypatch, tasks=0)


def test_link_mentions_shard_routed_two_executions_tasks(ray_session,
                                                         tmp_path,
                                                         monkeypatch):
    """The same at the session's 4 CPU slots, where the pass runs its 4
    items as 4 Ray tasks, one shard each."""
    _check_resolve_pass(tmp_path, monkeypatch, tasks=4)


def test_link_mentions_shard_routed_overflow_falls_back(ray_session,
                                                        in_process, tmp_path,
                                                        monkeypatch):
    """A pass item whose partial measures over its share of
    ``DRIVER_FINAL_BYTES`` sends the resolve to the ``repartition`` and
    union scatter (4 executions), with the replicated path's edges.  The
    guard is set between the gather input's bytes (so the distinct set,
    the dedupe and the gather still fit it) and 4 × the largest shard's
    partial (so that partial overflows a quarter of the guard)."""
    from mannheimsearchjoinsengine_ray.stages import aggregates

    d, ds = _routed_case(tmp_path)
    cfg = PipelineConfig(refine_attrs_factor=0.3)
    want = _norm_edges(L.link_mentions(ds, d, cfg).to_pandas())
    distinct = L.distinct_mentions(ds)
    mentions = pa.Table.from_pandas(distinct.to_pandas()[["mention"]],
                                    preserve_index=False)
    markers = L._marker_batch(mentions).nbytes
    parts = [L.score_shard_batch(mentions, d, int(s), True,
                                 cfg.max_edit_distance).nbytes
             for s in IX.index_meta(d)["shards"]]
    guard = markers + (sum(parts) + len(parts) * max(parts)) // 2
    assert distinct.size_bytes() <= guard
    assert markers + sum(parts) < guard
    assert (guard - markers) // len(parts) < max(parts)
    monkeypatch.setattr(aggregates, "DRIVER_FINAL_BYTES", guard)
    got, executions, passes = _shard_routed_run(ds, d, cfg, monkeypatch)
    # distinct map, repartition, union of the scoring maps, merge map
    assert executions == 4
    assert [p["site"] for p in passes] == ["_score_shard_slice"]
    pd.testing.assert_frame_equal(want, got)


def test_index_caches_follow_a_rebuild(ray_session, tmp_path):
    """An index rebuilt at the same path is loaded anew in the same process:
    the per-process caches (``link._WORKER_CORES``,
    ``link._WORKER_SHARD_IDX``, ``index._VOCAB_CACHE``) key on the build
    stamp of ``_meta.json``, not on the path alone."""
    import ray.data as rd

    d = str(tmp_path / "idx_rebuilt")
    mention = pa.table({"mention": ["green temple 450"]})
    mentions = mention.column("mention").combine_chunks()

    def build(n):
        IX.build_index(rd.from_arrow(pa.table(P.make_gazetteer(n))), d,
                       num_shards=4)

    def cached():
        return (L.resolve_mentions_batch(mention, d, 5, 1, True, 0.0),
                [L.score_shard_batch(mention, d, s, True, 1)
                 for s in IX.index_meta(d)["shards"]])

    def fresh():
        vocab = IX.VocabStats(d)
        shards = []
        for s in IX.index_meta(d)["shards"]:
            idx = IX.LabelIndex(d, shards=[s], vocab=vocab)
            moffs, eids, scores = idx.score_many(["green temple 450"],
                                                 fuzzy=True, max_edit=1)
            shards.append((idx.entries_uri.take(pa.array(eids)).to_pylist(),
                           scores.tolist()))
        return (L._resolve_on(IX.LabelIndex(d), mentions, 5, True, 1),
                shards)

    def same(got, want):
        assert got[0].equals(want[0])
        assert [(t.column("uri").to_pylist(), t.column("score").to_pylist())
                for t in got[1]] == want[1]

    build(500)
    before = cached()
    same(before, fresh())
    build(100)
    after, want = cached(), fresh()
    assert not want[0].equals(before[0])    # the rebuild changes the answer
    same(after, want)


def test_distinct_mentions_from_tables_matches_mention_map(ray_session):
    """distinct_mentions(tables, from_tables=True) must emit EXACTLY the
    distinct mention strings of the full mention map — each ONCE.  The
    exactness is load-bearing: a near-distinct set (per-block unique only)
    multiplies the resolve cost and the broadcast payload by the
    cross-block duplication factor (BASELINE.md #25)."""
    import ray.data as rd

    specs = [P.make_page_spec(i, seed=7) for i in range(30)]
    pages = rd.from_items([{"url": s.url, "html": P.render_html(s)}
                           for s in specs])
    from mannheimsearchjoinsengine_ray.pipelines.kg import extract_tables_ds

    tables = extract_tables_ds(pages)
    got_list = list(L.distinct_mentions(tables, from_tables=True)
                    .to_pandas()["mention"])
    want = set(tables.map_batches(L.mentions_from_tables_batch,
                                  batch_format="pyarrow")
               .to_pandas()["mention"])
    assert set(got_list) == want
    assert len(got_list) == len(want), \
        f"near-distinct leak: {len(got_list)} rows for {len(want)} mentions"


def test_resolved_broadcast_dedupes_duplicate_mentions(ray_session, tmp_path):
    """link_mentions must first-wins-dedupe the resolved table before
    ray.put even when the distinct_ds it was handed carries duplicates."""
    import ray.data as rd

    from mannheimsearchjoinsengine_ray.config import DEFAULT_CONFIG
    from mannheimsearchjoinsengine_ray.sources.pages import make_gazetteer
    from mannheimsearchjoinsengine_ray.state.index import build_index

    index_dir = str(tmp_path / "idx")
    build_index(rd.from_arrow(pa.table(make_gazetteer(50))), index_dir,
                num_shards=2)
    names = make_gazetteer(50)["label"][:5]
    mentions = rd.from_items(
        [{"url": "u", "table_idx": 0, "row_idx": i, "mention": m,
          "context": ""} for i, m in enumerate(names)])
    dup_distinct = rd.from_items(
        [{"mention": m} for m in names * 4])      # 4x duplicated
    exact_distinct = rd.from_items([{"mention": m} for m in names])
    e_dup = L.top1_links(L.link_mentions(
        mentions, index_dir, DEFAULT_CONFIG,
        distinct_ds=dup_distinct)).to_pandas()
    e_exact = L.top1_links(L.link_mentions(
        mentions, index_dir, DEFAULT_CONFIG,
        distinct_ds=exact_distinct)).to_pandas()
    cols = ["mention", "entity_uri", "score"]
    pd.testing.assert_frame_equal(
        e_dup.sort_values(cols).reset_index(drop=True)[cols],
        e_exact.sort_values(cols).reset_index(drop=True)[cols])
