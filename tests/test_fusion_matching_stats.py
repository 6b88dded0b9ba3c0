"""Fusion, schema matching, and stats/cleaning stage tests."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pytest

from mannheimsearchjoinsengine_ray.config import DEFAULT_CONFIG, PipelineConfig
from mannheimsearchjoinsengine_ray.stages import fusion as F
from mannheimsearchjoinsengine_ray.stages import matching as M
from mannheimsearchjoinsengine_ray.stages import stats as S


@pytest.fixture()
def triples_ds(ray_session):
    import ray.data as rd

    rows = [
        ("http://x/A", "http://x/population", "1000", "float", "u1"),
        ("http://x/A", "http://x/region", "North", "string", "u1"),
        ("http://x/B", "http://x/population", "2000", "float", "u2"),
        ("http://x/C", "http://x/region", "South", "string", "u2"),
    ]
    return rd.from_pandas(pd.DataFrame(
        rows, columns=["subj", "pred", "obj", "obj_type", "source_url"]))


class TestFusion:
    def test_long_view_and_pivot(self, ray_session, triples_ds):
        edges = pd.DataFrame({
            "mention": ["alpha", "beta"],
            "entity_uri": ["http://x/A", "http://x/B"],
        })
        long = F.fuse_edges_with_triples(edges, triples_ds).to_pandas()
        assert set(long["query_key"]) == {"alpha", "beta"}
        assert len(long[long["query_key"] == "alpha"]) == 2  # A has 2 triples
        wide = F.pivot_fused(long)
        assert "query_key" in wide.columns
        assert "population|u1" in wide.columns
        assert wide.set_index("query_key").loc["alpha", "population|u1"] == "1000"

    def test_header_filter(self, ray_session, triples_ds):
        edges = pd.DataFrame({"mention": ["m"], "entity_uri": ["http://x/A"]})
        long = F.fuse_edges_with_triples(
            edges, triples_ds, header_filter=["population"]).to_pandas()
        assert set(long["pred"]) == {"http://x/population"}

    def test_broadcast_and_join_paths_equivalent(self, ray_session, triples_ds,
                                                 force_site):
        """The scale path (bucket_join, the ``fusion.edges`` site forced
        False) must produce the same fused rows as the broadcast path."""
        edges = pd.DataFrame({
            "mention": ["alpha", "beta", "alpha2"],
            "entity_uri": ["http://x/A", "http://x/B", "http://x/A"],
        })

        def normed(ds):
            df = ds.to_pandas()[list(F.FUSED_SCHEMA.names)]
            return df.sort_values(list(df.columns)).reset_index(drop=True)

        bcast = normed(F.fuse_edges_with_triples(edges, triples_ds))
        b2 = normed(F.fuse_edges_with_triples(edges, triples_ds,
                                              header_filter=["region"]))
        force_site("fusion.edges", False)
        joined = normed(F.fuse_edges_with_triples(edges, triples_ds,
                                                  bucket_count=4))
        pd.testing.assert_frame_equal(bcast, joined)
        # header filter equivalence across paths too
        j2 = normed(F.fuse_edges_with_triples(edges, triples_ds,
                                              header_filter=["region"],
                                              bucket_count=4))
        pd.testing.assert_frame_equal(b2, j2)
        assert set(b2["pred"]) == {"http://x/region"}

    def test_dataset_edges_input(self, ray_session, triples_ds, force_site):
        """Edges may arrive as a Dataset (the run_full side-output), both paths."""
        import ray.data as rd

        edges = rd.from_pandas(pd.DataFrame({
            "mention": ["alpha"], "entity_uri": ["http://x/A"]}))
        out = F.fuse_edges_with_triples(edges, triples_ds).to_pandas()
        assert len(out) == 2
        edges2 = rd.from_pandas(pd.DataFrame({
            "mention": ["alpha"], "entity_uri": ["http://x/A"]}))
        force_site("fusion.edges", False)
        out2 = F.fuse_edges_with_triples(edges2, triples_ds).to_pandas()
        assert len(out2) == 2


class TestMatching:
    def test_score_column_pair(self):
        a = {0: "red", 1: "blue", 2: "green"}
        b = {0: "red", 1: "blue", 3: "yellow"}
        csv = M.score_column_pair(a, b, "string")
        assert csv.count == 2            # rows 0,1 co-present
        assert csv.complement == 2       # rows 2,3 one-sided
        assert csv.average == 1.0
        assert M.complementary_similarity(csv) == pytest.approx(1.0)

    def test_numeric_pair(self):
        csv = M.score_column_pair({0: "10", 1: "20"}, {0: "10", 1: "40"}, "numeric")
        assert csv.average == pytest.approx((1.0 + 0.25) / 2)

    def test_label_similarity(self):
        assert M.label_similarity("Population", "population") == 1.0
        assert M.label_similarity("totalArea", "total area") == 1.0  # decamel+normalize
        assert M.label_similarity("abc", "xyz") == 0.0

    def test_synonym_channel(self):
        """WordNet tier (LabelBasedComparer.java:26-51) via the bundled
        lexicon: 'country' ≈ 'nation' now matches above the 0.8 label
        threshold; hypernym-linked words get the weaker lift."""
        from mannheimsearchjoinsengine_ray.config import DEFAULT_CONFIG

        assert M.label_similarity("Country", "Nation") >= DEFAULT_CONFIG.label_threshold
        assert M.label_similarity("city", "metropolis") >= 0.8
        assert M.label_similarity("revenue", "income") >= 0.8
        assert 0.6 <= M.label_similarity("king", "president") < 0.8  # hypernym tier
        assert M.label_similarity("abc", "xyz") == 0.0  # unknown words unaffected

    def test_match_strings_tiers(self):
        """matchStrings port quirks: equal strings end at ×2.2 (the
        equal-string branch overwrites the exact ×5) unless both are in the
        lexicon, where the synset branch then lands ×2.0."""
        assert M.match_strings("zzzqx", "zzzqx") == pytest.approx(2.2)
        assert M.match_strings("country", "country") == pytest.approx(2.0)
        assert M.match_strings("ab", "country") == 0.0  # <3 chars → 0
        # synonym multiplier amplifies a nonzero n-gram base
        base = M.match_strings("organisation", "organization")
        from mannheimsearchjoinsengine_ray.functions.similarity import jaccard_ngram
        assert base == pytest.approx(
            2.0 * jaccard_ngram("organisation", "organization"))

    def test_lexicon_breadth_round4(self):
        """Round-4 lexicon extension: general-vocabulary synonym groups and
        hypernym chains resolve through the same tiers."""
        from mannheimsearchjoinsengine_ray.functions import wordnet as W

        assert "objective" in W.synonyms("goal")
        assert "vendor" in W.synonyms("merchant")
        assert "prediction" in W.synonyms("forecast")
        assert "person" in W.hypernyms("ambassador")
        assert "metal" in W.hypernyms("titanium")
        assert "sport" in W.hypernyms("volleyball")
        assert "language" in W.hypernyms("swahili")
        # hyponym direction derives from the same table
        assert "surgeon" in W.hyponyms("doctor")
        # synonym tier beats hypernym tier in label similarity
        assert M.label_similarity("aim", "objective") >= 0.8
        assert 0.6 <= M.label_similarity("violin", "piano") < 0.8  # siblings

    def test_decide_object_matching(self):
        scores = {("c1", "c2"): 0.9, ("c1", "c3"): 0.85, ("c2", "c3"): 0.2}
        types = {"c1": "string", "c2": "string", "c3": "string"}
        m = M.decide_object_matching(scores, types)
        assert set(m["c1"]) == {"c2", "c3"}
        # below threshold → no match
        m2 = M.decide_object_matching({("a", "b"): 0.5}, {"a": "string", "b": "string"})
        assert m2 == {}
        # numeric threshold is lower
        m3 = M.decide_object_matching({("a", "b"): 0.5}, {"a": "numeric", "b": "numeric"})
        assert m3 == {"a": ["b"]}

    def test_merge_duplicate_columns(self):
        """ExperimentalDuplicateResolver port
        (SJ/datafusion/ExperimentalDuplicateResolver.java): matched columns
        merge into one; quirks pinned — median picks PAST the middle for odd
        counts (:342-354), the date 'average' is the last parsed right value's
        seconds over (1+n) via the dead-store loop (:356-372), voting keeps
        the earliest first-to-exceed winner (:322-340)."""
        import dataclasses

        from mannheimsearchjoinsengine_ray.config import (DEFAULT_CONFIG,
                                                          NumericResolution,
                                                          StringResolution)
        from mannheimsearchjoinsengine_ray.stages.matching import (
            ColumnRef, merge_duplicate_columns)

        def col(cid, dtype, values, header=None):
            return ColumnRef(column_id=cid, header=header or cid,
                             data_type=dtype, source=f"src_{cid}",
                             values=dict(enumerate(values)))

        # string voting: same → left; left null → first non-null right;
        # rights null → left; contested → first value to EXCEED max
        cfg = dataclasses.replace(DEFAULT_CONFIG,
                                  string_resolution=StringResolution.voting)
        cols = [col("a", "string", ["x", "null", "p", "t1"]),
                col("b", "string", ["x", "y", "null", "t2"]),
                col("c", "string", ["x", "z", "null", "t2"]),
                col("d", "numeric", ["1", "2", "3", "4"])]
        out, out_keys = merge_duplicate_columns(
            cols, {"a": ["b", "c"]}, cfg=cfg, keys={"b"})
        assert [c.column_id for c in out] == ["a", "d"]
        merged = out[0]
        assert merged.header == "a||b||c" and merged.source == "src_a||src_b||src_c"
        assert merged.values == {0: "x", 1: "y", 2: "p", 3: "t2"}
        assert out_keys == {"a"}       # key flag ORs across the group
        assert out[1].values[0] == "1"  # unmatched column untouched

        # longest: strict > means left wins length ties
        cfg_l = dataclasses.replace(DEFAULT_CONFIG,
                                    string_resolution=StringResolution.longest)
        out, _ = merge_duplicate_columns(
            [col("a", "string", ["ab"]), col("b", "string", ["cd"]),
             col("c", "string", ["efgh"])], {"a": ["b", "c"]}, cfg=cfg_l)
        assert out[0].values[0] == "efgh"

        # median quirk: 3 values → index 2 (the MAXIMUM), 4 values → index 2
        cfg_m = dataclasses.replace(DEFAULT_CONFIG,
                                    numeric_resolution=NumericResolution.median)
        out, _ = merge_duplicate_columns(
            [col("a", "numeric", ["1"]), col("b", "numeric", ["2"]),
             col("c", "numeric", ["9"])], {"a": ["b", "c"]}, cfg=cfg_m)
        assert out[0].values[0] == "9.0"
        out, _ = merge_duplicate_columns(
            [col("a", "numeric", ["1"]), col("b", "numeric", ["2"]),
             col("c", "numeric", ["3"]), col("d", "numeric", ["9"])],
            {"a": ["b", "c", "d"]}, cfg=cfg_m)
        assert out[0].values[0] == "3.0"

        # numeric average + unparseable → exception swallowed, left kept
        cfg_avg = dataclasses.replace(
            DEFAULT_CONFIG, numeric_resolution=NumericResolution.average)
        out, _ = merge_duplicate_columns(
            [col("a", "numeric", ["1", "1"]), col("b", "numeric", ["3", "oops"])],
            {"a": ["b"]}, cfg=cfg_avg)
        assert out[0].values == {0: "2.0", 1: "1"}

        # date dead-store: last right's epoch seconds / (1+n), ISO-rendered
        out, _ = merge_duplicate_columns(
            [col("a", "date", ["1970-01-02"]), col("b", "date", ["1970-01-03"])],
            {"a": ["b"]})
        import datetime as _dt

        d2 = int(_dt.datetime(1970, 1, 3,
                              tzinfo=_dt.timezone.utc).timestamp())
        want = _dt.datetime.fromtimestamp(d2 // 2, tz=_dt.timezone.utc) \
            .strftime("%Y-%m-%d %H:%M:%S")
        assert out[0].values[0] == want

    def test_partner_stealing(self):
        # greedy order-dependent matching (reference parity): whichever column
        # is processed first claims its above-threshold partners; the result
        # must cluster b with c1 (the 0.95 edge) one way or the other
        scores = {("c1", "b"): 0.95, ("c2", "b"): 0.85}
        types = {"b": "string"}
        m = M.decide_object_matching(scores, types)
        flat = {(k, v) for k, vs in m.items() for v in vs}
        assert ("b", "c1") in flat or ("c1", "b") in flat
        # a partner below threshold never appears
        m2 = M.decide_object_matching({("c1", "b"): 0.95, ("c2", "b"): 0.3}, types)
        flat2 = {(k, v) for k, vs in m2.items() for v in vs}
        assert ("b", "c2") not in flat2 and ("c2", "b") not in flat2

    def test_score_pairs_ds(self, ray_session):
        import ray.data as rd

        pairs = pd.DataFrame([{
            "left_col": "t1.c0", "right_col": "t2.c0",
            "left_header": "population", "right_header": "Population",
            "data_type_left": "numeric", "data_type_right": "numeric",
            "left_source": "t1", "right_source": "t2",
            "left_values": {0: "10", 1: "20"},
            "right_values": {0: "10", 1: "20"},
        }, {
            "left_col": "t1.c1", "right_col": "t2.c1",
            "left_header": "x", "right_header": "y",
            "data_type_left": "string", "data_type_right": "numeric",
            "left_source": "t1", "right_source": "t2",
            "left_values": {}, "right_values": {},
        }])
        out = M.score_pairs_ds(rd.from_pandas(pairs)).to_pandas()
        assert len(out) == 1             # type-mismatched pair dropped
        assert out.iloc[0]["score"] == 1.0
        assert out.iloc[0]["label_score"] == 1.0


class TestStats:
    def test_values_per_key(self, ray_session, triples_ds):
        out = S.values_per_key_distribution(triples_ds).to_pandas()
        m = dict(zip(out["subj"], out["n_values"]))
        assert m["http://x/A"] == 2 and m["http://x/C"] == 1

    def test_null_density(self):
        df = pd.DataFrame({"a": ["x", "null", ""], "b": ["1", "2", "3"]})
        out = S.null_density_per_column(df).set_index("column_name")
        assert out.loc["a", "null_density"] == pytest.approx(2 / 3)
        assert out.loc["b", "null_density"] == 0.0

    def test_clean_tables(self, ray_session):
        from mannheimsearchjoinsengine_ray.stages.extract import _TABLE_RECORD_SCHEMA

        rows = [["alpha one", "5kg", "123", "null"],
                ["beta two", "3kg", "456", "null"],
                ["gamma three", "null", "null", "null"],
                ["delta four", "7kg", "789", "null"],
                ["epsil five", "9kg", "12", "null"],
                ["zeta six", "1kg", "34", "null"]]
        batch = pa.Table.from_pydict({
            "url": ["u"], "table_idx": [0], "n_rows": [len(rows)],
            "headers": [["name", "weight", "count", "empty"]],
            "col_types": [["string", "unit", "numeric", "string"]],
            "key_idx": [0], "has_key": [True],
            "rows": [rows], "raw_keys": [[r[0] for r in rows]],
        }, schema=_TABLE_RECORD_SCHEMA)
        out = S.clean_tables_batch(batch, DEFAULT_CONFIG)
        assert out.num_rows == 1
        headers = out.column("headers")[0].as_py()
        assert "empty" not in headers          # all-null column dropped
        assert headers == ["name", "weight", "count"]
        cleaned_rows = out.column("rows")[0].as_py()
        assert cleaned_rows[0][1] == "5.0"     # unit converted to base kg
        assert cleaned_rows[0][2] == "123.0"   # numeric normalized
        assert len(cleaned_rows) == 5          # all-null row dropped

    def test_link_column_scan(self, ray_session):
        import ray.data as rd

        from mannheimsearchjoinsengine_ray.stages.extract import _TABLE_RECORD_SCHEMA

        rows = [["a", "http://en.wikipedia.org/wiki/A", "x"],
                ["b", "http://en.wikipedia.org/wiki/B", "y"],
                ["c", "plain text", "z"],
                ["d", "http://other.com/d", "w"],
                ["e", "http://en.wikipedia.org/wiki/E", "v"]]
        batch = pa.Table.from_pydict({
            "url": ["u"], "table_idx": [0], "n_rows": [5],
            "headers": [["name", "wiki", "note"]],
            "col_types": [["string", "link", "string"]],
            "key_idx": [0], "has_key": [True],
            "rows": [rows], "raw_keys": [[r[0] for r in rows]],
        }, schema=_TABLE_RECORD_SCHEMA)
        out = S.link_column_scan(rd.from_arrow(batch),
                                 domain_substring="wikipedia.org").to_pandas()
        assert len(out) == 1
        assert out.iloc[0]["header"] == "wiki"
        assert out.iloc[0]["link_ratio"] == 0.6

    def test_header_frequencies(self, ray_session):
        import ray.data as rd

        from mannheimsearchjoinsengine_ray.stages.extract import _TABLE_RECORD_SCHEMA

        batch = pa.Table.from_pydict({
            "url": ["u", "v"], "table_idx": [0, 0], "n_rows": [1, 1],
            "headers": [["name", "pop"], ["name", "area"]],
            "col_types": [["string", "numeric"]] * 2,
            "key_idx": [0, 0], "has_key": [True, True],
            "rows": [[["a", "1"]], [["b", "2"]]],
            "raw_keys": [["a"], ["b"]],
        }, schema=_TABLE_RECORD_SCHEMA)
        out = S.header_frequencies(rd.from_arrow(batch)).to_pandas()
        m = dict(zip(out["header"], out["frequency"]))
        assert m["name"] == 2 and m["pop"] == 1


def test_match_strings_word_gram_fallback():
    """Out-of-lexicon multi-word headers sharing a >2-char word take the
    x2.0 synset multiplier (LabelBasedComparer.java:151-165 fallback via
    populateNgramList — a dictionary synset contains the word itself)."""
    import pytest as _pytest

    from mannheimsearchjoinsengine_ray.stages import matching as M
    from mannheimsearchjoinsengine_ray.stages.matching import jaccard_ngram
    from mannheimsearchjoinsengine_ray.functions.normalize import clear_string

    a, b = "zzqx flimmer", "zzqx blarp"   # out-of-lexicon phrases, shared word
    ca, cb = clear_string(a, False), clear_string(b, False)
    got = M.match_strings(a, b)
    assert got == _pytest.approx(
        jaccard_ngram(ca, cb) * M.WORDNET_SYNSET_MATCH_SCORE)
    # no shared word, no synonyms -> x1.0
    base = M.match_strings("zzqx alpha", "wwvk beta")
    assert base == _pytest.approx(
        jaccard_ngram(clear_string("zzqx alpha", False),
                      clear_string("wwvk beta", False)))
