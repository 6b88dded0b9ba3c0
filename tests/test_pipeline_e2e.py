"""End-to-end tests: synthetic corpus → extraction → triples → materialize,
verified against spec-derived goldens (FIXTURES.md F1-F3, F8)."""

from __future__ import annotations

import os

import pyarrow as pa
import pytest

from mannheimsearchjoinsengine_ray.pipelines import kg
from mannheimsearchjoinsengine_ray.sources import pages as P
from mannheimsearchjoinsengine_ray.stages import extract as E
from mannheimsearchjoinsengine_ray.stages import triples as T

N_PAGES = 120


@pytest.fixture(scope="module")
def corpus_dir(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("corpus"))
    P.write_corpus(d, n_pages=N_PAGES, seed=42, parallelism=4)
    return d


def test_corpus_deterministic(ray_session, tmp_path_factory):
    import ray.data as rd

    d1 = str(tmp_path_factory.mktemp("c1"))
    d2 = str(tmp_path_factory.mktemp("c2"))
    P.write_corpus(d1, n_pages=30, seed=42, parallelism=2)
    P.write_corpus(d2, n_pages=30, seed=42, parallelism=3)  # different blocking
    t1 = rd.read_parquet(d1).to_pandas().sort_values("url").reset_index(drop=True)
    t2 = rd.read_parquet(d2).to_pandas().sort_values("url").reset_index(drop=True)
    assert (t1["html"] == t2["html"]).all()
    assert (t1["text"] == t2["text"]).all()


def test_text_extraction_byte_identical(ray_session, corpus_dir):
    """The per-url invariant: extracted text == golden text column, bytewise."""
    import ray.data as rd

    extracted = kg.extract_text_ds(corpus_dir).to_pandas()
    golden = rd.read_parquet(corpus_dir, columns=["url", "text"]).to_pandas()
    merged = extracted.merge(golden, on="url", suffixes=("_got", "_gold"))
    assert len(merged) == N_PAGES
    assert (merged["text_got"] == merged["text_gold"]).all()


def test_triples_precision_recall(ray_session, corpus_dir):
    from mannheimsearchjoinsengine_ray.stages.evaluate import evaluate_triples

    got_ds = kg.pages_to_triples(corpus_dir)
    gold = set()
    for pid in range(N_PAGES):
        for s, p, o, ty, u in P.golden_triples_for_page(P.make_page_spec(pid)):
            gold.add((s, p, o))
    res = evaluate_triples(got_ds, gold)
    assert res.precision >= 0.95, res
    assert res.recall >= 0.95, res
    assert res.f1 >= 0.95


def test_evaluate_harness_units():
    import pandas as pd

    from mannheimsearchjoinsengine_ray.stages.evaluate import (
        evaluate_links,
        evaluate_sets,
    )

    r = evaluate_sets({1, 2, 3}, {2, 3, 4}, instances=6)
    assert r.precision == pytest.approx(2 / 3)
    assert r.recall == pytest.approx(2 / 3)
    assert r.coverage == pytest.approx(0.5)
    got = pd.DataFrame({"url": ["u", "u"], "table_idx": [0, 0],
                        "row_idx": [0, 1], "entity_uri": ["A", "WRONG"]})
    gold = pd.DataFrame({"url": ["u", "u", "u"], "table_idx": [0, 0, 0],
                         "row_idx": [0, 1, 2], "entity_uri": ["A", "B", "C"]})
    lr = evaluate_links(got, gold)
    assert lr.n_correct == 1 and lr.n_gold == 3 and lr.n_got == 2
    assert lr.precision == 0.5 and lr.recall == pytest.approx(1 / 3)


def test_materialize_partitions_and_manifests(ray_session, corpus_dir, tmp_path):
    out = str(tmp_path / "kg_out")
    metrics = kg.run_full(corpus_dir, out, num_shards=2, partitions_per_shard=3)
    assert metrics["shards_run"] == 2
    ds = kg.read_output(out)
    n = ds.count()
    assert n == metrics["triples"] and n > 0
    # partitions are sorted by (subj, pred) and subject-disjoint across parts
    shard_dir = os.path.join(out, "shard=00000")
    import pyarrow.parquet as pq

    subj_sets = []
    for d in sorted(os.listdir(shard_dir)):
        if not d.startswith("part="):
            continue
        t = pq.read_table(os.path.join(shard_dir, d))
        subjs = t.column("subj").to_pylist()
        preds = t.column("pred").to_pylist()
        assert list(zip(subjs, preds)) == sorted(zip(subjs, preds))
        subj_sets.append(set(subjs))
    for i in range(len(subj_sets)):
        for j in range(i + 1, len(subj_sets)):
            assert not (subj_sets[i] & subj_sets[j])


def test_resume_skips_completed_shards(ray_session, corpus_dir, tmp_path,
                                       crash_at):
    """FIXTURES F8: kill after k shards, resume, identical final output."""
    out_a = str(tmp_path / "runA")
    out_b = str(tmp_path / "runB")
    kg.run_full(corpus_dir, out_a, num_shards=3, partitions_per_shard=2)

    crash_at("shard_manifest_00000.json", "after")
    with pytest.raises(RuntimeError, match="injected crash"):
        kg.run_full(corpus_dir, out_b, num_shards=3, partitions_per_shard=2)
    assert len(kg.completed_shards(out_b)) == 1
    m = kg.run_full(corpus_dir, out_b, num_shards=3, partitions_per_shard=2)
    assert m["shards_skipped"] == 1 and m["shards_run"] == 2

    rows_a = sorted(map(tuple, kg.read_output(out_a).to_pandas().values.tolist()))
    rows_b = sorted(map(tuple, kg.read_output(out_b).to_pandas().values.tolist()))
    assert rows_a == rows_b


def test_invalid_tables_rejected(ray_session):
    """<3 cols or <5 rows tables produce no records (ConvertFileToTable.isTableValid)."""
    html = (b"<html><body><table>"
            b"<tr><th>name</th><th>x</th></tr>"
            b"<tr><td>a</td><td>1</td></tr>" * 10 +
            b"</table></body></html>")
    _, tables = E.parse_page_full(html)
    assert len(tables) == 1
    assert E.process_table(tables[0]) is None


def test_malformed_html_robust(ray_session):
    """Parser must not crash or mis-count on broken markup."""
    cases = [
        b"<html><table><tr><td>a</td><td>b",               # unclosed everything
        b"</td></tr></table>stray closers",                # stray closers
        b"<table><table><tr><td>nested</td></tr></table></table>",
        b"<p>text & unterminated entity &am",
        b"\xff\xfe invalid utf8 \x80<table><tr><th>h</th></tr></table>",
        b"",
    ]
    for html in cases:
        text, tables = E.parse_page_full(html)
        assert isinstance(text, str)
        for raw in tables:
            E.process_table(raw)  # must not raise


def test_ntriples_formatting():
    line = T.format_ntriple("http://x/S", T.RDFS_LABEL, "Some Value", "string")
    assert line == f'<http://x/S> <{T.RDFS_LABEL}> "Some Value"@en .'
    line = T.format_ntriple("http://x/S", "http://x/p", "12.5", "float")
    assert line.endswith('"12.5"^^<http://www.w3.org/2001/XMLSchema#float> .')
    line = T.format_ntriple("http://x/S", T.RDF_TYPE, "http://x/C", "uri")
    assert line == "<http://x/S> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/C> ."


def test_extractor_adversarial_html(ray_session):
    """Hostile pages must not crash the extract stage: unclosed tags, deep
    nesting, nested tables, control chars, huge cells, truncated bytes,
    non-UTF8."""
    import ray.data as rd

    import pyarrow as pa

    from mannheimsearchjoinsengine_ray.stages.extract import TableExtractor, parse_page_full

    nasty = [
        b"<table><tr><td>unclosed",
        b"<div>" * 500 + b"deep" + b"</div>" * 3,
        (b"<table><tr><td><table><tr><td>nested</td></tr></table>"
         b"</td></tr></table>"),
        "<p>\x00control\x01chars</p>".encode(),
        b"<table><tr><th>h1</th><th>h2</th><th>h3</th></tr>" +
        b"".join(b"<tr><td>" + b"x" * 100_000 + b"</td><td>1</td><td>2</td></tr>"
                 for _ in range(6)) + b"</table>",
        b"\xff\xfe invalid utf8 \x80\x81<table><tr><td>a</td></tr></table>",
        b"",
        b"plain text, no markup at all",
    ]
    # driver-side: parse never raises
    for h in nasty:
        text, tables = parse_page_full(h)
        assert isinstance(text, str)
    # through the Ray stage
    pages = pa.table({"url": [f"u{i}" for i in range(len(nasty))],
                      "html": pa.array(nasty, pa.binary())})
    out = rd.from_arrow(pages).map_batches(
        TableExtractor(), batch_format="pyarrow").to_pandas()
    # the huge-cell table is structurally valid (3 cols x 6 rows) and survives
    assert (out["url"] == "u4").any()


def test_fast_feed_equivalence(ray_session, corpus_dir):
    """The fast HTML event feeder must produce the same (text, tables) as
    stdlib HTMLParser.feed on every corpus page AND an adversarial battery
    (quoted '>' in attrs, cdata content, bogus comments, half tags at EOF,
    charref edge cases, marked sections, self-closing variants)."""
    import glob

    import pyarrow.parquet as pq

    from mannheimsearchjoinsengine_ray.stages.extract import (
        parse_page_full,
        parse_page_tables,
    )

    nasty = [
        "", "<", ">", "plain text &amp; more",
        "<p>a &lt; b &#65; &#x42; &notit; x</p>",
        "<table><tr><td>1</td><td>2</td></tr></table>",
        "<TABLE><TR><TH>H</TH></TR><tr><td>v&nbsp;1</td></tr></TABLE>",
        "<table><tr><td title=\"a>b\">x</td></tr></table>",
        "<table><tr><td title='it>s'>y</td></tr></table>",
        "<table><tr><td data-x=bare>z</td></tr></table>",
        "<script>var x = '<table><tr><td>no</td></tr></table>';</script>"
        "<p>after</p>",
        "<style>p:before{content:'<td>'}</style><div>d</div>",
        "<!-- comment with <table><tr><td>no</td></tr></table> --><p>ok</p>",
        "<p>unclosed <table><tr><td>cell",
        "<br/><br / ><hr/>text",
        "<p>a<b>c</p", "<p>x</p><!doctype html><p>y</p>",
        "<?php echo '<td>no</td>'; ?><p>pi</p>",
        "</><p>after empty endtag</p>",
        "</ bogus ><p>bogus end</p>",
        "<p>amp at end &", "<p>amp &am", "<p>tag at end <",
        "<p>half tag <div", "<p>half end </div",
        "<div class='a' id=b>in</div>",
        "<table><tr><td>&#9731;&#x2603;</td></tr></table>",
        "<table><tbody><tr><td>tb</td></tr></tbody></table>",
        "<table><tr><td><table><tr><td>nested</td></tr></table></td></tr>"
        "</table>",
        "a<3 and b<4 but <i>it</i>",
        "<p>enti&ampty</p>", "<p>&unknownref; stays</p>",
        "<td>orphan cell</td>", "<script>no close",
        "<!--unclosed comment <p>gone</p>",
        "<![CDATA[ raw <td>x</td> ]]><p>after cdata</p>",
        "<p >spaced</p >", "<p/>selfclose-p",
        "text &#; weird", "&#x; y", "&; z",
    ]
    for h in nasty:
        assert parse_page_full(h, use_fast=True) == \
            parse_page_full(h, use_fast=False), h[:60]
        # tables-only parser config (collect_text=False): the fast feeder
        # additionally elides handler calls for tags it proves irrelevant
        assert parse_page_tables(h, use_fast=True) == \
            parse_page_tables(h, use_fast=False), h[:60]
    npages = 0
    for f in sorted(glob.glob(corpus_dir + "/*.parquet")):
        t = pq.read_table(f, columns=["html"])
        for h in t.column("html").to_pylist():
            assert parse_page_full(h, use_fast=True) == \
                parse_page_full(h, use_fast=False)
            assert parse_page_tables(h, use_fast=True) == \
                parse_page_tables(h, use_fast=False)
            npages += 1
    assert npages >= 100


def test_fast_feed_fuzz_equivalence(ray_session):
    """Property: on ARBITRARY markup-ish soup the fast feeder and stdlib
    HTMLParser produce identical (text, tables)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from mannheimsearchjoinsengine_ray.stages.extract import (
        parse_page_full,
        parse_page_tables,
    )

    frag = st.sampled_from([
        "<", ">", "</", "<!", "<!--", "-->", "&", ";", "&#", "&amp", "&amp;",
        "&#65;", "&#x41;", "&bogus;", " ", "x", "table", "<table>", "</table>",
        "<tr>", "</tr>", "<td>", "</td>", "<th>", "</th>", "<p>", "</p>",
        "<script>", "</script>", "<style>", "</style>", "<br/>", "<br />",
        "<div class='a'>", "<div a=b>", "<a href=\"x>y\">", "'", '"', "=",
        "/", "<?pi?>", "<!doctype html>", "text with spaces", "\n", "\t",
        "<td a='b>c'>", "</ >", "</>", "<x", "y>", "<!x>", "π≠", "\x00",
    ])
    soup = st.lists(frag, min_size=0, max_size=40).map("".join)

    @settings(max_examples=300, deadline=None)
    @given(soup)
    def check(html):
        assert parse_page_full(html, use_fast=True) == \
            parse_page_full(html, use_fast=False)
        assert parse_page_tables(html, use_fast=True) == \
            parse_page_tables(html, use_fast=False)

    check()
