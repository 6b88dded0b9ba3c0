"""The KG path's column kernels against the per-row code they replaced.

``capitalize_words_array``, ``triples_from_tables_batch``,
``label_pairs_from_tables_batch``, ``MinHasher.signatures`` and
``rewrite_uris`` run set-at-a-time over Arrow/numpy columns.  Each is
compared here with a per-row reference kept in this module: the scalar
``capitalize_words`` per value, the per-row triplifier and label walk, the
per-document MinHash signature and the pandas URI rewrite."""

from __future__ import annotations

import filecmp
import glob
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mannheimsearchjoinsengine_ray.functions import hashing
from mannheimsearchjoinsengine_ray.functions import normalize as N
from mannheimsearchjoinsengine_ray.pipelines import kg
from mannheimsearchjoinsengine_ray.sources import pages as P
from mannheimsearchjoinsengine_ray.stages import canonicalize as C
from mannheimsearchjoinsengine_ray.stages import triples as T
from mannheimsearchjoinsengine_ray.stages.extract import (
    _TABLE_RECORD_SCHEMA,
    TableExtractor,
)

# --- per-row references --------------------------------------------------


def cap(value):
    return None if value is None else N.capitalize_words(value)


def rows_triples(batch: pa.Table) -> pa.Table:
    """The per-row triplifier: per table, each key row's type, label and
    cells, then the class and property declarations."""
    out = []
    for rec in batch.to_pylist():
        headers, key_idx = rec["headers"], rec["key_idx"]
        if not rec["has_key"] or key_idx < 0:
            continue
        url = rec["url"]
        class_label = N.capitalize_words(headers[key_idx])
        class_uri = T.NS + class_label.replace(" ", "")
        preds = [T.predicate_uri(h) for h in headers]
        tags = [T._TYPE_TO_OBJ_TYPE.get(t, "string") for t in rec["col_types"]]
        seen_key = False
        for row in rec["rows"]:
            key_norm = row[key_idx]
            if key_norm in ("", "null", "string") or key_norm is None:
                continue
            seen_key = True
            key_cap = N.capitalize_words(key_norm)
            subj = T.NS + key_cap.replace(" ", "")
            out.append((subj, T.RDF_TYPE, class_uri, "uri", url))
            out.append((subj, T.RDFS_LABEL, key_cap, "string", url))
            for ci, obj in enumerate(row):
                if ci == key_idx or obj is None or obj in ("", "null"):
                    continue
                if "http" in obj:
                    out.append((subj, preds[ci], obj, "uri", url))
                else:
                    out.append((subj, preds[ci], N.capitalize_words(obj),
                                tags[ci], url))
        if seen_key:
            out.append((class_uri, T.RDF_TYPE, T.OWL_CLASS, "uri", url))
            out.append((class_uri, T.RDFS_LABEL, class_label, "string", url))
            for ci, h in enumerate(headers):
                if ci != key_idx:
                    h_cap = N.capitalize_words(h)
                    prop = T.NS + h_cap.replace(" ", "")
                    out.append((prop, T.RDF_TYPE, T.OWL_DATATYPE_PROPERTY,
                                "uri", url))
                    out.append((prop, T.RDFS_LABEL, h_cap, "string", url))
    cols = list(zip(*out)) if out else [()] * 5
    return pa.Table.from_arrays([pa.array(c, pa.string()) for c in cols],
                                schema=T.TRIPLE_SCHEMA)


def rows_label_pairs(batch: pa.Table) -> pa.Table:
    """The per-row label walk: first-seen (id, name) over each table's key
    rows, then its key header and other headers."""
    pairs: dict[str, str] = {}
    for rec in batch.to_pylist():
        headers, key_idx = rec["headers"], rec["key_idx"]
        if not rec["has_key"] or key_idx < 0:
            continue
        names = [N.capitalize_words(row[key_idx]) for row in rec["rows"]
                 if row[key_idx] not in ("", "null", "string", None)]
        if names:
            names.append(N.capitalize_words(headers[key_idx]))
            names += [N.capitalize_words(h) for ci, h in enumerate(headers)
                      if ci != key_idx]
        for name in names:
            pairs.setdefault(T.NS + name.replace(" ", ""), name)
    return pa.table({"id": pa.array(list(pairs), pa.string()),
                     "name": pa.array(list(pairs.values()), pa.string())})


def pandas_rewrite_uris(table: pa.Table, mapping: dict) -> pd.DataFrame:
    df = table.to_pandas()
    mapped = df["subj"].map(mapping)
    df["subj"] = mapped.where(mapped.notna(), df["subj"])
    is_uri = df["obj_type"] == "uri"
    if is_uri.any():
        mo = df.loc[is_uri, "obj"].map(mapping)
        df.loc[is_uri, "obj"] = mo.where(mo.notna(), df.loc[is_uri, "obj"])
    return df


# --- capitalize kernel ----------------------------------------------------

_ASCII_TEXT = st.text(
    alphabet=st.sampled_from(list("aAbzZ09-_.'(")
                             + list(" \t\n\r\v\f\x1c\x1d\x1e\x1f")),
    max_size=12)
_UNICODE_TEXT = st.text(
    alphabet=st.sampled_from(list("aß ǆǅéЖж́  日x")),
    max_size=8)
_VALUES = st.lists(st.none() | _ASCII_TEXT | _UNICODE_TEXT, max_size=12)


@settings(max_examples=150, deadline=None)
@given(xs=_VALUES, split=st.integers(0, 12), lo=st.integers(0, 3))
def test_capitalize_kernel_matches_scalar(xs, split, lo):
    expected = [cap(x) for x in xs]
    assert N.capitalize_words_array(pa.array(xs, pa.string())).to_pylist() \
        == expected
    chunked = pa.chunked_array([pa.array(xs[:split], pa.string()),
                                pa.array(xs[split:], pa.string())])
    assert N.capitalize_words_array(chunked).to_pylist() == expected
    sliced = pa.array(["pad"] * lo + xs, pa.string()).slice(lo)
    assert N.capitalize_words_array(sliced).to_pylist() == expected


def test_capitalize_kernel_cases():
    xs = ["ß", "ǆa b", "été x", "  lead trail  ", "a\x1cb\x1fc",
          "a\vb\fc", "", None, "Жук ok", "new york city", "aLpha bEta"]
    assert N.capitalize_words_array(pa.array(xs)).to_pylist() == \
        [cap(x) for x in xs]
    assert N.capitalize_words_array(pa.array(["ß"])).to_pylist() == ["SS"]


# --- triples and labels ---------------------------------------------------

def _tables(seed: int, n_pages: int) -> pa.Table:
    pages = P.generate_pages_batch({"id": np.arange(n_pages)}, seed=seed)
    return TableExtractor()(pa.table({"url": pages["url"],
                                      "html": pages["html"]}))


def _records(recs: list[dict]) -> pa.Table:
    full = [{"table_idx": i, "n_rows": len(r["rows"]), "raw_keys": [],
             "col_types": ["string"] * len(r["headers"]), **r}
            for i, r in enumerate(recs)]
    return pa.Table.from_pylist(full, schema=_TABLE_RECORD_SCHEMA)


EDGE_BATCH = [
    {"url": "http://a/1", "headers": ["name", "home page", "size (km)"],
     "col_types": ["string", "link", "unit"], "key_idx": 0, "has_key": True,
     "rows": [["new york", "http://ny.example", "12 km"],
              ["", "x", "y"], ["null", "x", "y"], ["string", "x", "y"],
              [None, "x", "y"], ["berlin", None, "null"],
              ["new york", "", "see http x"], ["ßtraße", "éa b", "ok"]]},
    {"url": "http://a/2", "headers": ["a", "b", "c"], "key_idx": 1,
     "has_key": False, "rows": [["x", "y", "z"]]},
    {"url": "http://a/3", "headers": ["a", "b", "c"], "key_idx": -1,
     "has_key": True, "rows": [["x", "y", "z"]]},
    {"url": "http://a/4", "headers": ["city", "label"], "key_idx": 1,
     "has_key": True, "rows": [["p", ""], ["q", "null"], ["r", None]]},
    {"url": "http://a/5", "headers": ["city name", "country"], "key_idx": 1,
     "has_key": True, "rows": [["paris", "france"], ["lyon", "france"],
                               ["new york", "usa"]]},
    {"url": "http://a/6", "headers": ["x", "y"], "key_idx": 0,
     "has_key": True, "rows": []},
]


@pytest.mark.parametrize("batch", [
    pytest.param(lambda: _tables(42, 30), id="corpus-seed42"),
    pytest.param(lambda: _tables(11, 30), id="corpus-seed11"),
    pytest.param(lambda: _records(EDGE_BATCH), id="edge-cases"),
    pytest.param(lambda: _records(EDGE_BATCH).slice(3), id="sliced"),
    pytest.param(lambda: pa.concat_tables([_records(EDGE_BATCH[:3]),
                                           _records(EDGE_BATCH[3:])]),
                 id="chunked"),
    pytest.param(lambda: _records([]), id="empty"),
])
def test_triples_and_labels_match_per_row(batch):
    batch = batch()
    got = T.triples_from_tables_batch(batch)
    assert got.equals(rows_triples(batch))
    labels = T.label_pairs_from_tables_batch(batch)
    assert labels.equals(rows_label_pairs(batch))
    # the label pairs are the rdfs:label triples, first per subject
    first: dict[str, str] = {}
    for t in got.to_pylist():
        if t["pred"] == T.RDFS_LABEL:
            first.setdefault(t["subj"], t["obj"])
    assert labels.to_pylist() == [{"id": s, "name": o}
                                  for s, o in first.items()]


def test_ascii_batch_calls_no_scalar_capitalize(monkeypatch):
    batch = _tables(42, 20)
    assert all(v.isascii() for rec in batch.to_pylist()
               for v in rec["headers"] + sum(rec["rows"], []) if v)
    calls = []
    real = N.capitalize_words
    monkeypatch.setattr(N, "capitalize_words",
                        lambda v: calls.append(v) or real(v))
    assert T.triples_from_tables_batch(batch).num_rows > 0
    assert T.label_pairs_from_tables_batch(batch).num_rows > 0
    assert calls == []
    N.capitalize_words_array(pa.array(["ß"]))
    assert calls == ["ß"]


def test_run_full_phase1_bytes_match_per_row(ray_session, in_process,
                                             tmp_path, monkeypatch):
    """A two-shard run over the per-row triplifier and label walk writes
    the same phase-1 partition files, byte for byte, as the kernels (in
    process, so the patched module is the one the shard pass calls)."""
    corpus = str(tmp_path / "corpus")
    P.write_corpus(corpus, n_pages=60, seed=42, parallelism=2)
    new, old = str(tmp_path / "new"), str(tmp_path / "old")
    kg.run_full(corpus, new, num_shards=2, partitions_per_shard=2,
                canonicalize=False)
    monkeypatch.setattr(T, "triples_from_tables_batch", rows_triples)
    monkeypatch.setattr(T, "label_pairs_from_tables_batch", rows_label_pairs)
    kg.run_full(corpus, old, num_shards=2, partitions_per_shard=2,
                canonicalize=False)
    files = sorted(os.path.relpath(f, new) for f in glob.glob(
        os.path.join(new, "shard=*", "**", "*.parquet"), recursive=True)
        if "part=" in f)
    assert {f.split("/")[0] for f in files} == {"shard=00000", "shard=00001"}
    assert files == sorted(os.path.relpath(f, old) for f in glob.glob(
        os.path.join(old, "shard=*", "**", "*.parquet"), recursive=True)
        if "part=" in f)
    for f in files:
        assert filecmp.cmp(os.path.join(new, f), os.path.join(old, f),
                           shallow=False), f


# --- MinHash signatures ---------------------------------------------------

def _stacked(mh, docs):
    return np.stack([mh.signature(h) for h in docs]) if docs else \
        np.empty((0, mh.num_perm), dtype=np.uint64)


def test_signatures_equal_per_document():
    mh = hashing.MinHasher(num_perm=16)
    rng = np.random.default_rng(3)
    h = [hashing.hash64([f"t{j}" for j in rng.integers(0, 50, size=k)])
         for k in (3, 0, 7, 1, 0, 12, 2, 0)]
    # h goes in three slices of at most 12 tokens (its longest document);
    # the second list's documents are longer than the list, one slice each
    # or two
    cases = [
        [], [np.empty(0, dtype=np.uint64)] * 3, h,
        [h[5], h[2], h[0], h[5]],
        [hashing.hash64(["only"]) for _ in range(5)],
    ]
    for docs in cases:
        assert np.array_equal(mh.signatures(docs), _stacked(mh, docs))
    texts = ["the quick brown fox jumps over the lazy dog", "", None,
             "a b", "one two three four five six seven eight nine ten"]
    docs = [hashing.word_shingle_hashes((t or "").split(), 3) for t in texts]
    mh128 = hashing.MinHasher(num_perm=128)
    assert np.array_equal(mh128.signatures(docs), _stacked(mh128, docs))


# --- URI rewrite ----------------------------------------------------------

def test_rewrite_uris_matches_pandas():
    u = "http://table.searchjoins.de/"
    table = pa.table({
        "subj": [u + "A", u + "B", u + "C", None, u + "A"],
        "pred": ["p"] * 5,
        "obj": [u + "B", u + "A", None, u + "B", "lit"],
        "obj_type": ["uri", "string", "uri", "uri", None],
        "source_url": ["s"] * 5,
    })
    for mapping in ({u + "A": u + "Z", u + "B": u + "Y"}, {}):
        got = C.rewrite_uris(table, C.mapping_arrays(mapping))
        assert got.schema == table.schema
        pd.testing.assert_frame_equal(got.to_pandas(),
                                      pandas_rewrite_uris(table, mapping))
    got = C.rewrite_uris(table, C.mapping_arrays({u + "A": u + "Z"}))
    # a literal whose text equals a mapped URI stays as it is
    assert got.column("obj").to_pylist()[1] == u + "A"
