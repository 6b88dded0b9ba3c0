"""Triplification: processed table records → (subj, pred, obj, obj_type, source_url).

Behavioral port of Triplifier.triplifyTable / makeTriple / addBrackets
(SJ/IO/Triplifier.java:31-159), emitted as an Arrow triple table instead of
N-Triples text lines (the N-Triples rendering lives in ``format_ntriple`` for
the text sink):

  * key cell → subject URI: NS + WordUtils.capitalize(value).replace(" ","")
    over the normalized (lowercased) cell;
  * per subject: rdf:type → class URI (from the key column header) and
    rdfs:label → capitalized key value;
  * one triple per non-key cell; predicate = NS + getHumanHeader(header)
    without spaces/bracket content (note: NOT capitalized — the reference
    asymmetry between cell predicates and property declarations is kept);
  * per table: class declaration (rdf:type owl#Class + rdfs:label) and
    property declarations (rdf:type owl#DatatypeProperty + rdfs:label) with
    WordUtils.capitalize(header);
  * literal objects re-capitalized (addBrackets :144), typed by column type:
    numeric/coordinate/unit → float, date → date, bool → boolean,
    string/list → string(@en); any object containing "http" becomes a URI;
  * key values equal to "string" are skipped (:57-58, a reference quirk kept
    for parity); null/empty objects are skipped (sane divergence from the
    reference's literal "null" lines).

Divergences (documented per SURVEY §2.6): none material to (s,p,o) content.
"""

from __future__ import annotations

import re

import pyarrow as pa

from ..functions.normalize import capitalize_words, get_human_header

NS = "http://table.searchjoins.de/"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"
OWL_CLASS = "http://www.w3.org/2002/07/owl#Class"
OWL_DATATYPE_PROPERTY = "http://www.w3.org/2002/07/owl#DatatypeProperty"

_BRACKETS_RE = re.compile(r"\(.*\)")

_TYPE_TO_OBJ_TYPE = {
    "numeric": "float", "coordinate": "float", "unit": "float",
    "date": "date", "bool": "boolean",
    "string": "string", "list": "string", "unknown": "string", "link": "string",
}

TRIPLE_SCHEMA = pa.schema([
    ("subj", pa.string()),
    ("pred", pa.string()),
    ("obj", pa.string()),
    ("obj_type", pa.string()),
    ("source_url", pa.string()),
])


def subject_uri(normalized_key: str) -> str:
    return NS + capitalize_words(normalized_key).replace(" ", "")


def predicate_uri(clean_header: str) -> str:
    return NS + _BRACKETS_RE.sub("", get_human_header(clean_header).replace(" ", ""))


def triples_from_tables_batch(batch: pa.Table) -> pa.Table:
    """Table-record batch (stages.extract._TABLE_RECORD_SCHEMA) → triples."""
    cols = {name: [] for name in TRIPLE_SCHEMA.names}
    s_out, p_out, o_out, t_out, u_out = (
        cols["subj"], cols["pred"], cols["obj"], cols["obj_type"], cols["source_url"],
    )

    urls = batch.column("url").to_pylist()
    headers_col = batch.column("headers").to_pylist()
    types_col = batch.column("col_types").to_pylist()
    key_idx_col = batch.column("key_idx").to_pylist()
    has_key_col = batch.column("has_key").to_pylist()
    rows_col = batch.column("rows").to_pylist()

    for url, headers, col_types, key_idx, has_key, rows in zip(
        urls, headers_col, types_col, key_idx_col, has_key_col, rows_col
    ):
        if not has_key or key_idx < 0:
            continue
        key_header = headers[key_idx]
        class_label = capitalize_words(key_header)
        class_uri = NS + class_label.replace(" ", "")

        # precompute per-column predicate URIs + literal tags once per table
        # (the reference recomputes these per cell — hot-path no-no)
        preds = [predicate_uri(h) for h in headers]
        tags = [_TYPE_TO_OBJ_TYPE.get(t, "string") for t in col_types]

        seen_key = False
        for row in rows:
            key_norm = row[key_idx]
            if key_norm in ("", "null", "string") or key_norm is None:
                continue
            seen_key = True
            # capitalize once per key cell — subject_uri and the rdfs:label
            # object share the same capitalized form
            key_cap = capitalize_words(key_norm)
            subj = NS + key_cap.replace(" ", "")
            s_out.append(subj); p_out.append(RDF_TYPE)
            o_out.append(class_uri); t_out.append("uri"); u_out.append(url)
            s_out.append(subj); p_out.append(RDFS_LABEL)
            o_out.append(key_cap); t_out.append("string"); u_out.append(url)
            for ci, obj in enumerate(row):
                if ci == key_idx or obj is None or obj in ("", "null"):
                    continue
                s_out.append(subj); p_out.append(preds[ci]); u_out.append(url)
                if "http" in obj:
                    o_out.append(obj); t_out.append("uri")
                else:
                    o_out.append(capitalize_words(obj)); t_out.append(tags[ci])

        if seen_key:
            s_out.append(class_uri); p_out.append(RDF_TYPE)
            o_out.append(OWL_CLASS); t_out.append("uri"); u_out.append(url)
            s_out.append(class_uri); p_out.append(RDFS_LABEL)
            o_out.append(class_label); t_out.append("string"); u_out.append(url)
            for ci, h in enumerate(headers):
                if ci == key_idx:
                    continue
                h_cap = capitalize_words(h)
                prop = NS + h_cap.replace(" ", "")
                s_out.append(prop); p_out.append(RDF_TYPE)
                o_out.append(OWL_DATATYPE_PROPERTY); t_out.append("uri"); u_out.append(url)
                s_out.append(prop); p_out.append(RDFS_LABEL)
                o_out.append(h_cap); t_out.append("string"); u_out.append(url)

    return pa.Table.from_pydict(cols, schema=TRIPLE_SCHEMA)


def label_pairs_from_tables_batch(batch: pa.Table) -> pa.Table:
    """Table records → distinct (id, name) label pairs — exactly the
    (subj, rdfs:label obj) pairs ``triples_from_tables_batch`` emits, produced
    as a cheap SIDE OUTPUT during phase 1 so canonicalization never has to
    re-scan the full triple set to find labels."""
    ids: list[str] = []
    names: list[str] = []
    seen: set[str] = set()

    def emit(uri: str, name: str) -> None:
        if uri not in seen:
            seen.add(uri)
            ids.append(uri)
            names.append(name)

    headers_col = batch.column("headers").to_pylist()
    key_idx_col = batch.column("key_idx").to_pylist()
    has_key_col = batch.column("has_key").to_pylist()
    rows_col = batch.column("rows").to_pylist()
    for headers, key_idx, has_key, rows in zip(
        headers_col, key_idx_col, has_key_col, rows_col
    ):
        if not has_key or key_idx < 0:
            continue
        key_header = headers[key_idx]
        seen_key = False
        for row in rows:
            key_norm = row[key_idx]
            if key_norm in ("", "null", "string") or key_norm is None:
                continue
            seen_key = True
            key_cap = capitalize_words(key_norm)
            emit(NS + key_cap.replace(" ", ""), key_cap)
        if seen_key:
            kh_cap = capitalize_words(key_header)
            emit(NS + kh_cap.replace(" ", ""), kh_cap)
            for ci, h in enumerate(headers):
                if ci != key_idx:
                    h_cap = capitalize_words(h)
                    emit(NS + h_cap.replace(" ", ""), h_cap)
    return pa.table({"id": pa.array(ids, pa.string()),
                     "name": pa.array(names, pa.string())})


# ---------------------------------------------------------------------------
# N-Triples text rendering (Triplifier.makeTriple/addBrackets :116-159)
# ---------------------------------------------------------------------------

_SUFFIX = {
    "float": "^^<http://www.w3.org/2001/XMLSchema#float>",
    "date": "^^<http://www.w3.org/2001/XMLSchema#date>",
    "boolean": "^^<http://www.w3.org/2001/XMLSchema#boolean>",
    "string": "@en",
}


def format_ntriple(subj: str, pred: str, obj: str, obj_type: str) -> str:
    if obj_type == "uri" or "http" in obj:
        obj_s = f"<{obj}>"
    else:
        obj_s = f'"{obj}"{_SUFFIX.get(obj_type, "@en")}'
    return f"<{subj}> <{pred}> {obj_s} ."
