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

The reference triplifies one cell at a time; here a batch of table records
is triplified set-at-a-time over its Arrow columns.  ``rows`` is flattened
twice (table → row → cell) and the key cell of each row taken by position;
the key and object filters, the "http" test and the URI building are
compute kernels, and the capitalization is ``capitalize_words_array`` (a
numpy pass over ASCII values' bytes; the scalar ``capitalize_words`` only
for non-ASCII values).  Predicate URIs and literal tags are computed once
per distinct header and column type.  Every output row's position is
computed up front (per table: each key row's type, label and cells, then
the declarations), so each output column is ONE ``take``.  The label pairs
share the key-row and header step and skip the cells.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.normalize import (
    capitalize_words,
    capitalize_words_array,
    get_human_header,
)

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
LABEL_SCHEMA = pa.schema([("id", pa.string()), ("name", pa.string())])


def subject_uri(normalized_key: str) -> str:
    return NS + capitalize_words(normalized_key).replace(" ", "")


def predicate_uri(clean_header: str) -> str:
    return NS + _BRACKETS_RE.sub("", get_human_header(clean_header).replace(" ", ""))


_NO_KEY = pa.array(["", "null", "string"])
_NO_OBJECT = pa.array(["", "null"])
_DECL_TYPES = pa.array([OWL_CLASS, OWL_DATATYPE_PROPERTY])


def _ranks(sizes: np.ndarray) -> np.ndarray:
    """Position of every element within its group, for consecutive groups
    of ``sizes`` elements (a flattened list column: position in its list)."""
    return np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes,
                                                   sizes)


def _lengths(lists) -> np.ndarray:
    return pc.fill_null(pc.list_value_length(lists), 0).to_numpy() \
        .astype(np.int64)


def _present(values: pa.Array, absent: pa.Array) -> np.ndarray:
    """Mask of the values that are neither null nor one of ``absent``."""
    return ~(values.is_null().to_numpy(zero_copy_only=False)
             | pc.is_in(values, value_set=absent).to_numpy(
                 zero_copy_only=False))


def _uris(caps: pa.Array) -> pa.Array:
    """NS + each capitalized value without its spaces."""
    return pc.binary_join_element_wise(NS, pc.replace_substring(caps, " ", ""),
                                       "")


class _Keyed(NamedTuple):
    """The key rows and declared headers of a table-record batch, the part
    the triples and the label pairs share.  A table counts when it has a
    key; a key row is a row of such a table whose key cell is not null,
    ``""``, ``"null"`` or ``"string"``; a table with a key row declares its
    headers: the key header (its class) first, then the others in column
    order.  Reads ``headers``, ``key_idx``, ``has_key`` and ``rows``."""
    key_idx: np.ndarray     # per table, -1 when it has none
    hdr_len: np.ndarray     # per table
    hdr_start: np.ndarray   # per table: its first header's flat index
    headers: pa.Array       # every header, flattened
    row_len: np.ndarray     # per flattened row
    cells: pa.Array         # every cell, flattened
    key_row: np.ndarray     # flattened row index of each key row
    key_table: np.ndarray   # table of each key row (ascending)
    key_cap: pa.Array       # capitalized key cell of each key row
    subj: pa.Array          # subject URI of each key row
    tables: np.ndarray      # the tables with a key row (ascending)
    decl_table: np.ndarray  # table of each declared header (ascending)
    decl_rank: np.ndarray   # its place in its table's declarations
    decl_cap: pa.Array      # capitalized header
    decl_uri: pa.Array      # class or property URI


def _keyed(batch: pa.Table) -> _Keyed:
    key_idx = pc.fill_null(batch.column("key_idx"), -1).to_numpy() \
        .astype(np.int64)
    has_key = pc.fill_null(batch.column("has_key"), False).to_numpy()
    headers = batch.column("headers").combine_chunks()
    hdr_len = _lengths(headers)
    keyed_table = has_key & (key_idx >= 0) & (key_idx < hdr_len)
    rows = batch.column("rows").combine_chunks()
    row_table = np.repeat(np.arange(len(rows)), _lengths(rows))
    row_lists = pc.list_flatten(rows)
    row_len = _lengths(row_lists)
    cells = pc.list_flatten(row_lists)

    kt = key_idx[row_table]
    cand = np.flatnonzero(keyed_table[row_table] & (kt < row_len))
    key_vals = cells.take(np.cumsum(row_len)[cand] - row_len[cand] + kt[cand])
    ok = _present(key_vals, _NO_KEY)
    key_row = cand[ok]
    key_table = row_table[key_row]
    key_cap = capitalize_words_array(key_vals.filter(pa.array(ok)))
    tables = np.unique(key_table)

    has_rows = np.zeros(len(key_idx), dtype=bool)
    has_rows[tables] = True
    hdr_table = np.repeat(np.arange(len(hdr_len)), hdr_len)
    hdr_col = _ranks(hdr_len)
    sel = np.flatnonzero(has_rows[hdr_table])
    decl = sel[np.lexsort((hdr_col[sel],
                           hdr_col[sel] != key_idx[hdr_table[sel]],
                           hdr_table[sel]))]
    flat_headers = pc.list_flatten(headers)
    decl_cap = capitalize_words_array(flat_headers.take(decl))
    return _Keyed(
        key_idx=key_idx, hdr_len=hdr_len, hdr_start=np.cumsum(hdr_len) - hdr_len,
        headers=flat_headers, row_len=row_len, cells=cells,
        key_row=key_row, key_table=key_table, key_cap=key_cap,
        subj=_uris(key_cap), tables=tables, decl_table=hdr_table[decl],
        decl_rank=_ranks(hdr_len[tables]), decl_cap=decl_cap,
        decl_uri=_uris(decl_cap))


def _layout(k: _Keyed, row_size: np.ndarray,
            block_size: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Where each key row's output and each table's declaration block start
    when every table emits its key rows (``row_size`` rows each) and then
    its block (``block_size`` rows per table of ``k.tables``) → (row
    starts, block starts, total rows)."""
    table = np.concatenate([k.key_table, k.tables])
    kind = np.repeat([0, 1], [len(k.key_table), len(k.tables)])
    order = np.lexsort((kind, table))  # stable: key rows keep their order
    size = np.concatenate([row_size, block_size]).astype(np.int64)[order]
    start = np.empty(len(table), dtype=np.int64)
    start[order] = np.cumsum(size) - size
    return start[:len(k.key_table)], start[len(k.key_table):], int(size.sum())


class _Columns:
    """Output columns assembled by position: a column's rows come from
    several source arrays, and the column is ONE ``take`` from their
    concatenation."""

    def __init__(self, n: int):
        self.n = n
        self.parts: dict[str, list] = {}

    def put(self, pos: np.ndarray, **cols) -> None:
        """Rows ``pos`` of each named column: a constant string, an array
        of len(pos) values, or (source array, indices into it)."""
        for name, v in cols.items():
            if isinstance(v, str):
                v = (pa.array([v]), np.zeros(len(pos), dtype=np.int64))
            elif not isinstance(v, tuple):
                v = (v, np.arange(len(v)))
            self.parts.setdefault(name, []).append((pos, *v))

    def table(self, schema: pa.Schema) -> pa.Table:
        cols = []
        for name in schema.names:
            idx = np.empty(self.n, dtype=np.int64)
            base, sources = 0, []
            for pos, values, take in self.parts[name]:
                idx[pos] = base + take
                base += len(values)
                sources.append(values)
            cols.append(pa.concat_arrays(sources).take(idx))
        return pa.Table.from_arrays(cols, schema=schema)


def _per_distinct(values: pa.Array, fn) -> tuple[pa.Array, np.ndarray]:
    """``fn`` once per distinct value → (results, index of each value's
    result)."""
    enc = pc.dictionary_encode(values)
    return (pa.array([fn(v) for v in enc.dictionary.to_pylist()], pa.string()),
            enc.indices.to_numpy(zero_copy_only=False).astype(np.int64))


def triples_from_tables_batch(batch: pa.Table) -> pa.Table:
    """Table-record batch (stages.extract._TABLE_RECORD_SCHEMA) → triples,
    per table: each key row's rdf:type, rdfs:label and cell triples, then
    the class and property declarations."""
    k = _keyed(batch)
    if not len(k.key_row):
        return TRIPLE_SCHEMA.empty_table()
    urls = batch.column("url").combine_chunks()
    # the non-key cells of the key rows that hold a value
    ordinal = np.full(len(k.row_len), -1)
    ordinal[k.key_row] = np.arange(len(k.key_row))
    cell_row = np.repeat(np.arange(len(k.row_len)), k.row_len)
    cell_col = _ranks(k.row_len)
    cell_key = ordinal[cell_row]
    cand = np.flatnonzero(cell_key >= 0)
    cand = cand[cell_col[cand] != k.key_idx[k.key_table[cell_key[cand]]]]
    vals = k.cells.take(cand)
    ok = _present(vals, _NO_OBJECT)
    cand, vals = cand[ok], vals.filter(pa.array(ok))
    c_key = cell_key[cand]
    c_table = k.key_table[c_key]
    if (cell_col[cand] >= k.hdr_len[c_table]).any():
        raise ValueError("a table row holds more cells than its headers")
    n_cells = np.bincount(c_key, minlength=len(k.key_row))

    blocks = k.hdr_len[k.tables]
    row_at, block_at, n = _layout(k, 2 + n_cells, 2 * blocks)
    out = _Columns(n)
    classes = np.flatnonzero(k.decl_rank == 0)  # one per table of k.tables
    out.put(row_at, subj=k.subj, pred=RDF_TYPE, obj_type="uri",
            obj=(k.decl_uri, classes[np.searchsorted(k.tables, k.key_table)]),
            source_url=(urls, k.key_table))
    out.put(row_at + 1, subj=k.subj, pred=RDFS_LABEL, obj=k.key_cap,
            obj_type="string", source_url=(urls, k.key_table))

    # cell triples: predicate and literal tag per header, any object holding
    # "http" a URI, every other object capitalized
    c_pos = row_at[c_key] + 2 + _ranks(n_cells)
    c_hdr = k.hdr_start[c_table] + cell_col[cand]
    preds, pred_of = _per_distinct(k.headers, predicate_uri)
    tags, tag_of = _per_distinct(
        pc.list_flatten(batch.column("col_types").combine_chunks()),
        lambda t: _TYPE_TO_OBJ_TYPE.get(t, "string"))
    out.put(c_pos, subj=(k.subj, c_key), pred=(preds, pred_of[c_hdr]),
            source_url=(urls, c_table))
    http = pc.match_substring(vals, "http").to_numpy(zero_copy_only=False)
    out.put(c_pos[http], obj=(vals, np.flatnonzero(http)), obj_type="uri")
    lit = ~http
    out.put(c_pos[lit], obj=capitalize_words_array(vals.filter(pa.array(lit))),
            obj_type=(tags, tag_of[c_hdr[lit]]))

    # declarations: the class, then each property, as rdf:type + rdfs:label
    d_pos = block_at[np.searchsorted(k.tables, k.decl_table)] \
        + 2 * k.decl_rank
    out.put(d_pos, subj=k.decl_uri, pred=RDF_TYPE, obj_type="uri",
            obj=(_DECL_TYPES, (k.decl_rank > 0).astype(np.int64)),
            source_url=(urls, k.decl_table))
    out.put(d_pos + 1, subj=k.decl_uri, pred=RDFS_LABEL, obj=k.decl_cap,
            obj_type="string", source_url=(urls, k.decl_table))
    return out.table(TRIPLE_SCHEMA)


def label_pairs_from_tables_batch(batch: pa.Table) -> pa.Table:
    """Table records → distinct (id, name) label pairs — exactly the
    (subj, rdfs:label obj) pairs ``triples_from_tables_batch`` emits, first
    seen first, produced as a cheap SIDE OUTPUT during phase 1 so
    canonicalization never has to re-scan the full triple set to find
    labels."""
    k = _keyed(batch)
    row_at, block_at, n = _layout(k, np.ones(len(k.key_row), dtype=np.int64),
                                  k.hdr_len[k.tables])
    out = _Columns(n)
    out.put(row_at, id=k.subj, name=k.key_cap)
    out.put(block_at[np.searchsorted(k.tables, k.decl_table)] + k.decl_rank,
            id=k.decl_uri, name=k.decl_cap)
    pairs = out.table(LABEL_SCHEMA)
    # dictionary codes number the ids in first-seen order
    codes = pc.dictionary_encode(pairs.column("id").combine_chunks()).indices
    _, first = np.unique(codes.to_numpy(zero_copy_only=False),
                         return_index=True)
    return pairs.take(np.sort(first))


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
