"""Extraction stage: HTML → boilerplate-stripped text, HTML → processed tables.

Replaces the reference's file readers + HtmlContextExtractor
(SJ/IO/ConvertFileToTable.java:743-931 readWebTableForIndexing;
SJ/infogather/preprocessing/HtmlContextExtractor.java:10-85) with one
stdlib-``html.parser`` pass per page inside ``map_batches``.

Text-extraction contract (the byte-identical-per-url invariant, BASELINE.md):
  * <script>/<style>/<head>/<nav>/<footer> subtrees are dropped (boilerplate);
  * block elements (p, h1-h6, li, div, table rows) emit one line each;
  * table rows are the tab-join of their cells;
  * whitespace runs inside a block collapse to single spaces; entities decode;
  * blocks join with '\n'.

Table-processing semantics (reference parity):
  * headers from the first <th> row, else the first row; cleaned with
    clean_web_header (:1355-1375); all-null header rows skipped (:804-806);
  * validity: >= min_cols (3) columns and >= min_rows (5) rows (:1311-1319);
  * cell values normalized with simple_string_normalization (:1327-1353);
  * per-column type = majority vote of per-value guesses
    (TableColumn.setFinalDataType) with the bool demotion check;
  * key identification per TableKeyIdentifier.identifyKeysNaive (:62-162):
    header containing '#label' wins, else 'name'/'label' (not '_label'), else
    the most-unique column with average value length in (3, 50]; the table
    has NO key when the best uniqueness < key_uniqueness (0.6).
"""

from __future__ import annotations

from dataclasses import dataclass
from html.parser import HTMLParser

import pyarrow as pa

from ..config import NULL_VALUE, DEFAULT_CONFIG, PipelineConfig
from ..functions.normalize import clean_web_header, simple_string_normalization
from ..functions.typeguess import vote_column_type

_SKIP_TAGS = frozenset({"script", "style", "head", "nav", "footer"})
# the only tags whose handlers have observable effects when
# collect_text=False (skip-depth tracking + table state); block tags only
# flush an always-empty text buffer there — see _fast_feed
_TABLES_RELEVANT = _SKIP_TAGS | {"table", "tr", "td", "th"}
_BLOCK_TAGS = frozenset({
    "p", "h1", "h2", "h3", "h4", "h5", "h6", "li", "div", "table",
    "ul", "ol", "br", "section", "article",
})


def _collapse(s: str) -> str:
    return " ".join(s.split())


class _PageParser(HTMLParser):
    """One-pass extraction of both the text blocks and the raw tables.

    ``collect_text=False`` skips every text-block buffer append/collapse —
    the table-extraction path pays none of the prose-handling cost (the
    extract stage dominates the e2e pipeline; see BASELINE.md)."""

    def __init__(self, collect_text: bool = True) -> None:
        super().__init__(convert_charrefs=True)
        self.collect_text = collect_text
        self.skip_depth = 0
        self.blocks: list[str] = []
        self._buf: list[str] = []
        # table state (supports sequential tables; nested tables flatten)
        self.tables: list[list[list[str]]] = []  # table -> row -> cells
        self._table_depth = 0
        self._row: list[str] | None = None
        self._cell: list[str] | None = None
        self._row_has_th = False

    # -- helpers --
    def _flush_block(self) -> None:
        if self._buf:
            text = _collapse("".join(self._buf))
            if text:
                self.blocks.append(text)
            self._buf = []

    # -- HTMLParser hooks --
    def handle_starttag(self, tag: str, attrs) -> None:
        if tag in _SKIP_TAGS:
            self.skip_depth += 1
            return
        if self.skip_depth:
            return
        if tag == "table":
            self._flush_block()
            self._table_depth += 1
            if self._table_depth == 1:
                self.tables.append([])
            return
        if self._table_depth:
            if tag == "tr":
                self._row = []
                self._row_has_th = False
            elif tag in ("td", "th"):
                self._cell = []
                if tag == "th":
                    self._row_has_th = True
            return
        if tag in _BLOCK_TAGS:
            self._flush_block()

    def handle_endtag(self, tag: str) -> None:
        if tag in _SKIP_TAGS:
            self.skip_depth = max(0, self.skip_depth - 1)
            return
        if self.skip_depth:
            return
        if self._table_depth:
            if tag in ("td", "th"):
                if self._row is not None and self._cell is not None:
                    self._row.append(_collapse("".join(self._cell)))
                self._cell = None
            elif tag == "tr":
                if self._row is not None:
                    if self.tables:
                        self.tables[-1].append(self._row)
                    if self.collect_text:
                        line = "\t".join(self._row)
                        if line.strip():
                            self.blocks.append(line)
                self._row = None
            elif tag == "table":
                self._table_depth = max(0, self._table_depth - 1)
            return
        if tag in _BLOCK_TAGS:
            self._flush_block()

    def handle_data(self, data: str) -> None:
        if self.skip_depth:
            return
        if self._table_depth:
            if self._cell is not None:
                self._cell.append(data)
            return
        if self.collect_text:
            self._buf.append(data)

    def close(self) -> None:  # noqa: D102
        super().close()
        self._flush_block()


@dataclass
class RawTable:
    headers: list[str]
    rows: list[list[str]]


class _TableFlagParser(_PageParser):
    """_PageParser plus per-table header-row flags.

    The handlers re-state the _PageParser logic inline (with the flag
    bookkeeping woven in) instead of delegating via super(): the two-layer
    dispatch cost two extra Python calls per tag event in the pipeline's
    hottest loop.  Behavior is pinned identical by the fast-feed equivalence
    tests, the byte-identical text goldens and the triple-parity goldens."""

    def __init__(self, collect_text: bool = True) -> None:
        super().__init__(collect_text=collect_text)
        self.table_flags: list[list[bool]] = []

    def handle_starttag(self, tag, attrs) -> None:
        if tag in _SKIP_TAGS:
            self.skip_depth += 1
            return
        if self.skip_depth:
            return
        if tag == "table":
            if self._table_depth == 0:
                self.table_flags.append([])
            self._flush_block()
            self._table_depth += 1
            if self._table_depth == 1:
                self.tables.append([])
            return
        if self._table_depth:
            if tag == "tr":
                self._row = []
                self._row_has_th = False
            elif tag in ("td", "th"):
                self._cell = []
                if tag == "th":
                    self._row_has_th = True
            return
        if tag in _BLOCK_TAGS:
            self._flush_block()

    def handle_endtag(self, tag) -> None:
        if tag in _SKIP_TAGS:
            self.skip_depth = max(0, self.skip_depth - 1)
            return
        if self.skip_depth:
            return
        if self._table_depth:
            if tag in ("td", "th"):
                if self._row is not None and self._cell is not None:
                    self._row.append(_collapse("".join(self._cell)))
                self._cell = None
            elif tag == "tr":
                if self._row is not None:
                    if self.table_flags:
                        self.table_flags[-1].append(self._row_has_th)
                    if self.tables:
                        self.tables[-1].append(self._row)
                    if self.collect_text:
                        line = "\t".join(self._row)
                        if line.strip():
                            self.blocks.append(line)
                self._row = None
            elif tag == "table":
                self._table_depth = max(0, self._table_depth - 1)
            return
        if tag in _BLOCK_TAGS:
            self._flush_block()


import re as _re

# ---------------------------------------------------------------------------
# Fast event feeder: html.parser's goahead/parse_starttag/parse_endtag
# boundary semantics (convert_charrefs=True), re-implemented without the
# line/column bookkeeping (updatepos), attribute materialization (the
# extractor never reads attrs) and no-op handler dispatch (comments, PIs,
# declarations).  Uses the STDLIB'S OWN boundary regexes so tag limits are
# byte-identical; equivalence with HTMLParser.feed is pinned by
# test_fast_feed_equivalence over both corpora plus an adversarial battery.
# Measured ~2× on the extract stage (the pipeline's largest phase).
# ---------------------------------------------------------------------------

from html import unescape as _unescape
from html.parser import (
    endtagfind as _endtagfind,
    locatestarttagend_tolerant as _locatestart,
    tagfind_tolerant as _tagfind,
)

import _markupbase as _mb

_COMMENT_CLOSE = _re.compile(r"--\s*>")
_CDATA_CLOSE = {
    "script": _re.compile(r"</\s*script\s*>", _re.IGNORECASE),
    "style": _re.compile(r"</\s*style\s*>", _re.IGNORECASE),
}
_ATTRFIND = __import__("html.parser", fromlist=["attrfind_tolerant"]) \
    .attrfind_tolerant
_DECLNAME = _re.compile(r"[a-zA-Z][-_.a-zA-Z0-9]*\s*")


def _check_whole_start_tag(rawdata: str, i: int) -> int:
    """HTMLParser.check_for_whole_start_tag with end-of-input (-1) meaning
    'incomplete at EOF' (we always feed the whole document)."""
    m = _locatestart.match(rawdata, i)
    if m:
        j = m.end()
        nxt = rawdata[j:j + 1]
        if nxt == ">":
            return j + 1
        if nxt == "/":
            if rawdata.startswith("/>", j):
                return j + 2
            if rawdata.startswith("/", j):
                return -1
            return j if j > i else i + 1
        if nxt == "":
            return -1
        if nxt in ("abcdefghijklmnopqrstuvwxyz=/"
                   "ABCDEFGHIJKLMNOPQRSTUVWXYZ"):
            return -1
        return j if j > i else i + 1
    raise AssertionError("we should not get here!")


def _eof_tail(rawdata: str, i: int) -> int:
    """goahead(end=1) fallback for a construct left incomplete at EOF:
    everything through the next '>' (else to the next '<', else one char)
    becomes data."""
    k = rawdata.find(">", i + 1)
    if k < 0:
        k = rawdata.find("<", i + 1)
        if k < 0:
            k = i + 1
    else:
        k += 1
    return k


def _fast_feed(p: "_PageParser", rawdata: str) -> None:
    """Drive ``p``'s handle_starttag/handle_endtag/handle_data with the same
    event stream ``HTMLParser(convert_charrefs=True).feed + close`` produces.
    The parser object is only used for its three handlers.

    Tables-only parsers (``collect_text=False``) observe ONLY the tags in
    ``_TABLES_RELEVANT`` — every other handler invocation is a no-op by
    construction (block flushes hit an always-empty buffer; data outside a
    cell is dropped), so the hot loop skips the calls (and the unescape +
    slice for prose runs) entirely.  Equivalence with the stdlib feed is
    pinned for BOTH parser configurations."""
    n = len(rawdata)
    i = 0
    handle_data = p.handle_data
    handle_start = p.handle_starttag
    handle_end = p.handle_endtag
    find = rawdata.find
    startswith = rawdata.startswith
    # None → deliver everything (text-collecting parser)
    relevant = None if p.collect_text else _TABLES_RELEVANT
    while i < n:
        j = find("<", i)
        if j < 0:
            j = n
        if i < j:
            if relevant is None or (p._cell is not None
                                    and not p.skip_depth):
                data = rawdata[i:j]
                handle_data(_unescape(data) if "&" in data else data)
            i = j
        if i >= n:
            break
        c = rawdata[i + 1: i + 2]
        if c and ("a" <= c <= "z" or "A" <= c <= "Z"):
            endpos = _check_whole_start_tag(rawdata, i)
            if endpos < 0:
                k = _eof_tail(rawdata, i)
                data = rawdata[i:k]
                handle_data(_unescape(data) if "&" in data else data)
                i = k
                continue
            m = _tagfind.match(rawdata, i + 1)
            tag = m.group(1).lower()
            # walk the attr grammar only to locate parse_starttag's `end`
            # token (values are never materialized or unescaped)
            k = m.end()
            while k < endpos:
                am = _ATTRFIND.match(rawdata, k)
                if not am:
                    break
                k = am.end()
            end_tok = rawdata[k:endpos].strip()
            if end_tok not in (">", "/>"):
                handle_data(rawdata[i:endpos])
                i = endpos
                continue
            if end_tok == "/>":
                if relevant is None or tag in relevant:
                    handle_start(tag, [])
                    handle_end(tag)
            else:
                if relevant is None or tag in relevant:
                    handle_start(tag, [])
                cd = _CDATA_CLOSE.get(tag)
                if cd is not None:
                    mm = cd.search(rawdata, endpos)
                    if mm is None:
                        # unterminated cdata: html.parser leaves it buffered
                        # forever (never delivered) — drop it identically
                        return
                    if mm.start() > endpos:
                        handle_data(rawdata[endpos:mm.start()])  # raw
                    handle_end(tag)
                    i = mm.end()
                    continue
            i = endpos
        elif c == "/":
            gt = find(">", i + 1)
            if gt < 0:
                k = _eof_tail(rawdata, i)
                data = rawdata[i:k]
                handle_data(_unescape(data) if "&" in data else data)
                i = k
                continue
            m = _endtagfind.match(rawdata, i)
            if m:
                tag = m.group(1).lower()
                if relevant is None or tag in relevant:
                    handle_end(tag)
                i = m.end()
                continue
            m2 = _tagfind.match(rawdata, i + 2)
            if m2:
                tag = m2.group(1).lower()
                if relevant is None or tag in relevant:
                    handle_end(tag)
                i = find(">", m2.end()) + 1
                continue
            if startswith("</>", i):
                i += 3
            else:
                i = gt + 1            # bogus comment to '>'
        elif startswith("<!--", i):
            mm = _COMMENT_CLOSE.search(rawdata, i + 4)
            if mm is None:
                k = _eof_tail(rawdata, i)
                data = rawdata[i:k]
                handle_data(_unescape(data) if "&" in data else data)
                i = k
                continue
            i = mm.end()
        elif c == "?":
            gt = find(">", i + 2)
            if gt < 0:
                k = _eof_tail(rawdata, i)
                data = rawdata[i:k]
                handle_data(_unescape(data) if "&" in data else data)
                i = k
                continue
            i = gt + 1
        elif c == "!":
            if startswith("<![", i):
                nm = _DECLNAME.match(rawdata, i + 3)
                sect = nm.group().strip().lower() if nm else None
                if sect in {"temp", "cdata", "ignore", "include", "rcdata"}:
                    mm = _mb._markedsectionclose.search(rawdata, i + 3)
                elif sect in {"if", "else", "endif"}:
                    mm = _mb._msmarkedsectionclose.search(rawdata, i + 3)
                else:
                    raise AssertionError(
                        "unknown status keyword %r in marked section"
                        % rawdata[i + 3:i + 3 + 8])
                if mm is None:
                    k = _eof_tail(rawdata, i)
                    data = rawdata[i:k]
                    handle_data(_unescape(data) if "&" in data else data)
                    i = k
                    continue
                i = mm.end()
            else:
                # doctype and bogus comments both end at the next '>'
                gt = find(">", i + 2)
                if gt < 0:
                    k = _eof_tail(rawdata, i)
                    data = rawdata[i:k]
                    handle_data(_unescape(data) if "&" in data else data)
                    i = k
                    continue
                i = gt + 1
        else:
            if i + 1 < n:
                handle_data("<")
                i += 1
            else:
                # lone '<' at EOF: goahead(end=1) flushes it as data
                handle_data("<")
                return


_TABLE_MARKER_B = _re.compile(rb"<table", _re.IGNORECASE)
_TABLE_MARKER_S = _re.compile(r"<table", _re.IGNORECASE)


def _has_table_marker(html: bytes | str) -> bool:
    """Cheap byte/char scan for '<table' — pages without it (40 % of a web
    corpus here) skip the full parser walk entirely."""
    if isinstance(html, (bytes, bytearray, memoryview)):
        return _TABLE_MARKER_B.search(bytes(html)) is not None
    return _TABLE_MARKER_S.search(html) is not None


def _tables_from_parser(p: "_TableFlagParser") -> list[RawTable]:
    raw_tables: list[RawTable] = []
    for rows, flags in zip(p.tables, p.table_flags):
        if not rows:
            continue
        # skip leading all-empty rows (readWebTableForIndexing:804-806)
        start = 0
        while start < len(rows) and all(not c.strip() for c in rows[start]):
            start += 1
        rows = rows[start:]
        flags = flags[start:]
        if not rows:
            continue
        headers = rows[0]
        body = rows[1:]
        raw_tables.append(RawTable(headers=headers, rows=body))
    return raw_tables


def parse_page_full(html: bytes | str,
                    use_fast: bool = True) -> tuple[str, list[RawTable]]:
    """→ (extracted_text, raw tables with headers split off).

    ``use_fast=False`` routes through stdlib HTMLParser.feed — the reference
    implementation the fast feeder is equivalence-tested against."""
    if isinstance(html, (bytes, bytearray, memoryview)):
        html = bytes(html).decode("utf-8", "replace")
    p = _TableFlagParser()
    if use_fast:
        _fast_feed(p, html)
        p._flush_block()
    else:
        p.feed(html)
        p.close()
    return "\n".join(p.blocks), _tables_from_parser(p)


def parse_page_tables(html: bytes | str,
                      use_fast: bool = True) -> list[RawTable]:
    """Tables only — no text-block collection, and a '<table' prefilter
    short-circuits table-free pages before any parsing."""
    if not _has_table_marker(html):
        return []
    if isinstance(html, (bytes, bytearray, memoryview)):
        html = bytes(html).decode("utf-8", "replace")
    p = _TableFlagParser(collect_text=False)
    if use_fast:
        _fast_feed(p, html)
        p._flush_block()
    else:
        p.feed(html)
        p.close()
    return _tables_from_parser(p)


# ---------------------------------------------------------------------------
# Table processing: normalize + type vote + key identification
# ---------------------------------------------------------------------------

@dataclass
class ProcessedTable:
    headers: list[str]       # cleaned headers
    col_types: list[str]     # voted reference types per column
    key_idx: int             # identified key column (-1 = none)
    has_key: bool
    rows: list[list[str]]    # normalized cell values ("null" sentinel for empty)
    raw_keys: list[str]      # raw (pre-normalization) key cells, "" if keyless


def _uniqueness_rank(values: list[str]) -> float:
    if not values:
        return 0.0
    non_null = [v for v in values if v and v != NULL_VALUE]
    if not non_null:
        return 0.0
    return len(set(non_null)) / len(values)


def _avg_len(values: list[str]) -> float:
    non_null = [v for v in values if v and v != NULL_VALUE]
    if not non_null:
        return 0.0
    return sum(len(v) for v in non_null) / len(non_null)


def process_table(raw: RawTable, cfg: PipelineConfig = DEFAULT_CONFIG) -> ProcessedTable | None:
    n_cols = len(raw.headers)
    if n_cols < cfg.min_cols or len(raw.rows) < cfg.min_rows:
        return None
    if len(raw.rows) > cfg.max_table_rows:
        return None

    headers = [clean_web_header(h) for h in raw.headers]
    # normalize cells (row-major); ragged rows pad/truncate to header width
    norm_rows: list[list[str]] = []
    for row in raw.rows:
        cells = list(row[:n_cols]) + [""] * max(0, n_cols - len(row))
        norm_rows.append([simple_string_normalization(c) for c in cells])

    cols = [[r[i] for r in norm_rows] for i in range(n_cols)]
    col_types = [vote_column_type(col, headers[i], use_unit=True)
                 for i, col in enumerate(cols)]

    # --- key identification (TableKeyIdentifier.identifyKeysNaive) ---
    key_idx = -1
    for i, h in enumerate(headers):
        if "#label" in h:
            key_idx = i
            break
    if key_idx < 0:
        for i, h in enumerate(headers):
            if ("#name" in h or "name" in h.lower() or "label" in h.lower()) \
                    and "_label" not in h:
                key_idx = i
                break

    uniq: dict[int, float] = {}
    for i, col in enumerate(cols):
        al = _avg_len(col)
        if cfg.avg_key_values_min < al <= cfg.avg_key_values_max:
            if cfg.key_identification.name == "single_with_refine_attrs" \
                    and col_types[i] != "string":
                continue
            uniq[i] = _uniqueness_rank(col)

    has_key = True
    if not uniq:
        has_key = False
    else:
        best = max(uniq.values())
        if key_idx < 0:
            # first-seen argmax (reference uses strict '>', keeping the first)
            key_idx = next(i for i, v in uniq.items() if v == best)
        if best < cfg.key_uniqueness:
            has_key = False
    if key_idx < 0:
        has_key = False

    raw_keys = [row[key_idx] if 0 <= key_idx < len(row) else "" for row in raw.rows] \
        if key_idx >= 0 else [""] * len(raw.rows)
    return ProcessedTable(headers=headers, col_types=col_types, key_idx=key_idx,
                          has_key=has_key, rows=norm_rows, raw_keys=raw_keys)


# ---------------------------------------------------------------------------
# map_batches bodies
# ---------------------------------------------------------------------------

def extract_text_batch(batch: pa.Table) -> pa.Table:
    """pages(url, html, ...) → (url, text): the byte-identical-per-url stage."""
    htmls = batch.column("html").to_pylist()
    texts = [parse_page_full(h)[0] for h in htmls]
    return pa.table({
        "url": batch.column("url"),
        "text": pa.array(texts, type=pa.string()),
    })


_TABLE_RECORD_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("table_idx", pa.int32()),
    ("n_rows", pa.int32()),
    ("headers", pa.list_(pa.string())),
    ("col_types", pa.list_(pa.string())),
    ("key_idx", pa.int32()),
    ("has_key", pa.bool_()),
    ("rows", pa.list_(pa.list_(pa.string()))),
    ("raw_keys", pa.list_(pa.string())),
])


class TableExtractor:
    """pages → one record per valid table (normalized rows + key/type metadata).

    Callable instance carrying its config: ``map_batches(TableExtractor(cfg))``
    runs it as a plain task function."""

    def __init__(self, cfg: PipelineConfig = DEFAULT_CONFIG):
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        htmls = batch.column("html").to_pylist()
        out = {name: [] for name in _TABLE_RECORD_SCHEMA.names}
        for url, html in zip(urls, htmls):
            raw_tables = parse_page_tables(html)
            for ti, raw in enumerate(raw_tables):
                pt = process_table(raw, self.cfg)
                if pt is None:
                    continue
                out["url"].append(url)
                out["table_idx"].append(ti)
                out["n_rows"].append(len(pt.rows))
                out["headers"].append(pt.headers)
                out["col_types"].append(pt.col_types)
                out["key_idx"].append(pt.key_idx)
                out["has_key"].append(pt.has_key)
                out["rows"].append(pt.rows)
                out["raw_keys"].append(pt.raw_keys)
        return pa.Table.from_pydict(out, schema=_TABLE_RECORD_SCHEMA)
