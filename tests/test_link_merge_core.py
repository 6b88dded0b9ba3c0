"""The set-at-a-time link merge against test-local ports of the per-row
code it replaced: ``_link_rows``' per-row loop with ``finalize_candidates``
and ``context_bonus_for`` (replicated and payload mode), the per-cell
``mentions_from_tables_batch``, and Python's ``round(x, 9)`` for the
vectorized rounding.  No Ray: indexes are built driver-locally and resolved
tables are passed to the merge directly."""

from __future__ import annotations

import logging
import random
import sys

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mannheimsearchjoinsengine_ray.functions.normalize import tokenize_string
from mannheimsearchjoinsengine_ray.stages import link as L
from mannheimsearchjoinsengine_ray.state import index as IX

SEP = "\x1f"
VOCAB = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf"]


# ---------------------------------------------------------------------------
# ports of the per-row code
# ---------------------------------------------------------------------------

def port_jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def port_attrs_toksets(attrs_norm: str) -> tuple:
    if not attrs_norm:
        return ()
    return tuple(frozenset(a.split()) for a in attrs_norm.split(SEP) if a)


def port_bonus(attrs: tuple, ctoksets: list, factor: float) -> float:
    if not attrs or not ctoksets:
        return 0.0
    bonus = 0.0
    for ctoks in ctoksets:
        if not ctoks:
            continue
        best = 0.0
        for atoks in attrs:
            j = port_jaccard(ctoks, atoks)
            if j > best:
                best = j
        if best >= 0.5:
            bonus += best
    return factor * bonus


def port_finalize(cands: list, top_k: int, context=None,
                  factor: float = 0.0) -> list:
    use_ctx = bool(context) and factor > 0.0 and len(cands) > 1
    if use_ctx:
        cells = [c for c in context if c and c != "null"]
        top2 = sorted(c[1] for c in cands)[-2:]
        use_ctx = bool(cells) and top2[1] - top2[0] <= factor * len(cells) \
            and any(c[4] for c in cands)
    if use_ctx:
        ctoks = [set(tokenize_string(c, remove_brackets=True)) for c in cells]
        rows = [(u, s + port_bonus(a, ctoks, factor), n, e)
                for u, s, n, e, a in cands]
    else:
        rows = [(u, s, n, e) for u, s, n, e, _ in cands]
    rows.sort(key=lambda r: (-round(r[1], 9), r[0], r[2]))
    seen: set = set()
    out = []
    for uri, score, name, etype in rows:
        if uri in seen:
            continue
        seen.add(uri)
        out.append((uri, score, name, etype))
        if len(out) >= top_k:
            break
    return out


def port_link_rows(rows: list, cands_of, factor: float, top_k: int) -> list:
    """rows: (url, table_idx, row_idx, mention, context); ``cands_of(m)``
    → the mention's candidate tuples, or None when it emits no edges."""
    out = []
    for url, ti, ri, m, ctx in rows:
        cands = cands_of(m)
        if cands is None:
            continue
        hits = port_finalize(cands, top_k)
        if len(cands) > 1:
            top2 = sorted(c[1] for c in cands)[-2:]
            gap = top2[1] - top2[0]
        else:
            gap = float("inf")
        n_cells = ctx.count(SEP) + 1 if ctx else 0
        if factor > 0.0 and n_cells > 0 and any(c[4] for c in cands) \
                and gap <= factor * n_cells:
            hits = port_finalize(cands, top_k, context=ctx.split(SEP),
                                 factor=factor)
        for rank, (u, s, nm, et) in enumerate(hits):
            out.append((url, ti, ri, m, u, s, rank, nm, et))
    return out


def edges(tbl: pa.Table) -> list:
    assert tbl.schema == L.EDGE_SCHEMA
    return list(zip(*(tbl.column(c).to_pylist() for c in L.EDGE_SCHEMA.names)))


def mention_batch(rows: list) -> pa.Table:
    return pa.Table.from_pylist(
        [dict(zip(L.MENTION_SCHEMA.names, r)) for r in rows],
        schema=L.MENTION_SCHEMA)


# ---------------------------------------------------------------------------
# payload mode: resolved rows built from candidate partials
# ---------------------------------------------------------------------------

def payload_resolved(cands: dict, top_k: int) -> pa.Table:
    """mention → [(uri, score, norm, etype, attrs_str)] → resolved rows via
    the shard gather (a marker row per mention, so zero-candidate mentions
    get a row too)."""
    rows = []
    for m, cs in cands.items():
        rows.append({"mention": m, "uri": None, "score": None, "norm": None,
                     "etype": None, "attrs": None})
        for u, s, n, e, a in cs:
            rows.append({"mention": m, "uri": u, "score": s, "norm": n,
                         "etype": e, "attrs": a})
    return L._gather_resolved_group(
        pa.Table.from_pylist(rows, schema=L.PARTIAL_SCHEMA), top_k)


def payload_merge(batch, resolved, factor, top_k):
    return L.merge_links_batch(batch, resolved, index_dir="", top_k=top_k,
                               max_edit=1, fuzzy=True, refine_factor=factor,
                               payload_mode=True)


def payload_port(rows, cands, factor, top_k):
    def cands_of(m):
        if m not in cands:
            return None
        return [(u, s, n, e, port_attrs_toksets(a))
                for u, s, n, e, a in cands[m]]
    return port_link_rows(rows, cands_of, factor, top_k)


def random_attrs(rng: random.Random) -> str:
    pieces = []
    for _ in range(rng.choice([0, 0, 1, 2, 3])):
        k = rng.choice([0, 1, 1, 2, 3])
        pieces.append(" ".join(rng.sample(VOCAB, k)) if k else " ")
    return SEP.join(pieces)


def random_context(rng: random.Random):
    kind = rng.random()
    if kind < 0.1:
        return None
    if kind < 0.2:
        return ""
    cells = []
    for _ in range(rng.randint(1, 5)):
        c = rng.random()
        if c < 0.15:
            cells.append("")
        elif c < 0.3:
            cells.append("null")
        elif c < 0.35:
            cells.append("the")   # tokenizes to nothing (stopword)
        else:
            cells.append(" ".join(rng.sample(VOCAB, rng.randint(1, 3))))
    return SEP.join(cells)


def random_payload_case(seed: int):
    rng = random.Random(seed)
    cands = {}
    for mi in range(12):
        cs = []
        for ci in range(rng.choice([0, 1, 2, 3, 5, 8])):
            # a few uris, each maybe under two names
            u = f"http://e/{rng.randrange(5)}"
            n = f"name {ci}"
            s = rng.choice([1.0, 0.5, 0.5 + 1e-12, 0.5 - 1e-12, 0.25, 0.7,
                            10.0 + rng.random(), rng.random()])
            cs.append((u, s, n, rng.choice(["T", "U", ""]),
                       random_attrs(rng)))
        cands[f"m{mi}"] = cs
    mentions = list(cands) + ["missing one", "missing two"]
    rows = [(f"http://u/{i % 4}", i % 3, i, rng.choice(mentions),
             random_context(rng)) for i in range(60)]
    return cands, rows


@pytest.mark.parametrize("factor", [0.3, 1.0])
@pytest.mark.parametrize("top_k", [1, 3])
@pytest.mark.parametrize("seed", range(25))
def test_payload_merge_equals_per_row_port(seed, top_k, factor, caplog):
    cands, rows = random_payload_case(seed)
    # the two "missing" mentions are absent from the resolved table
    resolved = payload_resolved(cands, top_k)
    with caplog.at_level(logging.WARNING, logger=L.__name__):
        got = edges(payload_merge(mention_batch(rows), resolved, factor,
                                  top_k))
    assert got == payload_port(rows, cands, factor, top_k)
    used = {r[3] for r in rows}
    warned = {m for m in ("missing one", "missing two") if m in used}
    assert {r.args[0] for r in caplog.records} == warned


def test_payload_refine_edge_cases():
    """Hand-built rows for each gate and bonus boundary."""
    f = 1.0
    cands = {
        # Jaccard exactly 0.5 ({alpha, bravo} vs {alpha}) still counts
        "half": [("http://e/a", 0.0, "a", "T", "alpha"),
                 ("http://e/b", 0.0, "b", "T", "")],
        # three cells whose bonuses (0.5, 0.6, 4/7) sum differently in
        # reverse order
        "order": [("http://e/a", 0.0, "a", "T",
                   SEP.join(["alpha zulu", "bravo charlie delta echo foxtrot",
                             "golf hotel india juliett kilo lima mike"])),
                  ("http://e/b", 0.0, "b", "T", "")],
        # gap 1.5: within 3 raw pieces but above 1 real cell
        "gap": [("http://e/a", 0.0, "a", "T", "alpha"),
                ("http://e/b", 1.5, "b", "T", "")],
        # whitespace-only attrs count as attrs but never match
        "blank": [("http://e/a", 0.5, "a", "T", " "),
                  ("http://e/b", 0.5, "b", "T", SEP + " " + SEP)],
        # one uri under two names; a tie inside the rounding window
        "twonames": [("http://e/a", 0.5, "x", "T", "alpha"),
                     ("http://e/a", 0.5 + 1e-12, "w", "T", "bravo"),
                     ("http://e/b", 0.5 - 1e-12, "b", "T", "alpha bravo")],
        "none": [],
        "single": [("http://e/a", 1.0, "a", "T", "alpha")],
    }
    rows = [
        ("u", 0, 0, "half", "alpha bravo"),
        ("u", 0, 1, "order", SEP.join(
            ["alpha", "bravo charlie delta", "golf hotel india juliett"])),
        ("u", 0, 2, "gap", "alpha" + SEP + "null" + SEP),
        ("u", 0, 3, "gap", "null" + SEP + SEP + "null"),
        ("u", 0, 4, "gap", SEP.join(["alpha", "alpha"])),
        ("u", 0, 5, "blank", "alpha"),
        ("u", 0, 6, "twonames", "alpha"),
        ("u", 0, 7, "twonames", "bravo" + SEP + "alpha bravo"),
        ("u", 0, 8, "twonames", ""),
        ("u", 0, 9, "twonames", None),
        ("u", 0, 10, "none", "alpha"),
        ("u", 0, 11, "single", "alpha"),
    ]
    assert (0.0 + 0.5 + 0.6 + 4 / 7) != (0.0 + 4 / 7 + 0.6 + 0.5)
    for top_k in (1, 3):
        resolved = payload_resolved(cands, top_k)
        got = edges(payload_merge(mention_batch(rows), resolved, f, top_k))
        want = payload_port(rows, cands, f, top_k)
        assert got == want
    by_row = {}
    for e in got:
        by_row.setdefault(e[2], []).append(e)
    assert by_row[0][0][4:6] == ("http://e/a", 0.5)
    assert by_row[1][0][5] == 0.0 + 0.5 + 0.6 + 4 / 7
    # row 2 fails the second gate: base scores, top is the 1.5 candidate
    assert by_row[2][0][4:6] == ("http://e/b", 1.5)
    assert by_row[4][0][4:6] == ("http://e/a", 2.0)
    assert [e[5] for e in by_row[5]] == [0.5, 0.5]
    assert 10 not in by_row and len(by_row[11]) == 1


def test_empty_and_markers_only():
    resolved = payload_resolved({"a": [], "b": []}, 3)
    assert payload_merge(mention_batch([]), resolved, 0.3, 3).num_rows == 0
    out = payload_merge(mention_batch([("u", 0, 0, "a", "alpha")]),
                        resolved, 0.3, 3)
    assert out.num_rows == 0 and out.schema == L.EDGE_SCHEMA


# ---------------------------------------------------------------------------
# replicated mode: a driver-local index, candidates by entry id
# ---------------------------------------------------------------------------

def build_random_index(path: str, seed: int) -> IX.LabelIndex:
    rng = random.Random(seed)
    ents = {"entity_uri": [], "label": [], "aliases": [], "entity_type": [],
            "attrs": []}
    for i in range(30):
        label = " ".join(rng.sample(VOCAB, rng.randint(1, 2)))
        ents["entity_uri"].append(f"http://e/{i}")
        ents["label"].append(label)
        ents["aliases"].append(
            [" ".join(rng.sample(VOCAB, rng.randint(1, 2)))]
            if rng.random() < 0.4 else [])
        ents["entity_type"].append(rng.choice(["T", "U"]))
        ents["attrs"].append([" ".join(rng.sample(VOCAB, rng.randint(1, 3)))
                              for _ in range(rng.choice([0, 1, 2, 3]))])
    IX._build_index_driver(IX.postings_from_entities_batch(pa.table(ents)),
                           path, 2, None)
    return IX.LabelIndex(path)


def replicated_case(seed: int):
    rng = random.Random(seed)
    pool = [" ".join(rng.sample(VOCAB, rng.randint(1, 2))) for _ in range(8)]
    pool += ["alpah", "zzz nothing"]        # fuzzy and zero-candidate
    rows = [(f"http://u/{i}", 0, i, rng.choice(pool), random_context(rng))
            for i in range(50)]
    return pool, rows


def replicated_port(idx: IX.LabelIndex, rows, factor, top_k):
    def cands_of(m):
        return idx.candidates(idx.search_scored(m, fuzzy=True, max_edit=1))
    return port_link_rows(rows, cands_of, factor, top_k)


@pytest.mark.parametrize("top_k", [1, 3])
@pytest.mark.parametrize("seed", range(8))
def test_replicated_merge_equals_per_row_port(tmp_path, seed, top_k):
    factor = 0.3 + 0.35 * (seed % 3)
    index_dir = str(tmp_path / "idx")
    idx = build_random_index(index_dir, seed)
    pool, rows = replicated_case(seed)
    want = replicated_port(idx, rows, factor, top_k)
    batch = mention_batch(rows)
    # broadcast without half the mentions: those take the fallback resolve
    half = pa.array(pool[::2], pa.string())
    resolved = L._resolve_on(idx, half, top_k, True, 1)
    got = L.merge_links_batch(batch, resolved, index_dir, top_k, 1, True,
                              factor)
    assert edges(got) == want
    actor = L.LinkerActor(index_dir, top_k=top_k, refine_factor=factor)
    assert edges(actor(batch)) == want


def test_replicated_gate_rows_exist(tmp_path):
    """The random replicated cases do reach the context re-score."""
    idx = build_random_index(str(tmp_path / "idx"), 0)
    _, rows = replicated_case(0)
    plain = replicated_port(idx, rows, 0.0, 3)
    scored = replicated_port(idx, rows, 0.3, 3)
    assert plain != scored


# ---------------------------------------------------------------------------
# vectorized rounding
# ---------------------------------------------------------------------------

def assert_round9_bitwise(xs) -> None:
    x = np.asarray(xs, dtype=np.float64)
    want = np.array([round(v, 9) for v in x.tolist()], dtype=np.float64)
    got = IX._python_round9(x)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-20.0, max_value=20.0),
    st.integers(-10**11, 10**11).map(lambda k: (k + 0.5) * 1e-9),
    st.integers(-10**6, 10**6).map(lambda k: 10.0 + (k + 0.5) * 1e-9)),
    max_size=64))
def test_round9_equals_python_round(xs):
    assert_round9_bitwise(xs)


def test_round9_half_way_grids():
    k = np.arange(-5000, 5000)
    assert_round9_bitwise((k + 0.5) * 1e-9)
    assert_round9_bitwise(10.0 + (k + 0.5) * 1e-9)
    assert_round9_bitwise(-(10.0 + (k + 0.5) * 1e-9))
    assert_round9_bitwise(np.nextafter((k + 0.5) * 1e-9, np.inf))
    assert_round9_bitwise([0.0, -0.0, 1e-300, -1e-300, 5e-324, -4e-10,
                           999.9999999995, 1e3, 1e6, -1e6, 123456.0000000005,
                           1e300, np.inf, -np.inf, np.nan])
    rng = np.random.default_rng(0)
    assert_round9_bitwise(rng.random(20000) * 12.0)
    assert_round9_bitwise(rng.normal(0.0, 1e4, 20000))


# ---------------------------------------------------------------------------
# mention rows from table records
# ---------------------------------------------------------------------------

def port_mentions(batch: pa.Table) -> dict:
    urls = batch.column("url").to_pylist()
    tids = batch.column("table_idx").to_pylist()
    key_idx = batch.column("key_idx").to_pylist()
    has_key = batch.column("has_key").to_pylist()
    raw_keys = batch.column("raw_keys").to_pylist()
    rows_col = batch.column("rows").to_pylist() \
        if "rows" in batch.column_names else [None] * len(urls)
    out = {"url": [], "table_idx": [], "row_idx": [], "mention": [],
           "context": []}
    for url, ti, ki, hk, keys, rows in zip(urls, tids, key_idx, has_key,
                                           raw_keys, rows_col):
        if not hk or ki < 0:
            continue
        for ri, k in enumerate(keys):
            if k and k.strip():
                out["url"].append(url)
                out["table_idx"].append(ti)
                out["row_idx"].append(ri)
                out["mention"].append(k)
                if rows is not None and ri < len(rows):
                    cells = [c for ci, c in enumerate(rows[ri])
                             if ci != ki and c and c != "null"]
                    ctx = SEP.join(cells[:8])
                else:
                    ctx = ""
                out["context"].append(ctx)
    return out


RECORD_SCHEMA = pa.schema([
    ("url", pa.string()), ("table_idx", pa.int32()),
    ("key_idx", pa.int32()), ("has_key", pa.bool_()),
    ("rows", pa.list_(pa.list_(pa.string()))),
    ("raw_keys", pa.list_(pa.string()))])

BLANKS = [" ", "\t", "\x1f", "\xa0", "\x85", "　", " \x1c\n"]


def records(rng: random.Random, n: int) -> pa.Table:
    recs = []
    for t in range(n):
        width = rng.choice([1, 2, 4, 12])
        n_rows = rng.choice([0, 1, 3])
        ki = rng.choice([-1, 0, 1, width - 1, 10])
        keys = [rng.choice(BLANKS + ["", None, "Key %d" % r, " pad ",
                                     "null", "x\x85"])
                for r in range(n_rows)]
        rows = [[rng.choice(["", "null", None, "v%d" % c, " "])
                 for c in range(width)]
                for _ in range(n_rows - rng.choice([0, 0, 1]))]
        recs.append({"url": f"u{t}", "table_idx": t,
                     "key_idx": ki, "has_key": rng.random() < 0.8,
                     "rows": rows if rng.random() < 0.9 else None,
                     "raw_keys": keys})
    return pa.Table.from_pylist(recs, schema=RECORD_SCHEMA)


@pytest.mark.parametrize("seed", range(10))
def test_mentions_from_tables_equals_port(seed):
    batch = records(random.Random(seed), 40)
    got = L.mentions_from_tables_batch(batch)
    assert got.schema == L.MENTION_SCHEMA
    assert got.to_pydict() == port_mentions(batch)
    # a slice (non-zero offsets) and a table without ``rows``
    part = batch.slice(7, 20)
    assert L.mentions_from_tables_batch(part).to_pydict() == \
        port_mentions(part)
    bare = batch.drop_columns(["rows"])
    assert L.mentions_from_tables_batch(bare).to_pydict() == \
        port_mentions(bare)
    want = sorted(set(port_mentions(batch)["mention"]))
    assert L.distinct_mentions_from_tables_batch(batch) \
        .column("mention").to_pylist() == want


def test_mentions_context_cap_and_key_past_cap():
    wide = [f"c{i}" for i in range(12)]
    batch = pa.Table.from_pylist([
        {"url": "u", "table_idx": 0, "key_idx": 10, "has_key": True,
         "rows": [wide, wide[:3]], "raw_keys": ["k", "\xa0"]},
        {"url": "v", "table_idx": 1, "key_idx": -1, "has_key": True,
         "rows": [wide], "raw_keys": ["k"]},
        {"url": "w", "table_idx": 2, "key_idx": 0, "has_key": False,
         "rows": [wide], "raw_keys": ["k"]},
        {"url": "x", "table_idx": 3, "key_idx": 0, "has_key": True,
         "rows": [["k", "null", "", "a"]], "raw_keys": ["k", "k2"]},
    ], schema=RECORD_SCHEMA)
    got = L.mentions_from_tables_batch(batch).to_pydict()
    assert got == port_mentions(batch)
    assert got["context"][0] == SEP.join(wide[:8])
    assert got["context"][1:] == ["a", ""]


def test_py_whitespace_is_str_isspace():
    assert set(L.PY_WHITESPACE) == {
        chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()}


def port_first_per_mention(tbl: pa.Table) -> pa.Table:
    """The broadcast dedupe as it was: pandas factorize over the mention
    objects (None is its own code), first index per code, original order."""
    import pandas as pd

    codes, _ = pd.factorize(
        np.asarray(tbl.column("mention").to_pylist(), dtype=object))
    first = np.unique(codes, return_index=True)[1]
    return tbl.take(pa.array(np.sort(first))) if len(first) < tbl.num_rows \
        else tbl


def test_broadcast_dedupe_equals_pandas_port():
    # duplicates spread over two resolved parts, one null mention
    parts = [pa.table({"mention": ["b", "a", None, "b", "c"],
                       "gap": [1.0, 2.0, 3.0, 4.0, 5.0]}),
             pa.table({"mention": ["a", "d", "c", "b"],
                       "gap": [6.0, 7.0, 8.0, 9.0]})]
    tbl = pa.concat_tables(parts)
    got = L.first_per_mention(tbl)
    assert got.to_pydict() == port_first_per_mention(tbl).to_pydict()
    assert got.column("mention").to_pylist() == ["b", "a", None, "c", "d"]
    assert got.column("gap").to_pylist() == [1.0, 2.0, 3.0, 5.0, 7.0]
    distinct = parts[0].slice(0, 3)
    assert L.first_per_mention(distinct) is distinct
    empty = parts[0].slice(0, 0)
    assert L.first_per_mention(empty).num_rows == 0
