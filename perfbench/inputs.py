"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of ``(seed, size)``; the program only
ever sees the files written here.  Inputs are cached under the work
directory by ``(workload, seed, size)`` behind a ``.complete`` marker that
is written after the data, so a killed run regenerates instead of reusing a
partial input.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

PAGES_PER_FILE = 50
PAGE_SCHEMA = pa.schema([
    ("url", pa.string()), ("warc_ts", pa.timestamp("us")),
    ("html", pa.binary()), ("text", pa.string()), ("lang", pa.string()),
])


def cached(path: str, build) -> str:
    """Run ``build(tmp_dir)`` once per ``path``; later calls reuse it."""
    marker = path + ".complete"
    if os.path.exists(marker):
        return path
    tmp = path + ".tmp"
    for p in (path, tmp):
        shutil.rmtree(p, ignore_errors=True)
    os.makedirs(tmp)
    build(tmp)
    os.replace(tmp, path)
    with open(marker, "w") as fh:
        fh.write("ok\n")
    return path


# ---------------------------------------------------------------------------
# page corpus (kg_crawl)
# ---------------------------------------------------------------------------

def write_pages(out_dir: str, specs: list) -> None:
    """PageSpecs → the corpus parquet layout ``write_corpus`` produces
    (same columns, ``PAGES_PER_FILE`` pages per fragment)."""
    from mannheimsearchjoinsengine_ray.sources.pages import (
        expected_text,
        render_html,
    )

    for i in range(0, len(specs), PAGES_PER_FILE):
        chunk = specs[i:i + PAGES_PER_FILE]
        tbl = pa.table({
            "url": [s.url for s in chunk],
            "warc_ts": pa.array([s.warc_ts for s in chunk], pa.timestamp("us")),
            "html": [render_html(s) for s in chunk],
            "text": [expected_text(s) for s in chunk],
            "lang": [s.lang for s in chunk],
        }, schema=PAGE_SCHEMA)
        pq.write_table(tbl, os.path.join(out_dir, f"pages-{i // PAGES_PER_FILE:05d}.parquet"))


def rotated_label(label: str) -> str:
    """Token-rotated alias: same token set, different word order, so a
    different subject URI."""
    toks = label.split()
    return " ".join(toks[1:] + toks[:1])


@dataclass
class KgCorpus:
    specs: list = field(default_factory=list)
    golden: list = field(default_factory=list)  # spec-derived triples
    key_cells: int = 0
    rotated_cells: int = 0
    # eid → (original subject URI, rotated subject URI)
    rotated: dict = field(default_factory=dict)


def kg_corpus(seed: int, min_triples: int, alias_share: float) -> KgCorpus:
    """Pages ``make_page_spec(0..n, seed)`` up to the first ``n`` whose
    golden triples reach ``min_triples`` (so every seed gives the same
    amount of work), with ``alias_share`` of the linked key cells rewritten
    as their entity's token-rotated label."""
    from mannheimsearchjoinsengine_ray.functions.normalize import (
        capitalize_words,
        simple_string_normalization,
    )
    from mannheimsearchjoinsengine_ray.sources.pages import (
        NS,
        entity_label,
        golden_triples_for_page,
        make_page_spec,
    )

    def uri(label: str) -> str:
        key = simple_string_normalization(label)
        return NS + capitalize_words(key).replace(" ", "")

    out = KgCorpus()
    rng = np.random.default_rng([seed, 0xC4])
    while len(out.golden) < min_triples:
        spec = make_page_spec(len(out.specs), seed=seed)
        for ts in spec.tables:
            if not ts.valid or ts.key_idx < 0:
                continue
            for row, eid in zip(ts.rows, ts.entity_ids):
                if eid < 0:
                    continue
                out.key_cells += 1
                if rng.random() < alias_share:
                    label = entity_label(eid)
                    row[ts.key_idx] = rotated_label(label)
                    out.rotated_cells += 1
                    out.rotated[eid] = (uri(label), uri(rotated_label(label)))
        out.specs.append(spec)
        out.golden.extend(golden_triples_for_page(spec))
    return out


# ---------------------------------------------------------------------------
# large-KB linking (link_bigkb)
# ---------------------------------------------------------------------------

def scale_gazetteer(n_entities: int) -> pa.Table:
    from mannheimsearchjoinsengine_ray.sources.pages import (
        make_scale_gazetteer_batch,
    )

    cols = make_scale_gazetteer_batch({"id": np.arange(n_entities)})
    return pa.table({
        "entity_uri": pa.array(cols["entity_uri"], pa.string()),
        "label": pa.array(cols["label"], pa.string()),
        "aliases": pa.array(cols["aliases"], pa.list_(pa.string())),
        "entity_type": pa.array(cols["entity_type"], pa.string()),
        "attrs": pa.array(cols["attrs"], pa.list_(pa.string())),
    })


def perturb(label: str, rng) -> str:
    """One letter of one of the two word tokens replaced: edit distance 1,
    within the linker's fuzzy reach, and never an exact index hit."""
    words = label.split()
    w = int(rng.integers(0, 2))
    pos = int(rng.integers(0, len(words[w])))
    old = ord(words[w][pos]) - ord("a")
    new = chr(ord("a") + (old + 1 + int(rng.integers(0, 25))) % 26)
    words[w] = words[w][:pos] + new + words[w][pos + 1:]
    return " ".join(words)


def mention_stream(seed: int, n_rows: int, n_distinct: int, n_entities: int,
                   perturbed_share: float, head_share: float = 0.2):
    """``n_rows`` mention rows over exactly ``n_distinct`` mention strings,
    one per entity: a head entity carries ``head_share`` of the rows, the
    rest are Zipf over the others, and ``perturbed_share`` of the distinct
    strings are edit-distance-perturbed labels.  Fixing the distinct count
    fixes the resolve work per seed.  Returns (mention table, true eids,
    perturbed row count)."""
    from mannheimsearchjoinsengine_ray.sources.pages import (
        entity_attrs,
        scale_gazetteer_label,
    )
    from mannheimsearchjoinsengine_ray.stages.link import (
        CONTEXT_SEP,
        MENTION_SCHEMA,
    )

    rng = np.random.default_rng([seed, 0x11])
    eids = rng.choice(n_entities, size=n_distinct, replace=False)
    perturbed = np.zeros(n_distinct, dtype=bool)
    # the head string (index 0) stays exact
    perturbed[1 + rng.permutation(n_distinct - 1)[
        :round(perturbed_share * n_distinct)]] = True
    labels = [scale_gazetteer_label(int(e)) for e in eids]
    strings = [perturb(lb, rng) if p else lb for lb, p in zip(labels, perturbed)]
    # every string once, then head rows, then Zipf ranks over the rest
    n_head = round(head_share * n_rows)
    ranks = rng.zipf(1.3, size=n_rows * 8)
    ranks = ranks[ranks < n_distinct][: n_rows - n_distinct - n_head]
    pick = np.concatenate([np.arange(n_distinct), np.zeros(n_head, np.int64),
                           ranks]).astype(np.int64)
    pick = pick[rng.permutation(len(pick))]
    ctx = [CONTEXT_SEP.join(entity_attrs(int(eids[k]))[:2]) if i % 4 == 0 else ""
           for i, k in enumerate(pick.tolist())]
    n = len(pick)
    tbl = pa.Table.from_pydict({
        "url": [f"http://mentions.example/{i}" for i in range(n)],
        "table_idx": pa.array(np.zeros(n, np.int32)),
        "row_idx": pa.array(np.arange(n, dtype=np.int32)),
        "mention": [strings[k] for k in pick.tolist()], "context": ctx},
        schema=MENTION_SCHEMA)
    return tbl, eids[pick], int(perturbed[pick].sum())


# ---------------------------------------------------------------------------
# relational tables (operator_mix)
# ---------------------------------------------------------------------------

_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_WORDS = ("key agg row scan slow fast table value part hash merge batch "
          "window spark order data column join small line customer query "
          "big filter sort stream group vector the a").split()


def write_tables(out_dir: str, seed: int, n_customers: int) -> dict:
    """TPC-H-shaped star schema plus an event stream and a document table,
    scaled by ``n_customers`` (orders = 10×, lineitem ≈ 35×).  Prices are
    whole cents and discounts whole percents, so every revenue sum is exact
    at the two decimals the queries round to."""
    rng = np.random.default_rng([seed, 0x0B])
    us = "datetime64[us]"
    n_sup = max(10, n_customers // 15)
    n_orders = n_customers * 10
    tables: dict[str, pa.Table] = {}
    tables["region"] = pa.table({
        "r_regionkey": pa.array(np.arange(5, dtype=np.int32)),
        "r_name": [f"REGION_{i}" for i in range(5)]})
    tables["nation"] = pa.table({
        "n_nationkey": pa.array(np.arange(25, dtype=np.int32)),
        "n_name": [f"NATION_{i}" for i in range(25)],
        "n_regionkey": pa.array((np.arange(25) % 5).astype(np.int32))})
    tables["customer"] = pa.table({
        "c_custkey": np.arange(n_customers, dtype=np.int64),
        "c_name": [f"Customer#{i:09d}" for i in range(n_customers)],
        "c_nationkey": pa.array(rng.integers(0, 25, n_customers).astype(np.int32)),
        "c_acctbal": rng.integers(-99_999, 999_999, n_customers) / 100.0,
        "c_mktsegment": np.array(_SEGMENTS)[rng.integers(0, 5, n_customers)]})
    tables["supplier"] = pa.table({
        "s_suppkey": np.arange(n_sup, dtype=np.int64),
        "s_name": [f"Supplier#{i:09d}" for i in range(n_sup)],
        "s_nationkey": pa.array(rng.integers(0, 25, n_sup).astype(np.int32)),
        "s_acctbal": rng.integers(-99_999, 999_999, n_sup) / 100.0})
    # a third of the customers never order (semi-join has work to drop)
    buyers = rng.permutation(n_customers)[: max(1, (2 * n_customers) // 3)]
    order_day = np.datetime64("2023-07-01") + rng.integers(0, 214, n_orders)
    tables["orders"] = pa.table({
        "o_orderkey": np.arange(n_orders, dtype=np.int64),
        "o_custkey": buyers[rng.integers(0, len(buyers), n_orders)].astype(np.int64),
        "o_orderstatus": np.array(["F", "O", "P"])[rng.integers(0, 3, n_orders)],
        "o_totalprice": rng.integers(100_000, 50_000_000, n_orders) / 100.0,
        "o_orderdate": pa.array(order_day.astype(us)),
        "o_orderpriority": np.array(["1-URGENT", "2-HIGH", "3-MEDIUM",
                                     "4-NOT SPECIFIED", "5-LOW"])[
            rng.integers(0, 5, n_orders)]})
    # 0-7 lines per order: the zero-line orders feed the anti-join
    lines = rng.integers(0, 8, n_orders)
    lkey = np.repeat(np.arange(n_orders, dtype=np.int64), lines)
    n_li = len(lkey)
    tables["lineitem"] = pa.table({
        "l_orderkey": lkey,
        "l_partkey": rng.integers(0, 2000, n_li).astype(np.int64),
        "l_suppkey": rng.integers(0, n_sup, n_li).astype(np.int64),
        "l_linenumber": pa.array(np.concatenate(
            [np.arange(1, k + 1) for k in lines]).astype(np.int32)),
        "l_quantity": rng.integers(1, 51, n_li).astype(np.float64),
        "l_extendedprice": rng.integers(900, 105_000, n_li).astype(np.float64),
        "l_discount": rng.integers(0, 11, n_li) / 100.0,
        "l_tax": rng.integers(0, 9, n_li) / 100.0,
        "l_returnflag": np.array(["A", "N", "R"])[rng.integers(0, 3, n_li)],
        "l_linestatus": np.array(["F", "O"])[rng.integers(0, 2, n_li)],
        "l_shipdate": pa.array((np.datetime64("2023-07-01")
                                + rng.integers(0, 300, n_li)).astype(us))})
    n_ev = n_customers * 7
    ev_us = np.sort(rng.integers(0, 30 * 86_400_000_000, n_ev))
    tables["events"] = pa.table({
        "event_id": np.arange(n_ev, dtype=np.int64),
        "ts": pa.array((np.datetime64("2024-01-01T00:00:00", "us")
                        + ev_us.astype("timedelta64[us]"))),
        "user_id": rng.integers(0, n_customers, n_ev).astype(np.int64),
        "event_type": np.array(["view", "click", "signup", "purchase",
                                "error"])[rng.integers(0, 5, n_ev)],
        "value": rng.integers(1, 50_000, n_ev) / 100.0,
        "props": [f'{{"k": {k}}}' for k in rng.integers(0, 100, n_ev)]})
    n_docs = max(50, n_customers // 3)
    texts = [" ".join(np.array(_WORDS)[rng.integers(0, len(_WORDS),
                                                    int(rng.integers(8, 60)))])
             for _ in range(n_docs)]
    # a fifth of the documents are exact copies of earlier ones
    for i in range(1, n_docs):
        if rng.random() < 0.2:
            texts[i] = texts[int(rng.integers(0, i))]
    tables["documents"] = pa.table({
        "doc_id": np.arange(n_docs, dtype=np.int64), "text": texts,
        "lang": np.array(["en", "de", "fr"])[rng.integers(0, 3, n_docs)],
        "source": [f"src{k}" for k in rng.integers(0, 20, n_docs)],
        "n_chars": np.array([len(t) for t in texts], dtype=np.int64)})
    for name, tbl in tables.items():
        pq.write_table(tbl, os.path.join(out_dir, f"{name}.parquet"))
    return {name: tbl.num_rows for name, tbl in tables.items()}
