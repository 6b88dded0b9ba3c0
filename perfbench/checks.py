"""Output checks, one per workload.  Pure functions over rows and tables,
so they run (and are self-tested) without Ray."""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq


@dataclass
class Verdict:
    """Result of one output check: match ratios plus the failed rules."""
    precision: float
    recall: float
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def multiset_pr(got, want) -> tuple[float, float]:
    """(precision, recall) of ``got`` against ``want``, both as multisets."""
    cg, cw = Counter(got), Counter(want)
    inter = sum((cg & cw).values())
    n_got, n_want = sum(cg.values()), sum(cw.values())
    precision = inter / n_got if n_got else float(n_want == 0)
    recall = inter / n_want if n_want else 1.0
    return precision, recall


def read_partitions(root: str) -> list[pa.Table]:
    """Every committed ``part=*`` data file under ``root``, one table each,
    in file order (a skew-split partition holds several sorted files)."""
    out = []
    for dirpath, _, filenames in sorted(os.walk(root)):
        base = os.path.basename(dirpath)
        if not base.startswith("part=") or base.endswith(".tmp"):
            continue
        out.extend(pq.read_table(os.path.join(dirpath, f))
                   for f in sorted(filenames) if f.endswith(".parquet"))
    return out


def triple_rows(tables: list[pa.Table]) -> list[tuple]:
    cols = ("subj", "pred", "obj", "obj_type", "source_url")
    rows: list[tuple] = []
    for t in tables:
        rows.extend(zip(*(t.column(c).to_pylist() for c in cols)))
    return rows


def unsorted_partitions(tables: list[pa.Table]) -> int:
    """Number of partition files whose rows are not (subj, pred)-sorted."""
    bad = 0
    for t in tables:
        keys = list(zip(t.column("subj").to_pylist(), t.column("pred").to_pylist()))
        if any(a > b for a, b in zip(keys, keys[1:])):
            bad += 1
    return bad


def check_triples(tables: list[pa.Table], golden: list[tuple]) -> Verdict:
    """kg_crawl: the materialized triples against the spec-derived goldens."""
    p, r = multiset_pr(triple_rows(tables), golden)
    v = Verdict(p, r)
    if (p, r) != (1.0, 1.0):
        v.errors.append(f"triples P={p:.6f} R={r:.6f}")
    if unsorted_partitions(tables):
        v.errors.append("partition not sorted by (subj, pred)")
    return v


def expected_canon_rows(phase1_rows: list[tuple], mapping: dict) -> list[tuple]:
    """Phase-1 rows with subjects and URI objects rewritten by ``mapping``."""
    out = []
    for s, p, o, ty, u in phase1_rows:
        out.append((mapping.get(s, s), p,
                    mapping.get(o, o) if ty == "uri" else o, ty, u))
    return out


def planted_mapping(rotated: dict, phase1_subjects: set) -> dict:
    """Planted alias pairs present in the corpus → {merged URI: canonical},
    canonical being the lexicographically smaller URI of the pair."""
    mapping = {}
    for orig, rot in rotated.values():
        if orig in phase1_subjects and rot in phase1_subjects:
            lo, hi = sorted((orig, rot))
            mapping[hi] = lo
    return mapping


def check_canon(phase1: list[pa.Table], final: list[pa.Table],
                rotated: dict) -> Verdict:
    """Canonicalization: planted aliases share one canonical URI, the final
    rows are the phase-1 rows under that mapping, and partitions stay
    sorted.  Precision/recall are over merged URIs (phase-1 subjects that
    no longer appear as subjects) against the planted ones."""
    p1_rows = triple_rows(phase1)
    fin_rows = triple_rows(final)
    p1_subj = {r[0] for r in p1_rows}
    fin_subj = {r[0] for r in fin_rows}
    mapping = planted_mapping(rotated, p1_subj)
    merged = p1_subj - fin_subj
    p, r = multiset_pr(merged, list(mapping))
    v = Verdict(p, r)
    if not mapping:
        v.errors.append("no planted alias pair reached phase 1")
    split = [k for k, c in mapping.items() if k in fin_subj or c not in fin_subj]
    if split:
        v.errors.append(f"{len(split)} planted alias groups not merged")
    if Counter(fin_rows) != Counter(expected_canon_rows(p1_rows, mapping)):
        v.errors.append("final rows differ from the remapped phase-1 rows")
    if unsorted_partitions(final):
        v.errors.append("partition not sorted by (subj, pred)")
    return v


def check_links(row_idx: list[int], entity_uri: list[str],
                want_uri: list[str]) -> Verdict:
    """link_bigkb: top-1 links against the generator's entity per mention
    row.  Precision is over emitted links, recall over mention rows."""
    got = Counter(row_idx)
    correct = sum(1 for i, u in zip(row_idx, entity_uri) if want_uri[i] == u)
    p = correct / len(row_idx) if row_idx else 0.0
    r = correct / len(want_uri) if want_uri else 1.0
    v = Verdict(p, r)
    if any(c > 1 for c in got.values()):
        v.errors.append("more than one top-1 link for a mention row")
    if (p, r) != (1.0, 1.0):
        v.errors.append(f"links P={p:.6f} R={r:.6f}")
    return v


def normalize_frame(df):
    """The oracle-comparison normal form: columns sorted by name, integer
    and float widths unified, timestamps at microseconds, rows sorted."""
    import pandas as pd

    df = df.reindex(sorted(df.columns), axis=1).copy()
    for c in df.columns:
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64")
        elif pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = pd.to_datetime(df[c]).astype("datetime64[us]")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def frame_rows(df) -> list[tuple]:
    return [tuple(round(x, 6) if isinstance(x, float) else x for x in row)
            for row in df.itertuples(index=False, name=None)]


def check_query(got, want) -> Verdict:
    """operator_mix: one query result against its DuckDB oracle."""
    import pandas as pd

    a, b = normalize_frame(got), normalize_frame(want)
    p, r = multiset_pr(frame_rows(a), frame_rows(b))
    v = Verdict(p, r)
    if list(a.columns) != list(b.columns):
        v.errors.append(f"columns {list(a.columns)} != {list(b.columns)}")
        return v
    try:
        pd.testing.assert_frame_equal(a, b, check_dtype=False,
                                      check_exact=False, rtol=0, atol=1e-9)
    except AssertionError as e:
        v.errors.append(str(e).splitlines()[0])
    return v
