"""Statistics side-outputs + table cleaning (density filters, normalizers).

Port of SURVEY §2.5/§2.6 stats & cleaning operators:
  * distributions — DistributionOfValuesPerKey (:29-90),
    DistributionOfTablesPerKey (:13-34), NullValuesCounter, header
    frequencies (TableStatsAnalyzer) → groupby counts written as metrics
  * density filters — TableDataCleaner.filterColumnsByColumnDensity /
    filterRowsByRowDensity / removeNullRows (:217-405): drop columns whose
    null density exceeds ``column_density``, rows below ``row_density``
  * normalize_column_unit / normalize_column_numeric (:148-210): substitute
    unit cells with converted base values; strip non-numeric chars and
    collapse multi-dot numbers
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..config import DEFAULT_CONFIG, NULL_VALUE, PipelineConfig
from ..functions.parsers import to_float
from ..functions.units import parse_unit


# ---------------------------------------------------------------------------
# distributions (metrics side-outputs)
# ---------------------------------------------------------------------------

def values_per_key_distribution(triples_ds):
    """# triples per subject (DistributionOfValuesPerKey analog) via
    two-phase aggregation."""
    from .aggregates import two_phase_agg

    projected = triples_ds.map_batches(
        lambda t: pa.table({"subj": t["subj"]}), batch_format="pyarrow")
    return two_phase_agg(projected, ["subj"], {"n_values": (None, "count")})


def tables_per_key_distribution(mentions_ds):
    """# distinct source tables per mention (DistributionOfTablesPerKey).
    Mention cardinality is corpus-sized, so the final merge goes through
    two_phase_agg (map-side partials, coalesced final) — never a bare
    high-cardinality groupby."""
    from .aggregates import two_phase_agg

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["mention", "url", "table_idx"])
        return df.groupby("mention", sort=False).size().rename("n").reset_index()

    return two_phase_agg(
        mentions_ds.map_batches(partial, batch_format="pandas"),
        ["mention"], {"n_tables": ("n", "sum")})


def header_frequencies(tables_ds):
    """Header → frequency over extracted tables (TableStatsAnalyzer)."""
    def partial(t: pa.Table) -> pd.DataFrame:
        headers: list[str] = []
        for hs in t.column("headers").to_pylist():
            headers.extend(hs)
        return pd.DataFrame({"header": headers})

    from .aggregates import two_phase_agg

    import ray.data as rd  # noqa: F401

    exploded = tables_ds.map_batches(partial, batch_format="pyarrow")
    return two_phase_agg(exploded, ["header"], {"frequency": (None, "count")})


def link_column_scan(tables_ds, min_link_ratio: float = 0.1,
                     domain_substring: str | None = None):
    """Scan extracted tables for link columns (WikiLinkLookup analog,
    SJ/wikipedia/WikiLinkLookup.java:42-120: columns with >10% wikipedia.org
    links): per column, the fraction of URL-shaped cells, optionally
    restricted to a domain substring.  Returns (url, table_idx, col_idx,
    header, link_ratio) for qualifying columns."""
    from ..functions.parsers import parse_url

    def scan(batch: pa.Table) -> pd.DataFrame:
        out = {"url": [], "table_idx": [], "col_idx": [], "header": [],
               "link_ratio": []}
        for url, ti, headers, rows in zip(
            batch.column("url").to_pylist(), batch.column("table_idx").to_pylist(),
            batch.column("headers").to_pylist(), batch.column("rows").to_pylist(),
        ):
            if not rows:
                continue
            for ci, header in enumerate(headers):
                hits = 0
                total = 0
                for r in rows:
                    v = r[ci] if ci < len(r) else None
                    if v in (None, "", NULL_VALUE):
                        continue
                    total += 1
                    if parse_url(v) and (domain_substring is None
                                         or domain_substring in v):
                        hits += 1
                if total and hits / total > min_link_ratio:
                    out["url"].append(url)
                    out["table_idx"].append(ti)
                    out["col_idx"].append(ci)
                    out["header"].append(header)
                    out["link_ratio"].append(hits / total)
        return pd.DataFrame(out)

    return tables_ds.map_batches(scan, batch_format="pyarrow")


def null_density_per_column(df: pd.DataFrame) -> pd.DataFrame:
    """(column_name, null_density) for a pandas frame — NULL sentinel aware."""
    rows = []
    for c in df.columns:
        col = df[c]
        nulls = col.isna() | (col.astype(str) == NULL_VALUE) | (col.astype(str) == "")
        rows.append({"column_name": c, "null_density": float(nulls.mean())})
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# density filters + normalizers over table records (stages.extract schema)
# ---------------------------------------------------------------------------

def _clean_table_record(headers, col_types, key_idx, rows,
                        cfg: PipelineConfig):
    """Apply TableDataCleaner semantics to one table: unit/numeric
    normalization, null-row removal, row/column density filters.
    Returns (headers, col_types, key_idx, rows) or None when the table
    degenerates below min_cols/min_rows."""
    n_cols = len(headers)

    # 1. normalize unit + numeric columns in place
    new_rows = []
    for row in rows:
        out = list(row)
        for ci in range(n_cols):
            v = out[ci]
            if v in (None, "", NULL_VALUE):
                continue
            if col_types[ci] == "unit":
                pu = parse_unit(v)
                if pu is not None:
                    out[ci] = repr(pu.base_value)
            elif col_types[ci] == "numeric":
                f = to_float(v)
                if f is not None:
                    out[ci] = repr(f)
        new_rows.append(out)
    rows = new_rows

    def is_null(v) -> bool:
        return v in (None, "", NULL_VALUE)

    # 2. remove all-null rows (removeNullRows)
    rows = [r for r in rows if not all(is_null(v) for i, v in enumerate(r))]

    # 3. row density: drop rows with too many nulls (filterRowsByRowDensity);
    # the key cell never counts as removable context
    kept_rows = []
    for r in rows:
        non_key = [v for i, v in enumerate(r) if i != key_idx]
        if not non_key:
            continue
        density = sum(0 if is_null(v) else 1 for v in non_key) / len(non_key)
        if density >= cfg.row_density:
            kept_rows.append(r)
    rows = kept_rows

    # 4. column density: drop columns whose null share exceeds column_density
    if rows:
        keep_cols = []
        for ci in range(n_cols):
            if ci == key_idx:
                keep_cols.append(ci)
                continue
            nulls = sum(1 for r in rows if is_null(r[ci]))
            if nulls / len(rows) <= cfg.column_density:
                keep_cols.append(ci)
        if len(keep_cols) < n_cols:
            idx_map = {old: new for new, old in enumerate(keep_cols)}
            headers = [headers[i] for i in keep_cols]
            col_types = [col_types[i] for i in keep_cols]
            rows = [[r[i] for i in keep_cols] for r in rows]
            key_idx = idx_map.get(key_idx, -1)

    if len(headers) < cfg.min_cols or len(rows) < cfg.min_rows or key_idx < 0:
        return None
    return headers, col_types, key_idx, rows


def clean_tables_batch(batch: pa.Table,
                       cfg: PipelineConfig = DEFAULT_CONFIG) -> pa.Table:
    """Table-record batch → cleaned table records (TableDataCleaner.cleanTable
    minus the duplicate-column machinery, which lives in stages/matching +
    stages/canonicalize)."""
    from .extract import _TABLE_RECORD_SCHEMA

    out = {n: [] for n in _TABLE_RECORD_SCHEMA.names}
    for url, ti, headers, col_types, key_idx, has_key, rows, raw_keys in zip(
        batch.column("url").to_pylist(), batch.column("table_idx").to_pylist(),
        batch.column("headers").to_pylist(), batch.column("col_types").to_pylist(),
        batch.column("key_idx").to_pylist(), batch.column("has_key").to_pylist(),
        batch.column("rows").to_pylist(), batch.column("raw_keys").to_pylist(),
    ):
        if not has_key:
            continue
        cleaned = _clean_table_record(headers, col_types, key_idx, rows, cfg)
        if cleaned is None:
            continue
        headers2, col_types2, key_idx2, rows2 = cleaned
        out["url"].append(url)
        out["table_idx"].append(ti)
        out["n_rows"].append(len(rows2))
        out["headers"].append(headers2)
        out["col_types"].append(col_types2)
        out["key_idx"].append(key_idx2)
        out["has_key"].append(True)
        out["rows"].append(rows2)
        out["raw_keys"].append([r[key_idx2] for r in rows2])
    return pa.Table.from_pydict(out, schema=_TABLE_RECORD_SCHEMA)
