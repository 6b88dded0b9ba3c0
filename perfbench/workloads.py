"""The workloads.  Each is a closed loop with one client: the benchmark
issues the next call only after the previous one returned and was checked.

A workload object lives for one benchmark run.  ``prepare`` makes the
seeded inputs without Ray; ``setup`` runs inside each fresh Ray job and is
timed as set-up; ``run`` is the timed call; ``collect`` pulls results that
live in the job; ``check`` judges them after the job ends.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

from perfbench import checks, inputs
from perfbench.session import ROOT


class Workload:
    name = ""

    def __init__(self, work_dir: str, seed: int):
        self.seed = seed
        self.inputs_dir = os.path.join(work_dir, "inputs")
        self.out_dir = os.path.join(work_dir, "out", self.name)
        os.makedirs(self.inputs_dir, exist_ok=True)

    def input_path(self, *parts) -> str:
        return os.path.join(self.inputs_dir, "-".join(
            [self.name, f"seed{self.seed}", *map(str, parts)]))

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        pass

    def reset(self) -> None:
        """Remove the previous call's output (untimed)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self) -> dict:
        raise NotImplementedError

    def collect(self, info: dict) -> None:
        pass

    def check(self, info: dict) -> list[checks.Verdict]:
        raise NotImplementedError

    def items(self, info: dict) -> int:
        """What ``throughput_per_s`` counts for this call."""
        raise NotImplementedError

    def sizes(self) -> dict:
        return {}

    def layers(self, info: dict, spans: dict) -> dict:
        """Per-layer metrics of a traced call that its spans do not give
        (``spans`` holds the ones they do)."""
        return {}


def bytes_written(root: str) -> int:
    """Bytes of the committed partition files under ``root``."""
    total = 0
    for dirpath, _, files in os.walk(root):
        if os.path.basename(dirpath).startswith("part="):
            total += sum(os.path.getsize(os.path.join(dirpath, f))
                         for f in files if f.endswith(".parquet"))
    return total


def kg_layers(m: dict, out_dir: str, written_root: str) -> dict:
    """Per-layer metrics of one ``run_full`` call: its phase timings, the
    merge count, the bytes it committed and its label index."""
    out = {f"pipelines.kg.{k}_s": m.get(f"{k}_sec", 0.0)
           for k in ("index", "extract", "triples", "link", "labels", "phase2")}
    out["stages.canonicalize.merged_uris"] = m.get("merged_uris", 0)
    out["stages.materialize.bytes_written"] = bytes_written(written_root)
    out.update(index_load_metrics(os.path.join(out_dir, "label_index")))
    return out


def index_load_metrics(index_dir: str) -> dict:
    """Resident-size estimate of an index plus the time and peak RSS of
    loading it, whole and one shard, each in a fresh process."""
    from mannheimsearchjoinsengine_ray.state.index import index_meta

    meta = index_meta(index_dir) or {}
    out = {"state.index.mem_bytes_est": meta.get("mem_bytes_est", 0)}
    if not meta:
        return out
    shards = meta.get("shards") or []
    for prefix, shard in (("load", None), ("shard_load", shards[0] if shards else None)):
        if prefix == "shard_load" and shard is None:
            continue
        code = (
            "import resource, sys, time\n"
            f"sys.path.insert(0, {ROOT!r})\n"
            "from mannheimsearchjoinsengine_ray.state.index import "
            "LabelIndex, vocab_stats_for\n"
            "t0 = time.perf_counter()\n"
            f"shard = {shard!r}\n"
            f"idx = LabelIndex({index_dir!r}) if shard is None else "
            f"LabelIndex({index_dir!r}, shards=[shard], "
            f"vocab=vocab_stats_for({index_dir!r}))\n"
            "print(time.perf_counter() - t0, "
            "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)\n")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=120)
        sec, rss = res.stdout.split()[-2:]
        out[f"state.index.{prefix}_s"] = float(sec)
        out[f"state.index.{prefix}_rss_mb"] = float(rss)
    return out


class KgCrawl(Workload):
    """``run_full`` over a generated page corpus with the default 500-entity
    gazetteer: the paper's main path, phases 0-2.  A small share of the
    linked key cells is rewritten as token-rotated aliases of their entity
    (same tokens, different subject URI), so phase 2 has real merges to
    canonicalize and a final layout to materialize."""
    name = "kg_crawl"
    MIN_TRIPLES = 20_000
    ALIAS_SHARE = 0.05

    def prepare(self):
        self.corpus = inputs.kg_corpus(self.seed, self.MIN_TRIPLES, self.ALIAS_SHARE)
        specs = self.corpus.specs
        self.corpus_dir = inputs.cached(
            self.input_path(self.MIN_TRIPLES, self.ALIAS_SHARE),
            lambda d: inputs.write_pages(d, specs))
        golden = self.corpus.golden
        self.mapping = checks.planted_mapping(self.corpus.rotated,
                                              {t[0] for t in golden})
        self.golden = checks.expected_canon_rows(golden, self.mapping)
        self.html_tables = sum(len(s.tables) for s in specs)

    def run(self):
        from mannheimsearchjoinsengine_ray.pipelines import kg

        return kg.run_full(self.corpus_dir, self.out_dir, num_shards=1,
                           partitions_per_shard=4)

    def check(self, info):
        phase1 = checks.read_partitions(os.path.join(self.out_dir, "shard=00000"))
        final = checks.read_partitions(os.path.join(self.out_dir, "final"))
        return [checks.check_triples(final, self.golden),
                checks.check_canon(phase1, final, self.corpus.rotated)]

    def items(self, info):
        return info["final_rows"]

    def sizes(self):
        c = self.corpus
        return {"pages": len(c.specs), "golden_triples": len(self.golden),
                "html_tables": self.html_tables, "key_cells": c.key_cells,
                "alias_cells": c.rotated_cells,
                "alias_share": round(c.rotated_cells / max(1, c.key_cells), 4),
                "planted_merges": len(self.mapping)}

    def layers(self, info, spans):
        out = kg_layers(info, self.out_dir, self.out_dir)
        out["stages.extract.tables_kept_ratio"] = \
            spans["stages.extract.tables_out"] / max(1, self.html_tables)
        return out


class LinkBigKb(Workload):
    """A scale gazetteer linked by ``link_mentions`` + ``top1_links`` over a
    head-skewed mention stream with edit-distance-perturbed mentions.  The
    index is rebuilt in each job's set-up."""
    name = "link_bigkb"
    N_ENTITIES = 10_000
    N_ROWS = 2_000
    N_DISTINCT = 600
    PERTURBED_SHARE = 0.1
    NUM_SHARDS = 4
    # the replicate guard scaled with the KB: the default 256 MiB guard
    # against a 150k-entity KB, here 10k entities against 256 MiB × 10/150,
    # so the auto-router shard-routes as it does at full size
    REPLICATE_LIMIT = (256 << 20) * N_ENTITIES // 150_000

    def prepare(self):
        from mannheimsearchjoinsengine_ray.sources.pages import NS

        self.gazetteer = inputs.scale_gazetteer(self.N_ENTITIES)
        tbl, eids, self.perturbed = inputs.mention_stream(
            self.seed, self.N_ROWS, self.N_DISTINCT, self.N_ENTITIES,
            self.PERTURBED_SHARE)
        self.want = [f"{NS}E{e}" for e in eids.tolist()]

        def write(d):
            import pyarrow.parquet as pq

            pq.write_table(tbl, os.path.join(d, "mentions.parquet"))

        self.mentions = os.path.join(
            inputs.cached(self.input_path(self.N_ENTITIES, self.N_ROWS,
                                          self.N_DISTINCT, self.PERTURBED_SHARE),
                          write),
            "mentions.parquet")
        self.index_dir = os.path.join(self.out_dir, "index")

    def setup(self):
        import ray.data as rd

        from mannheimsearchjoinsengine_ray.state.index import build_index

        shutil.rmtree(self.index_dir, ignore_errors=True)
        t0 = time.perf_counter()
        build_index(rd.from_arrow(self.gazetteer), self.index_dir,
                    num_shards=self.NUM_SHARDS)
        self.build_s = time.perf_counter() - t0

    def reset(self):
        pass  # the index in out_dir was just built by setup

    def run(self):
        import ray.data as rd

        from mannheimsearchjoinsengine_ray.config import PipelineConfig
        from mannheimsearchjoinsengine_ray.stages import link as L

        cfg = PipelineConfig(link_index_replicate_limit=self.REPLICATE_LIMIT)
        edges = L.top1_links(L.link_mentions(rd.read_parquet(self.mentions),
                                             self.index_dir, cfg))
        return {"edges": edges.materialize()}

    def collect(self, info):
        tbl = info.pop("edges").to_arrow_refs()
        import pyarrow as pa
        import ray

        tables = [t for t in ray.get(tbl) if t.num_rows]
        t = pa.concat_tables(tables) if tables else None
        info["row_idx"] = t.column("row_idx").to_pylist() if t else []
        info["entity_uri"] = t.column("entity_uri").to_pylist() if t else []

    def check(self, info):
        return [checks.check_links(info["row_idx"], info["entity_uri"], self.want)]

    def items(self, info):
        return self.N_ROWS

    def sizes(self):
        return {"entities": self.N_ENTITIES, "mentions": self.N_ROWS,
                "distinct_mentions": self.N_DISTINCT,
                "perturbed_distinct": round(self.PERTURBED_SHARE * self.N_DISTINCT),
                "perturbed_rows": self.perturbed,
                "perturbed_row_share": round(self.perturbed / self.N_ROWS, 4),
                "replicate_limit_bytes": self.REPLICATE_LIMIT}

    def layers(self, info, spans):
        return {"state.index.build_s": self.build_s,
                **index_load_metrics(self.index_dir)}


class OperatorMix(Workload):
    """A fixed, ordered list of ``QUERIES`` entries over generated relational
    tables, each checked against its DuckDB oracle."""
    name = "operator_mix"
    N_CUSTOMERS = 4000
    # tables each query reads: throughput counts their rows
    QUERY_TABLES = {
        "revenue_by_nation": ["lineitem", "orders", "customer", "nation"],
        "customers_with_orders": ["orders", "customer"],
        "orders_without_lineitems": ["lineitem", "orders"],
        "events_last_order": ["events", "orders"],
        "exact_dedup": ["documents"],
        "user_sessions": ["events"],
    }

    def prepare(self):
        import duckdb

        from mannheimsearchjoinsengine_ray.pipelines.queries import ORACLE_SQL

        rows = {}

        def write(d):
            rows.update(inputs.write_tables(d, self.seed, self.N_CUSTOMERS))
            with open(os.path.join(d, "rows.json"), "w") as fh:
                json.dump(rows, fh)

        self.tables_dir = inputs.cached(self.input_path(self.N_CUSTOMERS), write)
        with open(os.path.join(self.tables_dir, "rows.json")) as fh:
            self.table_rows = json.load(fh)
        con = duckdb.connect()
        try:
            for t in self.table_rows:
                con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet("
                            f"'{self.tables_dir}/{t}.parquet')")
            self.oracle = {q: con.execute(ORACLE_SQL[q]).df()
                           for q in self.QUERY_TABLES}
        finally:
            con.close()

    def run(self):
        from mannheimsearchjoinsengine_ray.pipelines.queries import QUERIES

        results, times = {}, {}
        for q in self.QUERY_TABLES:
            t0 = time.perf_counter()
            res = QUERIES[q](self.tables_dir)
            results[q] = res if hasattr(res, "columns") else res.to_pandas()
            times[q] = time.perf_counter() - t0
        return {"results": results, "times": times}

    def check(self, info):
        return [checks.check_query(info["results"][q], self.oracle[q])
                for q in self.QUERY_TABLES]

    def items(self, info):
        return sum(self.table_rows[t] for ts in self.QUERY_TABLES.values()
                   for t in ts)

    def sizes(self):
        return {f"{t}_rows": n for t, n in self.table_rows.items()}

    def layers(self, info, spans):
        return {f"pipelines.queries.{q}_s": s for q, s in info["times"].items()}


WORKLOADS = {w.name: w for w in (KgCrawl, LinkBigKb, OperatorMix)}
