"""The fused phase-1 shard pass of ``run_full`` against a test-local port of
the unfused phase 1 it replaced (separate executions for triples →
materialize, link → edges write and labels write), plus its commit rules:
unreported side files are pruned, a keyless block keeps the split schema,
partition bytes do not depend on run order, and a run starts one Ray Data
execution per shard (the extract) on the broadcast path.

Each ``aggregates.run_blocks`` pass runs as Ray tasks on the four-CPU
session cluster; the ``*_in_process`` tests repeat a check with every pass
forced in-process on the driver (the ``in_process`` fixture)."""

from __future__ import annotations

import filecmp
import glob
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mannheimsearchjoinsengine_ray.config import PipelineConfig
from mannheimsearchjoinsengine_ray.pipelines import kg
from mannheimsearchjoinsengine_ray.sources import pages as P
from mannheimsearchjoinsengine_ray.stages import aggregates
from mannheimsearchjoinsengine_ray.stages import link as L
from mannheimsearchjoinsengine_ray.stages import triples as T
from mannheimsearchjoinsengine_ray.state import fsio

# near-label subjects merge under this config, so phase 2 rewrites the
# triples into final/ (test_canonical_merge_path.py uses the same one)
MERGE_CFG = dict(fuzzy_min_confidence=0.45, minhash_bands=16)


@pytest.fixture(scope="module")
def corpus_dir(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("shard_pass_corpus"))
    P.write_corpus(d, n_pages=100, seed=42, parallelism=4)
    return d


def unfused_phase1(pages_path: str, out_dir: str, cfg: PipelineConfig,
                   num_shards: int, partitions_per_shard: int) -> None:
    """Port of run_full's phases 0 and 1 before the shard pass: per shard,
    triples → materialize_triples, mentions → link → rank-0 edges →
    write_parquet, label pairs → write_parquet, then the shard manifest."""
    import ray.data as rd

    from mannheimsearchjoinsengine_ray.state.index import build_index

    os.makedirs(out_dir, exist_ok=True)
    index_dir = os.path.join(out_dir, "label_index")
    n_postings = build_index(rd.from_arrow(pa.table(P.make_gazetteer(500))),
                             index_dir, num_shards=cfg.num_index_shards)
    fsio.write_json_atomic(None, os.path.join(out_dir, "index_manifest.json"),
                           {"postings": n_postings, "entities": 500})
    frags = kg.list_page_fragments(pages_path)
    for si in range(num_shards):
        group = frags[si::num_shards]
        shard_dir = os.path.join(out_dir, f"shard={si:05d}")
        tables = kg.extract_tables_ds(
            kg.read_pages(group, columns=["url", "html"]), cfg).materialize()
        part_stats = kg.materialize_triples(
            kg.triples_ds(tables, cfg), shard_dir,
            num_partitions=partitions_per_shard,
            fingerprint=";".join(os.path.basename(f) for f in group),
            run_compression="uncompressed")
        mentions = tables.map_batches(L.mentions_from_tables_batch,
                                      batch_format="pyarrow")
        L.top1_links(L.link_mentions(
            mentions, index_dir, cfg, top_k=1,
            distinct_ds=L.distinct_mentions(tables, from_tables=True))
        ).write_parquet(os.path.join(shard_dir, "edges"))
        tables.map_batches(T.label_pairs_from_tables_batch,
                           batch_format="pyarrow"
                           ).write_parquet(os.path.join(shard_dir, "labels"))
        fsio.write_json_atomic(None, kg._shard_manifest_path(out_dir, si), {
            "shard": si, "rows": sum(m["rows"] for m in part_stats),
            "fragments": [os.path.basename(f) for f in group],
            "partitions": len(part_stats), "completed_at": 0.0})


def _side_table(shard_dir: str, sub: str) -> pa.Table:
    files = sorted(glob.glob(os.path.join(shard_dir, sub, "*.parquet")))
    tbl = pa.concat_tables([pq.read_table(f) for f in files])
    return tbl.sort_by([(c, "ascending") for c in tbl.column_names])


def assert_same_outputs(a: str, b: str) -> None:
    parts = sorted(os.path.relpath(p, a) for p in
                   glob.glob(os.path.join(a, "**", "part=*", "*.parquet"),
                             recursive=True))
    assert parts == sorted(
        os.path.relpath(p, b) for p in
        glob.glob(os.path.join(b, "**", "part=*", "*.parquet"),
                  recursive=True))
    assert any(p.startswith("final") for p in parts)
    assert any(p.startswith("shard=") for p in parts)
    for p in parts:
        assert filecmp.cmp(os.path.join(a, p), os.path.join(b, p),
                           shallow=False), p
    manifests = sorted(os.path.relpath(p, a) for p in
                       glob.glob(os.path.join(a, "**", "*manifest*.json"),
                                 recursive=True))
    assert len(manifests) > 4
    for m in manifests:
        ma, mb = fsio.read_json(None, os.path.join(a, m)), \
            fsio.read_json(None, os.path.join(b, m))
        ma.pop("completed_at", None), mb.pop("completed_at", None)
        assert ma == mb, m
    for shard_dir in sorted(glob.glob(os.path.join(a, "shard=*"))):
        other = os.path.join(b, os.path.basename(shard_dir))
        for sub in ("edges", "labels"):
            ta, tb = _side_table(shard_dir, sub), _side_table(other, sub)
            assert ta.num_rows > 0
            assert ta.schema.equals(tb.schema, check_metadata=True)
            assert ta.equals(tb), (shard_dir, sub)


@pytest.mark.parametrize("broadcast", [True, False],
                         ids=["broadcast", "copartitioned"])
def test_fused_equals_unfused(ray_session, corpus_dir, tmp_path,
                              monkeypatch, force_site, broadcast):
    cfg = PipelineConfig(**MERGE_CFG)
    if not broadcast:
        force_site("link.broadcast", False)
    ref, out = str(tmp_path / "unfused"), str(tmp_path / "fused")
    unfused_phase1(corpus_dir, ref, cfg, num_shards=2, partitions_per_shard=2)
    # phase 2 of the current runner over the port's committed shards
    kg.run_full(corpus_dir, ref, cfg=cfg, num_shards=2, partitions_per_shard=2)

    joins = []
    real_join = L._link_merge_join
    monkeypatch.setattr(L, "_link_merge_join",
                        lambda *a, **k: joins.append(1) or real_join(*a, **k))
    m = kg.run_full(corpus_dir, out, cfg=cfg, num_shards=2,
                    partitions_per_shard=2)
    assert m["merged_uris"] > 0
    # the co-partitioned path writes its edges from its own bucket exchange
    assert len(joins) == (0 if broadcast else 2)
    assert_passes(m["passes"])
    assert_same_outputs(ref, out)


def assert_passes(passes: list[dict]) -> None:
    """Every pass of a run took the branch its CPU slots give: in-process
    at one slot, as tasks otherwise (where it has several items)."""
    assert {p["site"] for p in passes} >= {"_shard_pass", "_merge_unit",
                                          "_canonical_split"}
    if aggregates.cpu_slots() == 1:
        assert {p["tasks"] for p in passes} == {0}
    else:
        assert all(p["tasks"] == min(p["items"], aggregates.cpu_slots())
                   for p in passes if p["items"] > 1)
        assert any(p["tasks"] > 1 for p in passes)


@pytest.mark.parametrize("broadcast", [True, False],
                         ids=["broadcast", "copartitioned"])
def test_fused_equals_unfused_in_process(ray_session, in_process, corpus_dir,
                                         tmp_path, monkeypatch, force_site,
                                         broadcast):
    test_fused_equals_unfused(ray_session, corpus_dir, tmp_path, monkeypatch,
                              force_site, broadcast)


def test_fused_equals_unfused_copartitioned_exchange(ray_session,
                                                    exchange_path, corpus_dir,
                                                    tmp_path, monkeypatch,
                                                    force_site):
    """The co-partitioned merge, the resolve's distinct-mentions dedupe and
    phase 2's exchanges on their sort exchanges.  Phase 2 keeps its driver
    labels, CC and mapping, so its rewrite is the ``_canonical_split``
    pass."""
    for site in ("kg.labels", "canonicalize.mapping_edges", "kg.mapping"):
        force_site(site, True)
    test_fused_equals_unfused(ray_session, corpus_dir, tmp_path, monkeypatch,
                              force_site, broadcast=False)


@pytest.mark.parametrize("split_rows", [None, 40], ids=["whole", "split"])
def test_partition_bytes_ignore_run_order(ray_session, tmp_path, split_rows):
    """Stage B writes the same bytes whatever order the runs are reported
    in (task completion order): runs that repeat each (subj, pred) with
    other objects, merged with ``counts`` forward and reversed, give
    byte-identical partition files, whole and range-split."""
    runs = str(tmp_path / "runs")
    os.makedirs(runs)
    split = kg._run_splitter(runs, 2, "uncompressed")
    counts = []
    for b in range(4):
        n = 60
        counts += split(pa.table({
            "subj": [f"http://s/{i % 5}" for i in range(n)],
            "pred": [f"p{i % 2}" for i in range(n)],
            "obj": [f"o{i % 3}" for i in range(n)],
            "obj_type": ["string" if b % 2 else "int"] * n,
            "source_url": [f"http://u/{b}"] * n})).to_pylist()
    outs = []
    for name, order in (("forward", counts), ("reversed", counts[::-1])):
        src = str(tmp_path / f"runs-{name}")
        shutil.copytree(runs, src)
        outs.append(str(tmp_path / name))
        kg._merge_runs(order, outs[-1], src, "fp", split_rows)
    files = [sorted(os.path.relpath(f, out) for f in glob.glob(
        os.path.join(out, "part=*", "*.parquet"))) for out in outs]
    assert files[0] == files[1] and files[0]
    if split_rows:
        assert any("data-00001" in f for f in files[0])
    for f in files[0]:
        assert filecmp.cmp(os.path.join(outs[0], f), os.path.join(outs[1], f),
                           shallow=False), f


def test_unreported_side_files_are_pruned(ray_session, corpus_dir, tmp_path,
                                          monkeypatch):
    """A file in edges/ or labels/ that no task result reported (a retried
    task's orphan, a stray .tmp) is deleted before the shard commits."""
    out = str(tmp_path / "out")
    reported: dict[str, list[str]] = {}
    real_merge = kg._merge_runs

    def plant_then_merge(counts, out_dir, *args, **kw):
        for sub in ("edges", "labels"):
            d = os.path.join(out_dir, sub)
            names = sorted(os.listdir(d))
            reported[os.path.join(out_dir, sub)] = names
            # an orphan that duplicates a committed file's rows
            shutil.copy(os.path.join(d, names[0]),
                        os.path.join(d, "part-orphan.parquet"))
            with open(os.path.join(d, "part-stray.parquet.tmp"), "wb") as fh:
                fh.write(b"partial")
        return real_merge(counts, out_dir, *args, **kw)

    monkeypatch.setattr(kg, "_merge_runs", plant_then_merge)
    kg.run_full(corpus_dir, out, num_shards=2, partitions_per_shard=2)
    assert len(reported) == 4
    for d, names in reported.items():
        assert names and sorted(os.listdir(d)) == names


def test_unreported_side_files_are_pruned_in_process(ray_session, in_process,
                                                     corpus_dir, tmp_path,
                                                     monkeypatch):
    test_unreported_side_files_are_pruned(ray_session, corpus_dir, tmp_path,
                                          monkeypatch)


def test_keyless_shard_keeps_split_schema(ray_session, corpus_dir, tmp_path):
    """A shard whose every table is keyless yields no triples: its split
    rows are empty but carry the full (partition, rows, run_id) schema, so
    they concatenate with the side-file rows, and the shard commits 0
    rows."""
    row = "<tr>" + "<td>plain value</td>" * 3 + "</tr>"
    html = ("<html><body><table><tr><th>colour</th><th>shade</th>"
            "<th>tone</th></tr>" + row * 6 + "</table></body></html>")
    pages = str(tmp_path / "pages")
    os.makedirs(pages)
    shutil.copy(kg.list_page_fragments(corpus_dir)[0],
                os.path.join(pages, "a.parquet"))
    pq.write_table(pa.table({"url": [f"http://keyless/{i}" for i in range(3)],
                             "html": [html] * 3}),
                   os.path.join(pages, "b-keyless.parquet"))

    from mannheimsearchjoinsengine_ray.stages.extract import TableExtractor

    keyless = TableExtractor()(pq.read_table(
        os.path.join(pages, "b-keyless.parquet")))
    assert keyless.num_rows == 3
    assert not any(keyless.column("has_key").to_pylist())
    runs_dir = str(tmp_path / "runs")
    os.makedirs(runs_dir)
    split = kg._run_splitter(runs_dir, 2, "uncompressed")
    empty = split(T.triples_from_tables_batch(keyless))
    assert empty.num_rows == 0
    full = split(pa.table({"subj": ["http://x/a"], "pred": ["p"],
                           "obj": ["o"], "obj_type": ["string"]}))
    assert empty.schema == full.schema
    assert empty.column_names == ["partition", "rows", "run_id"]

    out = str(tmp_path / "out")
    m = kg.run_full(pages, out, num_shards=2, partitions_per_shard=2)
    assert m["triples"] > 0
    manifest = fsio.read_json(None, kg._shard_manifest_path(out, 1))
    assert manifest["rows"] == 0 and manifest["partitions"] == 0
    assert os.listdir(os.path.join(out, "shard=00001", "labels")) == []


def test_phase1_runs_one_execution_per_shard(ray_session, corpus_dir,
                                             tmp_path, monkeypatch):
    """Broadcast path: the extract is the one Ray Data execution between a
    shard's page read and its manifest write (distinct mentions, resolve,
    shard pass and stage-B merge are ``run_blocks`` passes), and phase 0
    (before the first shard) and phase 2 (after the last manifest) start
    none: a canonicalizing ``run_full`` starts one execution per shard."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    events: list[str] = []
    real_execute = StreamingExecutor.execute
    real_read = kg.read_pages
    real_commit = fsio.write_json_atomic

    def execute(self, *a, **kw):
        events.append("exec")
        return real_execute(self, *a, **kw)

    def read_pages(*a, **kw):
        events.append("shard")
        return real_read(*a, **kw)

    def commit(fs, path, obj):
        if os.path.basename(path).startswith("shard_manifest_"):
            events.append("commit")
        return real_commit(fs, path, obj)

    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    monkeypatch.setattr(kg, "read_pages", read_pages)
    monkeypatch.setattr(fsio, "write_json_atomic", commit)
    m = kg.run_full(corpus_dir, str(tmp_path / "out"),
                    cfg=PipelineConfig(**MERGE_CFG), num_shards=2,
                    partitions_per_shard=2)
    assert m["merged_uris"] > 0
    text = " ".join(events)
    windows = text.split("shard")[1:]
    assert [w.split("commit")[0].count("exec") for w in windows] == [1, 1], \
        events
    assert text.split("shard")[0].count("exec") == 0, events
    assert text.rsplit("commit", 1)[1].count("exec") == 0, events
    assert_passes(m["passes"])


def test_phase1_runs_one_execution_per_shard_in_process(ray_session,
                                                        in_process,
                                                        corpus_dir, tmp_path,
                                                        monkeypatch):
    test_phase1_runs_one_execution_per_shard(ray_session, corpus_dir,
                                             tmp_path, monkeypatch)
