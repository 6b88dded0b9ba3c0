"""Shared-storage (pyarrow.fs) routing for the commit/lineage surfaces
(VERDICT r4 task 5): the resume protocol, the materialize run exchange and
the label-index build must behave identically when all output I/O goes
through the pyarrow.fs API instead of the POSIX fast path.

Two filesystems are exercised:
  * ``LocalFileSystem`` — same machine, but every open/rename/list runs
    through the fs code path;
  * ``SubTreeFileSystem`` — the prefix-rewriting mock: paths the pipeline
    sees are RELATIVE names that only exist under the subtree root, so any
    code path that sneaks around ``fs`` with a bare os/open call either
    fails or leaves droppings outside the root (asserted absent).
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd
from pyarrow.fs import LocalFileSystem, SubTreeFileSystem

from mannheimsearchjoinsengine_ray.config import PipelineConfig
from mannheimsearchjoinsengine_ray.pipelines import kg
from mannheimsearchjoinsengine_ray.sources import pages as P
from mannheimsearchjoinsengine_ray.stages.materialize import (
    completed_partitions,
    read_materialized,
)

N_PAGES = 120  # fragments bottom out at 50 rows/file — need >=3 files
# near-label subjects merge under this config, so phase 2 rewrites the
# triples into final/ (test_canonical_merge_path.py uses the same one)
MERGE_CFG = dict(fuzzy_min_confidence=0.45, minhash_bands=16)


@pytest.fixture(scope="module")
def corpus_dir(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("fsio_corpus"))
    P.write_corpus(d, n_pages=N_PAGES, seed=11, parallelism=4)
    return d


def _rows(ds):
    return sorted(map(tuple, ds.to_pandas().values.tolist()))


def test_resume_crash_via_localfs(ray_session, corpus_dir, tmp_path,
                                  crash_at):
    """FIXTURES F8 semantics through the fs API: kill after 1 shard, resume,
    final output identical to a plain POSIX-path run."""
    fs = LocalFileSystem()
    out_posix = str(tmp_path / "posix")
    out_fs = str(tmp_path / "viafs")
    kg.run_full(corpus_dir, out_posix, num_shards=3, partitions_per_shard=2)

    crash_at("shard_manifest_00000.json", "after")
    with pytest.raises(RuntimeError, match="injected crash"):
        kg.run_full(corpus_dir, out_fs, num_shards=3, partitions_per_shard=2,
                    fs=fs)
    assert len(kg.completed_shards(out_fs, fs=fs)) == 1
    # the POSIX reader sees the same commit records the fs reader does
    assert kg.completed_shards(out_fs) == kg.completed_shards(out_fs, fs=fs)
    m = kg.run_full(corpus_dir, out_fs, num_shards=3, partitions_per_shard=2,
                    fs=fs)
    assert m["shards_skipped"] == 1 and m["shards_run"] == 2
    assert _rows(kg.read_output(out_posix)) == \
        _rows(kg.read_output(out_fs, fs=fs))
    # no transient state left behind
    assert not glob.glob(os.path.join(out_fs, "**", "_runs"), recursive=True)
    assert not glob.glob(os.path.join(out_fs, "**", "*.tmp"), recursive=True)


@pytest.fixture(scope="module")
def merged_posix(corpus_dir, tmp_path_factory):
    """A POSIX ``run_full`` whose phase 2 rewrites into ``final/``."""
    out = str(tmp_path_factory.mktemp("merged_posix"))
    m = kg.run_full(corpus_dir, out, cfg=PipelineConfig(**MERGE_CFG),
                    num_shards=2, partitions_per_shard=3)
    assert m["merged_uris"] > 0
    return out


@pytest.mark.parametrize("route", [None, True], ids=["route_auto",
                                                      "route_shards"])
@pytest.mark.parametrize("labels", ["local", "dataset"])
def test_prefix_rewriting_subtree_fs(ray_session, corpus_dir, merged_posix,
                                     tmp_path, force_site, labels, route):
    """SubTreeFileSystem mock: the pipeline writes to a RELATIVE path that is
    only meaningful under the subtree root — proves no output I/O bypasses
    ``fs`` (a bare os call would land in the driver's cwd, asserted clean).
    Phase 2 merges, so ``final/`` is written through ``fs`` too, on both
    label branches (driver-local and Dataset-native), and the label index
    is read through ``fs`` by the replicated and the shard-routed
    resolve."""
    if labels == "dataset":
        force_site("kg.labels", False)
    root = str(tmp_path / "bucket")
    os.makedirs(root)
    fs = SubTreeFileSystem(root, LocalFileSystem())
    rel_out = "kg_out_rel_fsio_test"
    escaped = os.path.join(os.getcwd(), rel_out)

    try:
        m = kg.run_full(corpus_dir, rel_out,
                        cfg=PipelineConfig(**MERGE_CFG, link_shard_route=route),
                        num_shards=2, partitions_per_shard=3, fs=fs)
        assert m["shards_run"] == 2 and m["merged_uris"] > 0
        concrete = os.path.join(root, rel_out)
        assert os.path.isdir(concrete)
        manifests = [f for f in os.listdir(concrete)
                     if f.startswith("shard_manifest_")]
        assert len(manifests) == 2
        with open(os.path.join(concrete, "final_manifest.json")) as fh:
            assert json.load(fh)["layout"] == "final"
        assert _rows(kg.read_output(merged_posix)) == \
            _rows(kg.read_output(rel_out, fs=fs))
        assert _rows(read_materialized(os.path.join(merged_posix, "final"))) \
            == _rows(read_materialized(os.path.join(rel_out, "final"), fs=fs))
        for d in ("shard=00000/edges", "shard=00001/edges"):
            assert _rows(rd.read_parquet(os.path.join(merged_posix, d))) == \
                _rows(rd.read_parquet(os.path.join(concrete, d)))
        assert not glob.glob(os.path.join(concrete, "**", "_runs"),
                             recursive=True)
        assert not glob.glob(os.path.join(concrete, "**", "*.tmp"),
                             recursive=True)
        assert not os.path.exists(escaped), \
            "output escaped the mock filesystem into the cwd"
    finally:
        import shutil
        shutil.rmtree(escaped, ignore_errors=True)


def test_skew_split_materialize_via_fs(ray_session, tmp_path):
    """The heavy-partition range-split path (sampling tasks + sub-merge tasks
    + driver commit) is fs-clean: identical output through SubTreeFileSystem
    and plain paths, staging dirs gone."""
    rng = np.random.RandomState(3)
    n = 3000
    subs = (["http://x/Head"] * (n // 3)
            + [f"http://x/E{rng.randint(0, 200)}" for _ in range(n - n // 3)])
    tbl = pa.table({
        "subj": subs,
        "pred": [f"http://x/p{rng.randint(0, 4)}" for _ in range(n)],
        "obj": [f"v{rng.randint(0, 1500)}" for _ in range(n)],
        "obj_type": ["string"] * n,
    })
    tbl = tbl.take(pa.array(rng.permutation(n)))

    root = str(tmp_path / "store")
    os.makedirs(root)
    fs = SubTreeFileSystem(root, LocalFileSystem())
    plain = str(tmp_path / "plain")

    s1 = kg.materialize_triples(rd.from_arrow(tbl).repartition(5), plain,
                                num_partitions=3, split_rows=400)
    s2 = kg.materialize_triples(rd.from_arrow(tbl).repartition(5), "mat_rel",
                                num_partitions=3, split_rows=400, fs=fs)
    assert sum(m["rows"] for m in s1) == n == sum(m["rows"] for m in s2)
    concrete = os.path.join(root, "mat_rel")
    multi = [d for d in glob.glob(os.path.join(concrete, "part=*"))
             if len(glob.glob(os.path.join(d, "*.parquet"))) > 1]
    assert multi, "heavy partition did not split under fs"
    assert not glob.glob(os.path.join(concrete, "*.tmp"))
    assert not os.path.isdir(os.path.join(concrete, "_runs"))
    assert completed_partitions("mat_rel", fs=fs) == {0, 1, 2}

    t1 = read_materialized(plain).to_pandas().sort_values(
        ["subj", "pred", "obj"]).reset_index(drop=True)
    t2 = read_materialized("mat_rel", fs=fs).to_pandas().sort_values(
        ["subj", "pred", "obj"]).reset_index(drop=True)
    assert t1.equals(t2)


def test_build_index_via_fs(ray_session, tmp_path):
    """Label-index build through the fs API: shard files, vocab and meta are
    content-identical to the POSIX build (posting sets and df are exact),
    and the index loads back through the same fs — meta, whole and one
    shard with the global vocabulary — scoring as the POSIX-built one."""
    import pyarrow.parquet as pq

    from mannheimsearchjoinsengine_ray.sources.pages import make_gazetteer
    from mannheimsearchjoinsengine_ray.state.index import (
        LabelIndex,
        build_index,
        index_meta,
        vocab_stats_for,
    )

    gaz = pa.table(make_gazetteer(60))
    root = str(tmp_path / "idxstore")
    os.makedirs(root)
    fs = SubTreeFileSystem(root, LocalFileSystem())

    posix_dir = str(tmp_path / "idx_posix")
    n1 = build_index(rd.from_arrow(gaz), posix_dir, num_shards=4)
    n2 = build_index(rd.from_arrow(gaz), "idx_rel", num_shards=4, fs=fs)
    assert n1 == n2 > 0

    concrete = os.path.join(root, "idx_rel")
    meta1 = json.load(open(os.path.join(posix_dir, "_meta.json")))
    meta2 = json.load(open(os.path.join(concrete, "_meta.json")))
    for k in ("num_shards", "shards", "n_entries", "postings", "sharding"):
        assert meta1[k] == meta2[k], k

    def table_rows(d, pat):
        rows = []
        for f in sorted(glob.glob(os.path.join(d, pat))):
            rows.extend(map(tuple, pq.read_table(f).to_pandas().values.tolist()))
        return sorted(rows)

    for s in meta1["shards"]:
        assert table_rows(posix_dir, f"shard_{s:04d}.parquet") == \
            table_rows(concrete, f"shard_{s:04d}.parquet")
    assert table_rows(os.path.join(posix_dir, "vocab"), "*.parquet") == \
        table_rows(os.path.join(concrete, "vocab"), "*.parquet")

    # the built index is servable: load from the concrete local path and
    # verify a search hits the same entity as the POSIX-built index
    ix1, ix2 = LabelIndex(posix_dir), LabelIndex(concrete)
    gold_label = gaz.column("label")[0].as_py()
    r1 = ix1.search(gold_label, fuzzy=False)
    r2 = ix2.search(gold_label, fuzzy=False)
    assert r1 and [(u, s) for u, s, *_ in r1] == [(u, s) for u, s, *_ in r2]

    # ... and through the fs it was built on: the relative path exists only
    # under the subtree root, so a bare POSIX read would fail
    assert index_meta("idx_rel", fs=fs) == meta2
    mentions = [gaz.column("label")[i].as_py() for i in (0, 7, 23)] + \
        ["no such entity", gold_label.upper() + "x"]

    def scored(ix):
        moffs, eids, scores = ix.score_many(mentions)
        uris = ix.entries_uri.take(pa.array(eids)).to_pylist()
        hits = sorted((int(m), u, float(sc)) for m, u, sc in zip(
            np.repeat(np.arange(len(mentions)), np.diff(moffs)), uris,
            scores))
        assert hits
        return hits

    assert scored(LabelIndex("idx_rel", fs=fs)) == scored(ix1)
    s0 = meta1["shards"][0]
    assert scored(LabelIndex("idx_rel", shards=[s0],
                             vocab=vocab_stats_for("idx_rel", fs=fs),
                             fs=fs)) == \
        scored(LabelIndex(posix_dir, shards=[s0],
                          vocab=vocab_stats_for(posix_dir)))


def test_throttled_fs_materialize_identical(ray_session, corpus_dir, tmp_path):
    """The slow-storage harness (`state/throttlefs.py`, VERDICT r4 task 8)
    is a faithful filesystem: the triples exchange through it (lz4 runs —
    the policy the harness exists to measure) is row-identical to the POSIX
    fast path, and its streams actually pay the configured rate."""
    import time

    from mannheimsearchjoinsengine_ray.state.throttlefs import (
        throttled_local_fs,
    )

    pages = kg.read_pages(corpus_dir, columns=["url", "html"])
    triples = kg.triples_ds(kg.extract_tables_ds(pages)).materialize()

    out_posix = str(tmp_path / "posix")
    kg.materialize_triples(triples, out_posix, num_partitions=4,
                           fingerprint="t")
    # generous rate so the test stays fast; latency 0
    fs = throttled_local_fs(rate_bytes_per_sec=200e6)
    out_fs = str(tmp_path / "throttled")
    kg.materialize_triples(triples, out_fs, num_partitions=4,
                           fingerprint="t", run_compression="lz4", fs=fs)
    assert _rows(read_materialized(out_posix)) == \
        _rows(read_materialized(out_fs, fs=fs))

    # rate: 2 MB at 10 MB/s must cost >= 0.15 s (timer slack below 0.2 ideal)
    slow = throttled_local_fs(rate_bytes_per_sec=10e6)
    t0 = time.perf_counter()
    with slow.open_output_stream(str(tmp_path / "probe.bin")) as fh:
        fh.write(b"x" * (2 * 1024 * 1024))
    assert time.perf_counter() - t0 >= 0.15
