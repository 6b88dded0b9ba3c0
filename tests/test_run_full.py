"""run_full (4-stage pipeline) tests: phases, resume, entity-type grouping,
skew stress."""

from __future__ import annotations

import glob
import json
import os
import time

import pandas as pd
import pyarrow as pa
import pytest

from mannheimsearchjoinsengine_ray.config import PipelineConfig
from mannheimsearchjoinsengine_ray.pipelines import kg
from mannheimsearchjoinsengine_ray.sources import pages as P
from mannheimsearchjoinsengine_ray.stages import canonicalize as C
from mannheimsearchjoinsengine_ray.stages import link as L


@pytest.fixture(scope="module")
def corpus_dir(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("full_corpus"))
    P.write_corpus(d, n_pages=100, seed=42, parallelism=4)
    return d


def test_run_full_phases_and_resume(ray_session, corpus_dir, tmp_path):
    out = str(tmp_path / "full_out")
    m1 = kg.run_full(corpus_dir, out, num_shards=2, partitions_per_shard=2)
    assert m1["final_rows"] > 0
    assert os.path.exists(os.path.join(out, "index_manifest.json"))
    assert os.path.exists(os.path.join(out, "final_manifest.json"))
    # edges + labels side-outputs exist per shard
    for si in range(2):
        sd = os.path.join(out, f"shard={si:05d}")
        assert os.path.isdir(os.path.join(sd, "edges"))
        assert os.path.isdir(os.path.join(sd, "labels"))
    # resume: everything skipped, same row count
    m2 = kg.run_full(corpus_dir, out, num_shards=2, partitions_per_shard=2)
    assert m2["final_rows"] == m1["final_rows"]
    assert m2["triples"] == 0  # nothing re-ran
    assert m2["wall_sec"] < m1["wall_sec"]


# near-label subjects merge under this config, so phase 2 rewrites the
# triples into final/ (test_canonical_merge_path.py uses the same one)
MERGE_CFG = dict(fuzzy_min_confidence=0.45, minhash_bands=16)


def _data_files(out: str) -> dict[str, bytes]:
    """Relative path → bytes of every partition data file under the
    phase-1 shards and ``final/`` (manifests carry ``completed_at``)."""
    files = {}
    for pat in ("shard=*/part=*/*.parquet", "final/part=*/*.parquet"):
        for f in glob.glob(os.path.join(out, pat)):
            with open(f, "rb") as fh:
                files[os.path.relpath(f, out)] = fh.read()
    return files


# the size choices of phase 0 (index), phase 1 (link broadcast) and phase 2
# (labels, mapping) of a merging two-shard run
RUN_SITES = {"index.entities", "index.postings", "link.broadcast",
             "kg.labels", "kg.mapping"}


def _choices(decisions: list[dict]) -> dict[str, set[bool]]:
    """Per ``RUN_SITES`` site: the set of choices the run recorded."""
    out: dict[str, set[bool]] = {}
    for d in decisions:
        if d["site"] in RUN_SITES:
            out.setdefault(d["site"], set()).add(d["choice"])
    return out


def _final_rows(out: str) -> pd.DataFrame:
    from mannheimsearchjoinsengine_ray.stages.materialize import (
        read_materialized,
    )

    df = read_materialized(os.path.join(out, "final")).to_pandas()
    cols = ["subj", "pred", "obj", "obj_type", "source_url"]
    return df[cols].sort_values(cols).reset_index(drop=True)


@pytest.fixture(scope="module")
def uninterrupted(corpus_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("uninterrupted"))
    m = kg.run_full(corpus_dir, out, cfg=PipelineConfig(**MERGE_CFG),
                    num_shards=2, partitions_per_shard=2)
    assert m["merged_uris"] > 0
    # every size choice of the run keeps its data on the driver
    assert _choices(m["decisions"]) == {s: {True} for s in RUN_SITES}
    files = _data_files(out)
    assert any(f.startswith("final") for f in files)
    return files, _final_rows(out)


@pytest.mark.parametrize("manifest,when,skipped", [
    ("index_manifest.json", "before", 0),
    ("index_manifest.json", "after", 0),
    ("shard_manifest_00000.json", "before", 0),
    ("shard_manifest_00000.json", "after", 1),
    ("final_manifest.json", "before", 2),
    ("final_manifest.json", "after", 2),
], ids=["index-before", "index-after", "shard0-before", "shard0-after",
        "final-before", "final-after"])
def test_resume_at_every_commit(ray_session, corpus_dir, uninterrupted,
                                tmp_path, crash_at, manifest, when, skipped):
    """A run killed just before or just after each commit — the index
    manifest, shard 0's manifest, the final manifest — resumes to partition
    data files byte-identical to an uninterrupted run's."""
    out = str(tmp_path / "out")
    cfg = PipelineConfig(**MERGE_CFG)
    crash_at(manifest, when)
    with pytest.raises(RuntimeError, match="injected crash"):
        kg.run_full(corpus_dir, out, cfg=cfg, num_shards=2,
                    partitions_per_shard=2)
    m = kg.run_full(corpus_dir, out, cfg=cfg, num_shards=2,
                    partitions_per_shard=2)
    assert m["shards_skipped"] == skipped
    assert _data_files(out) == uninterrupted[0]


def test_run_full_exchange_path_decisions(ray_session, corpus_dir,
                                          uninterrupted, tmp_path,
                                          exchange_path):
    """With every size guard forced to its distributed side, the run's
    decisions record each index, link-broadcast, label and mapping choice
    as False, and ``final/`` holds the same rows as the driver-side run."""
    out = str(tmp_path / "out")
    m = kg.run_full(corpus_dir, out, cfg=PipelineConfig(**MERGE_CFG),
                    num_shards=2, partitions_per_shard=2)
    assert m["merged_uris"] > 0
    assert _choices(m["decisions"]) == {s: {False} for s in RUN_SITES}
    pd.testing.assert_frame_equal(_final_rows(out), uninterrupted[1])


def test_edges_carry_entity_type(ray_session, corpus_dir, tmp_path):
    out = str(tmp_path / "typed_out")
    kg.run_full(corpus_dir, out, num_shards=1, partitions_per_shard=2)
    import ray.data as rd

    edges = rd.read_parquet(os.path.join(out, "shard=00000", "edges")).to_pandas()
    assert "entity_type" in edges.columns
    types = set(edges["entity_type"]) - {""}
    # head types (F4 skew) must appear
    assert types & {"Place", "Person", "Organisation"}
    agg = L.aggregate_edges(
        rd.read_parquet(os.path.join(out, "shard=00000", "edges")),
        left_total_mentions=len(edges)).to_pandas()
    assert set(agg["entity_group"]) >= (types & {"Place", "Person", "Organisation"})
    # ~30% of entities are head-typed: their aggregate count dominates no
    # single group pathologically (two-phase combiner absorbed the skew)
    assert agg["count"].sum() == len(edges)


def test_lsh_hot_block_bounded(ray_session):
    """Skew stress: 500 near-identical names share every band — star capping
    keeps candidate pairs O(n), not O(n^2)."""
    names = [f"common shared name variant{i % 3}" for i in range(500)]
    df = pd.DataFrame({"id": [f"id{i:04d}" for i in range(500)], "name": names})
    t0 = time.time()
    edges = C.alias_edges_local(df, PipelineConfig(), min_jaccard=0.5)
    wall = time.time() - t0
    # O(n^2) would be ~125k pairs; star capping bounds it near O(n·bands)
    assert len(edges) < 20_000
    assert wall < 10.0
    # components still connect everything that shares a name variant
    comp = C.connected_components_local(edges)
    assert comp["component"].nunique() <= 3


def test_distributed_cc_random_graph(ray_session):
    """Distributed CC equals union-find on a random 300-edge graph."""
    import numpy as np
    import ray.data as rd

    rng = np.random.default_rng(9)
    edges = pd.DataFrame({
        "left_id": [f"n{rng.integers(0, 120):03d}" for _ in range(300)],
        "right_id": [f"n{rng.integers(0, 120):03d}" for _ in range(300)],
    })
    edges = edges[edges["left_id"] != edges["right_id"]].reset_index(drop=True)
    local = C.connected_components_local(edges)
    dist = C.connected_components_distributed(rd.from_pandas(edges),
                                              num_buckets=4).to_pandas()
    a = local.sort_values("id").reset_index(drop=True)
    b = dist.sort_values("id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_distributed_cc_random_graph_exchange(ray_session, exchange_path):
    test_distributed_cc_random_graph(ray_session)


def test_tables_per_key_distribution(ray_session):
    import ray.data as rd

    from mannheimsearchjoinsengine_ray.stages.stats import tables_per_key_distribution

    mentions = pd.DataFrame({
        "url": ["u1", "u1", "u2", "u2"],
        "table_idx": [0, 0, 0, 1],
        "row_idx": [0, 1, 0, 0],
        "mention": ["alpha", "alpha", "alpha", "beta"],
    })
    out = tables_per_key_distribution(rd.from_pandas(mentions)).to_pandas()
    m = dict(zip(out["mention"], out["n_tables"]))
    assert m["alpha"] == 2  # u1/t0 (deduped) + u2/t0
    assert m["beta"] == 1


def test_materialize_rows_exact_and_runs_cleaned(ray_session, tmp_path):
    """Exactly-once accounting: the merge reads ONLY the run files reported
    by stage-A task results (an orphan from a lost retry would be ignored),
    so the committed row total is exact; the transient runs dir is removed
    after the merge."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from mannheimsearchjoinsengine_ray.pipelines.kg import materialize_triples

    tbl = pa.table({
        "subj": [f"http://x/s{i}" for i in range(100)],
        "pred": ["p"] * 100,
        "obj": [str(i) for i in range(100)],
        "obj_type": ["string"] * 100,
    })
    out = str(tmp_path / "mat")
    ds = rd.from_arrow(tbl).repartition(5)
    stats = materialize_triples(ds, out, num_partitions=4)
    assert sum(s["rows"] for s in stats) == 100
    assert not os.path.isdir(os.path.join(out, "_runs"))
    got = pq.read_table(out).num_rows if os.path.isfile(out) else sum(
        pq.read_table(os.path.join(root, f)).num_rows
        for root, _, files in os.walk(out) for f in files
        if f.endswith(".parquet"))
    assert got == 100


def test_skew_split_partition_merge(ray_session, tmp_path):
    """Head-entity skew (VERDICT r4 #3): a partition whose stage-A total
    exceeds split_rows is merged by several range sub-tasks into sorted
    data-{j}.parquet files — output row-identical to the single-task path,
    manifest (rows + exact distinct_subjects) unchanged, partition dir still
    the atomic commit unit, and the file sequence stays (subj, pred)-sorted."""
    import glob
    import json as _json
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from mannheimsearchjoinsengine_ray.pipelines.kg import materialize_triples
    from mannheimsearchjoinsengine_ray.stages.materialize import read_materialized

    rng = np.random.RandomState(7)
    n = 6000
    n_head = int(n * 0.3)  # one subject = 30% of triples
    subs = (["http://x/HeadEntity"] * n_head
            + [f"http://x/E{rng.randint(0, 400)}" for _ in range(n - n_head)])
    tbl = pa.table({
        "subj": subs,
        "pred": [f"http://x/p{rng.randint(0, 5)}" for _ in range(n)],
        "obj": [f"v{rng.randint(0, 3000)}" for _ in range(n)],
        "obj_type": ["string"] * n,
        "source_url": ["u"] * n,
    })
    tbl = tbl.take(pa.array(rng.permutation(n)))

    plain, split = str(tmp_path / "plain"), str(tmp_path / "split")
    s1 = materialize_triples(rd.from_arrow(tbl).repartition(6), plain,
                             num_partitions=4, split_rows=10**9)
    s2 = materialize_triples(rd.from_arrow(tbl).repartition(6), split,
                             num_partitions=4, split_rows=500)
    assert sum(m["rows"] for m in s1) == n == sum(m["rows"] for m in s2)

    multi = [d for d in glob.glob(os.path.join(split, "part=*"))
             if len(glob.glob(os.path.join(d, "*.parquet"))) > 1]
    assert multi, "heavy partition did not split"
    assert not glob.glob(os.path.join(split, "*.tmp"))

    t1 = read_materialized(plain).to_pandas().sort_values(
        ["subj", "pred", "obj"]).reset_index(drop=True)
    t2 = read_materialized(split).to_pandas().sort_values(
        ["subj", "pred", "obj"]).reset_index(drop=True)
    assert t1.equals(t2)

    for p in range(4):
        m1 = _json.load(open(os.path.join(plain, f"manifest_part{p:05d}.json")))
        m2 = _json.load(open(os.path.join(split, f"manifest_part{p:05d}.json")))
        assert m1["rows"] == m2["rows"]
        assert m1["distinct_subjects"] == m2["distinct_subjects"]

    for d in multi:  # reading range files in name order is globally sorted
        cat = pa.concat_tables([pq.read_table(f) for f in
                                sorted(glob.glob(os.path.join(d, "*.parquet")))])
        srt = cat.sort_by([("subj", "ascending"), ("pred", "ascending")])
        assert cat.column("subj").to_pylist() == srt.column("subj").to_pylist()
