"""Exercise run_full's NON-identity canonicalization path: a permissive
fuzzy threshold + wider banding makes near-label subjects merge, forcing the
URI-rewrite + final-materialize branch."""

from __future__ import annotations

import json
import os

import pytest

from mannheimsearchjoinsengine_ray.config import PipelineConfig
from mannheimsearchjoinsengine_ray.pipelines import kg
from mannheimsearchjoinsengine_ray.sources import pages as P


def test_run_full_merge_path(ray_session, tmp_path):
    corpus = str(tmp_path / "corpus")
    P.write_corpus(corpus, n_pages=80, seed=42, parallelism=2)
    out = str(tmp_path / "out")
    # entity labels share 2-of-3 tokens constantly ("red river 12" vs
    # "red river 120"): jaccard ~0.5, so threshold 0.45 with r=4 banding
    # produces a non-empty sameAs mapping
    cfg = PipelineConfig(fuzzy_min_confidence=0.45, minhash_bands=16)
    m = kg.run_full(corpus, out, cfg=cfg, num_shards=1, partitions_per_shard=2)
    assert m.get("merged_uris", 0) > 0

    with open(os.path.join(out, "final_manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["layout"] == "final"
    assert manifest["merged_uris"] == m["merged_uris"]

    # the final dir holds the full rewritten triple set
    import ray.data as rd

    final_files = []
    final_dir = os.path.join(out, "final")
    for d in sorted(os.listdir(final_dir)):
        if d.startswith("part="):
            pd_dir = os.path.join(final_dir, d)
            final_files.extend(os.path.join(pd_dir, f)
                               for f in os.listdir(pd_dir) if f.endswith(".parquet"))
    final = rd.read_parquet(final_files)
    assert final.count() == m["final_rows"] == m["triples"]
    # merged subjects no longer appear
    phase1 = kg.read_output(out).to_pandas()
    final_df = final.to_pandas()
    assert final_df["subj"].nunique() < phase1["subj"].nunique()


def test_apply_mapping_broadcast_vs_join_equivalence(ray_session, tmp_path,
                                                     force_site):
    """The guard forced both ways: broadcast rewrite and the co-partitioned
    join rewrite must produce identical triple sets on real pipeline
    triples with a real (non-identity) mapping."""
    import pandas as pd

    from mannheimsearchjoinsengine_ray.stages import canonicalize as C

    corpus = str(tmp_path / "corpus_eq")
    P.write_corpus(corpus, n_pages=40, seed=42, parallelism=2)
    triples = kg.pages_to_triples(corpus).materialize()
    cfg = PipelineConfig(fuzzy_min_confidence=0.45, minhash_bands=16)
    mapping = C.build_canonical_mapping(triples, cfg)
    assert mapping  # non-identity

    def normed(ds):
        df = ds.to_pandas()[["subj", "pred", "obj", "obj_type", "source_url"]]
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    bcast = normed(C.apply_canonical_mapping(triples, mapping))
    force_site("canonicalize.mapping", False)
    joined = normed(C.apply_canonical_mapping(triples, mapping,
                                              bucket_count=4))
    pd.testing.assert_frame_equal(bcast, joined)
    # rewritten subjects actually changed
    assert not set(mapping) & set(joined["subj"])


def _read_final(out: str):
    import ray.data as rd

    final_files = []
    final_dir = os.path.join(out, "final")
    for d in sorted(os.listdir(final_dir)):
        if d.startswith("part="):
            pd_dir = os.path.join(final_dir, d)
            final_files.extend(os.path.join(pd_dir, f)
                               for f in os.listdir(pd_dir)
                               if f.endswith(".parquet"))
    return rd.read_parquet(final_files)


def test_run_full_mapping_dataset_native_equivalence(ray_session, tmp_path,
                                                     force_site):
    """The label and mapping guards forced both ways: the driver path and
    the Dataset-native path (kg.labels and kg.mapping False -> edge Dataset
    -> distributed CC -> (uri, canon) Dataset -> join rewrite, no driver
    mapping anywhere) must produce identical final triple sets and merge
    counts."""
    import pandas as pd

    corpus = str(tmp_path / "corpus_native")
    P.write_corpus(corpus, n_pages=60, seed=42, parallelism=2)
    cfg = PipelineConfig(fuzzy_min_confidence=0.45, minhash_bands=16)

    out_dict = str(tmp_path / "out_dict")
    m1 = kg.run_full(corpus, out_dict, cfg=cfg, num_shards=1,
                     partitions_per_shard=2)
    out_ds = str(tmp_path / "out_ds")
    force_site("kg.labels", False)
    force_site("kg.mapping", False)
    m2 = kg.run_full(corpus, out_ds, cfg=cfg, num_shards=1,
                     partitions_per_shard=2)

    assert m1["merged_uris"] > 0
    assert m2["merged_uris"] == m1["merged_uris"]
    cols = ["subj", "pred", "obj", "obj_type", "source_url"]
    a = _read_final(out_dict).to_pandas()[cols] \
        .sort_values(cols).reset_index(drop=True)
    b = _read_final(out_ds).to_pandas()[cols] \
        .sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
