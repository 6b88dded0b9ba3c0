"""The dedup and multimodal queries finish on a Ray cluster of one and of
two CPUs and hash-match their DuckDB oracles, and ``run_full`` writes the
same bytes on both.

The session fixture's cluster has four CPUs, where a fixed-size actor pool
still leaves a slot for the tasks of the same execution; at one or two CPUs
the pool holds every slot and the execution waits forever.  Each case
therefore starts its own local cluster in a subprocess, under a hard
timeout, and checks each query the way ``test_query_matches_oracle`` does.
At one CPU every ``aggregates.run_blocks`` pass of ``run_full`` runs
in-process on the driver, at two as Ray tasks.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
QUERY_NAMES = ["simhash_dedup", "minhash_dedup", "ngram_jaccard_pairs",
               "embedding_neardup", "multimodal_decode", "multimodal_audio"]
TIMEOUT_S = 300

CHILD = r"""
import json, sys, time

import pandas as pd
import ray

num_cpus, sf_dir, names = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False

from mannheimsearchjoinsengine_ray.pipelines.queries import ORACLE_SQL, QUERIES
from tests.test_queries_oracle import _duck, _normalize

for name in names:
    t0 = time.perf_counter()
    got = QUERIES[name](sf_dir)
    if not isinstance(got, pd.DataFrame):
        got = got.to_pandas()
    secs = time.perf_counter() - t0
    con = _duck(sf_dir)
    want = con.execute(ORACLE_SQL[name]).df()
    con.close()
    a, b = _normalize(got), _normalize(want)
    assert list(a.columns) == list(b.columns), (name, list(a.columns),
                                                list(b.columns))
    assert len(a) == len(b), f"{name}: rows {len(a)} vs {len(b)}"
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=False,
                                  rtol=0, atol=1e-9)
    print(json.dumps({"query": name, "rows": len(a), "s": round(secs, 2)}),
          flush=True)
ray.shutdown()
"""


def _run_child(code: str, args: list[str], tmp_path) -> tuple:
    """Run ``code`` in a fresh interpreter with the repo importable, under
    ``TIMEOUT_S`` → (return code, stdout JSON lines, stderr text)."""
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO)] + [p for p in [env.get("PYTHONPATH")] if p])
    out_path, err_path = tmp_path / "stdout", tmp_path / "stderr"
    # own session, output to files: a timeout kills the driver (its cluster
    # shares its fate) and no pipe is left for a leftover process to hold
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen([sys.executable, "-c", code, *args],
                                cwd=REPO, env=env, stdout=out, stderr=err,
                                start_new_session=True)
        try:
            proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    done = [json.loads(line) for line in out_path.read_text().splitlines()
            if line.startswith("{")]
    return proc.returncode, done, err_path.read_text()


@pytest.mark.parametrize("num_cpus", [1, 2])
def test_dedup_and_multimodal_queries_finish_on_small_cluster(num_cpus,
                                                              sf_dir,
                                                              tmp_path):
    # sf0.01: the scale factor where the pooled stages stalled
    sf01 = pathlib.Path(sf_dir).with_name("sf0.01")
    if not sf01.is_dir():
        pytest.skip(f"{sf01} absent")
    code, done, err = _run_child(
        CHILD, [str(num_cpus), str(sf01), *QUERY_NAMES], tmp_path)
    assert code == 0, (
        f"num_cpus={num_cpus}: exit {code} (-9: no result within "
        f"{TIMEOUT_S} s); finished: {done}\n" + err[-4000:])
    assert [d["query"] for d in done] == QUERY_NAMES


KG_CHILD = r"""
import json, sys

import ray

num_cpus, pages, out = int(sys.argv[1]), sys.argv[2], sys.argv[3]
ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False

from mannheimsearchjoinsengine_ray.config import PipelineConfig
from mannheimsearchjoinsengine_ray.pipelines import kg

# near-label subjects merge, so phase 2 writes final/
cfg = PipelineConfig(fuzzy_min_confidence=0.45, minhash_bands=16)
m = kg.run_full(pages, out, cfg=cfg, num_shards=2, partitions_per_shard=2)
print(json.dumps({"merged_uris": m["merged_uris"], "passes": m["passes"]}),
      flush=True)
ray.shutdown()
"""


def test_run_full_same_bytes_in_process_and_as_tasks(ray_session, tmp_path):
    """``run_full`` on one corpus at one CPU (every pass in-process) and at
    two (passes over several items as tasks): the phase-1 and final
    partition files are byte-identical and the manifests equal but for
    their commit time."""
    import filecmp
    import glob

    from mannheimsearchjoinsengine_ray.sources import pages as P

    pages = str(tmp_path / "pages")
    P.write_corpus(pages, n_pages=100, seed=42, parallelism=4)
    outs = {}
    for num_cpus in (1, 2):
        out = str(tmp_path / f"out{num_cpus}")
        run_dir = tmp_path / f"child{num_cpus}"
        run_dir.mkdir()
        code, done, err = _run_child(KG_CHILD, [str(num_cpus), pages, out],
                                     run_dir)
        assert code == 0 and len(done) == 1, (
            f"num_cpus={num_cpus}: exit {code}\n" + err[-4000:])
        assert done[0]["merged_uris"] > 0
        tasks = [p["tasks"] for p in done[0]["passes"]]
        assert (max(tasks) == 0) == (num_cpus == 1), done[0]["passes"]
        outs[num_cpus] = out

    def tree(root: str, pattern: str) -> list[str]:
        return sorted(os.path.relpath(f, root) for f in
                      glob.glob(os.path.join(root, pattern), recursive=True))

    a, b = outs[1], outs[2]
    data = tree(a, "**/part=*/*.parquet")
    assert data == tree(b, "**/part=*/*.parquet")
    assert any(f.startswith("final") for f in data)
    for f in data:
        assert filecmp.cmp(os.path.join(a, f), os.path.join(b, f),
                           shallow=False), f
    manifests = tree(a, "**/*manifest*.json")
    assert manifests == tree(b, "**/*manifest*.json")
    for f in manifests:
        ma, mb = (json.loads(pathlib.Path(r, f).read_text()) for r in (a, b))
        ma.pop("completed_at", None), mb.pop("completed_at", None)
        assert ma == mb, f
