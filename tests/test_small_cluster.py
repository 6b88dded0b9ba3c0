"""The dedup and multimodal queries finish on a Ray cluster of one and of
two CPUs and hash-match their DuckDB oracles.

The session fixture's cluster has four CPUs, where a fixed-size actor pool
still leaves a slot for the tasks of the same execution; at one or two CPUs
the pool holds every slot and the execution waits forever.  Each case
therefore starts its own local cluster in a subprocess, under a hard
timeout, and checks each query the way ``test_query_matches_oracle`` does.
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


@pytest.mark.parametrize("num_cpus", [1, 2])
def test_dedup_and_multimodal_queries_finish_on_small_cluster(num_cpus,
                                                              sf_dir,
                                                              tmp_path):
    # sf0.01: the scale factor where the pooled stages stalled
    sf01 = pathlib.Path(sf_dir).with_name("sf0.01")
    if not sf01.is_dir():
        pytest.skip(f"{sf01} absent")
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO)] + [p for p in [env.get("PYTHONPATH")] if p])
    out_path, err_path = tmp_path / "stdout", tmp_path / "stderr"
    # own session, output to files: a timeout kills the driver (its cluster
    # shares its fate) and no pipe is left for a leftover process to hold
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(num_cpus), str(sf01),
             *QUERY_NAMES],
            cwd=REPO, env=env, stdout=out, stderr=err,
            start_new_session=True)
        try:
            proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    done = [json.loads(line) for line in out_path.read_text().splitlines()
            if line.startswith("{")]
    assert proc.returncode == 0, (
        f"num_cpus={num_cpus}: exit {proc.returncode} (-9: no result within "
        f"{TIMEOUT_S} s); finished: {done}\n"
        + err_path.read_text()[-4000:])
    assert [d["query"] for d in done] == QUERY_NAMES
