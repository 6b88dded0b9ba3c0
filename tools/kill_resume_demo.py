"""SIGKILL-mid-run resume demo (operability evidence at bench scale).

The pytest resume coverage raises a clean Python exception at a commit
(the ``crash_at`` fixture); this demo kills the WHOLE ``run_full`` driver
process group with SIGKILL while a shard is mid-flight — no atexit, no
finally blocks, no Ray shutdown — then resumes in a fresh process and
proves:

  * committed shard manifests survive and are skipped on resume
    (``shards_skipped`` > 0, the in-flight shard is recomputed);
  * the final triple set (``final/`` when phase 2 merged URIs, else the
    phase-1 partitions) is row-identical (count + order-insensitive row
    hash via DuckDB) to an uninterrupted clean run;
  * no transient state (``_runs`` staging dirs, ``*.tmp``) remains.

The Ray session gets one CPU slot per core this process may run on.  The
two output directories go under ``tempfile.gettempdir()`` (``TMPDIR``).

Usage:  python tools/kill_resume_demo.py
Prints one JSON verdict line; exit code 0 iff all assertions hold.
"""
from __future__ import annotations

import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = "/tmp/graft_pages_sf0.1_20000"
OUT_A = os.path.join(tempfile.gettempdir(), "graft_killdemo_clean")
OUT_B = os.path.join(tempfile.gettempdir(), "graft_killdemo_killed")
NUM_SHARDS = 6
CPUS = len(os.sched_getaffinity(0))

_CHILD = """
import json, sys
import ray
ray.init(address="local", num_cpus={cpus}, include_dashboard=False)
from mannheimsearchjoinsengine_ray.pipelines import kg
m = kg.run_full(sys.argv[1], sys.argv[2], num_shards={ns},
                partitions_per_shard=4)
print("METRICS " + json.dumps(m), flush=True)
ray.shutdown()
""".format(cpus=CPUS, ns=NUM_SHARDS)


def _ensure_corpus() -> None:
    if os.path.exists(CORPUS + ".complete"):
        return
    code = (
        f"import ray; ray.init(address='local', num_cpus={CPUS},"
        " include_dashboard=False)\n"
        "from mannheimsearchjoinsengine_ray.sources.pages import write_corpus\n"
        f"write_corpus({CORPUS!r}, n_pages=20000, seed=42)\n"
        "ray.shutdown()\n"
    )
    subprocess.run([sys.executable, "-c", code], cwd=REPO, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _child(out_dir: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD, CORPUS, out_dir],
        cwd=REPO, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)


def _metrics(p: subprocess.Popen) -> dict:
    out, _ = p.communicate()
    for line in out.splitlines():
        if line.startswith("METRICS "):
            return json.loads(line[len("METRICS "):])
    raise RuntimeError(f"child exited rc={p.returncode} with no METRICS line")


def _layout(out_dir: str) -> str:
    with open(os.path.join(out_dir, "final_manifest.json")) as fh:
        return json.load(fh)["layout"]


def _checksum(out_dir: str) -> tuple[int, int]:
    """Row count and row hash of the run's final triple set."""
    import duckdb
    pat = os.path.join(out_dir, "final", "part=*", "*.parquet") \
        if _layout(out_dir) == "final" \
        else os.path.join(out_dir, "shard=*", "part=*", "*.parquet")
    # hash of the row value: a NULL field still contributes (a ``||``
    # concatenation would turn the whole row NULL and drop it from the sum)
    n, h = duckdb.sql(
        "SELECT count(*), "
        "sum(hash((subj, pred, obj, obj_type, source_url)))::hugeint "
        f"FROM parquet_scan('{pat}')").fetchone()
    return int(n), int(h)


def main() -> int:
    _ensure_corpus()
    for d in (OUT_A, OUT_B):
        shutil.rmtree(d, ignore_errors=True)

    t0 = time.time()
    clean = _metrics(_child(OUT_A))
    t_clean = time.time() - t0

    # killed run: SIGKILL the whole process group ~1s after the 2nd shard
    # manifest commits — mid-shard-3, mid-materialize
    p = _child(OUT_B)
    manifest_glob = os.path.join(OUT_B, "shard_manifest_*.json")
    while len(glob.glob(manifest_glob)) < 2:
        if p.poll() is not None:
            raise RuntimeError("child finished before the kill could fire")
        time.sleep(0.05)
    time.sleep(1.0)
    if p.poll() is not None:
        raise RuntimeError("child finished before the kill could fire")
    try:
        os.killpg(p.pid, signal.SIGKILL)
    except ProcessLookupError:
        # the group exited between the poll and the kill
        raise RuntimeError("child finished before the kill could fire")
    p.wait()
    committed_at_kill = len(glob.glob(manifest_glob))
    time.sleep(3.0)  # let the killed Ray session's sockets/shm drain

    t1 = time.time()
    resumed = _metrics(_child(OUT_B))
    t_resume = time.time() - t1

    n_a, h_a = _checksum(OUT_A)
    n_b, h_b = _checksum(OUT_B)
    transients = (
        glob.glob(os.path.join(OUT_B, "**", "_runs"), recursive=True)
        + glob.glob(os.path.join(OUT_B, "**", "*.tmp"), recursive=True))

    verdict = {
        "metric": "kill_resume_demo",
        "cpus": CPUS,
        "shards": NUM_SHARDS,
        "layout": _layout(OUT_B),
        "committed_before_kill": committed_at_kill,
        "shards_skipped_on_resume": resumed["shards_skipped"],
        "shards_rerun": resumed["shards_run"],
        "rows_clean": n_a,
        "rows_resumed": n_b,
        "rows_match": n_a == n_b,
        "hash_match": h_a == h_b,
        "no_transients": not transients,
        "clean_sec": round(t_clean, 2),
        "resume_sec": round(t_resume, 2),
        "ok": (n_a == n_b and h_a == h_b and not transients
               and _layout(OUT_A) == _layout(OUT_B)
               and resumed["shards_skipped"] >= 2
               and committed_at_kill < NUM_SHARDS),
    }
    print(json.dumps(verdict))
    return 0 if verdict["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
