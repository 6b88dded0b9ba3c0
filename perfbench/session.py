"""The Ray cluster of one benchmark run, and one fresh Ray job per iteration.

A helper process (``python -m perfbench.session``) starts a single-node
cluster sized to ``nproc`` and holds it for the run.  Each iteration
connects the benchmark process to it as a new job.  Ray never shares worker processes
between jobs, so every iteration starts new workers and the program's
worker-lifetime memos (type guesses, shard indexes, vocabulary stats) start
empty, as they would in a new job.  The benchmark process outlives the
jobs, so its own copies of those memos are cleared too.
"""

from __future__ import annotations

import importlib
import os
import shutil
import subprocess
import sys
import time

from perfbench import trace

# the checkout root: workers import the program and this package from it
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OBJECT_STORE_BYTES = 512 << 20

# (module, attribute) of every memo that lives for a worker's lifetime
PROCESS_MEMOS = [
    ("functions.typeguess", "_GUESS_MEMO"),
    ("stages.link", "_WORKER_SHARD_IDX"),
    ("stages.link", "_WORKER_CORES"),
    ("stages.link", "_WORKER_STATES"),
    ("stages.canonicalize", "_BLOCKER_CACHE"),
    ("state.index", "_VOCAB_CACHE"),
]

WARM_MODULES = ["pipelines.kg", "pipelines.queries", "stages.link",
                "stages.canonicalize", "state.index"]


def nproc() -> int:
    """Usable CPUs as GNU ``nproc`` counts them: ``OMP_NUM_THREADS`` when
    set, else the CPU affinity mask."""
    omp = os.environ.get("OMP_NUM_THREADS", "")
    if omp.isdigit() and int(omp) > 0:
        return int(omp)
    return len(os.sched_getaffinity(0))


def ray_temp_dir() -> str | None:
    """A session directory inside the checkout when its socket paths fit
    the 107-byte AF_UNIX limit (session name + socket name take ~64 bytes),
    else None for Ray's default."""
    path = os.path.join(ROOT, ".rt")
    return path if len(path) <= 42 else None


def clear_process_memos() -> None:
    for mod_name, attr in PROCESS_MEMOS:
        memo = getattr(importlib.import_module(f"{trace.PKG}.{mod_name}"),
                       attr, None)
        if memo is not None:
            memo.clear()


def warm_batch(batch):
    """Worker warm-up: import the program's modules once per worker, so the
    timed call does not pay for them."""
    for m in WARM_MODULES:
        importlib.import_module(f"{trace.PKG}.{m}")
    return batch


class Cluster:
    """The run's Ray cluster, held by a helper process until ``close``."""

    def __init__(self):
        """Launch the helper; ``wait_ready`` blocks until the cluster is up,
        so the caller can do other work while it starts."""
        paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([ROOT] + paths))
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, "-m", "perfbench.session"],
                                     cwd=ROOT, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.address = None

    def wait_ready(self) -> None:
        for line in self.proc.stdout:
            if line.startswith(_READY):
                self.address = line[len(_READY):].strip()
                break
        if self.address is None:
            self.close()
            raise RuntimeError("the Ray cluster helper exited before it was ready")
        self.start_s = time.perf_counter() - self.t0
        self.baseline = set(_descendants())

    def close(self) -> None:
        """Stop the cluster and wait until every one of its processes has
        ended (they outlive the helper as orphans if it dies first)."""
        pids = _descendants()
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        wait_gone(pids)
        temp = ray_temp_dir()
        if temp:
            shutil.rmtree(temp, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def start_job(self, span_dir: str | None = None) -> None:
        """Connect as a new job and warm one worker per CPU; with
        ``span_dir`` every worker of the job installs the span wrappers."""
        import ray
        import ray.data as rd
        from ray.data import DataContext

        clear_process_memos()
        warm_batch(None)  # the program's modules in this process too
        kwargs = dict(address=self.address, logging_level="ERROR",
                      log_to_driver=False)
        if span_dir:
            kwargs["runtime_env"] = {
                "worker_process_setup_hook": "perfbench.trace.install_worker",
                "env_vars": {trace.SPAN_DIR_ENV: span_dir}}
        ray.init(**kwargs)
        DataContext.get_current().enable_progress_bars = False
        n = nproc()
        rd.range(n, override_num_blocks=n).map_batches(
            warm_batch, batch_format="pyarrow").materialize()

    def end_job(self, timeout_s: float = 5.0) -> None:
        """Disconnect, then wait until the processes the job started have
        exited.  One that outlives the wait is a long-lived cluster process
        and joins the baseline."""
        import ray

        ray.shutdown()
        started = set(_descendants()) - self.baseline
        deadline = time.monotonic() + timeout_s
        while any(_alive(p) for p in started) and time.monotonic() < deadline:
            time.sleep(0.05)
        self.baseline = set(_descendants())


_READY = "perfbench-ray-cluster "


def _descendants() -> list[int]:
    from perfbench import procstat

    me = os.getpid()
    return [p for p in procstat.tree() if p != me and not procstat.is_zombie(p)]


def serve() -> None:
    """Helper-process body: start the cluster, run one Dataset so Ray Data's
    long-lived actors exist before the first timed job, print the address
    and hold the cluster until stdin closes."""
    import ray
    import ray.data as rd
    from ray.data import DataContext

    kwargs = dict(address="local", num_cpus=nproc(), include_dashboard=False,
                  logging_level="ERROR", log_to_driver=False,
                  object_store_memory=OBJECT_STORE_BYTES)
    temp = ray_temp_dir()
    if temp:
        kwargs["_temp_dir"] = temp
    ray.init(**kwargs)
    DataContext.get_current().enable_progress_bars = False
    rd.range(1).materialize()
    print(_READY + ray.get_runtime_context().gcs_address, flush=True)
    sys.stdin.read()
    ray.shutdown()


def _alive(pid: int) -> bool:
    from perfbench import procstat

    return os.path.exists(f"/proc/{pid}") and not procstat.is_zombie(pid)


def wait_gone(pids, timeout_s: float = 30.0) -> None:
    """Wait until every process in ``pids`` has ended; kill the ones still
    alive after ``timeout_s`` and wait for those too."""
    import signal

    deadline = time.monotonic() + timeout_s
    while True:
        left = [p for p in pids if _alive(p)]
        if not left:
            return
        if time.monotonic() > deadline:
            for p in left:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + timeout_s
        time.sleep(0.1)


if __name__ == "__main__":
    serve()
