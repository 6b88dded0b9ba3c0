"""Session-scoped Ray fixture — init ONCE per pytest session."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_dir() -> str:
    return "/root/testdata/sf0.001"


@pytest.fixture
def exchange_path(monkeypatch):
    """Every ``bucket_map`` runs its sort exchange, however small its input
    (by default inputs up to ``DRIVER_FINAL_BYTES`` finish on the driver)."""
    from mannheimsearchjoinsengine_ray.stages import aggregates

    monkeypatch.setattr(aggregates, "DRIVER_FINAL_BYTES", -1)


@pytest.fixture
def in_process(monkeypatch):
    """Every ``aggregates.run_blocks`` pass runs in-process on the driver,
    as on a cluster of one CPU slot.  The session cluster has four, so a
    pass over several items runs as Ray tasks by default."""
    from mannheimsearchjoinsengine_ray.stages import aggregates

    monkeypatch.setattr(aggregates, "cpu_slots", lambda: 1)
